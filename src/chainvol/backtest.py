"""Rolling VaR backtesting with Kupiec, Christoffersen and Diebold-Mariano tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FitError, NonFiniteStateError, RegressorOverflowError, ValidationError
from .garchx import ArmaGarchXParams, FitResult, ModelSpec, fit, forecast_one, innovation_quantile
from .kernels import special

CHI2_CRIT_1DF_95 = 3.841
CHI2_CRIT_2DF_95 = 5.991
DM_MIN_OBS = 10  # fewest forecast errors a Diebold-Mariano test accepts
# most days x window in one forecast_one call; past this a chunk's arrays
# outgrow the CPU caches. On a 2-core x86-64 VM a normal GARCH(1,1) block of
# 200 windows of 1000 days took a median 4.1 ms in chunks of 2**14 cells
# against 8.4 ms in one call (faster in 30 of 30 rounds), with the same bits.
BATCH_CELLS = 2**14


@dataclass
class VarSeries:
    """Daily one-step VaR forecasts and breach flags.

    var_value[t] is a positive loss threshold; a breach means the realized
    return fell below -var_value[t].
    """

    indices: np.ndarray  # positions in the input series being forecast
    var_value: np.ndarray
    realized_return: np.ndarray
    breach: np.ndarray
    sigma_forecast: np.ndarray
    refit_failures: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return int(self.var_value.size)

    @property
    def n_breaches(self) -> int:
        return int(self.breach.sum())


@dataclass
class VarBacktestReport:
    n: int
    x: int
    alpha: float
    expected: float
    lr_uc: float
    lr_uc_p: float
    lr_ind: float
    lr_cc: float
    lr_cc_p: float

    @property
    def reject_uc(self) -> bool:
        return self.lr_uc > CHI2_CRIT_1DF_95

    @property
    def reject_cc(self) -> bool:
        return self.lr_cc > CHI2_CRIT_2DF_95

    def to_dict(self) -> dict:
        return {
            "n_days": self.n,
            "alpha": self.alpha,
            "expected_breaches": self.expected,
            "expected_breaches_display": round(self.expected, 1),
            "actual_breaches": self.x,
            "lr_uc": {"statistic": self.lr_uc, "critical": CHI2_CRIT_1DF_95,
                      "p_value": self.lr_uc_p, "reject": self.reject_uc},
            "lr_cc": {"statistic": self.lr_cc, "critical": CHI2_CRIT_2DF_95,
                      "p_value": self.lr_cc_p, "reject": self.reject_cc,
                      "lr_ind": self.lr_ind},
        }


@dataclass
class DmReport:
    statistic: float
    p_value: float
    n: int
    identical: bool = False

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "p_value": self.p_value,
                "n": self.n, "loss": "quadratic", "identical": self.identical}


def _xlogy(x: float, y: float) -> float:
    """x * log(y) with the 0 * log(0) = 0 convention."""
    if x == 0.0:
        return 0.0
    return x * math.log(y)


def kupiec_test(n: int, x: int, alpha: float) -> tuple[float, float]:
    """Unconditional coverage likelihood ratio; chi-square(1) p-value."""
    if n < 1 or not 0 <= x <= n or not 0 < alpha < 1:
        raise ValidationError(f"bad kupiec inputs n={n} x={x} alpha={alpha}")
    pi_hat = x / n
    ll_null = _xlogy(n - x, 1.0 - alpha) + _xlogy(x, alpha)
    ll_alt = _xlogy(n - x, 1.0 - pi_hat) + _xlogy(x, pi_hat)
    lr = max(0.0, -2.0 * (ll_null - ll_alt))
    return lr, float(special().chdtrc(1, lr))


def christoffersen_test(breaches, alpha: float) -> tuple[float, float, float]:
    """Conditional coverage test: (LR.cc, p-value, LR.ind).

    LR.ind compares a first-order Markov breach chain against an iid
    alternative on the observed transition counts; LR.cc = LR.uc + LR.ind
    with a chi-square(2) p-value.
    """
    b = np.asarray(breaches, dtype=int)
    if b.size < 2:
        raise ValidationError("need at least 2 observations for the Christoffersen test")
    prev, curr = b[:-1], b[1:]
    n00 = int(np.sum((prev == 0) & (curr == 0)))
    n01 = int(np.sum((prev == 0) & (curr == 1)))
    n10 = int(np.sum((prev == 1) & (curr == 0)))
    n11 = int(np.sum((prev == 1) & (curr == 1)))
    n_trans = n00 + n01 + n10 + n11
    pi = (n01 + n11) / n_trans
    pi01 = n01 / (n00 + n01) if (n00 + n01) > 0 else 0.0
    pi11 = n11 / (n10 + n11) if (n10 + n11) > 0 else 0.0
    ll_iid = _xlogy(n00 + n10, 1.0 - pi) + _xlogy(n01 + n11, pi)
    ll_markov = (
        _xlogy(n00, 1.0 - pi01) + _xlogy(n01, pi01)
        + _xlogy(n10, 1.0 - pi11) + _xlogy(n11, pi11)
    )
    lr_ind = max(0.0, -2.0 * (ll_iid - ll_markov))
    lr_uc, _ = kupiec_test(b.size, int(b.sum()), alpha)
    lr_cc = lr_uc + lr_ind
    return lr_cc, float(special().chdtrc(2, lr_cc)), lr_ind


def backtest_report(n: int, x: int, alpha: float, breaches) -> VarBacktestReport:
    """Assemble the coverage-test report of n days with x breaches."""
    lr_uc, p_uc = kupiec_test(n, x, alpha)
    lr_cc, p_cc, lr_ind = christoffersen_test(breaches, alpha)
    return VarBacktestReport(
        n=n, x=x, alpha=alpha, expected=n * alpha,
        lr_uc=lr_uc, lr_uc_p=p_uc, lr_ind=lr_ind, lr_cc=lr_cc, lr_cc_p=p_cc,
    )


def var_from_forecast(mean_next, sigma_next, params: ArmaGarchXParams, spec: ModelSpec,
                      level: float):
    """Positive loss threshold: -(mean + sigma * q_level) of the innovation law.

    mean_next and sigma_next may be arrays of days under the same parameters;
    the quantile is then computed once for all of them.
    """
    if not 0 < level < 0.5:
        raise ValidationError(f"VaR tail level must be in (0, 0.5), got {level}")
    return -(mean_next + sigma_next * innovation_quantile(params, spec, level))


def rolling_backtest(
    y,
    x,
    spec: ModelSpec,
    window: int,
    refit_every: int,
    level: float,
    restarts: int,
    seed: int,
) -> VarSeries:
    """Roll one-step VaR forecasts over the series with periodic refitting.

    For each forecast day t (window <= t < T) the model estimated on the
    trailing ``window`` days is used to forecast day t's VaR; refits happen
    every ``refit_every`` forecast days and a failed refit falls back to the
    previous parameter set. ``restarts`` and ``seed`` go to every fit.
    Regressors are contemporaneous: the forecast for day t uses x[:, t].

    The days between two refit attempts form a block with one parameter
    set. Its trailing windows are sliding-window views, forecast in chunks
    of at most BATCH_CELLS days x window: one forecast_one call per chunk,
    which runs the filter one day past each window, with the refit's
    regressor standardization applied to the chunk's span at once. The
    block's VaR quantile is computed once. A forecast whose filter state is
    not finite is a NonFiniteStateError that names the day's position in y,
    and a refit whose regressor standardization overflows a
    RegressorOverflowError that names its window's positions in y.
    """
    y = np.asarray(y, dtype=float)
    T = y.size
    if T < window + 2:
        raise ValidationError(f"series of length {T} too short for window {window}")
    x = np.atleast_2d(np.asarray(x, dtype=float)) if spec.k > 0 else None

    n = T - window
    var_values = np.empty(n)
    means = np.empty(n)
    sigmas = np.empty(n)
    refit_failures = []
    current: FitResult | None = None
    chunk = max(1, BATCH_CELLS // window)
    for start in range(0, n, refit_every):
        t = window + start
        try:
            current = fit(y[t - window:t], x[:, t - window:t] if x is not None else None,
                          spec, restarts, seed)
        except FitError:
            if current is None:
                raise
            refit_failures.append(t)
        except RegressorOverflowError as exc:
            raise RegressorOverflowError(exc.column, t - window, t - 1) from None
        params = current.params
        stop = min(start + refit_every, n)
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            # the trailing windows of days window + lo .. window + hi - 1
            yw = sliding_window_view(y[lo: window + hi - 1], window)
            xw = None
            if x is not None:
                span = current.transform_x(x[:, lo: window + hi])
                # each window's regressors and those of its forecast day
                xw = sliding_window_view(span, window + 1, axis=1).transpose(1, 0, 2)
            try:
                means[lo:hi], sigmas[lo:hi] = forecast_one(params, spec, yw, xw)
            except NonFiniteStateError as exc:
                raise NonFiniteStateError(window + lo + exc.day) from None
        var_values[start:stop] = var_from_forecast(
            means[start:stop], sigmas[start:stop], params, spec, level)

    realized = y[window:].copy()
    breach = realized < -var_values
    return VarSeries(
        np.arange(window, T), var_values, realized, breach, sigmas, refit_failures,
    )


def diebold_mariano(e1, e2) -> DmReport:
    """Equal-predictive-accuracy test of one-step forecasts under quadratic loss.

    d_t = e1_t^2 - e2_t^2, whose long-run variance is its plain variance at
    horizon one. Negative statistics favor model 1.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if e1.shape != e2.shape:
        raise ValidationError(f"error series lengths differ: {e1.size} vs {e2.size}")
    n = e1.size
    if n < DM_MIN_OBS:
        raise ValidationError(f"need >= {DM_MIN_OBS} forecast errors, got {n}")
    d = e1**2 - e2**2
    dbar = float(np.mean(d))
    dc = d - dbar
    lrv = float(np.mean(dc * dc))
    if lrv <= 0:
        return DmReport(0.0, 1.0, n, identical=bool(np.allclose(d, 0.0)))
    stat = dbar / math.sqrt(lrv / n)
    p = 2.0 * float(special().ndtr(-abs(stat)))
    return DmReport(stat, p, n)
