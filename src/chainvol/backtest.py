"""Rolling VaR backtesting with Kupiec, Christoffersen and Diebold-Mariano tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import FitError, ValidationError
from .garchx import (
    ArmaGarchXParams,
    FitConfig,
    FitResult,
    ModelSpec,
    filter_model,
    fit,
    forecast_one,
    innovation_quantile,
)

CHI2_CRIT_1DF_95 = 3.841
CHI2_CRIT_2DF_95 = 5.991
DM_MIN_OBS = 10  # fewest forecast errors a Diebold-Mariano test accepts


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
    var_level: float
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

    lr_uc_crit: float = CHI2_CRIT_1DF_95
    lr_cc_crit: float = CHI2_CRIT_2DF_95

    @property
    def reject_uc(self) -> bool:
        return self.lr_uc > self.lr_uc_crit

    @property
    def reject_cc(self) -> bool:
        return self.lr_cc > self.lr_cc_crit

    def to_dict(self) -> dict:
        return {
            "n_days": self.n,
            "alpha": self.alpha,
            "expected_breaches": self.expected,
            "expected_breaches_display": round(self.expected, 1),
            "actual_breaches": self.x,
            "lr_uc": {"statistic": self.lr_uc, "critical": self.lr_uc_crit,
                      "p_value": self.lr_uc_p, "reject": self.reject_uc},
            "lr_cc": {"statistic": self.lr_cc, "critical": self.lr_cc_crit,
                      "p_value": self.lr_cc_p, "reject": self.reject_cc,
                      "lr_ind": self.lr_ind},
        }


@dataclass
class DmReport:
    statistic: float
    p_value: float
    n: int
    loss: str = "quadratic"
    identical: bool = False

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "p_value": self.p_value,
                "n": self.n, "loss": self.loss, "identical": self.identical}


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
    return lr, float(special.chdtrc(1, lr))


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
    return lr_cc, float(special.chdtrc(2, lr_cc)), lr_ind


def backtest_report(n: int, x: int, alpha: float, breaches) -> VarBacktestReport:
    """Assemble the coverage-test report of n days with x breaches."""
    lr_uc, p_uc = kupiec_test(n, x, alpha)
    lr_cc, p_cc, lr_ind = christoffersen_test(breaches, alpha)
    return VarBacktestReport(
        n=n, x=x, alpha=alpha, expected=n * alpha,
        lr_uc=lr_uc, lr_uc_p=p_uc, lr_ind=lr_ind, lr_cc=lr_cc, lr_cc_p=p_cc,
    )


def var_from_forecast(mean_next: float, sigma_next: float,
                      params: ArmaGarchXParams, spec: ModelSpec,
                      level: float) -> float:
    """Positive loss threshold: -(mean + sigma * q_level) of the innovation law."""
    if not 0 < level < 0.5:
        raise ValidationError(f"VaR tail level must be in (0, 0.5), got {level}")
    return -(mean_next + sigma_next * innovation_quantile(params, spec, level))


def rolling_backtest(
    y,
    x,
    spec: ModelSpec,
    window: int = 250,
    refit_every: int = 7,
    level: float = 0.01,
    fit_config: FitConfig | None = None,
    fixed_params: ArmaGarchXParams | None = None,
) -> VarSeries:
    """Roll one-step VaR forecasts over the series with periodic refitting.

    For each forecast day t (window <= t < T) the model estimated on the
    trailing ``window`` days is used to forecast day t's VaR; refits happen
    every ``refit_every`` forecast days and a failed refit falls back to the
    previous parameter set. With ``fixed_params`` no fitting happens at all
    (true-model evaluation) and the regressors enter unscaled.
    Regressors are contemporaneous: the forecast for day t uses x[:, t].
    """
    y = np.asarray(y, dtype=float)
    T = y.size
    if T < window + 2:
        raise ValidationError(f"series of length {T} too short for window {window}")
    fit_config = fit_config or FitConfig()
    x = np.atleast_2d(np.asarray(x, dtype=float)) if spec.k > 0 else None

    var_values = []
    sigmas = []
    refit_failures = []
    current: FitResult | None = None

    for step, t in enumerate(range(window, T)):
        lo = t - window
        # x_next keeps its column axis so transform_x applies to it unchanged
        x_hist, x_next = (x[:, lo:t], x[:, t:t + 1]) if x is not None else (None, None)
        if fixed_params is not None:
            params = fixed_params
        else:
            if current is None or step % refit_every == 0:
                try:
                    current = fit(y[lo:t], x_hist, spec, fit_config)
                except FitError:
                    if current is None:
                        raise
                    refit_failures.append(t)
            params = current.params
            if x is not None:
                x_hist, x_next = current.transform_x(x_hist), current.transform_x(x_next)
        u, sigma2 = filter_model(y[lo:t], x_hist, params, spec)
        mean_next, sigma_next = forecast_one(
            params, spec, y[lo:t], u, sigma2, x_next[:, 0] if x is not None else None
        )
        var_values.append(var_from_forecast(mean_next, sigma_next, params, spec, level))
        sigmas.append(sigma_next)

    var_values = np.array(var_values)
    realized = y[window:].copy()
    breach = realized < -var_values
    return VarSeries(
        np.arange(window, T), var_values, realized, breach, level,
        np.array(sigmas), refit_failures,
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
    p = 2.0 * float(special.ndtr(-abs(stat)))
    return DmReport(stat, p, n)
