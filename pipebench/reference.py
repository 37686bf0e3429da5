"""Independent references for every output of the pipeline, and the checks
that compare the program's outputs with them.

Nothing here imports chainvol: each reference is computed from the generated
input files with numpy and scipy alone. Every check raises ``CheckFailed``
with the first difference it finds.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import re

import numpy as np
from scipy import special
from scipy import stats as sps

SECONDS_PER_DAY = 86400
SATOSHI_PER_BTC = 10**8
SIGMA2_MIN = 1e-12
FEATURES = ("A_l", "A_r", "A_x", "O_l", "O_r", "O_x")


class CheckFailed(Exception):
    """An output of the program differs from the benchmark's reference."""


class UnattainedLoglik(CheckFailed):
    """A fit reports a higher log-likelihood than its returned parameters attain.

    garchx.fit reports L-BFGS-B's ``res.fun`` but returns ``res.x``; after an
    abnormal line-search end the two come from different points.
    """


def assert_close(name, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != reference {want.shape}")
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if np.any(bad):
        k = int(np.flatnonzero(bad.reshape(-1))[0])
        raise CheckFailed(
            f"{name}: element {k} is {got.reshape(-1)[k]!r}, reference {want.reshape(-1)[k]!r}"
        )


# --- ingest and chainlets ---------------------------------------------------

def read_transactions(path) -> np.ndarray:
    """(n, 4) int64 rows of the transaction file, comment lines dropped."""
    return np.loadtxt(path, delimiter=",", comments="#", dtype=np.int64, ndmin=2)


class Matrices:
    """Day x i x j occurrence counts and satoshi sums of a transaction file."""

    def __init__(self, rows: np.ndarray, n: int):
        coinbase = rows[:, 1] == 0
        tx = rows[~coinbase]
        day = tx[:, 0] // SECONDS_PER_DAY
        d0 = int(day.min())
        self.n = n
        self.n_days = int(day.max()) - d0 + 1
        self.first = dt.date(1970, 1, 1) + dt.timedelta(days=d0)
        self.n_tx = int(tx.shape[0])
        self.n_coinbase = int(coinbase.sum())
        i = np.minimum(tx[:, 1], n) - 1
        j = np.minimum(tx[:, 2], n) - 1
        key = ((day - d0) * n + i) * n + j
        size = self.n_days * n * n
        self.occurrence = np.bincount(key, minlength=size).astype(np.int64).reshape(-1, n, n)
        amount = np.zeros(size, dtype=np.int64)
        np.add.at(amount, key, tx[:, 3])
        self.amount = amount.reshape(-1, n, n)
        self.dates = [(self.first + dt.timedelta(days=d)).isoformat() for d in range(self.n_days)]


def read_matrix_file(path, n: int) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.split(" ", 1) for line in fh.read().splitlines() if line.strip()]
    dates = [d for d, _ in lines]
    values = np.array(" ".join(rest for _, rest in lines).split(), dtype=np.int64)
    return dates, values.reshape(len(dates), n, n)


def check_matrix_file(path, want: np.ndarray, dates: list[str], label: str) -> None:
    got_dates, got = read_matrix_file(path, want.shape[1])
    if got_dates != dates:
        raise CheckFailed(f"{label}: dates {got_dates[:1]}..{got_dates[-1:]} != {dates[:1]}..{dates[-1:]}")
    diff = np.argwhere(got != want)
    if diff.size:
        d, i, j = diff[0]
        raise CheckFailed(
            f"{label}: {dates[d]} cell ({i + 1}, {j + 1}) is {got[d, i, j]}, reference {want[d, i, j]}"
        )


def check_extract(ref: Matrices, occ_path, amo_path, stdout: str) -> None:
    """Matrix files equal the reference exactly; the summary line counts right."""
    check_matrix_file(occ_path, ref.occurrence, ref.dates, "occurrence")
    check_matrix_file(amo_path, ref.amount, ref.dates, "amount")
    m = re.search(r"(\d+) days .*?, (\d+) transactions, (\d+) coinbase skipped", stdout)
    if m is None:
        raise CheckFailed(f"extract summary line missing from {stdout!r}")
    got = tuple(int(g) for g in m.groups())
    want = (ref.n_days, ref.n_tx, ref.n_coinbase)
    if got != want:
        raise CheckFailed(f"extract summary (days, transactions, coinbase) {got} != {want}")


def reference_features(ref: Matrices, closes: np.ndarray) -> np.ndarray:
    """(days, 6) features in FEATURES order; ``closes[d]`` is day d's close."""
    n = ref.n
    occ, amo = ref.occurrence, ref.amount
    o_l = occ[:, n - 1, :].sum(axis=1)
    o_r = occ[:, : n - 1, n - 1].sum(axis=1)
    sat_l = amo[:, n - 1, :].sum(axis=1)
    sat_r = amo[:, : n - 1, n - 1].sum(axis=1)
    tot_o = occ.sum(axis=(1, 2))
    tot_a = amo.sum(axis=(1, 2))
    price = np.asarray(closes[: ref.n_days], dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        o_x = np.where(tot_o > 0, (o_l + o_r) / tot_o, 0.0)
        a_x = np.where(tot_a > 0, (sat_l + sat_r) / tot_a, 0.0)
    return np.column_stack([
        sat_l * price / SATOSHI_PER_BTC, sat_r * price / SATOSHI_PER_BTC, a_x, o_l, o_r, o_x,
    ])


def read_feature_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "date," + ",".join(FEATURES):
        raise CheckFailed(f"{path}: unexpected header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:] if line]
    return [r[0] for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])


def check_features(path, ref: Matrices, closes: np.ndarray) -> None:
    """The feature CSV matches features recomputed from the reference matrices."""
    dates, got = read_feature_csv(path)
    if dates != ref.dates:
        raise CheckFailed(f"feature dates {dates[:1]}..{dates[-1:]} != matrix days")
    want = reference_features(ref, closes)
    assert_close("O_l, O_r", got[:, 3:5], want[:, 3:5], rtol=0.0)
    assert_close("A_l, A_r, A_x, O_x", got[:, [0, 1, 2, 5]], want[:, [0, 1, 2, 5]], rtol=1e-12)


# --- analysis ---------------------------------------------------------------

def log_returns(closes: np.ndarray) -> np.ndarray:
    """r[t] = ln(P[t+1] / P[t]), dated by day t."""
    closes = np.asarray(closes, dtype=float)
    return np.log(closes[1:] / closes[:-1])


def _zscore(v):
    v = np.asarray(v, dtype=float)
    return (v - v.mean()) / v.std(ddof=1)


def check_ols(report: dict, X: np.ndarray, r: np.ndarray) -> None:
    """Coefficients and standard errors agree with ``lstsq`` on z-scored data."""
    y = _zscore(r * r)
    A = np.column_stack([np.ones(len(y))] + [_zscore(X[:, j]) for j in range(X.shape[1])])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    s2 = resid @ resid / (len(y) - A.shape[1])
    se = np.sqrt(s2 * np.diag(np.linalg.inv(A.T @ A)))
    rows = report["coefficients"]
    if [c["name"] for c in rows] != ["(Intercept)", *FEATURES] or report["n"] != len(y):
        raise CheckFailed(f"OLS report names/n {[c['name'] for c in rows]}, {report['n']}")
    assert_close("OLS estimates", [c["estimate"] for c in rows], coef, rtol=1e-7, atol=1e-9)
    assert_close("OLS std errors", [c["std_error"] for c in rows], se, rtol=1e-7)


def _moments(v) -> dict:
    return {
        "n": v.size,
        "mean": float(np.mean(v)),
        "std_dev": float(np.sqrt(sps.moment(v, 2))),
        "skewness": float(sps.skew(v)),
        "kurtosis": float(sps.kurtosis(v, fisher=False)),
    }


def reference_moments(X: np.ndarray, r: np.ndarray, alpha: float) -> dict:
    loss = _zscore(-r)
    out = {"unconditional": _moments(loss)}
    for name in ("A_x", "O_x"):
        c = X[:, FEATURES.index(name)]
        out[f"{name}_lower"] = _moments(loss[c < np.quantile(c, alpha)])
        out[f"{name}_upper"] = _moments(loss[c > np.quantile(c, 1.0 - alpha)])
    return out


def check_moments(report: dict, X: np.ndarray, r: np.ndarray, alpha: float) -> None:
    """Conditional moments agree with scipy.stats on numpy.quantile tails."""
    for key, want in reference_moments(X, r, alpha).items():
        got = report.get(key)
        if got is None or got["n"] != want["n"]:
            raise CheckFailed(f"moments {key}: n {got and got['n']} != {want['n']}")
        for field in ("mean", "std_dev", "skewness", "kurtosis"):
            assert_close(f"moments {key}.{field}", got[field], want[field], rtol=1e-9, atol=1e-12)


def check_kde(path) -> None:
    """Each density curve is finite, non-negative and integrates to about 1."""
    curves: dict[str, list[tuple[float, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            name, g, d = line.split(",")
            curves.setdefault(name, []).append((float(g), float(d)))
    if set(curves) != {"unconditional", "lower", "upper"}:
        raise CheckFailed(f"{path}: curves {sorted(curves)}")
    for name, pts in curves.items():
        g, d = np.array(pts).T
        if not (np.all(np.isfinite(d)) and np.all(d >= 0) and np.all(np.diff(g) > 0)):
            raise CheckFailed(f"{path}: curve {name} has a bad grid or density")
        mass = float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(g)))
        if abs(mass - 1.0) > 0.01:
            raise CheckFailed(f"{path}: curve {name} integrates to {mass}")


# --- backtest ---------------------------------------------------------------

def chi2_sf_1(x: float) -> float:
    return math.erfc(math.sqrt(x / 2.0))


def chi2_sf_2(x: float) -> float:
    return math.exp(-x / 2.0)


def _xlogy(a: float, b: float) -> float:
    return 0.0 if a == 0 else a * math.log(b)


def coverage_statistics(breach: np.ndarray, alpha: float) -> dict:
    """Kupiec LR_uc and Christoffersen LR_ind and LR_cc in closed form."""
    b = np.asarray(breach, dtype=int)
    n, x = b.size, int(b.sum())
    pi = x / n
    lr_uc = -2.0 * (_xlogy(n - x, 1 - alpha) + _xlogy(x, alpha)
                    - _xlogy(n - x, 1 - pi) - _xlogy(x, pi))
    pairs = b[:-1] * 2 + b[1:]
    n00, n01, n10, n11 = (int(np.sum(pairs == k)) for k in range(4))
    p = (n01 + n11) / (n00 + n01 + n10 + n11)
    p01 = n01 / (n00 + n01) if n00 + n01 else 0.0
    p11 = n11 / (n10 + n11) if n10 + n11 else 0.0
    lr_ind = -2.0 * (_xlogy(n00 + n10, 1 - p) + _xlogy(n01 + n11, p)
                     - _xlogy(n00, 1 - p01) - _xlogy(n01, p01)
                     - _xlogy(n10, 1 - p11) - _xlogy(n11, p11))
    lr_uc, lr_ind = max(lr_uc, 0.0), max(lr_ind, 0.0)
    return {"n": n, "x": x, "lr_uc": lr_uc, "lr_uc_p": chi2_sf_1(lr_uc), "lr_ind": lr_ind,
            "lr_cc": lr_uc + lr_ind, "lr_cc_p": chi2_sf_2(lr_uc + lr_ind)}


def read_var_series(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "date,var,return,breach":
        raise CheckFailed(f"{path}: unexpected header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:] if line]
    dates = [r[0] for r in rows]
    var = np.array([float(r[1]) for r in rows])
    ret = np.array([float(r[2]) for r in rows])
    breach = np.array([int(r[3]) for r in rows])
    return dates, var, ret, breach


def check_var_series(path, model_report: dict, returns_by_date: dict, alpha: float) -> int:
    """Breaches, returns and coverage tests of one model; returns the number
    of forecast days whose VaR is not a positive finite loss threshold."""
    dates, var, ret, breach = read_var_series(path)
    want_ret = [returns_by_date.get(d, math.nan) for d in dates]
    assert_close(f"{path} returns", ret, want_ret, rtol=1e-12, atol=1e-15)
    flags = (ret < -var).astype(int)
    if not np.array_equal(breach, flags):
        k = int(np.flatnonzero(breach != flags)[0])
        raise CheckFailed(f"{path}: breach on {dates[k]} is {breach[k]}, return < -var says {flags[k]}")
    if model_report["actual_breaches"] != int(breach.sum()) or model_report["n_days"] != len(dates):
        raise CheckFailed(f"{path}: report counts {model_report['actual_breaches']}/"
                          f"{model_report['n_days']} != {int(breach.sum())}/{len(dates)}")
    ref = coverage_statistics(breach, alpha)
    assert_close("LR_uc", model_report["lr_uc"]["statistic"], ref["lr_uc"], rtol=1e-9, atol=1e-12)
    assert_close("LR_uc p", model_report["lr_uc"]["p_value"], ref["lr_uc_p"], rtol=1e-8)
    assert_close("LR_ind", model_report["lr_cc"]["lr_ind"], ref["lr_ind"], rtol=1e-9, atol=1e-12)
    assert_close("LR_cc", model_report["lr_cc"]["statistic"], ref["lr_cc"], rtol=1e-9, atol=1e-12)
    assert_close("LR_cc p", model_report["lr_cc"]["p_value"], ref["lr_cc_p"], rtol=1e-8)
    return int(np.sum(~(np.isfinite(var) & (var > 0))))


def check_dm(report: dict, horizon: int) -> None:
    """The Diebold-Mariano p-value is 2 (1 - Phi(|stat|))."""
    stat, p = report["statistic"], report["p_value"]
    if report["n"] != horizon:
        raise CheckFailed(f"DM n {report['n']} != horizon {horizon}")
    assert_close("DM p-value", p, math.erfc(abs(stat) / math.sqrt(2.0)), rtol=1e-9, atol=1e-15)


def check_backtest(out_dir, models, returns_by_date: dict, alpha: float,
                   horizon: int | None) -> dict[str, int]:
    """Check every model's series and report; returns failed forecast days per model."""
    with open(os.path.join(out_dir, "backtest_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if sorted(report["models"]) != sorted(models):
        raise CheckFailed(f"backtest models {sorted(report['models'])} != {sorted(models)}")
    failed = {
        m: check_var_series(os.path.join(out_dir, f"var_series_{m}.csv"),
                            report["models"][m], returns_by_date, alpha)
        for m in models
    }
    if horizon is not None:
        check_dm(report["diebold_mariano"], horizon)
    return failed


# --- model likelihood and VaR at the program's fitted parameters -------------

def filter_path(y, xvar, mu, phi, theta, alpha0, alpha1, beta):
    """Residuals and variances of the ARMA-GARCHX recursion, as plain Python.

    Pre-sample y and u are zero and the pre-sample variance is the
    population variance of y; variances are floored at SIGMA2_MIN.
    """
    y = [float(v) for v in y]
    xvar = [float(v) for v in xvar]
    phi = [float(v) for v in phi]
    theta = [float(v) for v in theta]
    s2_prev = float(np.var(y))
    u, s2 = [], []
    for t in range(len(y)):
        a = alpha0 + beta * s2_prev + xvar[t] + (alpha1 * u[t - 1] ** 2 if t else 0.0)
        s2_prev = max(a, SIGMA2_MIN)
        m = mu
        for i, c in enumerate(phi):
            if t - 1 - i >= 0:
                m += c * y[t - 1 - i]
        for j, c in enumerate(theta):
            if t - 1 - j >= 0:
                m += c * u[t - 1 - j]
        u.append(y[t] - m)
        s2.append(s2_prev)
    return np.array(u), np.array(s2)


def _t_logpdf(x, nu):
    return (special.gammaln((nu + 1) / 2) - special.gammaln(nu / 2)
            - 0.5 * np.log(nu * np.pi) - (nu + 1) / 2 * np.log1p(x * x / nu))


def _fs_moments(nu, xi):
    """Mean and sd of the Fernandez-Steel variable built on the unit-variance t."""
    m1 = (2.0 * np.sqrt(nu - 2.0) / (nu - 1.0)
          * np.exp(special.gammaln((nu + 1) / 2) - special.gammaln(nu / 2)) / np.sqrt(np.pi))
    mean = m1 * (xi - 1.0 / xi)
    return mean, np.sqrt((1.0 - m1 * m1) * (xi * xi + 1.0 / (xi * xi)) + 2.0 * m1 * m1 - 1.0)


def innovation_logpdf(z, distribution: str, nu: float, xi: float):
    z = np.asarray(z, dtype=float)
    if distribution == "normal":
        return -0.5 * (np.log(2.0 * np.pi) + z * z)
    c = np.sqrt(nu / (nu - 2.0))
    if distribution == "t":
        return _t_logpdf(z * c, nu) + np.log(c)
    mean, sd = _fs_moments(nu, xi)
    w = sd * z + mean
    arg = np.where(w >= 0, w / xi, w * xi)
    return np.log(2.0 / (xi + 1.0 / xi)) + _t_logpdf(arg * c, nu) + np.log(c) + np.log(sd)


def innovation_quantile(level: float, distribution: str, nu: float, xi: float) -> float:
    if distribution == "normal":
        return float(special.ndtri(level))
    if distribution == "t":
        xi = 1.0
    c = np.sqrt(nu / (nu - 2.0))
    mean, sd = _fs_moments(nu, xi)
    split = 1.0 / (1.0 + xi * xi)
    if level < split:
        w = special.stdtrit(nu, (1.0 + xi * xi) * level / 2.0) / (xi * c)
    else:
        w = special.stdtrit(nu, (level - split) * (1 + xi * xi) / (2 * xi * xi) + 0.5) * xi / c
    return float((w - mean) / sd)


def standardize_rows(x: np.ndarray):
    mean = x.mean(axis=1)
    sd = x.std(axis=1, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    return mean, sd


def loglik(y, x_std, params: dict, distribution: str) -> float:
    xvar = (np.asarray(params["beta_x"]) @ x_std) if params["beta_x"] else np.zeros(len(y))
    u, s2 = filter_path(y, xvar, params["mu"], params["phi"], params["theta"],
                        params["alpha0"], params["alpha1"], params["beta"])
    z = u / np.sqrt(s2)
    return float(np.sum(innovation_logpdf(z, distribution, params["nu"], params["xi"])
                        - 0.5 * np.log(s2)))


def check_fit(y, x, params: dict, distribution: str, reported_loglik: float,
              x_mean=None, x_std=None) -> None:
    """The reported log-likelihood equals the reference one at the fitted parameters."""
    x_z = None
    if params["beta_x"]:
        mean, sd = standardize_rows(np.asarray(x, dtype=float))
        assert_close("fit x_mean", x_mean, mean, rtol=1e-12, atol=1e-12)
        assert_close("fit x_std", x_std, sd, rtol=1e-12)
        x_z = (x - mean[:, None]) / sd[:, None]
    attained = loglik(y, x_z, params, distribution)
    try:
        assert_close("fit log-likelihood", reported_loglik, attained, rtol=1e-9)
    except CheckFailed as exc:
        if reported_loglik > attained:
            raise UnattainedLoglik(str(exc)) from None
        raise


def reference_var(y, x, t: int, window: int, params: dict, x_mean, x_std,
                  distribution: str, level: float) -> float:
    """VaR of day t from the trailing window at the given fitted parameters."""
    lo = t - window
    yw = np.asarray(y[lo:t], dtype=float)
    if params["beta_x"]:
        bx = np.asarray(params["beta_x"])
        xw = (x[:, lo:t] - x_mean[:, None]) / x_std[:, None]
        xvar = bx @ xw
        exog = float(bx @ ((x[:, t] - x_mean) / x_std))
    else:
        xvar, exog = np.zeros(window), 0.0
    u, s2 = filter_path(yw, xvar, params["mu"], params["phi"], params["theta"],
                        params["alpha0"], params["alpha1"], params["beta"])
    s2_next = max(params["alpha0"] + params["alpha1"] * u[-1] ** 2 + params["beta"] * s2[-1] + exog,
                  SIGMA2_MIN)
    mean = params["mu"]
    mean += sum(c * yw[-1 - i] for i, c in enumerate(params["phi"]))
    mean += sum(c * u[-1 - j] for j, c in enumerate(params["theta"]))
    q = innovation_quantile(level, distribution, params["nu"], params["xi"])
    return -(mean + math.sqrt(s2_next) * q)


def check_var_days(y, x, window: int, refit_every: int, level: float, var_values, fits) -> None:
    """Each forecast day's VaR equals the reference at the parameters in force.

    ``fits`` lists the refits in order, each ``(params, x_mean, x_std,
    distribution)`` or None for a refit that failed and kept the previous
    parameters.
    """
    y = np.asarray(y, dtype=float)
    x = None if x is None else np.atleast_2d(np.asarray(x, dtype=float))
    current, queue = None, list(fits)
    for step, t in enumerate(range(window, y.size)):
        if current is None or step % refit_every == 0:
            current = queue.pop(0) or current
        params, x_mean, x_std, distribution = current
        want = reference_var(y, x, t, window, params, x_mean, x_std, distribution, level)
        assert_close(f"VaR of day {t}", var_values[step], want, rtol=1e-8, atol=1e-12)


def ma_inverse_root_modulus(theta) -> float:
    """Largest modulus of the inverse roots of 1 + theta_1 L + ... + theta_q L^q."""
    theta = list(theta)
    if not theta:
        return 0.0
    return float(np.max(np.abs(np.roots([1.0, *theta]))))
