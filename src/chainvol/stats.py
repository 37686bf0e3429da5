"""Returns, losses, standardized OLS and conditional loss-density moments."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSeriesError, ValidationError
from .ingest import PriceSeries
from .kernels import special

# gaussian_kde_grid's grid: its points, and its margin in bandwidths on each
# side of the sample
KDE_POINTS = 256
KDE_PAD = 3.0


@dataclass
class OlsReport:
    names: list[str]
    coef: np.ndarray
    se: np.ndarray
    t_value: np.ndarray
    p_value: np.ndarray
    n: int
    k: int

    def stars(self, idx: int) -> str:
        p = self.p_value[idx]
        if p < 0.001:
            return "***"
        if p < 0.01:
            return "**"
        if p < 0.05:
            return "*"
        return ""

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "coefficients": [
                {
                    "name": self.names[i],
                    "estimate": float(self.coef[i]),
                    "std_error": float(self.se[i]),
                    "t_value": float(self.t_value[i]),
                    "p_value": float(self.p_value[i]),
                    "stars": self.stars(i),
                }
                for i in range(len(self.names))
            ],
        }


@dataclass
class DensityMoments:
    """Mean, standard deviation, skewness and raw kurtosis (Gaussian = 3)."""

    mean: float
    std_dev: float
    skewness: float
    kurtosis: float
    n: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "std_dev": self.std_dev,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
        }


class Tail(Enum):
    LOWER = "lower"
    UPPER = "upper"


def log_returns(prices: PriceSeries) -> np.ndarray:
    """r[t] = ln(P[t+1]/P[t]), labelled by the day of P[t]: one shorter than
    the price series."""
    if len(prices) < 2:
        raise DegenerateSeriesError("need at least 2 prices for returns")
    p = np.asarray(prices.close, dtype=float)
    return np.log(p[1:] / p[:-1])


def standardize(x) -> np.ndarray:
    """Center and scale by the sample (n-1 denominator) standard deviation."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DegenerateSeriesError("need at least 2 observations to standardize")
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    if std == 0.0:
        raise DegenerateSeriesError("zero-variance series cannot be standardized")
    return (x - mean) / std


def ols_fit(y, X, names) -> OlsReport:
    """Classical OLS with an intercept, homoskedastic standard errors and
    Student-t p-values.

    p-values use n - k - 1 degrees of freedom where k counts the non-intercept
    regressors.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    X = np.column_stack([np.ones(n), X])
    names = ["(Intercept)"] + list(names)
    n_params = X.shape[1]
    if n <= n_params:
        raise DegenerateSeriesError(f"{n} observations for {n_params} parameters")
    rank = np.linalg.matrix_rank(X)
    if rank < n_params:
        # identify an offending column by dropping one at a time
        for j in range(n_params):
            others = np.delete(X, j, axis=1)
            if np.linalg.matrix_rank(others) == rank:
                raise ValidationError(f"rank-deficient design: column {names[j]!r} is redundant")
        raise ValidationError("rank-deficient design matrix")
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = n - k - 1
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):  # se == 0 on perfect fits
        t_value = coef / se
    p_value = 2.0 * special().stdtr(dof, -np.abs(t_value))
    return OlsReport(names, coef, se, t_value, p_value, n, k)


def empirical_quantile(x, q: float) -> float:
    """Order-statistic quantile with linear interpolation (type 7, h = (n-1)q + 1)."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DegenerateSeriesError("quantile of empty series")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction {q} outside [0, 1]")
    xs = np.sort(x)
    h = (x.size - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, x.size - 1)
    frac = h - lo
    return float(xs[lo] + frac * (xs[hi] - xs[lo]))


def moments(x) -> DensityMoments:
    """Four sample moments with population (n) denominators; kurtosis is raw."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DegenerateSeriesError("need at least 2 observations for moments")
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d**2))
    if m2 <= 0.0 or m2**1.5 == 0.0:  # exact zero or underflow
        raise DegenerateSeriesError("zero-variance sample")
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    return DensityMoments(mean, np.sqrt(m2), m3 / m2**1.5, m4 / m2**2, int(x.size))


def conditional_moments(L, c, alpha: float, tail: Tail) -> DensityMoments:
    """Moments of losses on days where the conditioning series is in its tail.

    Selection is strict: c < q_c(alpha) for LOWER, c > q_c(1 - alpha) for
    UPPER, with the type-7 empirical quantile of c. L is expected to be
    standardized over the full sample by the caller.
    """
    L = np.asarray(L, dtype=float)
    c = np.asarray(c, dtype=float)
    if L.shape != c.shape:
        raise ValidationError(f"length mismatch: {L.shape} vs {c.shape}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"tail fraction must be in (0, 0.5), got {alpha}")
    if tail is Tail.LOWER:
        mask = c < empirical_quantile(c, alpha)
    else:
        mask = c > empirical_quantile(c, 1.0 - alpha)
    selected = L[mask]
    if selected.size < 4:
        raise DegenerateSeriesError(
            f"only {selected.size} observations in the {tail.value} tail subsample"
        )
    return moments(selected)


def silverman_bandwidth(x) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5), with a fallback when IQR is zero."""
    x = np.asarray(x, dtype=float)
    sd = float(np.std(x, ddof=1))
    iqr = empirical_quantile(x, 0.75) - empirical_quantile(x, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0:
        raise DegenerateSeriesError("zero-spread sample for bandwidth selection")
    return 0.9 * spread * x.size ** (-0.2)


def gaussian_kde_grid(x):
    """Gaussian kernel density on an evenly spaced grid, Silverman bandwidth."""
    x = np.asarray(x, dtype=float)
    h = silverman_bandwidth(x)
    grid = np.linspace(x.min() - KDE_PAD * h, x.max() + KDE_PAD * h, KDE_POINTS)
    z = (grid[:, None] - x[None, :]) / h
    dens = np.exp(-0.5 * z**2).sum(axis=1) / (x.size * h * np.sqrt(2 * np.pi))
    return grid, dens
