"""Standardized skewed Student-t innovation law (Fernandez-Steel skewing).

All functions work on the zero-mean unit-variance variable. The skew
parameter xi > 0 tilts mass between the two half-lines (xi = 1 is the
symmetric standardized Student-t); nu > 2 so the variance is finite.
"""

from __future__ import annotations

import numpy as np

from .kernels import special


def _check_params(nu: float, xi: float) -> None:
    if not nu > 2:
        raise ValueError(f"tail parameter nu must be > 2, got {nu}")
    if not xi > 0:
        raise ValueError(f"skew parameter xi must be > 0, got {xi}")


def _std_t_scale(nu: float) -> float:
    # Student-t with nu df has variance nu/(nu-2); divide by this to get unit variance.
    return np.sqrt(nu / (nu - 2.0))


def student_t_logpdf(z, nu):
    """Log-density of the unit-variance Student-t (the xi = 1 special case),
    in closed form; nu broadcasts as in skewt_logpdf.

    This is scipy's t.logpdf(z * c, nu) + log(c) with c = sqrt(nu / (nu - 2))
    folded in, without the per-call overhead of a scipy distribution. The
    normalizing constant log Gamma((nu+1)/2) - log Gamma(nu/2) is taken as
    log poch(nu/2, 1/2), as scipy does, which keeps it accurate for large nu.
    """
    z = np.asarray(z, dtype=float)
    return (np.log(special().poch(0.5 * nu, 0.5)) - 0.5 * np.log((nu - 2.0) * np.pi)
            - 0.5 * (nu + 1.0) * np.log1p(z * z / (nu - 2.0)))


def _fs_constants(nu, xi):
    """Mean and std of the unstandardized Fernandez-Steel variable.

    m1 is the absolute first moment of the unit-variance Student-t. The
    squares are float_power's, which calls the C library's pow on arrays
    and scalars alike, as ** does on a Python float. numpy's ** and square
    round an array's exact square, which differs in the last bit about once
    in a thousand.
    """
    m1 = 2.0 * np.sqrt(nu - 2.0) / (nu - 1.0) / special().beta(nu / 2.0, 0.5)
    mean = m1 * (xi - 1.0 / xi)
    m1_2, xi_2 = np.float_power(m1, 2.0), np.float_power(xi, 2.0)
    var = (1.0 - m1_2) * (xi_2 + 1.0 / xi_2) + 2.0 * m1_2 - 1.0
    return mean, np.sqrt(var)


def skewt_logpdf(z, nu, xi):
    """Log-density at z. nu and xi are scalars, or arrays that broadcast
    against z, such as (m, 1) columns over an (m, T) block. They are not
    checked: numpy values outside nu > 2, xi > 0 give nan or inf."""
    z = np.asarray(z, dtype=float)
    mean, sd = _fs_constants(nu, xi)
    w = sd * z + mean  # unstandardized coordinate
    # unit-variance t log-density evaluated at w/xi (right) or w*xi (left)
    arg = np.where(w >= 0, w / xi, w * xi)
    out = np.log(2.0 / (xi + 1.0 / xi)) + student_t_logpdf(arg, nu) + np.log(sd)
    return out if out.ndim else float(out)


def skewt_pdf(z, nu: float, xi: float):
    _check_params(nu, xi)
    return np.exp(skewt_logpdf(z, nu, xi))


def skewt_cdf(z, nu: float, xi: float):
    _check_params(nu, xi)
    z = np.asarray(z, dtype=float)
    mean, sd = _fs_constants(nu, xi)
    w = sd * z + mean
    c = _std_t_scale(nu)
    lo = 2.0 / (1.0 + xi**2) * special().stdtr(nu, w * xi * c)
    hi = 1.0 / (1.0 + xi**2) + 2.0 * xi**2 / (1.0 + xi**2) * (special().stdtr(nu, w / xi * c) - 0.5)
    out = np.where(w < 0, lo, hi)
    return out if out.ndim else float(out)


def skewt_quantile(p, nu: float, xi: float):
    """Inverse CDF via the closed-form piecewise inversion of the skewing."""
    _check_params(nu, xi)
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("probability must lie strictly inside (0, 1)")
    mean, sd = _fs_constants(nu, xi)
    c = _std_t_scale(nu)
    p0 = 1.0 / (1.0 + xi**2)  # mass left of the mode-side split point w = 0
    w_lo = special().stdtrit(nu, (1.0 + xi**2) * p / 2.0) / (xi * c)
    w_hi = special().stdtrit(nu, (p - p0) * (1.0 + xi**2) / (2.0 * xi**2) + 0.5) * xi / c
    w = np.where(p < p0, w_lo, w_hi)
    out = (w - mean) / sd
    return out if out.ndim else float(out)


def normal_logpdf(z):
    z = np.asarray(z, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi) + z**2)
