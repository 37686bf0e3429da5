"""ARMA(p,q)-GARCHX(1,1) model: filtering, likelihood, MLE fitting,
simulation and one-step forecasting.

Mean equation:     y_t = mu + sum_i phi_i y_{t-i} + sum_j theta_j u_{t-j} + u_t
Variance equation: sigma2_t = alpha0 + alpha1 u_{t-1}^2 + beta sigma2_{t-1}
                              + beta_x' x_t
with u_t = sigma_t z_t and z_t iid standardized innovations (normal,
Student-t or skewed Student-t). The exogenous regressors enter dated t,
contemporaneous with sigma_t, so one-step forecasts need x_{t+1}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NonFiniteStateError, RegressorOverflowError, ValidationError
from .kernels import scipy_extension, special
from .skewt import normal_logpdf, skewt_logpdf, skewt_quantile, student_t_logpdf

SIGMA2_MIN = 1e-12
PENALTY_NLL = 1e10
# fit settings: L-BFGS-B limits and the shortest series worth fitting
MAX_ITER = 500
GTOL = 1e-6
FTOL = 1e-10
MIN_OBS = 50
FD_STEP = 1e-8  # L-BFGS-B's default finite-difference step
# the rest of scipy's L-BFGS-B defaults: stored corrections, evaluations per
# line search and evaluations per run
CORRECTIONS = 10
MAX_LS = 20
MAX_FUN = 15000

DISTRIBUTIONS = ("normal", "t", "skewt")


@dataclass(frozen=True)
class ModelSpec:
    p: int = 0
    q: int = 0
    k: int = 0
    distribution: str = "skewt"

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.k < 0:
            raise ValidationError(f"orders must be non-negative: {self}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValidationError(f"unknown distribution {self.distribution!r}")


@dataclass
class ArmaGarchXParams:
    """m parameter sets as a struct of arrays, one row per set: mu, alpha0,
    alpha1, beta, nu and xi are (m,) arrays, phi, theta and beta_x
    (m, length) arrays. Scalars and 1-D coefficient lists make one row."""

    mu: np.ndarray = 0.0
    phi: np.ndarray = ()
    theta: np.ndarray = ()
    alpha0: np.ndarray = 1e-6
    alpha1: np.ndarray = 0.05
    beta: np.ndarray = 0.90
    beta_x: np.ndarray = ()
    nu: np.ndarray = 8.0
    xi: np.ndarray = 1.0

    def __post_init__(self):
        for name in ("mu", "alpha0", "alpha1", "beta", "nu", "xi"):
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        for name in ("phi", "theta", "beta_x"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))

    def __len__(self) -> int:
        return self.mu.size

    def is_valid(self) -> np.ndarray:
        """The parameter invariants of every row, as a boolean (m,) array:
        alpha0 > 0, alpha1 >= 0, beta >= 0, alpha1 + beta < 1, nu > 2, xi > 0
        and every mean and regressor coefficient finite."""
        coefficients = np.column_stack((self.mu, self.phi, self.theta, self.beta_x))
        return ((self.alpha0 > 0) & (self.alpha1 >= 0) & (self.beta >= 0)
                & (self.alpha1 + self.beta < 1) & (self.nu > 2) & (self.xi > 0)
                & np.isfinite(coefficients).all(axis=1))

    def to_dict(self) -> dict:
        """The fields of a one-row set, as floats and lists of floats."""
        return {
            "mu": self.mu.item(),
            "phi": self.phi[0].tolist(),
            "theta": self.theta[0].tolist(),
            "alpha0": self.alpha0.item(),
            "alpha1": self.alpha1.item(),
            "beta": self.beta.item(),
            "beta_x": self.beta_x[0].tolist(),
            "nu": self.nu.item(),
            "xi": self.xi.item(),
        }


def _check_orders(params, spec: ModelSpec) -> None:
    """A ValidationError when the length of phi, theta or beta_x of params is
    not its order in spec."""
    for name, order, value in (("phi", "p", spec.p), ("theta", "q", spec.q),
                               ("beta_x", "k", spec.k)):
        length = getattr(params, name).shape[-1]
        if length != value:
            raise ValidationError(f"{name} has length {length}, but the spec has {order}={value}")


def _groups(keys) -> list:
    """Groups of rows of the 2-D array keys as (first row, index) pairs: a
    slice over all rows when all have row 0's bits, else the rows with row
    0's bits, then each other row alone, as arrays. Each stack fit builds
    differs from its row 0 in one coordinate a row; other callers pass one row."""
    if len(keys) > 1:
        bits = np.ascontiguousarray(keys, dtype=float).view(np.int64)
        same = (bits == bits[:1]).all(axis=1)
        if not same.all():
            return [(0, np.flatnonzero(same))] + [
                (i, np.array([i])) for i in np.flatnonzero(~same).tolist()]
    return [(0, slice(None))]


@dataclass
class FitResult:
    spec: ModelSpec
    params: ArmaGarchXParams
    loglik: float
    converged: bool
    iterations: int
    x_mean: np.ndarray
    x_std: np.ndarray

    def transform_x(self, x) -> np.ndarray:
        """Apply the standardization recorded at fit time to raw regressors. A
        value that overflows becomes inf, which forecast_one reports."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore"):
            return (x - self.x_mean[:, None]) / self.x_std[:, None]


def _xvar(x, beta_x, T: int) -> np.ndarray:
    """Exogenous variance contribution beta_x' x_t as a length-T vector, or
    as an (m, T) block when x stacks m regressor matrices."""
    if beta_x.size == 0:
        return np.zeros(T)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != T:
        raise ValidationError(f"regressor matrix has {x.shape[-1]} columns, need {T}")
    if x.shape[-2] != beta_x.size:
        raise ValidationError(f"{x.shape[-2]} regressor rows vs {beta_x.size} coefficients")
    return beta_x @ x


# the numerator of every filter: the recursions are all-pole
_B = np.ones(1)


@functools.cache
def _linear_filter():
    """scipy.signal._sigtools._linear_filter, the C kernel that lfilter calls
    unchanged for every denominator longer than [1].
    tests/test_row_batches.py::test_kernel_matches_lfilter guards the
    private name against lfilter.
    """
    return scipy_extension("signal", "_sigtools")._linear_filter


def _lfilter_rows(lags, x, zi=None):
    """lfilter([1], [1, *lags[r]], x[r]) on every row r of x, starting from
    state zi[r]: one 2-D kernel call per group of _groups(lags)."""
    if lags.shape[1] == 0:
        # a denominator of [1] leaves x as it is; lfilter would get there
        # through np.convolve on each row
        return x
    linear_filter = _linear_filter()
    groups = _groups(lags)
    out = np.empty_like(x) if len(groups) > 1 else None
    for first, rows in groups:
        a = np.concatenate(([1.0], lags[first]))
        if zi is None:
            filtered = linear_filter(_B, a, x[rows], -1)
        else:
            filtered = linear_filter(_B, a, x[rows], -1, zi[rows])[0]
        if out is None:
            return filtered
        out[rows] = filtered
    return out


def filter_model(y, x, params: ArmaGarchXParams, spec: ModelSpec, sigma2_init):
    """Return (residuals u, conditional variances sigma2) for an observed path,
    each an (m, T) array.

    Initialization: pre-sample y and u are zero, pre-sample variance is
    sigma2_init (a float, or one per window), or with None the sample
    variance of each series.

    With the parameters fixed, both recursions are linear filters. The MA
    inversion is u = e / (1 + theta(L)) of the AR residuals
    e_t = y_t - mu - sum_i phi_i y_{t-1-i}. The variance is
    sigma2 = c / (1 - beta L) with c_t = alpha0 + beta_x' x_t + alpha1 u_{t-1}^2.
    Only the SIGMA2_MIN floor is nonlinear; it binds when beta_x' x_t is
    negative enough, and the recursion then runs as a loop from the first
    floored day on.

    The filter runs over blocks of rows, in one of two shapes: m parameter
    sets over one series, y (T,) with x (k, T), or one parameter set over m
    windows, y (m, T) with x (m, k, T). Each row is bit for bit what it gives
    alone, its regressors in the same memory layout.
    Every row runs through both recursions. Each recursion is one call of
    lfilter's C kernel, and beta_x' x one product, for the rows that share
    row 0's coefficients and one for each other row. A state that is not
    finite stays in its row, for the caller to check.
    """
    _check_orders(params, spec)
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    T = ys.shape[1]
    if T < max(spec.p, spec.q) + 2:
        raise ValidationError(f"series of length {T} too short for ARMA({spec.p},{spec.q})")
    if len(params) > 1 and ys.shape[0] > 1:
        raise ValidationError(f"{len(params)} parameter rows vs {ys.shape[0]} series")
    m = max(len(params), ys.shape[0])
    phi, theta = params.phi, params.theta
    # matmul sums a strided vector (a row of unpack_rows' transposed beta_x)
    # in another order than BLAS does, and each row must give its own bits
    beta_x = np.ascontiguousarray(params.beta_x)
    # a shared series broadcasts over the rows, a single row over the windows
    e = ys - params.mu[:, None]
    for i in range(phi.shape[1]):
        e[:, i + 1:] -= phi[:, i, None] * ys[:, : T - 1 - i]
    u = _lfilter_rows(theta, e)

    xvar = np.zeros(u.shape)
    if beta_x.shape[1]:
        x = np.asarray(x, dtype=float)
        for first, group in _groups(beta_x):
            xvar[group] = _xvar(x, beta_x[first], T)
    c = params.alpha0[:, None] + xvar
    c[:, 1:] += params.alpha1[:, None] * (u[:, :-1] * u[:, :-1])
    s2_init = ys.var(axis=1) if sigma2_init is None else np.asarray(sigma2_init, dtype=float)
    beta = params.beta
    sigma2 = _lfilter_rows(-beta[:, None], c, zi=(beta * s2_init)[:, None])
    beta = np.broadcast_to(beta, m)
    for r in np.flatnonzero((sigma2 < SIGMA2_MIN).any(axis=1)):
        t0 = int(np.argmax(sigma2[r] < SIGMA2_MIN))
        s2 = float(sigma2[r, t0 - 1]) if t0 else float(np.broadcast_to(s2_init, m)[r])
        b = float(beta[r])
        tail = []
        for c_t in c[r, t0:].tolist():
            s2 = c_t + b * s2
            if s2 < SIGMA2_MIN:
                s2 = SIGMA2_MIN
            tail.append(s2)
        sigma2[r, t0:] = tail
    return u, sigma2


def innovation_logpdf(z, params: ArmaGarchXParams, spec: ModelSpec):
    """Log-density of the standardized innovations z.

    Row r of z takes row r's parameters of the law: none for normal, nu for
    t and (nu, xi) for skewt. The density runs once on all of z, with nu and
    xi as (m,) arrays shaped to broadcast against z: (m, 1) columns over an
    (m, T) block, and (1,) over the 1-D z of one row. Each row gives, bit
    for bit, what it gives alone, and an extreme nu or xi gives inf or nan,
    not a Python ZeroDivisionError or OverflowError.
    """
    if spec.distribution == "normal":
        return normal_logpdf(z)
    column = (slice(None),) + (None,) * (np.ndim(z) - 1)
    nu, xi = params.nu[column], params.xi[column]
    if spec.distribution == "t":
        return student_t_logpdf(z, nu)
    return skewt_logpdf(z, nu, xi)


def innovation_quantile(params: ArmaGarchXParams, spec: ModelSpec, p):
    """Quantile of the innovation law of row 0 at probability p (scalar or
    array). nu and xi go to skewt_quantile as Python floats, whose squares
    ** takes with the C library's pow."""
    if spec.distribution == "normal":
        return special().ndtri(p)
    xi = float(params.xi[0]) if spec.distribution == "skewt" else 1.0
    return skewt_quantile(p, float(params.nu[0]), xi)


def neg_log_likelihood(y, x, params: ArmaGarchXParams, spec: ModelSpec, sigma2_init=None):
    """-sum_t [ log f(u_t/sigma_t) - log sigma_t ] of each row of params, as an
    (m,) array; large finite penalty for invalid parameters so optimizers
    never see an exception.

    Every row runs through one filter_model call and one density call; a
    row that fails is_valid or whose total is not finite then gets
    PENALTY_NLL. A filter state that is not finite always gives a total that
    is not finite. y is one series; sigma2_init is as for filter_model, and
    the filter's ValidationError on the orders or the shapes of y and x
    reaches the caller.
    """
    # rows in overflow territory or outside the invariants get the penalty,
    # so their numpy warnings carry no information
    with np.errstate(all="ignore"):
        u, sigma2 = filter_model(y, x, params, spec, sigma2_init)
        z = u / np.sqrt(sigma2)
        total = (innovation_logpdf(z, params, spec) - 0.5 * np.log(sigma2)).sum(axis=1)
    return np.where(params.is_valid() & np.isfinite(total), -total, PENALTY_NLL)


# --- unconstrained reparameterization -------------------------------------
# layout: mu, phi(p), theta(q), log(alpha0), logit(persistence), logit(split),
#         beta_x(k), [log(nu-2)], [log(xi)]

def unpack_rows(v, spec: ModelSpec) -> ArmaGarchXParams:
    """The parameter sets of the rows of v, a stack of packed points."""
    # one contiguous array per coordinate: numpy's exp may take another code
    # path on strided input, and each row must give the bits it gives alone
    cols = np.ascontiguousarray(np.atleast_2d(np.asarray(v, dtype=float)).T)
    m = cols.shape[1]
    i = 1 + spec.p + spec.q
    persistence, split = special().expit(cols[i + 1]), special().expit(cols[i + 2])
    nu, xi = np.full(m, 8.0), np.full(m, 1.0)
    if spec.distribution in ("t", "skewt"):
        nu = 2.0 + np.exp(cols[i + 3 + spec.k])
    if spec.distribution == "skewt":
        xi = np.exp(cols[i + 4 + spec.k])
    return ArmaGarchXParams(
        mu=cols[0], phi=cols[1: 1 + spec.p].T, theta=cols[1 + spec.p: i].T,
        alpha0=np.exp(cols[i]), alpha1=persistence * split,
        beta=persistence * (1.0 - split), beta_x=cols[i + 3: i + 3 + spec.k].T,
        nu=nu, xi=xi,
    )


def start_point(y, spec: ModelSpec) -> np.ndarray:
    """The packed point every fit starts from: mu = mean(y), every ARMA and
    regressor coefficient 0, alpha0 = max(var(y) / 10, 10 * SIGMA2_MIN),
    alpha1 = 0.05, beta = 0.90, nu = 8 and xi = 1."""
    i = 1 + spec.p + spec.q
    v = np.zeros(i + 3 + spec.k + (spec.distribution != "normal")
                 + (spec.distribution == "skewt"))
    persistence = 0.05 + 0.90
    split = 0.05 / persistence
    v[0] = np.mean(y)
    v[i] = np.log(max(0.1 * float(np.var(y)), 10 * SIGMA2_MIN))
    v[i + 1] = np.log(persistence / (1.0 - persistence))
    v[i + 2] = np.log(split / (1.0 - split))
    if spec.distribution != "normal":
        v[i + 3 + spec.k] = np.log(8.0 - 2.0)
    return v


def _lbfgsb(fun, x0):
    """Minimize fun from x0 with L-BFGS-B, as scipy.optimize.minimize(fun, x0,
    method="L-BFGS-B", jac=True, options={"maxiter": MAX_ITER, "gtol": GTOL,
    "ftol": FTOL}) does, without importing scipy.optimize: the same calls of
    its C kernel setulb, without bounds. Returns (x, iterations, converged).

    fun(v) gives the value and the gradient at v. It gets a copy of each
    point the kernel asks about, unless that point equals the one evaluated
    last, as in scipy's ScalarFunction. A run ends when the kernel stops, at
    MAX_ITER iterations, or past MAX_FUN evaluations, minimize's default
    maxfun. It converged when the kernel stopped on its own tests.
    tests/test_row_batches.py::test_lbfgsb_matches_minimize guards the
    private kernel against minimize.
    """
    setulb = scipy_extension("optimize", "_lbfgsb").setulb
    n = x0.size
    x = np.array(x0, dtype=float)
    f, g = 0.0, np.zeros(n)
    # no bounds: nbd 0 on every coordinate leaves the bounds unread
    nbd = np.zeros(n, np.int32)
    bound = np.zeros(n)
    wa = np.zeros(2 * CORRECTIONS * n + 5 * n + 11 * CORRECTIONS**2 + 8 * CORRECTIONS)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = FTOL / np.finfo(float).eps
    last = None
    iterations = evaluations = 0
    while True:
        setulb(CORRECTIONS, x, bound, bound, nbd, f, g, factr, GTOL, wa, iwa, task,
               lsave, isave, dsave, MAX_LS, ln_task)
        if task[0] == 3:  # FG: the value and gradient at x
            if last is None or not np.array_equal(x, last):
                last = x.copy()
                f, g = fun(x.copy())
                evaluations += 1
        elif task[0] == 1:  # NEW_X: an iteration ended
            iterations += 1
            if iterations >= MAX_ITER:
                task[:] = 5, 504
            elif evaluations > MAX_FUN:
                task[:] = 5, 502
        else:
            return x, iterations, bool(task[0] == 4)


def fit(y, x, spec: ModelSpec, restarts: int, seed: int) -> FitResult:
    """Maximum-likelihood fit on the transformed space: ``restarts`` L-BFGS-B
    runs, all but the first from start_point plus noise drawn from ``seed``.

    Regressors are standardized before entering the variance equation; the
    transform is recorded in the result so forecasts can apply it to raw
    future regressors. A regressor whose standardization overflows is a
    RegressorOverflowError.
    """
    y = np.asarray(y, dtype=float)
    if y.size < MIN_OBS:
        raise ValidationError(f"need >= {MIN_OBS} observations, got {y.size}")
    x_mean = np.zeros(spec.k)
    x_std = np.ones(spec.k)
    x_fit = None
    if spec.k > 0:
        x_fit = np.atleast_2d(np.asarray(x, dtype=float))
        # a sum or a square that overflows leaves the sd of its row not finite
        with np.errstate(over="ignore", invalid="ignore"):
            x_mean = x_fit.mean(axis=1)
            sd = x_fit.std(axis=1, ddof=1)
        if not np.isfinite(sd).all():
            raise RegressorOverflowError(int(np.argmin(np.isfinite(sd))), 0, y.size - 1)
        x_std = np.where(sd > 0, sd, 1.0)
        x_fit = (x_fit - x_mean[:, None]) / x_std[:, None]

    rng = np.random.default_rng(seed)
    v0 = start_point(y, spec)
    # the filter's pre-sample variance; y is fixed for the whole fit
    sigma2_init = float(np.var(y))

    def evaluate(points) -> np.ndarray:
        """The negative log-likelihood of each row of a stack of packed points."""
        # far probes overflow in unpack_rows and get the penalty value, so
        # their numpy warnings carry no information
        with np.errstate(all="ignore"):
            return neg_log_likelihood(y, x_fit, unpack_rows(points, spec), spec, sigma2_init)

    def value_and_gradient(v):
        """The value at v and its gradient by L-BFGS-B's own forward differences,
        from one (n+1)-row stack. Where FD_STEP is lost in v_i, |v_i| > 1 and
        the step sqrt(eps)·sign(v_i)·max(1, |v_i|) is sqrt(eps)·v_i."""
        h = np.where((v + FD_STEP) - v == 0, np.sqrt(np.finfo(float).eps) * v, FD_STEP)
        points = np.tile(v, (v.size + 1, 1))
        np.fill_diagonal(points[1:], v + h)
        f = evaluate(points)
        return f[0], (f[1:] - f[0]) / ((v + h) - v)

    start_nll = evaluate(v0)[0]
    best_v, best_nll = v0, start_nll
    n_iter = 0
    any_converged = False
    for r in range(max(1, restarts)):
        v_start = v0 if r == 0 else v0 + rng.normal(scale=0.3, size=v0.size)
        v, iterations, converged = _lbfgsb(value_and_gradient, v_start)
        n_iter += iterations
        # after an abnormal line-search end the last point L-BFGS-B evaluated
        # is another than the one it returns, so compare restarts on what v
        # attains
        nll = evaluate(v)[0]
        if nll < best_nll:
            best_v, best_nll = v, nll
        any_converged = any_converged or converged
    if best_nll >= PENALTY_NLL:
        raise FitError("all restarts ended in the penalty region")
    if not best_nll <= start_nll:
        raise FitError(f"best fit (nll {best_nll}) is worse than the start point "
                       f"(nll {start_nll})")

    return FitResult(
        spec=spec, params=unpack_rows(best_v, spec), loglik=-best_nll,
        converged=any_converged, iterations=n_iter, x_mean=x_mean, x_std=x_std,
    )


def simulate(params: ArmaGarchXParams, spec: ModelSpec, x, T: int, seed: int):
    """Generate a return path; deterministic given the seed.

    Returns (y, u, sigma2) of row 0 of params, read as Python floats.
    Innovations are drawn by inverse transform from the innovation law named
    in the model specification.
    """
    _check_orders(params, spec)
    if not params.is_valid()[0]:
        raise ValidationError(f"parameter invariants violated: {params.to_dict()}")
    rng = np.random.default_rng(seed)
    z = np.asarray(innovation_quantile(params, spec, rng.uniform(size=T)))
    xvar = _xvar(x, params.beta_x[0], T)
    # sigma_t enters the mean through u_t, so this recursion is not a linear
    # filter; it runs once per path, off the likelihood's hot path
    mu, alpha0, alpha1, beta = (float(v[0]) for v in (
        params.mu, params.alpha0, params.alpha1, params.beta))
    persistence = alpha1 + beta
    s2 = alpha0 / (1.0 - persistence) if persistence < 1 else alpha0
    phi = params.phi[0].tolist()
    theta = params.theta[0].tolist()
    y, u, sigma2 = [], [], []
    for t, (z_t, xvar_t) in enumerate(zip(z.tolist(), xvar.tolist())):
        if t == 0:
            s2 = alpha0 + beta * s2 + xvar_t
        else:
            s2 = alpha0 + alpha1 * u[t - 1] * u[t - 1] + beta * s2 + xvar_t
        if s2 < SIGMA2_MIN:
            s2 = SIGMA2_MIN
        sigma2.append(s2)
        u.append(math.sqrt(s2) * z_t)
        m = mu
        for i in range(min(len(phi), t)):
            m += phi[i] * y[t - 1 - i]
        for j in range(min(len(theta), t)):
            m += theta[j] * u[t - 1 - j]
        y.append(m + u[t])
    return np.array(y), np.array(u), np.array(sigma2)


def forecast_one(params: ArmaGarchXParams, spec: ModelSpec, y, x):
    """One-step-ahead (means, sigmas) of m windows y (m, T) under one
    parameter set: the filter run one day past each window with 0 for the
    unknown return, so that day's residual is minus the conditional mean and
    its variance is the forecast. x is None or (m, k, T + 1), each window's
    regressors and its forecast day's, on the scale the model was fit on.
    Each window's own sample variance is its pre-sample variance, as in
    filter_model on the window alone, so each entry is bit for bit what its
    window gives alone. A window whose filter state is not finite, as where
    a regressor overflowed in its standardization, is a NonFiniteStateError
    that names the first such window.
    """
    y = np.asarray(y, dtype=float)
    m, T = y.shape
    ahead = np.zeros((m, T + 1))
    ahead[:, :T] = y
    # an overflow gives inf or nan, which the check below reports
    with np.errstate(all="ignore"):
        u, sigma2 = filter_model(ahead, x, params, spec, y.var(axis=1))
    finite = (np.isfinite(u) & np.isfinite(sigma2)).all(axis=1)
    if not finite.all():
        raise NonFiniteStateError(int(np.argmin(finite)))
    return -u[:, -1], np.sqrt(sigma2[:, -1])
