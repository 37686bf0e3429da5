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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ValidationError
from .skewt import normal_logpdf, skewt_logpdf, skewt_quantile, student_t_logpdf

# scipy.special is imported in the functions that call it, so that the stages
# that never call them (extract, features) never load scipy

SIGMA2_MIN = 1e-12
PENALTY_NLL = 1e10
# fit settings: L-BFGS-B limits and the shortest series worth fitting
MAX_ITER = 500
GTOL = 1e-6
FTOL = 1e-10
MIN_OBS = 50

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
    mu: float = 0.0
    phi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    alpha0: float = 1e-6
    alpha1: float = 0.05
    beta: float = 0.90
    beta_x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    nu: float = 8.0
    xi: float = 1.0

    def __post_init__(self):
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.beta_x = np.atleast_1d(np.asarray(self.beta_x, dtype=float)) if np.size(self.beta_x) else np.zeros(0)

    def is_valid(self) -> bool:
        # plain float checks: numpy reductions on these tiny arrays cost more
        # than the comparisons themselves, and this runs on every evaluation
        isfinite = math.isfinite
        return (
            self.alpha0 > 0
            and self.alpha1 >= 0
            and self.beta >= 0
            and self.alpha1 + self.beta < 1
            and self.nu > 2
            and self.xi > 0
            and all(map(isfinite, self.phi.tolist()))
            and all(map(isfinite, self.theta.tolist()))
            and all(map(isfinite, self.beta_x.tolist()))
            and isfinite(self.mu)
        )

    def validate(self) -> None:
        if not self.is_valid():
            raise ValidationError(f"parameter invariants violated: {self.to_dict()}")

    def to_dict(self) -> dict:
        return {
            "mu": float(self.mu),
            "phi": [float(v) for v in self.phi],
            "theta": [float(v) for v in self.theta],
            "alpha0": float(self.alpha0),
            "alpha1": float(self.alpha1),
            "beta": float(self.beta),
            "beta_x": [float(v) for v in self.beta_x],
            "nu": float(self.nu),
            "xi": float(self.xi),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArmaGarchXParams":
        return cls(
            mu=d["mu"], phi=np.array(d["phi"]), theta=np.array(d["theta"]),
            alpha0=d["alpha0"], alpha1=d["alpha1"], beta=d["beta"],
            beta_x=np.array(d["beta_x"]), nu=d["nu"], xi=d["xi"],
        )


@dataclass
class FitConfig:
    restarts: int = 5
    seed: int = 0


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
        """Apply the standardization recorded at fit time to raw regressors."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.x_mean[:, None]) / self.x_std[:, None]


def _xvar(x, beta_x, T: int) -> np.ndarray:
    """Exogenous variance contribution beta_x' x_t as a length-T vector."""
    if beta_x.size == 0:
        return np.zeros(T)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != T:
        raise ValidationError(f"regressor matrix has {x.shape[1]} columns, need {T}")
    if x.shape[0] != beta_x.size:
        raise ValidationError(f"{x.shape[0]} regressor rows vs {beta_x.size} coefficients")
    return beta_x @ x


def filter_model(y, x, params: ArmaGarchXParams, spec: ModelSpec):
    """Return (residuals u, conditional variances sigma2) for an observed path.

    Initialization: pre-sample y and u are zero, pre-sample variance is the
    sample variance of y.

    With the parameters fixed, both recursions are linear filters. The MA
    inversion is u = e / (1 + theta(L)) of the AR residuals
    e_t = y_t - mu - sum_i phi_i y_{t-1-i}. The variance is
    sigma2 = c / (1 - beta L) with c_t = alpha0 + beta_x' x_t + alpha1 u_{t-1}^2.
    Only the SIGMA2_MIN floor is nonlinear; it binds when beta_x' x_t is
    negative enough, and the recursion then runs as a loop from the first
    floored day on.
    """
    # imported here: scipy.signal would add ~0.15 s to every CLI start
    from scipy.signal import lfilter

    y = np.asarray(y, dtype=float)
    T = y.size
    if T < max(spec.p, spec.q) + 2:
        raise ValidationError(f"series of length {T} too short for ARMA({spec.p},{spec.q})")
    e = y - params.mu
    for i, phi_i in enumerate(params.phi[: spec.p]):
        e[i + 1:] -= phi_i * y[: T - 1 - i]
    u = lfilter([1.0], np.concatenate(([1.0], params.theta[: spec.q])), e)

    c = params.alpha0 + _xvar(x, params.beta_x[: spec.k], T)
    c[1:] += params.alpha1 * (u[:-1] * u[:-1])
    sigma2_init = float(np.var(y))
    sigma2, _ = lfilter([1.0], [1.0, -params.beta], c, zi=[params.beta * sigma2_init])
    floored = np.flatnonzero(sigma2 < SIGMA2_MIN)
    if floored.size:
        t0 = int(floored[0])
        s2 = float(sigma2[t0 - 1]) if t0 else sigma2_init
        beta = params.beta
        tail = []
        for c_t in c[t0:].tolist():
            s2 = c_t + beta * s2
            if s2 < SIGMA2_MIN:
                s2 = SIGMA2_MIN
            tail.append(s2)
        sigma2[t0:] = tail

    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(sigma2))):
        bad = int(np.argmax(~(np.isfinite(u) & np.isfinite(sigma2))))
        raise ValidationError(f"non-finite filter state at t={bad}")
    return u, sigma2


def innovation_logpdf(z, params: ArmaGarchXParams, spec: ModelSpec):
    if spec.distribution == "normal":
        return normal_logpdf(z)
    if spec.distribution == "t":
        return student_t_logpdf(z, params.nu)
    return skewt_logpdf(z, params.nu, params.xi)


def innovation_quantile(params: ArmaGarchXParams, spec: ModelSpec, p):
    """Quantile of the innovation law at probability p (scalar or array)."""
    from scipy import special
    if spec.distribution == "normal":
        return special.ndtri(p)
    xi = params.xi if spec.distribution == "skewt" else 1.0
    return skewt_quantile(p, params.nu, xi)


def neg_log_likelihood(y, x, params: ArmaGarchXParams, spec: ModelSpec) -> float:
    """-sum_t [ log f(u_t/sigma_t) - log sigma_t ]; large finite penalty for
    invalid parameters so optimizers never see an exception."""
    if not params.is_valid():
        return PENALTY_NLL
    try:
        u, sigma2 = filter_model(y, x, params, spec)
    except ValidationError:
        return PENALTY_NLL
    z = u / np.sqrt(sigma2)
    ll = innovation_logpdf(z, params, spec) - 0.5 * np.log(sigma2)
    total = float(np.sum(ll))
    if not np.isfinite(total):
        return PENALTY_NLL
    return -total


# --- unconstrained reparameterization -------------------------------------
# layout: mu, phi(p), theta(q), log(alpha0), logit(persistence), logit(split),
#         beta_x(k), [log(nu-2)], [log(xi)]

def _sigmoid(v):
    from scipy import special
    return float(special.expit(v))


def _logit(s):
    s = min(max(s, 1e-12), 1 - 1e-12)
    return float(np.log(s / (1.0 - s)))


def pack_params(params: ArmaGarchXParams, spec: ModelSpec) -> np.ndarray:
    persistence = params.alpha1 + params.beta
    split = params.alpha1 / persistence if persistence > 0 else 0.5
    v = [params.mu]
    v += list(params.phi[: spec.p])
    v += list(params.theta[: spec.q])
    v += [np.log(params.alpha0), _logit(persistence), _logit(split)]
    v += list(params.beta_x[: spec.k])
    if spec.distribution in ("t", "skewt"):
        v.append(np.log(params.nu - 2.0))
    if spec.distribution == "skewt":
        v.append(np.log(params.xi))
    return np.array(v, dtype=float)


def unpack_params(v: np.ndarray, spec: ModelSpec) -> ArmaGarchXParams:
    v = np.asarray(v, dtype=float)
    idx = 0
    mu = v[idx]; idx += 1
    phi = v[idx: idx + spec.p]; idx += spec.p
    theta = v[idx: idx + spec.q]; idx += spec.q
    alpha0 = np.exp(v[idx]); idx += 1
    persistence = _sigmoid(v[idx]); idx += 1
    split = _sigmoid(v[idx]); idx += 1
    beta_x = v[idx: idx + spec.k]; idx += spec.k
    nu, xi = 8.0, 1.0
    if spec.distribution in ("t", "skewt"):
        nu = 2.0 + np.exp(v[idx]); idx += 1
    if spec.distribution == "skewt":
        xi = np.exp(v[idx]); idx += 1
    return ArmaGarchXParams(
        mu=float(mu), phi=phi.copy(), theta=theta.copy(),
        alpha0=float(alpha0), alpha1=float(persistence * split),
        beta=float(persistence * (1.0 - split)),
        beta_x=beta_x.copy(), nu=float(nu), xi=float(xi),
    )


def default_start(y, spec: ModelSpec) -> ArmaGarchXParams:
    vy = float(np.var(y))
    return ArmaGarchXParams(
        mu=float(np.mean(y)),
        phi=np.zeros(spec.p), theta=np.zeros(spec.q),
        alpha0=max(0.1 * vy, 10 * SIGMA2_MIN), alpha1=0.05, beta=0.90,
        beta_x=np.zeros(spec.k), nu=8.0, xi=1.0,
    )


def fit(y, x, spec: ModelSpec, config: FitConfig | None = None) -> FitResult:
    """Maximum-likelihood fit with multiple restarts on the transformed space.

    Regressors are standardized before entering the variance equation; the
    transform is recorded in the result so forecasts can apply it to raw
    future regressors.
    """
    # imported here: scipy.optimize would add to every CLI start, and only
    # the backtest stage fits
    from scipy import optimize

    config = config or FitConfig()
    y = np.asarray(y, dtype=float)
    if y.size < MIN_OBS:
        raise ValidationError(f"need >= {MIN_OBS} observations, got {y.size}")
    x_mean = np.zeros(spec.k)
    x_std = np.ones(spec.k)
    x_fit = None
    if spec.k > 0:
        x_fit = np.atleast_2d(np.asarray(x, dtype=float))
        x_mean = x_fit.mean(axis=1)
        sd = x_fit.std(axis=1, ddof=1)
        x_std = np.where(sd > 0, sd, 1.0)
        x_fit = (x_fit - x_mean[:, None]) / x_std[:, None]

    rng = np.random.default_rng(config.seed)
    start = default_start(y, spec)
    v0 = pack_params(start, spec)
    start_nll = neg_log_likelihood(y, x_fit, start, spec)

    def objective(v):
        # the optimizer probes far into overflow territory; those points get
        # the penalty value, so their numpy warnings carry no information
        with np.errstate(all="ignore"):
            return neg_log_likelihood(y, x_fit, unpack_params(v, spec), spec)

    best_v, best_nll, best_res = v0, start_nll, None
    n_iter = 0
    any_converged = False
    for r in range(max(1, config.restarts)):
        v_start = v0 if r == 0 else v0 + rng.normal(scale=0.3, size=v0.size)
        try:
            res = optimize.minimize(
                objective, v_start, method="L-BFGS-B",
                options={"maxiter": MAX_ITER, "gtol": GTOL, "ftol": FTOL},
            )
        except (ValueError, FloatingPointError):
            continue
        n_iter += int(res.nit)
        # after an abnormal line-search end res.fun belongs to another point
        # than res.x, so compare restarts on what res.x attains
        nll = objective(res.x)
        if nll < best_nll:
            best_v, best_nll, best_res = res.x, nll, res
        if res.success:
            any_converged = True
    if best_nll >= PENALTY_NLL:
        raise FitError("all restarts ended in the penalty region", best_result=best_res)
    if not best_nll <= start_nll:
        raise FitError(f"best fit (nll {best_nll}) is worse than the start point "
                       f"(nll {start_nll})", best_result=best_res)

    return FitResult(
        spec=spec, params=unpack_params(best_v, spec), loglik=-best_nll,
        converged=any_converged, iterations=n_iter, x_mean=x_mean, x_std=x_std,
    )


def simulate(params: ArmaGarchXParams, spec: ModelSpec, x, T: int, seed: int):
    """Generate a return path; deterministic given the seed.

    Returns (y, u, sigma2). Innovations are drawn by inverse transform from
    the innovation law named in the model specification.
    """
    params.validate()
    rng = np.random.default_rng(seed)
    z = np.asarray(innovation_quantile(params, spec, rng.uniform(size=T)))
    xvar = _xvar(x, params.beta_x[: spec.k], T)
    persistence = params.alpha1 + params.beta
    s2 = params.alpha0 / (1.0 - persistence) if persistence < 1 else params.alpha0
    # sigma_t enters the mean through u_t, so this recursion is not a linear
    # filter; it runs once per path, off the likelihood's hot path
    alpha0, alpha1, beta, mu = params.alpha0, params.alpha1, params.beta, params.mu
    phi = params.phi[: spec.p].tolist()
    theta = params.theta[: spec.q].tolist()
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


def forecast_one(params: ArmaGarchXParams, spec: ModelSpec, y, u, sigma2, x_next):
    """One-step-ahead (mean, sigma) from the end of a filtered history.

    x_next holds the k regressor values dated T+1 (already on the same scale
    as the regressors the filter saw).
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if spec.k > 0:
        x_next = np.atleast_1d(np.asarray(x_next, dtype=float))
        if x_next.size != spec.k:
            raise ValidationError(f"x_next has {x_next.size} entries, need {spec.k}")
        exog = float(params.beta_x[: spec.k] @ x_next)
    else:
        exog = 0.0
    s2 = params.alpha0 + params.alpha1 * u[-1] ** 2 + params.beta * sigma2[-1] + exog
    s2 = max(s2, SIGMA2_MIN)
    mean = params.mu
    for i in range(spec.p):
        mean += params.phi[i] * y[-1 - i]
    for j in range(spec.q):
        mean += params.theta[j] * u[-1 - j]
    return float(mean), float(np.sqrt(s2))
