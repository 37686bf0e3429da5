import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvol import garchx as g
from chainvol.errors import FitError, NonFiniteStateError, ValidationError
from chainvol.garchx import ArmaGarchXParams, ModelSpec


def garch_params(**kw):
    base = dict(mu=0.0, alpha0=0.05, alpha1=0.10, beta=0.85, nu=8.0, xi=1.0)
    base.update(kw)
    return ArmaGarchXParams(**base)


def stack(sets) -> ArmaGarchXParams:
    """One struct of the rows of the one-row sets."""
    return ArmaGarchXParams(*(np.concatenate([getattr(s, f.name) for s in sets])
                              for f in fields(ArmaGarchXParams)))


def filter_one(y, x, params, spec, sigma2_init=None):
    """The (u, sigma2) row that filter_model gives one set over one series."""
    (u,), (sigma2,) = g.filter_model(y, x, params, spec, sigma2_init)
    return u, sigma2


def nll_one(y, x, params, spec):
    """The value that neg_log_likelihood gives one set."""
    (nll,) = g.neg_log_likelihood(y, x, params, spec)
    return nll


def loop_filter(y, xvar, mu, phi, theta, alpha0, alpha1, beta, sigma2_init, sigma2_min):
    """Reference: the mean and variance recursions as one loop over t, the
    form filter_model had before it was written as linear filters."""
    T = y.shape[0]
    u = np.zeros(T)
    sigma2 = np.empty(T)
    for t in range(T):
        if t == 0:
            s2 = alpha0 + beta * sigma2_init + xvar[t]
        else:
            s2 = alpha0 + alpha1 * u[t - 1] * u[t - 1] + beta * sigma2[t - 1] + xvar[t]
        if s2 < sigma2_min:
            s2 = sigma2_min
        sigma2[t] = s2
        m = mu
        for i in range(phi.shape[0]):
            if t - 1 - i >= 0:
                m += phi[i] * y[t - 1 - i]
        for j in range(theta.shape[0]):
            if t - 1 - j >= 0:
                m += theta[j] * u[t - 1 - j]
        u[t] = y[t] - m
    return u, sigma2


def assert_filter_close(got, want):
    """Within 1e-10 relative; near a zero of u, or where the floor's
    cancellation makes sigma2 tiny, relative to the path's largest value."""
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))


@st.composite
def filter_cases(draw):
    p, q, k = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    T = draw(st.integers(max(p, q) + 2, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    y = rng.standard_t(5, size=T) * draw(st.floats(1e-3, 1.0))
    x = rng.normal(size=(k, T))
    # |theta_1| + |theta_2| < 1 keeps the MA part invertible; beta_x of either
    # sign, large enough that beta_x' x_t can drive the variance to the floor
    params = g.ArmaGarchXParams(
        mu=draw(st.floats(-0.1, 0.1)),
        phi=rng.uniform(-0.9, 0.9, size=p),
        theta=rng.uniform(-0.49, 0.49, size=q),
        alpha0=draw(st.floats(1e-8, 1e-2)),
        alpha1=draw(st.floats(0.0, 0.3)),
        beta=draw(st.floats(0.0, 0.69)),
        beta_x=rng.normal(size=k) * draw(st.floats(1e-6, 1.0)),
    )
    return y, x, params, g.ModelSpec(p, q, k, "normal")


def loop_reference(y, x, params, spec):
    xvar = params.beta_x[0] @ x if spec.k else np.zeros(y.size)
    return loop_filter(y, xvar, params.mu[0], params.phi[0], params.theta[0], params.alpha0[0],
                       params.alpha1[0], params.beta[0], float(np.var(y)), g.SIGMA2_MIN)


class TestFilter:
    @given(filter_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_reference(self, case):
        y, x, params, spec = case
        u, sigma2 = filter_one(y, x, params, spec)
        u_ref, sigma2_ref = loop_reference(y, x, params, spec)
        assert_filter_close(u, u_ref)
        assert_filter_close(sigma2, sigma2_ref)

    @pytest.mark.parametrize("first_floored", [0, 1, 37, 97])
    def test_floor_matches_loop_reference(self, first_floored):
        # negative beta_x' x_t pushes the variance under the floor from
        # first_floored on; the loop that takes over must agree with the
        # reference on every later day, including days back above the floor
        rng = np.random.default_rng(first_floored)
        y = rng.normal(size=100) * 0.02
        x = np.zeros((1, 100))
        x[0, first_floored::3] = 1.0
        params = garch_params(phi=[0.2], theta=[-0.3], alpha0=1e-5, alpha1=0.1, beta=0.6,
                              beta_x=[-1e-2])
        spec = ModelSpec(1, 1, 1, "normal")
        u, sigma2 = filter_one(y, x, params, spec)
        u_ref, sigma2_ref = loop_reference(y, x, params, spec)
        assert np.flatnonzero(sigma2_ref == g.SIGMA2_MIN)[0] == first_floored
        assert np.any(sigma2_ref[first_floored:] > g.SIGMA2_MIN)
        assert_filter_close(u, u_ref)
        assert_filter_close(sigma2, sigma2_ref)

    def test_iid_reduction(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0.3, 1.0, size=200)
        params = garch_params(mu=0.3, alpha0=2.0, alpha1=0.0, beta=0.0)
        spec = ModelSpec(0, 0, 0, "normal")
        u, sigma2 = filter_one(y, None, params, spec)
        assert np.allclose(u, y - 0.3)
        assert np.allclose(sigma2, 2.0)

    def test_hand_unrolled_length_five(self):
        # ARMA(1,1)-GARCH(1,1), recursion unrolled term by term
        y = np.array([0.1, -0.2, 0.05, 0.3, -0.1])
        params = garch_params(mu=0.01, phi=[0.5], theta=[0.3], alpha0=0.02, alpha1=0.1, beta=0.8)
        spec = ModelSpec(1, 1, 0, "normal")
        u, sigma2 = filter_one(y, None, params, spec)

        s_init = np.var(y)
        exp_u = np.zeros(5)
        exp_s = np.zeros(5)
        exp_s[0] = 0.02 + 0.8 * s_init
        exp_u[0] = y[0] - 0.01
        for t in range(1, 5):
            exp_s[t] = 0.02 + 0.1 * exp_u[t - 1] ** 2 + 0.8 * exp_s[t - 1]
            exp_u[t] = y[t] - (0.01 + 0.5 * y[t - 1] + 0.3 * exp_u[t - 1])
        assert np.allclose(u, exp_u, atol=1e-14)
        assert np.allclose(sigma2, exp_s, atol=1e-14)

    def test_constant_regressor_equals_shifted_intercept(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=300)
        c = 0.7
        bx = 0.04
        with_x = garch_params(alpha0=0.02, beta_x=[bx])
        without = garch_params(alpha0=0.02 + bx * c)
        x = np.full((1, 300), c)
        _, s2_x = filter_one(y, x, with_x, ModelSpec(0, 0, 1, "normal"))
        _, s2_0 = filter_one(y, None, without, ModelSpec(0, 0, 0, "normal"))
        assert np.allclose(s2_x, s2_0, atol=1e-12)

    def test_variance_floored(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=100)
        # strongly negative exogenous coefficient drives raw variance negative
        params = garch_params(alpha0=1e-10, alpha1=0.0, beta=0.0, beta_x=[-5.0])
        x = np.ones((1, 100))
        _, sigma2 = filter_one(x[0] * 0 + y, x, params, ModelSpec(0, 0, 1, "normal"))
        assert np.all(sigma2 >= g.SIGMA2_MIN)

    def test_too_short_series(self):
        with pytest.raises(ValidationError):
            g.filter_model(np.zeros(2), None, garch_params(phi=[0.1, 0.1]),
                           ModelSpec(2, 0, 0, "normal"), None)


class TestNegLogLikelihood:
    def test_gaussian_closed_form(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=500)
        params = garch_params(mu=0.0, alpha0=1.0, alpha1=0.0, beta=0.0)
        nll = nll_one(y, None, params, ModelSpec(0, 0, 0, "normal"))
        expected = 0.5 * len(y) * math.log(2 * math.pi) + 0.5 * float(np.sum(y**2))
        assert nll == pytest.approx(expected, rel=1e-12)

    def test_true_params_beat_perturbed(self):
        spec = ModelSpec(0, 0, 0, "normal")
        true = garch_params()
        shifted = garch_params(alpha1=0.10 + 0.3, beta=0.55)  # keep persistence < 1
        wins = 0
        for seed in range(20):
            y, _, _ = g.simulate(true, spec, None, 5000, seed)
            if nll_one(y, None, true, spec) <= nll_one(y, None, shifted, spec):
                wins += 1
        assert wins >= 19  # >= 95% of 20 seeds

    def test_invalid_params_penalized_not_raised(self):
        y = np.random.default_rng(4).normal(size=100)
        bad = garch_params(alpha1=0.6, beta=0.6)  # persistence >= 1
        assert nll_one(y, None, bad, ModelSpec(0, 0, 0, "normal")) == g.PENALTY_NLL

    def _fd_gradient(self, f, v, h):
        grad = np.zeros_like(v)
        for i in range(v.size):
            e = np.zeros_like(v)
            e[i] = h
            grad[i] = (f(v + e) - f(v - e)) / (2 * h)
        return grad

    def test_finite_difference_richardson_consistency(self):
        spec = ModelSpec(1, 1, 0, "skewt")
        true = garch_params(phi=[0.2], theta=[0.1], nu=6.0, xi=1.2)
        y, _, _ = g.simulate(true, spec, None, 2000, 11)

        def f(v):
            return nll_one(y, None, g.unpack_rows(v, spec), spec)

        rng = np.random.default_rng(5)
        # true as a packed point: mu, phi, theta, log(alpha0), logit(alpha1 +
        # beta), logit(alpha1 / (alpha1 + beta)), log(nu - 2), log(xi)
        persistence = 0.10 + 0.85
        split = 0.10 / persistence
        v0 = np.array([0.0, 0.2, 0.1, np.log(0.05), np.log(persistence / (1.0 - persistence)),
                       np.log(split / (1.0 - split)), np.log(6.0 - 2.0), np.log(1.2)])
        for _ in range(5):
            v = v0 + rng.normal(scale=0.05, size=v0.size)
            g1 = self._fd_gradient(f, v, 1e-5)
            g2 = self._fd_gradient(f, v, 2e-5)
            scale = np.maximum(np.abs(g1), 1.0)
            assert np.max(np.abs(g1 - g2) / scale) < 1e-3


class TestReductionChain:
    def test_garchx_with_zero_beta_x_equals_garch(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=400)
        x = rng.normal(size=(2, 400))
        with_x = garch_params(beta_x=[0.0, 0.0])
        plain = garch_params()
        nll_x = nll_one(y, x, with_x, ModelSpec(0, 0, 2, "normal"))
        nll_0 = nll_one(y, None, plain, ModelSpec(0, 0, 0, "normal"))
        assert abs(nll_x - nll_0) < 1e-12

    def test_skewt_with_unit_xi_equals_student_t(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=300)
        params = garch_params(nu=6.0, xi=1.0)
        nll_skew = nll_one(y, None, params, ModelSpec(0, 0, 0, "skewt"))
        nll_t = nll_one(y, None, params, ModelSpec(0, 0, 0, "t"))
        assert abs(nll_skew - nll_t) < 1e-10

    def test_student_t_approaches_gaussian_for_huge_nu(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=500)
        params = garch_params(nu=1e6)
        nll_t = nll_one(y, None, params, ModelSpec(0, 0, 0, "t"))
        nll_n = nll_one(y, None, params, ModelSpec(0, 0, 0, "normal"))
        assert abs(nll_t - nll_n) / len(y) < 1e-3


class TestSimulate:
    def test_filter_recovers_simulated_path(self):
        spec = ModelSpec(2, 1, 2, "skewt")
        params = garch_params(phi=[0.3, -0.1], theta=[0.2], beta_x=[0.01, -0.005], nu=6.0, xi=1.2)
        x = np.abs(np.random.default_rng(12).normal(size=(2, 500)))
        y, u, sigma2 = g.simulate(params, spec, x, 500, seed=3)
        # simulate starts from the unconditional variance, filter_model from
        # the sample variance: the paths agree once beta^t has forgotten it
        u_f, sigma2_f = filter_one(y, x, params, spec)
        assert_filter_close(u_f, u)
        np.testing.assert_allclose(sigma2_f[200:], sigma2[200:], rtol=1e-10)

    def test_deterministic(self):
        params = garch_params(nu=6.0, xi=1.2)
        spec = ModelSpec(1, 1, 0, "skewt")
        params = garch_params(phi=[0.3], theta=[0.2], nu=6.0, xi=1.2)
        y1, _, _ = g.simulate(params, spec, None, 500, seed=99)
        y2, _, _ = g.simulate(params, spec, None, 500, seed=99)
        assert np.array_equal(y1, y2)

    def test_constant_variance_lln(self):
        params = garch_params(alpha0=0.04, alpha1=0.0, beta=0.0)
        y, u, _ = g.simulate(params, ModelSpec(0, 0, 0, "normal"), None, 100_000, seed=1)
        assert np.var(u) == pytest.approx(0.04, rel=0.05)

    def test_unconditional_variance(self):
        params = garch_params(alpha0=0.05, alpha1=0.1, beta=0.85)
        _, u, _ = g.simulate(params, ModelSpec(0, 0, 0, "normal"), None, 100_000, seed=2)
        assert np.var(u) == pytest.approx(0.05 / (1 - 0.95), rel=0.10)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            g.simulate(garch_params(alpha0=-1.0), ModelSpec(0, 0, 0, "normal"), None, 10, 0)


class TestFit:
    def test_garch_recovery_smoke(self):
        spec = ModelSpec(0, 0, 0, "normal")
        true = garch_params()
        y, _, _ = g.simulate(true, spec, None, 10_000, seed=0)
        result = g.fit(y, None, spec, restarts=2, seed=0)
        assert result.converged
        assert result.params.alpha1[0] + result.params.beta[0] == pytest.approx(0.95, abs=0.05)

    def test_iid_input_gives_small_arch(self):
        spec = ModelSpec(0, 0, 0, "normal")
        hits = 0
        for seed in range(5):
            y = np.random.default_rng(seed).normal(size=3000)
            result = g.fit(y, None, spec, restarts=1, seed=seed)
            hits += result.params.alpha1[0] < 0.05
        assert hits >= 4

    def test_refit_is_fixed_point(self):
        spec = ModelSpec(0, 0, 0, "normal")
        y, _, _ = g.simulate(garch_params(), spec, None, 3000, seed=3)
        first = g.fit(y, None, spec, restarts=1, seed=0)
        nll_at_fit = nll_one(y, None, first.params, spec)
        assert -first.loglik == pytest.approx(nll_at_fit, abs=1e-9)
        again = g.fit(y, None, spec, restarts=1, seed=1)
        assert again.loglik == pytest.approx(first.loglik, abs=1e-4)

    def test_exogenous_standardization_recorded(self):
        spec = ModelSpec(0, 0, 1, "normal")
        rng = np.random.default_rng(9)
        x = np.abs(rng.normal(5.0, 2.0, size=(1, 2000)))
        y, _, _ = g.simulate(garch_params(), ModelSpec(0, 0, 0, "normal"), None, 2000, seed=4)
        result = g.fit(y, x, spec, restarts=1, seed=0)
        assert result.x_mean.shape == (1,)
        z = result.transform_x(x)
        assert abs(z.mean()) < 1e-9

    def test_too_few_observations(self):
        with pytest.raises(ValidationError):
            g.fit(np.zeros(10), None, ModelSpec(0, 0, 0, "normal"), restarts=5, seed=0)

    def test_loglik_is_attained_by_returned_params(self, monkeypatch):
        # after an abnormal line-search end L-BFGS-B returns another point
        # than the last one it evaluated; the fit must report what the
        # returned point attains
        real_lbfgsb = g._lbfgsb
        ends = []

        def lbfgsb_returning_another_point(fun, x0):
            values = []

            def recorded(v):
                value, gradient = fun(v)
                values.append(value)
                return value, gradient

            x, iterations, converged = real_lbfgsb(recorded, x0)
            ends.append((fun(x + 1e-3)[0], values[-1]))
            return x + 1e-3, iterations, converged

        monkeypatch.setattr(g, "_lbfgsb", lbfgsb_returning_another_point)
        spec = ModelSpec(1, 0, 0, "t")
        y, _, _ = g.simulate(garch_params(phi=[0.2]), spec, None, 400, seed=8)
        result = g.fit(y, None, spec, restarts=2, seed=0)
        # each returned point attains another value than the last one evaluated
        assert len(ends) == 2 and all(attained != last for attained, last in ends)
        assert result.loglik == -nll_one(y, None, result.params, spec)

    def test_unusable_likelihood_raises_fit_error(self, monkeypatch):
        # a likelihood that is NaN everywhere can never beat the start point;
        # that ends in FitError, a check that python -O keeps
        monkeypatch.setattr(g, "neg_log_likelihood",
                            lambda y, x, rows, *args: np.full(len(rows), np.nan))
        y = np.random.default_rng(9).normal(size=100)
        with pytest.raises(FitError, match="start point"):
            g.fit(y, None, ModelSpec(0, 0, 0, "normal"), restarts=1, seed=0)

    def test_skewt_garchx_fit_raises_no_runtime_warning(self):
        # the optimizer probes overflowing parameters; they get the penalty
        # value without a flood of numpy RuntimeWarnings
        spec = ModelSpec(2, 2, 2, "skewt")
        x = np.random.default_rng(11).normal(size=(2, 250))
        y, _, _ = g.simulate(garch_params(nu=5.0, xi=1.2), ModelSpec(0, 0, 0, "skewt"),
                             None, 250, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = g.fit(y, x, spec, restarts=2, seed=0)
        assert np.isfinite(result.loglik)


class TestForecast:
    def test_constant_variance(self):
        params = garch_params(alpha0=0.09, alpha1=0.0, beta=0.0)
        (mean,), (sigma,) = g.forecast_one(params, ModelSpec(0, 0, 0, "normal"),
                                           np.zeros((1, 5)), None)
        assert sigma == pytest.approx(0.3, abs=1e-12)
        assert mean == 0.0

    def test_recursion_consistency_with_filter(self):
        # the filter over the window and the forecast day, from the window's
        # pre-sample variance, ends on the forecast
        rng = np.random.default_rng(10)
        y = rng.normal(size=200)
        x = rng.normal(size=(1, 200))
        params = garch_params(mu=0.02, phi=[0.3], theta=[0.1], beta_x=[0.01])
        spec = ModelSpec(1, 1, 1, "normal")
        u, sigma2 = filter_one(y, x, params, spec, sigma2_init=np.var(y[:-1]))
        (mean,), (sigma,) = g.forecast_one(params, spec, y[None, :-1], x[None])
        assert sigma**2 == pytest.approx(sigma2[-1], abs=1e-12)
        assert mean == pytest.approx(y[-1] - u[-1], abs=1e-12)

    def test_hand_unrolled_one_step(self):
        y = np.array([0.1, -0.2, 0.05, 0.3, -0.1])
        params = garch_params(mu=0.01, phi=[0.5], theta=[0.3], alpha0=0.02, alpha1=0.1, beta=0.8)
        spec = ModelSpec(1, 1, 0, "normal")
        u, sigma2 = filter_one(y, None, params, spec)
        (mean,), (sigma,) = g.forecast_one(params, spec, y[None], None)
        assert mean == pytest.approx(0.01 + 0.5 * y[-1] + 0.3 * u[-1], abs=1e-14)
        assert sigma**2 == pytest.approx(
            0.02 + 0.1 * u[-1] ** 2 + 0.8 * sigma2[-1], abs=1e-14
        )

    def test_missing_regressors_rejected(self):
        # five days of regressors for a five-day window: the forecast day's are missing
        params = garch_params(beta_x=[0.1])
        with pytest.raises(ValidationError, match="need 6"):
            g.forecast_one(params, ModelSpec(0, 0, 1, "normal"), np.zeros((1, 5)),
                           np.zeros((1, 1, 5)))

    def test_non_finite_state_names_the_first_window(self):
        # a regressor that overflowed in its standardization: windows 1 and 2
        # see it, window 1 on its forecast day and window 2 inside the window
        rng = np.random.default_rng(13)
        y = rng.normal(size=(4, 60)) * 0.02
        x = rng.normal(size=(4, 1, 61))
        x[1, 0, 60] = x[2, 0, 30] = np.inf
        params = garch_params(alpha0=1e-5, beta_x=[1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError,
                               match="^non-finite filter state forecasting day 1$") as caught:
                g.forecast_one(params, ModelSpec(0, 0, 1, "normal"), y, x)
        assert caught.value.day == 1
        # the same windows without the overflowed value forecast finite values
        x[1, 0, 60] = x[2, 0, 30] = 0.0
        means, sigmas = g.forecast_one(params, ModelSpec(0, 0, 1, "normal"), y, x)
        assert np.isfinite(means).all() and np.isfinite(sigmas).all()


class TestOrders:
    """Lengths of phi, theta and beta_x that are not the spec's orders are an
    error naming the field and both lengths, never a silently other model."""

    Y = np.random.default_rng(8).normal(scale=0.1, size=60)

    CASES = [
        (garch_params(phi=[0.5]), ModelSpec(0, 0, 0, "skewt"),
         "phi has length 1, but the spec has p=0"),
        (garch_params(phi=[0.5]), ModelSpec(2, 1, 0, "skewt"),
         "phi has length 1, but the spec has p=2"),
        (garch_params(theta=[0.1, 0.1]), ModelSpec(0, 1, 0, "t"),
         "theta has length 2, but the spec has q=1"),
        (garch_params(beta_x=[0.0]), ModelSpec(0, 0, 0, "normal"),
         "beta_x has length 1, but the spec has k=0"),
        (garch_params(), ModelSpec(0, 0, 2, "normal"),
         "beta_x has length 0, but the spec has k=2"),
    ]
    IDS = ["extra-phi", "short-phi", "long-theta", "extra-beta_x", "short-beta_x"]

    def x(self, spec, T):
        return np.ones((spec.k, T)) if spec.k else None

    @pytest.mark.parametrize("params,spec,message", CASES, ids=IDS)
    def test_filter_model(self, params, spec, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            g.filter_model(self.Y, self.x(spec, 60), params, spec, None)

    @pytest.mark.parametrize("params,spec,message", CASES, ids=IDS)
    def test_forecast_one(self, params, spec, message):
        x = None if spec.k == 0 else np.ones((2, spec.k, 61))
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            g.forecast_one(params, spec, np.stack([self.Y, self.Y]), x)

    @pytest.mark.parametrize("params,spec,message", CASES, ids=IDS)
    def test_simulate(self, params, spec, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            g.simulate(params, spec, self.x(spec, 60), 60, seed=0)

    @pytest.mark.parametrize("params,spec,message", CASES, ids=IDS)
    def test_neg_log_likelihood_raises_not_penalizes(self, params, spec, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            g.neg_log_likelihood(self.Y, self.x(spec, 60), params, spec)
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            g.neg_log_likelihood(self.Y, self.x(spec, 60), stack([params, params]), spec)


class TestSerialization:
    def test_params_round_trip(self):
        params = garch_params(phi=[0.2, -0.1], theta=[0.05], beta_x=[0.3, -0.2], nu=5.5, xi=0.9)
        back = ArmaGarchXParams(**params.to_dict())
        assert back.to_dict() == params.to_dict()

    def test_start_point_unpacks_to_the_documented_start(self):
        rng = np.random.default_rng(12)
        for y in (rng.normal(0.01, 0.05, size=200), np.full(60, 0.02)):
            for law in g.DISTRIBUTIONS:
                spec = ModelSpec(2, 1, 3, law)
                start = g.unpack_rows(g.start_point(y, spec), spec).to_dict()
                want = {"mu": np.mean(y), "phi": [0.0, 0.0], "theta": [0.0],
                        "alpha0": max(np.var(y) / 10, 10 * g.SIGMA2_MIN),
                        "alpha1": 0.05, "beta": 0.90, "beta_x": [0.0, 0.0, 0.0],
                        "nu": 8.0, "xi": 1.0}
                assert start.keys() == want.keys()
                for key, value in want.items():
                    np.testing.assert_allclose(start[key], value, rtol=1e-12, atol=0,
                                               err_msg=f"{law} {key}")


class TestIsValid:
    FIELDS = ("mu", "alpha0", "alpha1", "beta", "nu", "xi", "phi", "theta", "beta_x")

    @staticmethod
    def numpy_reference(p):
        # the same invariants on the one row's values, one at a time
        (mu,), (alpha0,), (alpha1,), (beta,), (nu,), (xi,) = (
            p.mu, p.alpha0, p.alpha1, p.beta, p.nu, p.xi)
        return bool(
            alpha0 > 0 and alpha1 >= 0 and beta >= 0 and alpha1 + beta < 1
            and nu > 2 and xi > 0
            and np.all(np.isfinite(p.phi)) and np.all(np.isfinite(p.theta))
            and np.all(np.isfinite(p.beta_x)) and np.isfinite(mu)
        )

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field(self, name, bad):
        params = garch_params(phi=[0.2, -0.1], theta=[0.05], beta_x=[0.3, -0.2], nu=5.5, xi=0.9)
        assert params.is_valid().tolist() == [True]
        getattr(params, name).flat[0] = bad
        assert params.is_valid().tolist() == [self.numpy_reference(params)]
        # only an infinite scale, tail or skew parameter passes
        assert params.is_valid().tolist() == [bad == math.inf and name in ("alpha0", "nu", "xi")]

    # (rule, field, edge, direction into the valid side, valid at the edge);
    # alpha1 + beta < 1 moves beta against alpha1 = 0.25, where the sum is
    # exact below 1 and one step above 0.75 rounds to 1
    BOUNDS = (
        ("alpha0 > 0", "alpha0", 0.0, 1.0, False),
        ("alpha1 >= 0", "alpha1", 0.0, 1.0, True),
        ("beta >= 0", "beta", 0.0, 1.0, True),
        ("alpha1 + beta < 1", "beta", 0.75, -1.0, False),
        ("nu > 2", "nu", 2.0, 1.0, False),
        ("xi > 0", "xi", 0.0, 1.0, False),
    )
    EDGE_CASES = [
        case
        for rule, name, edge, inward, at_edge in BOUNDS
        for case in ((rule, name, edge, at_edge),
                     (rule, name, float(np.nextafter(edge, edge + inward)), True),
                     (rule, name, float(np.nextafter(edge, edge - inward)), False))
    ]

    @staticmethod
    def edge_params(name, value):
        return garch_params(**{"alpha1": 0.25, "beta": 0.5, "nu": 6.0, "xi": 1.2, name: value})

    @pytest.mark.parametrize("rule, name, value, valid", EDGE_CASES,
                             ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_bound_edge(self, rule, name, value, valid):
        assert self.edge_params(name, value).is_valid().tolist() == [valid]

    def test_edge_rows_in_one_batch(self):
        # every invalid row gets exactly the penalty and every valid row the
        # bits it gets alone, whatever the other rows of the batch are
        spec = ModelSpec(0, 0, 0, "skewt")
        y, _, _ = g.simulate(garch_params(nu=6.0, xi=1.2), spec, None, 200, seed=2)
        cases = [(name, value, valid) for _, name, value, valid in self.EDGE_CASES]
        # valid skews whose square leaves the float range: the density must
        # give the penalty there, not a ZeroDivisionError or OverflowError
        cases += [("xi", 1e-200, True), ("xi", 1e200, True)]
        sets = [self.edge_params(name, value) for name, value, _ in cases]
        rows = stack(sets)
        valid = [case[-1] for case in cases]
        assert rows.is_valid().tolist() == valid
        with np.errstate(all="ignore"):
            nll = g.neg_log_likelihood(y, None, rows, spec)
            alone = [nll_one(y, None, p, spec) for p in sets]
        np.testing.assert_array_equal(nll.view(np.int64), np.array(alone).view(np.int64))
        assert all(value == g.PENALTY_NLL for value, ok in zip(alone, valid) if not ok)
        assert alone[-2:] == [g.PENALTY_NLL] * 2
