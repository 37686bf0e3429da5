"""rolling_backtest forecasts each chunk of a refit block with one
forecast_one call over all of its windows; every day must come out bit for
bit as the per-day loop below, which forecasts each trailing window on its
own, gives it. No day's forecast may change when later days change."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from chainvol import backtest as bt
from chainvol import garchx as g
from chainvol.errors import FitError
from chainvol.garchx import ArmaGarchXParams, FitResult, ModelSpec


def per_day_backtest(y, x, spec, window, refit_every, level, restarts, seed, fit):
    """The rolling backtest as one forecast per day."""
    y = np.asarray(y, dtype=float)
    T = y.size
    x = np.atleast_2d(np.asarray(x, dtype=float)) if spec.k > 0 else None
    var_values, sigmas, refit_failures = [], [], []
    current = None
    for step, t in enumerate(range(window, T)):
        lo = t - window
        if current is None or step % refit_every == 0:
            try:
                current = fit(y[lo:t], x[:, lo:t] if x is not None else None, spec,
                              restarts, seed)
            except FitError:
                if current is None:
                    raise
                refit_failures.append(t)
        params = current.params
        # the window's regressors and those of its forecast day
        x_ahead = current.transform_x(x[:, lo:t + 1]) if x is not None else None
        (mean_next,), (sigma_next,) = g.forecast_one(
            params, spec, y[None, lo:t], x_ahead[None] if x is not None else None
        )
        var_values.append(bt.var_from_forecast(mean_next, sigma_next, params, spec, level))
        sigmas.append(sigma_next)
    var_values = np.array(var_values)
    return var_values, np.array(sigmas), y[window:] < -var_values, refit_failures


def window_fit(base: ArmaGarchXParams, failing_calls=()):
    """A stand-in for garchx.fit: parameters that move with the window, the
    regressor standardization fit records, and FitError on the given calls."""
    calls = []

    def fit(y, x, spec, restarts, seed):
        calls.append(None)
        if len(calls) in failing_calls:
            raise FitError("refit failed")
        shift = float(np.mean(y))
        params = ArmaGarchXParams(**{**base.to_dict(), "mu": base.mu + shift,
                                     "alpha0": base.alpha0 * (1.0 + abs(shift))})
        x_mean, x_std = np.zeros(spec.k), np.ones(spec.k)
        if spec.k:
            x = np.atleast_2d(x)
            x_mean, x_std = x.mean(axis=1), x.std(axis=1, ddof=1)
        return FitResult(spec, params, 0.0, True, 0, x_mean, x_std)

    return fit


def assert_same_days(got: bt.VarSeries, want):
    var_values, sigmas, breach, refit_failures = want
    np.testing.assert_array_equal(got.var_value.view(np.int64), var_values.view(np.int64))
    np.testing.assert_array_equal(got.sigma_forecast.view(np.int64), sigmas.view(np.int64))
    np.testing.assert_array_equal(got.breach, breach)
    assert got.refit_failures == refit_failures


def run_both(monkeypatch, y, x, spec, window, make_fit, refit_every=7, level=0.01):
    monkeypatch.setattr(bt, "fit", make_fit())
    got = bt.rolling_backtest(y, x, spec, window=window, refit_every=refit_every, level=level,
                              restarts=1, seed=0)
    want = per_day_backtest(y, x, spec, window, refit_every, level, 1, 0, make_fit())
    return got, want


# the regressor term carries most of the variance, so a last-bit change in
# beta_x' x_t shows in the VaR
SKEWT_ARMA = ArmaGarchXParams(mu=1e-3, phi=[0.2, -0.1], theta=[0.15, 0.05], alpha0=1e-6,
                              alpha1=0.05, beta=0.3, beta_x=[2e-4, -1e-4, 1e-4, 3e-4, -2e-4],
                              nu=6.0, xi=1.2)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("chunk_days", [5, None])
def test_refit_blocks_with_a_failed_refit(monkeypatch, layout, chunk_days):
    # ARMA(2,2) skew-t GARCHX on five regressors; the second refit fails and
    # its block keeps the first refit's parameters and regressor scaling
    T, window = 160, 60
    if chunk_days:
        monkeypatch.setattr(bt, "BATCH_CELLS", chunk_days * window)
    rng = np.random.default_rng(0)
    y = rng.standard_t(5, size=T) * 0.02
    # F: the regressors as the CLI passes them, a transposed (days, k) array
    x = rng.normal(2.0, 3.0, size=(5, T)) if layout == "C" else rng.normal(2.0, 3.0, size=(T, 5)).T
    got, want = run_both(monkeypatch, y, x, ModelSpec(2, 2, 5, "skewt"), window,
                         lambda: window_fit(SKEWT_ARMA, failing_calls=(2,)), refit_every=7)
    assert want[3] == [window + 7]
    assert_same_days(got, want)


def test_real_refits_of_a_garchx_model(monkeypatch):
    rng = np.random.default_rng(1)
    T, window = 95, 60
    y, _, _ = g.simulate(ArmaGarchXParams(alpha0=1e-4, alpha1=0.1, beta=0.8, nu=6.0, xi=1.3),
                         ModelSpec(0, 0, 0, "skewt"), None, T, seed=1)
    x = rng.normal(size=(T, 2)).T
    got, want = run_both(monkeypatch, y, x, ModelSpec(1, 1, 2, "skewt"), window,
                         lambda: g.fit, refit_every=15)
    assert_same_days(got, want)


def test_windows_where_the_floor_binds(monkeypatch, fixed_fit):
    rng = np.random.default_rng(2)
    T, window = 140, 50
    y = rng.normal(size=T) * 0.02
    x = rng.normal(size=(4, T))
    params = ArmaGarchXParams(mu=0.0, phi=[0.3], theta=[-0.2], alpha0=1e-5, alpha1=0.1, beta=0.3,
                              beta_x=[-2e-4, 1e-4, 3e-4, -1e-4], nu=5.0)
    spec = ModelSpec(1, 1, 4, "t")
    _, sigma2 = g.filter_model(y[:window], x[:, :window], params, spec, None)
    assert (sigma2 == g.SIGMA2_MIN).any()
    # the parameters on the raw regressors, then moving with the window on
    # standardized ones
    for make_fit in (lambda: fixed_fit(params), lambda: window_fit(params)):
        got, want = run_both(monkeypatch, y, x, spec, window, make_fit, refit_every=9)
        assert_same_days(got, want)


def test_fixed_params_longer_than_one_chunk(monkeypatch, fixed_fit):
    # one refit block of more days than one chunk holds
    spec = ModelSpec(0, 0, 0, "normal")
    true = ArmaGarchXParams(mu=0.0, alpha0=0.05, alpha1=0.10, beta=0.85)
    window = 50
    chunk_days = bt.BATCH_CELLS // window
    T = window + chunk_days + 37
    y, _, _ = g.simulate(true, spec, None, T, seed=3)
    got, want = run_both(monkeypatch, y, None, spec, window, lambda: fixed_fit(true),
                         refit_every=T - window)
    assert got.n > chunk_days
    assert_same_days(got, want)


def test_first_refit_failure_still_raises(monkeypatch):
    monkeypatch.setattr(bt, "fit", window_fit(SKEWT_ARMA, failing_calls=(1,)))
    y = np.random.default_rng(4).normal(size=80) * 0.02
    with pytest.raises(FitError):
        bt.rolling_backtest(y, None, ModelSpec(0, 0, 0, "normal"), window=60, refit_every=7,
                            level=0.01, restarts=5, seed=0)


X_LAYOUTS = ("C", "F", "strided")


def x_in(layout, m, k, T, rng):
    """Regressors (m, k, T + 1) as a C-ordered array, an F-ordered one or
    the strided sliding-window view of one (k, T + m) span, as
    rolling_backtest passes them."""
    if layout == "strided":
        span = rng.normal(size=(k, T + m))
        return sliding_window_view(span, T + 1, axis=1).transpose(1, 0, 2)
    x = rng.normal(size=(m, k, T + 1))
    return x if layout == "C" else np.asfortranarray(x)


@st.composite
def forecast_cases(draw):
    """m windows under one parameter set and their regressors; with floor,
    the variance floor binds within the windows and on the forecast days."""
    distribution = draw(st.sampled_from(g.DISTRIBUTIONS))
    p, q, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    m, T = draw(st.integers(1, 6)), draw(st.integers(max(p, q) + 2, 40))
    floor = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = dict(
        mu=rng.normal() * 1e-3, phi=rng.uniform(-0.5, 0.5, size=p),
        theta=rng.uniform(-0.3, 0.3, size=q), alpha0=10 ** rng.uniform(-6, -3),
        alpha1=rng.uniform(0, 0.3), beta=rng.uniform(0, 0.65),
        beta_x=rng.normal(size=k) * 1e-5, nu=rng.uniform(2.5, 30), xi=rng.uniform(0.5, 2),
    )
    if floor:
        if k:
            # beta_x' x far below -alpha0 on some days and on some forecast days
            fields["beta_x"] = rng.choice([-1.0, 1.0], size=k) * 10 ** rng.uniform(-3, 0, size=k)
        else:
            fields.update(alpha0=1e-14, alpha1=0.0, beta=0.0)
    params = ArmaGarchXParams(**fields)
    spec = ModelSpec(p, q, k, distribution)
    y = rng.standard_t(5, size=(m, T)) * 0.02
    layout = draw(st.sampled_from(X_LAYOUTS))
    return params, spec, y, x_in(layout, m, k, T, rng) if k else None


@given(forecast_cases())
@settings(max_examples=400, deadline=None)
def test_block_forecast_equals_one_window_calls(case):
    params, spec, y, x = case
    means, sigmas = g.forecast_one(params, spec, y, x)
    assert means.shape == sigmas.shape == (len(y),)
    for i in range(len(y)):
        # the window keeps the block's memory layout: matmul may sum beta_x' x
        # in another order for another layout, such as a contiguous copy of an
        # F-ordered window
        x_i = x[i:i + 1] if x is not None else None
        mean, sigma = g.forecast_one(params, spec, y[i:i + 1], x_i)
        np.testing.assert_array_equal(np.array([means[i], sigmas[i]]).view(np.int64),
                                      np.concatenate((mean, sigma)).view(np.int64))


@pytest.mark.parametrize("k", [0, 2])
def test_block_forecast_cases_reach_the_floor(k):
    # the floor case of the property above does bind on the forecast day
    rng = np.random.default_rng(5)
    params = ArmaGarchXParams(alpha0=1e-14, alpha1=0.0, beta=0.0, beta_x=[-1.0, 0.5][:k])
    spec = ModelSpec(0, 0, k, "normal")
    y = rng.normal(size=(8, 30)) * 0.02
    _, sigmas = g.forecast_one(params, spec, y, rng.normal(size=(8, k, 31)) if k else None)
    assert (sigmas == np.sqrt(g.SIGMA2_MIN)).any()


@pytest.mark.parametrize("fixed", [True, False])
def test_no_look_ahead(monkeypatch, fixed_fit, fixed):
    # the forecast of day t sees y before t and x up to t: other values from
    # day t0 on leave every earlier day's VaR and sigma bit for bit as they were
    T, window = 150, 60
    monkeypatch.setattr(bt, "BATCH_CELLS", 5 * window)
    rng = np.random.default_rng(6)
    y = rng.standard_t(5, size=T) * 0.02
    x = rng.normal(2.0, 3.0, size=(5, T))
    spec = ModelSpec(2, 2, 5, "skewt")
    # alpha0 far above beta_x' x, so no floor hides a change of x
    params = ArmaGarchXParams(**{**SKEWT_ARMA.to_dict(), "alpha0": 1e-2})

    def run(y, x):
        # fixed: every refit gives params on the raw regressors; else a second
        # refit fails, so one block keeps the first refit's parameters
        fit = fixed_fit(params) if fixed else window_fit(params, failing_calls=(2,))
        monkeypatch.setattr(bt, "fit", fit)
        return bt.rolling_backtest(y, x, spec, window=window, refit_every=7, level=0.01,
                                   restarts=5, seed=0)

    def assert_first_days_equal(got, want, days):
        for name in ("var_value", "sigma_forecast"):
            np.testing.assert_array_equal(getattr(got, name)[:days].view(np.int64),
                                          getattr(want, name)[:days].view(np.int64))

    base = run(y, x)
    for t0 in (window, window + 1, window + 7, window + 33, T - 1):
        d = t0 - window
        y_other, x_other = y.copy(), x.copy()
        y_other[t0:] = rng.standard_t(5, size=T - t0) * 0.02
        # other returns from day t0 on leave day t0's forecast too
        assert_first_days_equal(run(y_other, x), base, d + 1)
        x_other[:, t0:] = rng.normal(2.0, 3.0, size=(5, T - t0))
        other = run(y_other, x_other)
        assert_first_days_equal(other, base, d)
        # day t0's forecast takes x[:, t0], so the comparison can see a change
        assert other.sigma_forecast[d] != base.sigma_forecast[d]
