"""The row-batched GARCHX likelihood and the fit that uses it.

filter_model, innovation_logpdf and neg_log_likelihood take an
ArmaGarchXParams of m parameter sets; row r of a stack must give, bit for
bit, what the same set built from scalars gives as a one-row ArmaGarchXParams.
fit evaluates each L-BFGS-B point and its finite-difference steps as one
stack, with L-BFGS-B's own steps and quotients, so its end points are those
of one call per point. Its L-BFGS-B loop calls the C kernel and the
objective as scipy.optimize.minimize does.
"""

import functools
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.signal
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvol import cli
from chainvol import garchx as g
from chainvol.skewt import skewt_logpdf, student_t_logpdf
from chainvol.garchx import ArmaGarchXParams, ModelSpec


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def stack_rows(sets, order="C") -> ArmaGarchXParams:
    """The stack of the one-row sets, built from their floats; with order "F"
    the rows of phi, theta and beta_x are strided, as in the transposed
    arrays unpack_rows gives."""
    rows = [s.to_dict() for s in sets]
    return ArmaGarchXParams(**{name: np.array([r[name] for r in rows], order=order)
                               for name in rows[0]})


def row_inputs(y, x, sigma2_init, i):
    """The y, x and sigma2_init that row i of a batch sees on its own."""
    if y.ndim == 1:
        return y, x, sigma2_init
    return y[i], None if x is None else x[i], None if sigma2_init is None else sigma2_init[i]


# (nu, xi) whose skew-t scale differs in the last bit when the squares in
# it are taken by ** on an array, which rounds the exact square, rather
# than by ** on a numpy scalar, which calls the C library's pow
HARD_LAWS = ((3.636268285804339, 0.15319601287255144), (61.653623243036606, 6.397056176401208),
             (44.28355039663103, 1.376524998334548), (5.862802708705108, 0.34559040606596303))

ROW_KINDS = ("plain", "duplicate", "step", "invalid", "floor", "overflow")


@st.composite
def batch_cases(draw):
    distribution = draw(st.sampled_from(g.DISTRIBUTIONS))
    p, q, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    T = draw(st.integers(max(p, q) + 2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_t(5, size=T) * 0.02
    x = rng.normal(size=(k, T))

    def plain():
        return dict(
            mu=rng.normal() * 1e-3, phi=rng.uniform(-0.5, 0.5, size=p).tolist(),
            theta=rng.uniform(-0.3, 0.3, size=q).tolist(), alpha0=10 ** rng.uniform(-6, -3),
            alpha1=rng.uniform(0, 0.3), beta=rng.uniform(0, 0.65),
            beta_x=(rng.normal(size=k) * 1e-5).tolist(), nu=rng.uniform(2.5, 30),
            xi=rng.uniform(0.5, 2),
        )

    # each set as the floats and lists of floats it is built from
    fields_of_sets = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8)):
        s = (plain() if kind == "plain" or not fields_of_sets
             else ArmaGarchXParams(**fields_of_sets[-1]).to_dict())
        if kind == "step":
            # a finite-difference neighbour: one field moved by a few ulps
            field = rng.choice(["mu", "alpha0", "alpha1", "beta", "nu", "xi", "phi", "theta",
                                "beta_x"])
            value = s[field]
            if isinstance(value, list) and value:
                value[rng.integers(len(value))] *= 1 + 1e-8
            elif not isinstance(value, list):
                s[field] = value * (1 + 1e-8)
        elif kind == "invalid":
            field, bad = [("alpha0", -1e-6), ("beta", 0.99), ("nu", 2.0), ("xi", 0.0),
                          ("mu", np.nan)][rng.integers(5)]
            s[field] = bad
        elif kind == "floor" and k:
            # beta_x' x_t far below -alpha0 on some days pushes sigma2 to the floor
            s["beta_x"] = (rng.choice([-1.0, 1.0], size=k) * 10 ** rng.uniform(-3, 0)).tolist()
        elif kind == "overflow":
            s["alpha0"] = 1e308
            s["beta"] = 0.6
        fields_of_sets.append(s)
    sets = [ArmaGarchXParams(**s) for s in fields_of_sets]
    sigma2_init = draw(st.sampled_from([None, float(np.var(y))]))
    return y, x if k else None, sets, ModelSpec(p, q, k, distribution), sigma2_init


@st.composite
def window_cases(draw):
    """One parameter set of batch_cases over m windows of y, each with its
    own window of x and sigma2_init: the shape forecast_one passes."""
    _, _, sets, spec, _ = draw(batch_cases())
    m, T = draw(st.integers(1, 8)), draw(st.integers(max(spec.p, spec.q) + 2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_t(5, size=(m, T)) * 0.02
    x = rng.normal(size=(m, spec.k, T)) if spec.k else None
    sigma2_init = draw(st.sampled_from([None, y.var(axis=1)]))
    return y, x, sets[-1:], spec, sigma2_init


class TestBatchedLikelihood:
    @given(batch_cases(), st.sampled_from("CF"))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_one_set_calls(self, case, order):
        y, x, sets, spec, sigma2_init = case
        with np.errstate(all="ignore"):
            batched = g.neg_log_likelihood(y, x, stack_rows(sets, order), spec, sigma2_init)
            one_by_one = [g.neg_log_likelihood(y, x, s, spec, sigma2_init) for s in sets]
        assert batched.shape == (len(sets),)
        assert all(one.shape == (1,) for one in one_by_one)
        np.testing.assert_array_equal(bits(batched), bits(np.concatenate(one_by_one)))

    @given(st.one_of(batch_cases(), window_cases()), st.sampled_from("CF"))
    @settings(max_examples=300, deadline=None)
    def test_filter_rows_equal_one_set_filters(self, case, order):
        y, x, sets, spec, sigma2_init = case
        with np.errstate(all="ignore"):
            u, sigma2 = g.filter_model(y, x, stack_rows(sets, order), spec, sigma2_init)
            assert u.shape == sigma2.shape == (max(len(sets), len(np.atleast_2d(y))), y.shape[-1])
            for i in range(len(u)):
                s = sets[0] if len(sets) == 1 else sets[i]
                y_i, x_i, sigma2_init_i = row_inputs(y, x, sigma2_init, i)
                # a state that is not finite, too, is the row's own
                (u_i,), (sigma2_i,) = g.filter_model(y_i, x_i, s, spec, sigma2_init_i)
                np.testing.assert_array_equal(bits(u[i]), bits(u_i))
                np.testing.assert_array_equal(bits(sigma2[i]), bits(sigma2_i))

    def test_floor_rows_are_covered(self):
        # the floor case of the property above does bind
        rng = np.random.default_rng(0)
        y, x = rng.normal(size=100) * 0.02, rng.normal(size=(1, 100))
        params = ArmaGarchXParams(alpha0=1e-5, alpha1=0.1, beta=0.6, beta_x=[-0.1])
        _, sigma2 = g.filter_model(y, x, stack_rows([params] * 2), ModelSpec(0, 0, 1, "normal"),
                                   None)
        assert (sigma2 == g.SIGMA2_MIN).any(axis=1).all()

    @given(st.sampled_from(("t", "skewt")),
           st.lists(st.sampled_from(("distinct", "duplicate", "ulp", "hard")),
                    min_size=1, max_size=32),
           st.integers(1, 120), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_density_rows_equal_one_set_calls(self, distribution, kinds, T, seed):
        # the block passes nu and xi as (m, 1) columns, and one set over 1-D z
        # as (1,) arrays, the path of pipebench's reference check. Each must
        # give the bits of the density of one row with nu and xi as Python
        # floats, whose squares ** takes with the C library's pow
        rng = np.random.default_rng(seed)
        laws = []
        for kind in kinds:
            if kind == "hard":
                laws.append(HARD_LAWS[rng.integers(len(HARD_LAWS))])
            elif kind == "distinct" or not laws:
                laws.append((2.0 + 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1)))
            elif kind == "duplicate":
                laws.append(laws[-1])
            else:
                nu, xi = laws[-1]
                laws.append((np.nextafter(nu, np.inf), xi) if rng.integers(2)
                            else (nu, np.nextafter(xi, 0.0)))
        sets = [ArmaGarchXParams(nu=float(nu), xi=float(xi)) for nu, xi in laws]
        z = rng.standard_t(3, size=(len(sets), T)) * 10 ** rng.uniform(-1, 1)
        spec = ModelSpec(0, 0, 0, distribution)
        block = g.innovation_logpdf(z, stack_rows(sets), spec)
        assert block.shape == z.shape
        for z_i, (nu, xi), s, row in zip(z, laws, sets, block):
            if distribution == "t":
                want = student_t_logpdf(z_i, float(nu))
            else:
                want = skewt_logpdf(z_i, float(nu), float(xi))
            one_set = g.innovation_logpdf(z_i, s, spec)
            assert one_set.shape == (T,)
            np.testing.assert_array_equal(bits(row), bits(want))
            np.testing.assert_array_equal(bits(one_set), bits(want))

    def test_penalty_rules_row_by_row(self):
        y = np.random.default_rng(1).normal(size=80) * 0.02
        good = ArmaGarchXParams(alpha0=1e-5, alpha1=0.1, beta=0.8)
        invalid = ArmaGarchXParams(alpha0=1e-5, alpha1=0.5, beta=0.6)
        overflow = ArmaGarchXParams(alpha0=1e308, alpha1=0.1, beta=0.8)
        with np.errstate(all="ignore"):
            nll = g.neg_log_likelihood(y, None, stack_rows([good, invalid, overflow, good]),
                                       ModelSpec(0, 0, 0, "normal"))
        assert nll[1] == nll[2] == g.PENALTY_NLL
        assert nll[0] == nll[3] < g.PENALTY_NLL

    def test_short_series_is_an_error(self):
        # a caller's error, not a point of the parameter space
        rows = stack_rows([ArmaGarchXParams(phi=[0.1, 0.1])] * 3)
        with pytest.raises(g.ValidationError, match=r"series of length 3 too short for ARMA\(2,0\)"):
            g.neg_log_likelihood(np.zeros(3), None, rows, ModelSpec(2, 0, 0, "normal"))

    def test_regressor_shape_is_an_error(self):
        y = np.random.default_rng(4).normal(size=120) * 0.02
        params = ArmaGarchXParams(alpha0=1e-5, alpha1=0.1, beta=0.8, beta_x=[0.0, 0.0])
        with pytest.raises(g.ValidationError, match="regressor matrix has 119 columns, need 120"):
            g.neg_log_likelihood(y, np.zeros((2, 119)), params, ModelSpec(0, 0, 2, "normal"))

    def test_rows_must_match_windows(self):
        rows = stack_rows([ArmaGarchXParams()] * 2)
        with pytest.raises(g.ValidationError, match="2 parameter rows vs 3 series"):
            g.filter_model(np.zeros((3, 60)), None, rows, ModelSpec(0, 0, 0, "normal"), None)

    def test_rows_over_as_many_windows_is_an_error(self):
        # m sets over one series, or one set over m windows; no caller pairs them
        rows = stack_rows([ArmaGarchXParams()] * 2)
        with pytest.raises(g.ValidationError, match="2 parameter rows vs 2 series"):
            g.filter_model(np.zeros((2, 60)), None, rows, ModelSpec(0, 0, 0, "normal"), None)

    def test_unpack_rows_equals_one_row_unpacking(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec(2, 1, 3, "skewt")
        v = rng.normal(size=(50, 12)) * 3
        rows = g.unpack_rows(v, spec)
        assert len(rows) == len(v)
        for i in range(len(v)):
            one = g.unpack_rows(v[i], spec)
            for f in fields(ArmaGarchXParams):
                np.testing.assert_array_equal(bits(getattr(rows, f.name)[i]),
                                              bits(getattr(one, f.name)[0]))


@given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 80),
       st.sampled_from(("C", "F", "strided")), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_lfilter(order, m, T, layout, with_zi, seed):
    # garchx calls scipy.signal._sigtools._linear_filter, lfilter's private
    # C kernel; a scipy that moves or changes it must fail here. The kernel
    # is loaded first, as in a backtest process, so lfilter runs on the
    # module the loader registered
    g._linear_filter()
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    a = np.concatenate(([1.0], rng.uniform(-0.6, 0.6, size=order)))
    base = rng.normal(size=(m, 2 * T))
    x = {"C": np.ascontiguousarray(base[:, :T]), "F": np.asfortranarray(base[:, :T]),
         "strided": base[:, ::2]}[layout]
    # every row has the same denominator, so x goes to the kernel as it is
    lags = np.tile(a[1:], (m, 1))
    if with_zi:
        zi = rng.normal(size=(m, order))
        got, want = g._lfilter_rows(lags, x, zi), lfilter([1.0], a, x, zi=zi)[0]
    else:
        got, want = g._lfilter_rows(lags, x), lfilter([1.0], a, x)
    np.testing.assert_array_equal(bits(got), bits(want))


# bit patterns of key entries: zeros of both signs, quiet NaNs of other
# payloads and signs, 1.0 and the float after it, and infinity
KEY_BITS = (0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
            0xFFF8000000000000, 0x3FF0000000000000, 0x3FF0000000000001, 0x7FF0000000000000)


@given(st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_groups_are_row_0s_bits_then_single_rows(n, data):
    row = st.lists(st.sampled_from(KEY_BITS), min_size=n, max_size=n)
    first_row = data.draw(row)
    key_rows = [first_row] + data.draw(st.lists(st.one_of(st.just(first_row), row), max_size=8))
    keys = np.array(key_rows, dtype=np.uint64).view(float)
    index = np.arange(len(keys))
    groups = [(first, index[rows]) for first, rows in g._groups(keys)]
    # every row exactly once, in the group of a row with its bits
    assert sorted(np.concatenate([rows for _, rows in groups]).tolist()) == index.tolist()
    for first, rows in groups:
        assert first == rows[0]
        assert all(key_rows[i] == key_rows[first] for i in rows)
    # row 0's group is every row with row 0's bits, and every other row is alone
    assert groups[0][1].tolist() == [i for i, r in enumerate(key_rows) if r == first_row]
    assert all(len(rows) == 1 for _, rows in groups[1:])


def fit_case(spec):
    """A 250-day series of spec's law, its regressors, and the one-row
    objective that fit minimizes on them."""
    rng = np.random.default_rng(3)
    y, _, _ = g.simulate(ArmaGarchXParams(alpha0=1e-4, alpha1=0.1, beta=0.8, nu=6.0),
                         ModelSpec(0, 0, 0, spec.distribution), None, 250, seed=3)
    x = x_fit = rng.normal(size=(spec.k, 250)) if spec.k else None
    if spec.k:
        # the standardization fit applies
        x_fit = (x - x.mean(axis=1)[:, None]) / x.std(axis=1, ddof=1)[:, None]
    sigma2_init = float(np.var(y))

    def objective(v):
        with np.errstate(all="ignore"):
            return float(g.neg_log_likelihood(y, x_fit, g.unpack_rows(v, spec), spec,
                                              sigma2_init)[0])

    return y, x, objective


FIT_SPECS = [ModelSpec(2, 2, 2, "skewt"), ModelSpec(1, 0, 0, "t"), ModelSpec(0, 0, 0, "normal")]


def fit_capturing_lbfgsb(spec, y, x, run):
    """The objective fit hands _lbfgsb on y and x with one restart, which
    run(fun, x0) minimizes in _lbfgsb's place."""
    funs = []

    def capture(fun, x0):
        funs.append(fun)
        return run(fun, x0)

    with mock.patch.object(g, "_lbfgsb", capture):
        g.fit(y, x, spec, restarts=1, seed=0)
    (fun,) = funs
    return fun


def stay_at_start(fun, x0):
    return x0, 0, False


def traced(fun, points):
    """fun, appending a copy of each point it is called on to points."""
    def call(v):
        points.append(v.copy())
        return fun(v)
    return call


class TestFitGradient:
    """fit hands L-BFGS-B a function that gives the value and the gradient
    of a point from one stack of the point and its finite-difference steps."""

    @pytest.mark.parametrize("spec", FIT_SPECS)
    def test_gradient_is_lbfgsb_differences(self, spec):
        y, x, objective = fit_case(spec)
        value_and_gradient = fit_capturing_lbfgsb(spec, y, x, stay_at_start)
        v = g.start_point(y, spec)
        rng = np.random.default_rng(4)
        # the start point, points out to the penalty region, and points with
        # one coordinate so large that FD_STEP is lost in it, where the step
        # is relative
        points = [v] + [v + rng.normal(scale=s, size=v.size) for s in (0.1, 5.0, 50.0)]
        for big in (2.0**27, 1e9, -3e12):
            for i in range(v.size):
                point = v.copy()
                point[i] = big
                assert (point[i] + g.FD_STEP) - point[i] == 0
                points.append(point)
        for point in points:
            value, gradient = value_and_gradient(point)
            with np.errstate(all="ignore"):
                want = scipy.optimize.approx_fprime(point, objective, g.FD_STEP)
            assert bits(value) == bits(objective(point))
            np.testing.assert_array_equal(bits(gradient), bits(want))

    @pytest.mark.parametrize("spec", FIT_SPECS)
    def test_one_likelihood_call_per_optimizer_point(self, monkeypatch, spec):
        y, x, _ = fit_case(spec)
        rows, points = [], []
        real_nll, real_lbfgsb = g.neg_log_likelihood, g._lbfgsb

        def spy(y, x, params, *args):
            rows.append(params)
            return real_nll(y, x, params, *args)

        monkeypatch.setattr(g, "neg_log_likelihood", spy)
        fit_capturing_lbfgsb(spec, y, x, lambda fun, x0: real_lbfgsb(traced(fun, points), x0))
        n = g.start_point(y, spec).size
        # the start point, one stack per optimizer point, the end point
        assert [len(r) for r in rows] == [1] + [n + 1] * len(points) + [1]
        for stack, point in zip(rows[1:-1], points):
            want = g.unpack_rows(point, spec)
            for f in fields(ArmaGarchXParams):
                np.testing.assert_array_equal(bits(getattr(stack, f.name)[:1]),
                                              bits(getattr(want, f.name)))

    def test_fit_raises_no_warning(self):
        # numpy warns on the overflows of far probes, which get the penalty
        # value
        spec = ModelSpec(2, 2, 2, "skewt")
        x = np.random.default_rng(5).normal(size=(2, 250))
        y, _, _ = g.simulate(ArmaGarchXParams(nu=5.0, xi=1.2), ModelSpec(0, 0, 0, "skewt"),
                             None, 250, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = g.fit(y, x, spec, restarts=2, seed=0)
        assert np.isfinite(result.loglik)


@pytest.mark.parametrize("spec", FIT_SPECS)
def test_kernel_calls_per_stack(monkeypatch, spec):
    # a stack differs from its row 0 in one coordinate a row, so the MA
    # recursion makes at most 1 + q kernel calls (row 0's theta, then each
    # theta step), the variance recursion at most 3 (row 0's beta, then the
    # persistence and the split step) and the regressor term at most 1 + k
    # products (row 0's beta_x, then each beta_x step); one row makes one each
    y, x, _ = fit_case(spec)
    counts = []
    kernel, real_xvar, real_filter = g._linear_filter(), g._xvar, g.filter_model

    def counted_kernel(*args):
        counts[-1]["variance" if len(args) == 5 else "ma"] += 1
        return kernel(*args)

    def counted_xvar(*args):
        counts[-1]["products"] += 1
        return real_xvar(*args)

    def counted_filter(y, x, params, *args):
        counts.append({"rows": len(params), "ma": 0, "variance": 0, "products": 0})
        return real_filter(y, x, params, *args)

    monkeypatch.setattr(g, "_linear_filter", lambda: counted_kernel)
    monkeypatch.setattr(g, "_xvar", counted_xvar)
    monkeypatch.setattr(g, "filter_model", counted_filter)
    g.fit(y, x, spec, restarts=2, seed=0)
    n = g.start_point(y, spec).size
    ones = [c for c in counts if c["rows"] == 1]
    stacks = [c for c in counts if c["rows"] == n + 1]
    assert len(ones) == 3 and len(ones) + len(stacks) == len(counts)
    for c in ones:
        assert (c["ma"], c["variance"], c["products"]) == (min(spec.q, 1), 1, min(spec.k, 1))
    bounds = {"ma": 1 + spec.q if spec.q else 0, "variance": 3,
              "products": 1 + spec.k if spec.k else 0}
    for name, bound in bounds.items():
        # each bound is attained
        assert max(c[name] for c in stacks) == bound


@functools.cache
def fit_objective(spec):
    """fit's own value_and_gradient on the first 100 days of fit_case(spec),
    and its start point; shorter runs than on 250 days, through the same
    kernel calls."""
    y, x, _ = fit_case(spec)
    y, x = y[:100], None if x is None else x[:, :100]
    return fit_capturing_lbfgsb(spec, y, x, stay_at_start), g.start_point(y, spec)


def wall_objective(wall):
    """A bowl with its floor at 2 in a region x_0 > 1 of value wall, NaN or
    PENALTY_NLL, where the gradient is NaN or 0: the line search cannot
    leave the region, so L-BFGS-B ends ABNORMAL."""
    def fun(v):
        if v[0] > 1:
            return wall, np.full(v.size, wall * 0.0)
        return float(np.sum((v - 2.0) ** 2)), 2.0 * (v - 2.0)
    return fun


@st.composite
def lbfgsb_cases(draw):
    """(objective, start, MAX_ITER and MAX_FUN, the scipy message it must end
    with): fit's objective of each FIT_SPECS from start_point plus noise, a
    region that ends the run ABNORMAL, or a run cut at MAX_ITER or MAX_FUN."""
    kind = draw(st.sampled_from(("fit", "wall", "cut")))
    limits = {"MAX_ITER": g.MAX_ITER, "MAX_FUN": g.MAX_FUN}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "wall":
        n = draw(st.integers(1, 6))
        x0 = rng.normal(scale=2.0, size=n)
        x0[0] = -abs(x0[0])
        wall = draw(st.sampled_from((np.nan, g.PENALTY_NLL)))
        return wall_objective(wall), x0, limits, "ABNORMAL"
    fun, v0 = fit_objective(draw(st.sampled_from(FIT_SPECS)))
    x0 = v0 + rng.normal(scale=draw(st.sampled_from((0.0, 0.3, 1.0))), size=v0.size)
    if kind == "fit":
        return fun, x0, limits, ""
    name = draw(st.sampled_from(("MAX_ITER", "MAX_FUN")))
    limits[name] = draw(st.integers(1, 8))
    return fun, x0, limits, "ITERATIONS" if name == "MAX_ITER" else "EVALUATIONS"


def check_lbfgsb_matches_minimize(fun, x0, limits, message):
    """Minimize fun from x0 under limits by _lbfgsb and by minimize, which
    must evaluate the same points, end on the same bits and end with message.
    A run cut at MAX_ITER or MAX_FUN may stop on its own first, ABNORMAL in
    a line search or converged; then its limit, checked as each iteration
    ends, was never reached. Returns minimize's result."""
    got, want = [], []
    with mock.patch.multiple(g, **limits):
        x, iterations, converged = g._lbfgsb(traced(fun, got), x0)
        res = scipy.optimize.minimize(
            traced(fun, want), x0, method="L-BFGS-B", jac=True,
            options={"maxiter": g.MAX_ITER, "maxfun": g.MAX_FUN, "gtol": g.GTOL,
                     "ftol": g.FTOL})
    if message not in res.message:
        assert message in ("ITERATIONS", "EVALUATIONS")
        assert "ABNORMAL" in res.message or res.success
        if message == "ITERATIONS":
            assert res.nit < limits["MAX_ITER"]
        else:
            # the last iteration ended on res.x, at its first evaluation
            ended = next(i for i, v in enumerate(want, 1) if (bits(v) == bits(res.x)).all())
            assert ended <= limits["MAX_FUN"]
    np.testing.assert_array_equal(bits(x), bits(res.x))
    assert (iterations, converged) == (res.nit, res.success)
    assert len(got) == len(want) == res.nfev
    for a, b in zip(got, want):
        np.testing.assert_array_equal(bits(a), bits(b))
    return res


@given(lbfgsb_cases())
@settings(max_examples=200, deadline=None)
def test_lbfgsb_matches_minimize(case):
    # garchx drives scipy.optimize._lbfgsb.setulb, L-BFGS-B's private C
    # kernel, by its own loop; a scipy that moves or changes the kernel or
    # minimize's use of it must fail here
    check_lbfgsb_matches_minimize(*case)


# --- a frozen copy of fit's ARMA(2,2)-GARCHX(2) skew-t objective ------------
# fit's objective for ModelSpec(2, 2, 2, "skewt") on the 100 days of
# fit_objective, written out for one point as the model composed it when the
# noise seeds of test_lbfgsb_cut_run_that_stops_first were chosen: the packed
# layout and its map, the start point, the ARMA and variance filters with
# the SIGMA2_MIN floor, the skew-t density, the penalty and fit's forward
# differences. That test checks _lbfgsb against minimize, not the model, so
# it runs on this copy, which a change to the model leaves as it is.

def frozen_nll(v, y, x, sigma2_init):
    """The negative log-likelihood at the packed point v: mu, phi (2),
    theta (2), log alpha0, logit persistence, logit split, beta_x (2),
    log(nu - 2), log xi; 1e10 outside the invariants or where not finite."""
    with np.errstate(all="ignore"):
        persistence, split = scipy.special.expit(v[6:8])
        alpha0, alpha1, beta = np.exp(v[5]), persistence * split, persistence * (1.0 - split)
        nu, xi = 2.0 + np.exp(v[10]), np.exp(v[11])
        e = y - v[0]
        e[1:] -= v[1] * y[:-1]
        e[2:] -= v[2] * y[:-2]
        u = scipy.signal.lfilter([1.0], [1.0, *v[3:5]], e)
        c = alpha0 + v[8:10] @ x
        c[1:] += alpha1 * (u[:-1] * u[:-1])
        sigma2 = scipy.signal.lfilter([1.0], [1.0, -beta], c, zi=[beta * sigma2_init])[0]
        floored = np.flatnonzero(sigma2 < 1e-12)
        if floored.size:
            t0 = floored[0]
            s2 = sigma2[t0 - 1] if t0 else sigma2_init
            for t in range(t0, y.size):
                s2 = c[t] + beta * s2
                if s2 < 1e-12:
                    s2 = 1e-12
                sigma2[t] = s2
        z = u / np.sqrt(sigma2)
        m1 = 2.0 * np.sqrt(nu - 2.0) / (nu - 1.0) / scipy.special.beta(nu / 2.0, 0.5)
        sd = np.sqrt((1.0 - m1**2) * (xi**2 + 1.0 / xi**2) + 2.0 * m1**2 - 1.0)
        w = sd * z + m1 * (xi - 1.0 / xi)
        w = np.where(w >= 0, w / xi, w * xi)
        log_t = (np.log(scipy.special.poch(0.5 * nu, 0.5)) - 0.5 * np.log((nu - 2.0) * np.pi)
                 - 0.5 * (nu + 1.0) * np.log1p(w * w / (nu - 2.0)))
        total = (np.log(2.0 / (xi + 1.0 / xi)) + log_t + np.log(sd)
                 - 0.5 * np.log(sigma2)).sum()
    valid = (alpha0 > 0 and alpha1 >= 0 and beta >= 0 and alpha1 + beta < 1 and nu > 2
             and xi > 0 and np.isfinite(v[[0, 1, 2, 3, 4, 8, 9]]).all())
    return -total if valid and np.isfinite(total) else 1e10


@functools.cache
def frozen_objective():
    """The value and forward-difference gradient of frozen_nll, as fit forms
    them, and the start point."""
    y, x, _ = fit_case(FIT_SPECS[0])
    y, x = y[:100], x[:, :100]
    x = (x - x.mean(axis=1)[:, None]) / x.std(axis=1, ddof=1)[:, None]
    sigma2_init = float(np.var(y))

    def value_and_gradient(v):
        h = np.where((v + 1e-8) - v == 0, np.sqrt(np.finfo(float).eps) * v, 1e-8)
        f = [frozen_nll(v, y, x, sigma2_init)]
        for i in range(v.size):
            point = v.copy()
            point[i] = v[i] + h[i]
            f.append(frozen_nll(point, y, x, sigma2_init))
        f = np.array(f)
        return f[0], (f[1:] - f[0]) / ((v + h) - v)

    persistence = 0.05 + 0.90
    split = 0.05 / persistence
    v0 = np.zeros(12)
    v0[0] = np.mean(y)
    v0[5] = np.log(max(0.1 * float(np.var(y)), 1e-11))
    v0[6] = np.log(persistence / (1.0 - persistence))
    v0[7] = np.log(split / (1.0 - split))
    v0[10] = np.log(8.0 - 2.0)
    return value_and_gradient, v0


@pytest.mark.parametrize("scale, seed, name, limit, end", [
    (0.3, 264, "MAX_ITER", 2, "ABNORMAL"),
    (1.0, 159, "MAX_FUN", 3, "ABNORMAL"),
    (1.0, 178, "MAX_ITER", 7, "CONVERGENCE"),
])
def test_lbfgsb_cut_run_that_stops_first(scale, seed, name, limit, end):
    # runs cut at MAX_ITER or MAX_FUN that stop on their own first, on the
    # frozen objective (numpy 2.4, scipy 1.17, x86-64)
    fun, v0 = frozen_objective()
    x0 = v0 + np.random.default_rng(seed).normal(scale=scale, size=v0.size)
    limits = {"MAX_ITER": g.MAX_ITER, "MAX_FUN": g.MAX_FUN, name: limit}
    message = "ITERATIONS" if name == "MAX_ITER" else "EVALUATIONS"
    assert end in check_lbfgsb_matches_minimize(fun, x0, limits, message).message


# First refits of `backtest --window 250 --arma-p 2 --arma-q 2 --distribution
# skewt --restarts 1` on the README dataset, as one call per likelihood point
# gave them (numpy 2.4, scipy 1.17, x86-64). L-BFGS-B on finite differences
# moves its end point on a last-bit change of any likelihood value, so these
# pin the batched evaluation to the one-point one.
FIRST_REFITS = {
    "garch": {
        "params": {
            "mu": -0.0008294085499791843,
            "phi": [-0.19885724653833126, 0.06363185579920544],
            "theta": [0.2896538064588031, -0.06727560168855952],
            "alpha0": 2.517033056106977e-05, "alpha1": 0.020116731610095914,
            "beta": 0.9661149621963915, "beta_x": [],
            "nu": 7.339433681605292, "xi": 1.2094449857115275,
        },
        "loglik": 453.8694794064278, "iterations": 185,
    },
    "garchx": {
        "params": {
            "mu": 0.004726999120448126,
            "phi": [0.05671498972670479, -0.011396497202332233],
            "theta": [0.05657520248825049, -0.03300322572034345],
            "alpha0": 0.00012965397306268888, "alpha1": 0.05155131095478605,
            "beta": 0.8890825094640156,
            "beta_x": [-7.403840132596934e-05, -3.224206778896606e-07, 4.314378949189018e-05,
                       -0.0004512842712817756, -0.00011039696742042771, 0.000487194175854739],
            "nu": 7.740735419606629, "xi": 1.3378377907849626,
        },
        "loglik": 456.79125967645984, "iterations": 127,
    },
}


@pytest.fixture(scope="module")
def readme_returns(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data), "--days", "330", "--txs-per-day", "80",
                     "--extreme-prob", "0.2", "--seed", "7"]) == 0
    assert cli.main(["extract", str(data / "transactions.csv"),
                     "--out-occurrence", str(root / "occ.txt"),
                     "--out-amount", str(root / "amo.txt")]) == 0
    assert cli.main(["features", str(root / "occ.txt"), str(root / "amo.txt"),
                     str(data / "prices.csv"), "--out", str(root / "features.csv")]) == 0
    _, X, r = cli._aligned_features_returns(root / "features.csv", data / "prices.csv",
                                             cli.PipelineConfig())
    return X, r


@pytest.mark.parametrize("model", ["garch", "garchx"])
def test_first_readme_refit_is_pinned(readme_returns, model):
    X, r = readme_returns
    k = X.shape[1] if model == "garchx" else 0
    # the regressors as the CLI hands them over: a transposed view
    result = g.fit(r[:250], X.T[:, :250] if k else None, ModelSpec(2, 2, k, "skewt"),
                   restarts=1, seed=0)
    want = FIRST_REFITS[model]
    assert result.params.to_dict() == want["params"]
    assert result.loglik == want["loglik"]
    assert result.iterations == want["iterations"]
