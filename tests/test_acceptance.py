"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 needs real published data and is skipped unless the
CHAINVOL_OCC_FILE / CHAINVOL_AMO_FILE / CHAINVOL_PRICE_FILE environment
variables point at the matrix and price files.
"""

import datetime as dt
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate, stats as sps

from chainvol import backtest as bt
from chainvol import chainlets, garchx, skewt, stats
from chainvol.chainlets import DayCube, DayCubeBuilder
from chainvol.garchx import ArmaGarchXParams, ModelSpec


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_kupiec_exactness():
    lr1, p1 = bt.kupiec_test(1857, 33, 0.01)
    lr2, p2 = bt.kupiec_test(1857, 15, 0.01)
    expected = 1857 * 0.01
    ok = (
        abs(lr1 - 9.201) <= 0.005
        and abs(lr2 - 0.742) <= 0.005
        and abs(p1 - 0.002) <= 0.001
        and abs(p2 - 0.389) <= 0.005
        and abs(expected - 18.57) <= 0.005
        and round(expected, 1) == 18.6
    )
    report(1, "Kupiec statistics and p-values on the published counts", ok,
           f"lr={lr1:.3f}/{lr2:.3f} p={p1:.3f}/{p2:.3f}")


def test_criterion_02_chi_square_critical_values():
    c1 = float(sps.chi2.ppf(0.95, 1))
    c2 = float(sps.chi2.ppf(0.95, 2))
    ok = abs(c1 - 3.841) <= 0.001 and abs(c2 - 5.991) <= 0.001
    report(2, "chi-square 95% critical values 3.841 (1 df) and 5.991 (2 df)", ok,
           f"{c1:.4f}, {c2:.4f}")


def test_criterion_03_amount_ratio_worked_example():
    occ = np.zeros((20, 20), dtype=np.int64)
    amo = np.zeros((20, 20), dtype=np.int64)
    occ[0, 0], amo[0, 0] = 5, 1_800_000
    occ[19, 2], amo[19, 2] = 1, 200_000
    cube = DayCube([dt.date(2015, 1, 1)], occ[None], amo[None])
    row = chainlets.cube_features(cube, [100.0])[0]
    ok = row.A_x == 0.1
    report(3, "200K of 2M extreme satoshis gives amount ratio exactly 0.1", ok,
           f"A_x={row.A_x}")


def test_criterion_04_chainlet_taxonomy():
    # three input addresses, one output address: C_{3->1} is cell [3-1, 1-1]
    builder = DayCubeBuilder(20)
    builder.add(np.array([[1420070400, 3, 1, 1000]]))  # 2015-01-01T00:00:00Z
    cells = [tuple(int(v) for v in c) for c in np.argwhere(builder.cube().occurrence[0])]
    # with one chainlet in every class, the counts are the extreme set sizes
    ones = np.ones((1, 20, 20), dtype=np.int64)
    row = chainlets.cube_features(DayCube([dt.date(2015, 1, 1)], ones, ones), [1.0])[0]
    ok = cells == [(2, 0)] and row.O_l == 20 and row.O_r == 19
    report(4, "3-in/1-out classifies as C_{3->1}; extreme set sizes 20 and 19", ok,
           f"cells={cells}, |left|={row.O_l}, |right|={row.O_r}")


def test_criterion_05_garch_parameter_recovery():
    spec = ModelSpec(0, 0, 0, "normal")
    true = ArmaGarchXParams(mu=0.0, alpha0=0.05, alpha1=0.10, beta=0.85)
    t0 = time.time()
    hits = 0
    for seed in range(10):
        y, _, _ = garchx.simulate(true, spec, None, 10_000, seed)
        result = garchx.fit(y, None, spec, restarts=2, seed=seed)
        persistence = result.params.alpha1[0] + result.params.beta[0]
        hits += abs(persistence - 0.95) <= 0.05
    elapsed = time.time() - t0
    ok = hits >= 8 and elapsed < 120
    report(5, "simulated GARCH(1,1) persistence recovered within 0.05 in >= 8/10 seeds", ok,
           f"{hits}/10 seeds, {elapsed:.1f}s")


def test_criterion_06_skew_t_correctness(skewt_law):
    ok = True
    details = []
    for nu, xi in [(5.0, 1.0), (5.0, 1.5), (8.0, 0.7)]:
        pdf = lambda z: skewt_law.pdf(z, nu, xi)
        total, _ = integrate.quad(pdf, -np.inf, np.inf)
        mean, _ = integrate.quad(lambda z: z * pdf(z), -np.inf, np.inf)
        var, _ = integrate.quad(lambda z: z * z * pdf(z), -np.inf, np.inf)
        ok &= abs(total - 1) <= 1e-6 and abs(mean) <= 1e-5 and abs(var - 1) <= 1e-5
        for p in (0.01, 0.25, 0.5, 0.75, 0.99):
            q = skewt.skewt_quantile(p, nu, xi)
            ok &= abs(skewt_law.cdf(q, nu, xi) - p) <= 1e-8
        details.append(f"nu={nu},xi={xi}: |int-1|={abs(total - 1):.1e}")
    report(6, "skew-t normalization, standardization and quantile round trips", bool(ok),
           "; ".join(details))


def test_criterion_07_var_coverage_on_simulated_truth(monkeypatch, fixed_fit):
    spec = ModelSpec(0, 0, 0, "normal")
    true = ArmaGarchXParams(mu=0.0, alpha0=0.05, alpha1=0.10, beta=0.85)
    # every refit of the rolling backtest returns the true parameters
    monkeypatch.setattr(bt, "fit", fixed_fit(true))
    t0 = time.time()
    freq_ok = 0
    kupiec_ok = 0
    for seed in range(20):
        y, _, _ = garchx.simulate(true, spec, None, 5000, seed)
        series = bt.rolling_backtest(y, None, spec, window=250, refit_every=7, level=0.01,
                                     restarts=5, seed=0)
        freq = series.n_breaches / series.n
        se = math.sqrt(0.01 * 0.99 / series.n)
        freq_ok += abs(freq - 0.01) <= 2 * se
        lr, _ = bt.kupiec_test(series.n, series.n_breaches, 0.01)
        kupiec_ok += lr <= bt.CHI2_CRIT_1DF_95
    elapsed = time.time() - t0
    ok = freq_ok >= 18 and kupiec_ok >= 18 and elapsed < 300
    report(7, "true-model VaR coverage and Kupiec non-rejection in >= 90% of seeds", ok,
           f"freq_ok={freq_ok}/20, kupiec_ok={kupiec_ok}/20, {elapsed:.1f}s")


def test_criterion_08_conditional_moment_oracle():
    rng = np.random.default_rng(0)
    L = rng.standard_t(df=4, size=1000)
    c = 0.4 * L + rng.normal(size=1000)
    ok = True
    for tail in (stats.Tail.LOWER, stats.Tail.UPPER):
        m = stats.conditional_moments(L, c, 0.05, tail)
        q = np.quantile(c, 0.05 if tail is stats.Tail.LOWER else 0.95)
        subset = L[c < q] if tail is stats.Tail.LOWER else L[c > q]
        mean = subset.mean()
        d = subset - mean
        m2, m3, m4 = (d**2).mean(), (d**3).mean(), (d**4).mean()
        for got, want in [
            (m.mean, mean), (m.std_dev, math.sqrt(m2)),
            (m.skewness, m3 / m2**1.5), (m.kurtosis, m4 / m2**2),
        ]:
            ok &= abs(got - want) <= 1e-10 * max(1.0, abs(want))
    z = stats.standardize(L)
    mu = stats.moments(z)
    ok &= abs(mu.mean) <= 1e-12 and abs(mu.std_dev - math.sqrt(999 / 1000)) <= 1e-10
    report(8, "conditional moments match a brute-force subset oracle at 1e-10", bool(ok))


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in ("CHAINVOL_OCC_FILE", "CHAINVOL_AMO_FILE", "CHAINVOL_PRICE_FILE")),
    reason="published chainlet matrices and price CSV not supplied",
)
def test_criterion_09_data_conditional_reproduction(tmp_path):
    from chainvol import cli

    occ, amo = os.environ["CHAINVOL_OCC_FILE"], os.environ["CHAINVOL_AMO_FILE"]
    prices = os.environ["CHAINVOL_PRICE_FILE"]
    fpath = tmp_path / "features.csv"
    assert cli.main(["features", occ, amo, prices, "--out", str(fpath)]) == 0
    assert cli.main(["analyze", str(fpath), prices, "--out", str(tmp_path)]) == 0
    ols = json.loads((tmp_path / "ols_report.json").read_text())
    signs = {c["name"]: c["estimate"] > 0 for c in ols["coefficients"]}
    ok = (
        signs["A_l"] and signs["A_r"] and signs["O_x"]
        and not signs["A_x"] and not signs["O_l"] and not signs["O_r"]
    )
    published = {
        "A_x_upper": (0.0861, 0.843, 1.590, 6.046),
        "A_x_lower": (-0.047, 1.107, 3.283, 31.618),
        "O_x_lower": (-0.081, 0.633, 1.296, 8.114),
        "O_x_upper": (0.118, 0.930, 2.025, 10.457),
    }
    cm = json.loads((tmp_path / "conditional_moments.json").read_text())
    for key, (mean, sd, skew, kurt) in published.items():
        got = cm[key]
        for name, want in zip(("mean", "std_dev", "skewness", "kurtosis"), (mean, sd, skew, kurt)):
            ok &= abs(got[name] - want) <= 0.20 * max(abs(want), 0.05)
    report(9, "published-data signs and conditional moments reproduce", bool(ok))


def test_criterion_10_likelihood_self_consistency():
    spec = ModelSpec(1, 1, 0, "skewt")
    true = ArmaGarchXParams(mu=0.0, phi=[0.2], theta=[0.1], alpha0=0.05,
                            alpha1=0.10, beta=0.85, nu=6.0, xi=1.2)
    y, _, _ = garchx.simulate(true, spec, None, 2000, seed=0)

    def f(v):
        return garchx.neg_log_likelihood(y, None, garchx.unpack_rows(v, spec), spec)[0]

    def fd(v, h):
        out = np.zeros_like(v)
        for i in range(v.size):
            e = np.zeros_like(v)
            e[i] = h
            out[i] = (f(v + e) - f(v - e)) / (2 * h)
        return out

    rng = np.random.default_rng(1)
    # true as a packed point: mu, phi, theta, log(alpha0), logit(alpha1 + beta),
    # logit(alpha1 / (alpha1 + beta)), log(nu - 2), log(xi)
    persistence = 0.10 + 0.85
    split = 0.10 / persistence
    v0 = np.array([0.0, 0.2, 0.1, np.log(0.05), np.log(persistence / (1.0 - persistence)),
                   np.log(split / (1.0 - split)), np.log(6.0 - 2.0), np.log(1.2)])
    ok = True
    worst = 0.0
    for _ in range(5):
        v = v0 + rng.normal(scale=0.05, size=v0.size)
        g1 = fd(v, 1e-5)
        g2 = fd(v, 2e-5)
        rel = float(np.max(np.abs(g1 - g2) / np.maximum(np.abs(g1), 1.0)))
        worst = max(worst, rel)
        ok &= rel <= 1e-3

    # GARCHX with zero exogenous coefficients matches plain GARCH exactly
    rng2 = np.random.default_rng(2)
    x = rng2.normal(size=(3, 2000))
    px = ArmaGarchXParams(mu=0.0, phi=[0.2], theta=[0.1], alpha0=0.05,
                          alpha1=0.10, beta=0.85, beta_x=[0.0, 0.0, 0.0], nu=6.0, xi=1.2)
    (nll_x,) = garchx.neg_log_likelihood(y, x, px, ModelSpec(1, 1, 3, "skewt"))
    (nll_0,) = garchx.neg_log_likelihood(y, None, true, spec)
    ok &= abs(nll_x - nll_0) <= 1e-12
    report(10, "gradient Richardson check at 1e-3 and exact GARCHX->GARCH reduction", bool(ok),
           f"worst_rel={worst:.2e}, |nll diff|={abs(nll_x - nll_0):.1e}")
