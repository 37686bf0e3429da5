import types

import numpy as np
import pytest
from scipy import stats as sps

from chainvol import skewt
from chainvol.garchx import FitResult


@pytest.fixture
def fixed_fit():
    """A factory of stand-ins for garchx.fit: fixed_fit(params) fits every
    window to params, with x_mean 0 and x_std 1. (x - 0.0) / 1.0 is x, so
    rolling_backtest's refit loop then forecasts every day under params and
    the raw regressors, the same bits whatever its refit blocks."""

    def make(params):
        def fit(y, x, spec, restarts, seed):
            return FitResult(spec, params, 0.0, True, 0, np.zeros(spec.k), np.ones(spec.k))

        return fit

    return make


@pytest.fixture(scope="session")
def skewt_law():
    """The density and the distribution function of the standardized skew-t,
    oracles for skewt_quantile: pdf is exp of skewt_logpdf, and cdf the
    Fernandez-Steel skewing of scipy's Student-t distribution function."""

    def pdf(z, nu, xi):
        return np.exp(skewt.skewt_logpdf(z, nu, xi))

    def cdf(z, nu, xi):
        mean, sd = skewt._fs_constants(nu, xi)
        w = sd * np.asarray(z, dtype=float) + mean
        c = np.sqrt(nu / (nu - 2.0))
        lo = 2.0 / (1.0 + xi**2) * sps.t.cdf(w * xi * c, nu)
        hi = 1.0 / (1.0 + xi**2) + 2.0 * xi**2 / (1.0 + xi**2) * (sps.t.cdf(w / xi * c, nu) - 0.5)
        return float(np.where(w < 0, lo, hi))

    return types.SimpleNamespace(pdf=pdf, cdf=cdf)
