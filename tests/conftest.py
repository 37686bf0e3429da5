import numpy as np
import pytest

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
