"""Blockchain-graph risk analytics: chainlet matrices, extreme-activity
features, OLS volatility regressions and ARMA-GARCHX VaR backtesting."""

__version__ = "0.1.0"
__all__ = ["__version__"]
