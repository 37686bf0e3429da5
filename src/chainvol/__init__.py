"""Blockchain-graph risk analytics: chainlet matrices, extreme-activity
features, OLS volatility regressions and ARMA-GARCHX VaR backtesting.

The constants that the command line parses and checks its options against
live here, not in the modules that use them, so that a process that only
parses its arguments loads neither numpy nor any of those modules.
"""

from enum import Enum

__version__ = "0.1.0"
__all__ = ["__version__"]

DEFAULT_THRESHOLD = 20  # chainlet class N: more inputs or outputs clamp into it
DISTRIBUTIONS = ("normal", "t", "skewt")  # the innovation laws of a model
MIN_OBS = 50  # the shortest series worth fitting


class GapPolicy(Enum):
    """What a calendar day missing from a price file does: an error, or the
    price of the day before."""

    ERROR = "error"
    FORWARD_FILL = "ffill"
