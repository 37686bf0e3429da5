"""Exception types shared across the package."""


class ChainvolError(Exception):
    """Base class for all package errors; a path and line number prefix the message."""

    def __init__(self, message, path=None, line_no=None):
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line_no is not None:
            prefix += f":{line_no}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ParseError(ChainvolError):
    """A file line could not be parsed. Carries the path and 1-based line number."""

    def __init__(self, message, path, line_no):
        self.path = path
        self.line_no = line_no
        super().__init__(message, path, line_no)


class ValidationError(ChainvolError):
    """Data violates a documented invariant (negative price, duplicate date, ...)."""


class AlignmentError(ChainvolError):
    """Two daily series do not cover the same calendar; path names the file
    that lacks the missing dates."""

    def __init__(self, message, missing_dates, path=None):
        self.missing_dates = list(missing_dates)
        if self.missing_dates:
            shown = ", ".join(str(d) for d in self.missing_dates[:10])
            message = f"{message} (missing: {shown})"
        super().__init__(message, path)


class DegenerateSeriesError(ChainvolError):
    """A series has zero variance or too few observations for the operation."""


class RedundantColumnError(ValidationError):
    """A column of a regression design is a linear combination of the
    others; column is its name."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"rank-deficient design: column {column!r} is redundant")


class FitError(ChainvolError):
    """Model estimation failed across all restarts."""


class NonFiniteStateError(ChainvolError):
    """A forecast's filter state is not finite. day is the position of its
    forecast day: among the windows of forecast_one, then in the series of
    rolling_backtest."""

    def __init__(self, day):
        self.day = day
        super().__init__(f"non-finite filter state forecasting day {day}")


class RegressorOverflowError(ChainvolError):
    """A regressor overflows in a fit's standardization. column is its row in
    the regressor matrix; first and last are the positions of the fit's first
    and last days: in the fitted series, then in the series of
    rolling_backtest."""

    def __init__(self, column, first, last):
        self.column, self.first, self.last = column, first, last
        super().__init__(f"regressor {column} overflows in its standardization "
                         f"over days {first}..{last}")
