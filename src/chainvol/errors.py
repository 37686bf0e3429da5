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

    def __init__(self, message, path=None, line_no=None):
        self.path = path
        self.line_no = line_no
        super().__init__(message, path, line_no)


class ValidationError(ChainvolError):
    """Data violates a documented invariant (negative price, duplicate date, ...)."""


class AlignmentError(ChainvolError):
    """Two daily series do not cover the same calendar."""

    def __init__(self, message, missing_dates=()):
        self.missing_dates = list(missing_dates)
        if self.missing_dates:
            shown = ", ".join(str(d) for d in self.missing_dates[:10])
            message = f"{message} (missing: {shown})"
        super().__init__(message)


class DegenerateSeriesError(ChainvolError):
    """A series has zero variance or too few observations for the operation."""


class FitError(ChainvolError):
    """Model estimation failed across all restarts."""

    def __init__(self, message, best_result=None):
        self.best_result = best_result
        super().__init__(message)
