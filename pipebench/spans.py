"""Spans for the traced run: timing wrappers around the public functions of
each chainvol module, patched where their callers look the names up.

Spans are kept in memory as (id, parent, name, start, end) and written out
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

# (layer, module that defines the function, function names). innovation_logpdf
# is defined in garchx but is the innovation density, so it counts as skewt.
TRACED = (
    ("cli", "chainvol.cli", ("build_parser", "resolve_config")),
    ("ingest", "chainvol.ingest", (
        "load_transactions", "load_prices", "load_matrix_file", "write_matrix_file",
        "atomic_write_text",
    )),
    ("chainlets", "chainvol.chainlets", (
        "build_matrix", "combine_matrices", "feature_series", "write_feature_csv",
        "read_feature_csv",
    )),
    ("stats", "chainvol.stats", (
        "log_returns", "standardize", "ols_fit", "moments", "conditional_moments",
        "empirical_quantile", "gaussian_kde_grid",
    )),
    ("garchx", "chainvol.garchx", ("fit", "neg_log_likelihood", "filter_model", "forecast_one")),
    ("skewt", "chainvol.garchx", ("innovation_logpdf",)),
    ("skewt", "chainvol.skewt", ("skewt_quantile",)),
    ("backtest", "chainvol.backtest", (
        "rolling_backtest", "var_from_forecast", "backtest_report", "diebold_mariano",
    )),
)
LAYERS = ("cli", "ingest", "chainlets", "stats", "garchx", "skewt", "backtest")
STAGE_PREFIX = "stage."


# Calls whose arguments and results are kept for the traced run's checks.
KEPT_CALLS = ("garchx.fit", "backtest.rolling_backtest")


class Tracer:
    """Spans kept in memory; ``install`` patches the wrappers into chainvol."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        # name -> list of (span id, args, kwargs, result or None, exception or None)
        self.calls: dict[str, list] = {}
        self._undo: list = []
        self._originals: dict = {}

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[sid][3] = start
        self.spans[sid][4] = end

    def run_span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside one span."""
        return self.wrap(name, fn, keep_calls=False)(*args)

    def wrap(self, name: str, fn, keep_calls: bool):
        if keep_calls:
            self._originals[name] = fn

        def traced(*args, **kwargs):
            sid = self._open(name)
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self._close(sid, start, time.perf_counter())
                if keep_calls:
                    self.calls.setdefault(name, []).append((sid, args, kwargs, result, error))

        return traced

    def install(self) -> None:
        """Patch every chainvol module that binds a traced function."""
        modules = [m for n, m in sys.modules.items() if n.startswith("chainvol") and m]
        for layer, home, names in TRACED:
            for fname in names:
                fn = getattr(sys.modules[home], fname)
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, fn, name in KEPT_CALLS)
                for mod in modules:
                    if getattr(mod, fname, None) is fn:
                        self._undo.append((mod, fname, fn))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._undo):
            setattr(mod, fname, fn)
        self._undo.clear()

    def bound_calls(self, name: str):
        """(span id, arguments by name, result, exception) of each kept call."""
        signature = inspect.signature(self._originals[name])
        out = []
        for sid, args, kwargs, result, error in self.calls.get(name, []):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            out.append((sid, bound.arguments, result, error))
        return out


class SpanSummary:
    """Durations, self times and stage attribution of a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.duration = [s[4] - s[3] for s in spans]
        child_time = [0.0] * n
        self.root = list(range(n))
        for sid, parent, _, _, _ in spans:
            if parent is not None:
                child_time[parent] += self.duration[sid]
                self.root[sid] = self.root[parent]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]
        self.child_time = child_time

    def by_name(self, name: str) -> list[float]:
        return [self.duration[s[0]] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return sum(self.by_name(name))

    def count(self, name: str) -> int:
        return len(self.by_name(name))

    def mean_us(self, name: str) -> float:
        values = self.by_name(name)
        return 1e6 * sum(values) / len(values) if values else 0.0

    def median(self, name: str) -> float:
        values = self.by_name(name)
        return statistics.median(values) if values else 0.0

    def child_total(self, parent_name: str, child_name: str) -> float:
        parents = {s[0] for s in self.spans if s[2] == parent_name}
        return sum(self.duration[s[0]] for s in self.spans
                   if s[2] == child_name and s[1] in parents)

    def stages(self) -> dict[str, dict]:
        """Per stage: duration, self time of each layer, time outside any layer span."""
        out = {}
        for sid, parent, name, _, _ in self.spans:
            if parent is None and name.startswith(STAGE_PREFIX):
                out[name[len(STAGE_PREFIX):]] = {
                    "duration_s": self.duration[sid],
                    "layers_self_s": {},
                    "unattributed_s": self.duration[sid] - self.child_time[sid],
                    "_sid": sid,
                }
        by_sid = {v["_sid"]: v for v in out.values()}
        for sid, parent, name, _, _ in self.spans:
            stage = by_sid.get(self.root[sid])
            if stage is None or parent is None:
                continue
            layer = name.split(".", 1)[0]
            stage["layers_self_s"][layer] = stage["layers_self_s"].get(layer, 0.0) + self.self_time[sid]
        for v in out.values():
            del v["_sid"]
        return out
