"""Pipeline benchmark for chainvol: extract -> features -> analyze -> backtest.

    python3 pipebench/run.py --workload chain-large --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark writes its seeded inputs, then
runs rounds of the pipeline until ``--seconds`` have passed (at least one
round). Every output is checked against references computed apart from the
program (reference.py).

--trace 0  Each stage is its own ``python -m chainvol.cli`` process, one at
           a time, timed from outside. Prints the end-to-end metrics.
--trace 1  The same stages run in this process through ``chainvol.cli.main``:
           twice plain, then once with timing wrappers (spans.py) around
           the public functions of each module. Prints the per-layer metrics and
           the tracing overhead, and writes the spans to
           pipebench/_out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is one CLI call or
one forecast day of one model; a forecast day fails when its VaR is not a
positive finite loss threshold.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every stage process.
THREAD_ENV = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")

SETUP_REPEATS = 3
PROBES = 4  # fresh-process `--help` calls (untraced) or imports (traced) per round
STAGES = ("extract", "features", "analyze", "backtest")
ALPHA_TAIL = 0.05
VAR_LEVEL = 0.01
DM_HORIZON = 30
STAGE_LAYERS = {
    "extract": ("cli", "ingest", "chainlets"),
    "features": ("cli", "ingest", "chainlets"),
    "analyze": ("cli", "ingest", "chainlets", "stats"),
    "backtest": spans.LAYERS,
}


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, ok: bool, n: int = 1, failed: int | None = None) -> None:
        self.attempted += n
        self.failed += (0 if ok else n) if failed is None else failed

    def check(self, label: str, fn, *args) -> tuple[bool, object]:
        """Run one check; a failure marks the run incorrect. Returns (passed, fn's value)."""
        try:
            return True, fn(*args)
        except (ref.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            print(f"CHECK FAILED [{label}]: {exc}", file=sys.stderr)
            self.correct = False
            return False, None


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Case:
    """One workload at one seed: its files, stage arguments and references."""

    def __init__(self, workload: wl.Workload, seed: int, directory: str | None = None):
        self.w = workload
        self.seed = seed
        self.dir = directory or os.path.join(WORK_DIR, f"{workload.name}-{seed}")
        a = list(workload.backtest_args)
        self.window = int(a[a.index("--window") + 1])
        self.compare = "--compare" in a
        self.models = ["garch", "garchx"] if self.compare else [a[a.index("--model") + 1]]
        self.forecast_days = workload.days - self.window
        self.inputs: wl.Inputs | None = None

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def setup(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.inputs = wl.write_inputs(self.w, self.seed, self.path("inputs"))
            times.append(time.perf_counter() - start)
        return times

    def prepare_references(self) -> None:
        rows = ref.read_transactions(self.inputs.transactions)
        self.rows = len(rows)
        self.matrices = ref.Matrices(rows, wl.THRESHOLD)
        close_by_date = dict(zip(self.inputs.dates, self.inputs.closes))
        self.closes = np.array([close_by_date[d] for d in self.matrices.dates])
        r = ref.log_returns(self.inputs.closes)
        self.returns_by_date = dict(zip(self.inputs.dates[:-1], r))
        keep = [k for k, d in enumerate(self.matrices.dates) if d in self.returns_by_date]
        self.X = ref.reference_features(self.matrices, self.closes)[keep]
        self.r = np.array([self.returns_by_date[self.matrices.dates[k]] for k in keep])

    def argv(self, stage: str) -> list[str]:
        p, inp = self.path, self.inputs
        return {
            "extract": ["extract", inp.transactions,
                        "--out-occurrence", p("occ.txt"), "--out-amount", p("amo.txt")],
            "features": ["features", p("occ.txt"), p("amo.txt"), inp.prices,
                         "--out", p("features.csv")],
            "analyze": ["analyze", p("features.csv"), inp.prices, "--out", p("analysis")],
            "backtest": ["backtest", p("features.csv"), inp.prices, "--out", p("backtest"),
                         *self.w.backtest_args],
        }[stage]

    def check_call(self, tally: Tally, stage: str, rc: int, stdout: str) -> tuple[bool, int | None]:
        """Check the outputs of one stage call. Returns whether it passed and,
        for a backtest that passed, its failed forecast days."""
        p = self.path
        if rc != 0:
            print(f"stage {stage} exited with {rc}", file=sys.stderr)
            return False, None
        if stage == "extract":
            return tally.check(stage, ref.check_extract, self.matrices,
                               p("occ.txt"), p("amo.txt"), stdout)[0], None
        if stage == "features":
            return tally.check(stage, ref.check_features, p("features.csv"),
                               self.matrices, self.closes)[0], None
        if stage == "analyze":
            return all([
                tally.check("ols", lambda: ref.check_ols(
                    load_json(p("analysis", "ols_report.json")), self.X, self.r))[0],
                tally.check("moments", lambda: ref.check_moments(
                    load_json(p("analysis", "conditional_moments.json")),
                    self.X, self.r, ALPHA_TAIL))[0],
                *(tally.check("kde", ref.check_kde, p("analysis", f"density_{panel}.csv"))[0]
                  for panel in ("A_x", "O_x")),
            ]), None
        ok, failed = tally.check(stage, ref.check_backtest, p("backtest"), self.models,
                                 self.returns_by_date, VAR_LEVEL,
                                 DM_HORIZON if self.compare else None)
        return ok, sum(failed.values()) if ok else None

    def count_stage(self, tally: Tally, stage: str, checked: list[tuple[bool, int | None]]) -> None:
        """One operation per stage and round, failed if any of its calls failed;
        after the backtest, one per forecast day and model."""
        tally.op(all(ok for ok, _ in checked))
        if stage == "backtest":
            days = self.forecast_days * len(self.models)
            failed = [f for ok, f in checked if ok]
            tally.op(True, days, failed=max(failed) if failed else days)


# --- untraced run: one process per stage -------------------------------------

def stage_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd: list[str], log: str) -> tuple[int, float, float, str]:
    """Run to completion through launch.py; returns exit code, wall seconds of
    the command, its peak RSS in MB and its stdout."""
    launcher = [sys.executable, os.path.join(HERE, "launch.py"), log + ".json"]
    with open(log + ".out", "w+", encoding="utf-8") as out, \
            open(log + ".err", "w", encoding="utf-8") as err:
        subprocess.run(launcher + cmd, stdout=out, stderr=err, env=stage_env(), cwd=ROOT,
                       check=True)
        out.seek(0)
        stdout = out.read()
    r = load_json(log + ".json")
    return r["returncode"], r["seconds"], r["peak_rss_mb"], stdout


def call_passes(calls: int) -> set[int]:
    """The passes, spread evenly from the first to the last, that call a
    stage ``calls`` times."""
    if calls == 1:
        return {0}
    return {round(i * (PROBES - 1) / (calls - 1)) for i in range(calls)}


def untraced_round(case: Case, tally: Tally) -> dict[str, float]:
    """PROBES passes; each starts with a `--help` probe and then calls the
    stages whose calls fall in it, so that the samples of each metric are
    spread over the round and its median sees more than one speed of a
    shared machine."""
    cli = [sys.executable, "-m", "chainvol.cli"]
    probes, checked = [], {stage: [] for stage in STAGES}
    times = {stage: [] for stage in STAGES}
    rss = []
    passes = {stage: call_passes(calls) for stage, calls in zip(STAGES, case.w.stage_calls)}
    for k in range(PROBES):
        probes.append(run_process(cli + ["--help"], case.path("logs", f"help{k}")))
        for stage in STAGES:
            if k not in passes[stage]:
                continue
            rc, seconds, peak, stdout = run_process(cli + case.argv(stage),
                                                    case.path("logs", f"{stage}{k}"))
            checked[stage].append(case.check_call(tally, stage, rc, stdout))
            times[stage].append(seconds)
            if stage == "extract":
                rss.append(peak)
    tally.op(all(rc == 0 for rc, *_ in probes))
    for stage in STAGES:
        case.count_stage(tally, stage, checked[stage])
    metrics = {f"{stage}_s": statistics.median(times[stage]) for stage in STAGES}
    metrics["cli_start_s"] = statistics.median(seconds for _, seconds, _, _ in probes)
    metrics["extract_peak_rss_mb"] = statistics.median(rss)
    return metrics


# --- traced run: stages in this process, with and without spans ---------------

def run_inprocess(cli, argv: list[str], caught: list) -> tuple[int, str]:
    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as recorded, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except Exception:  # a crash fails the stage; the round goes on
            traceback.print_exc()
            rc = -1
    caught.extend(recorded)
    return rc, buf.getvalue()


def fresh_import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import chainvol.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=stage_env(), cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"import of chainvol.cli failed: {proc.stderr}")
    return float(proc.stdout.strip())


def check_fits_and_var(tracer: spans.Tracer, tally: Tally) -> tuple[int, int]:
    """Recompute each refit's log-likelihood and each day's VaR at the program's
    own fitted parameters. Returns the numbers of fits with a non-invertible MA
    polynomial and of fits whose reported log-likelihood is not attained."""
    fits = tracer.bound_calls("garchx.fit")
    noninvertible = unattained = 0
    for _, args, result, _ in fits:
        if result is None:
            continue
        p = result.params.to_dict()
        noninvertible += ref.ma_inverse_root_modulus(p["theta"]) >= 1.0
        _, known_fault = tally.check("fit log-likelihood", _check_fit, args, result, p)
        unattained += bool(known_fault)
    parent_of = {s[0]: s[1] for s in tracer.spans}
    for sid, args, series, _ in tracer.bound_calls("backtest.rolling_backtest"):
        if series is None:
            continue
        own = [None if e is not None else
               (r.params.to_dict(), r.x_mean, r.x_std, r.spec.distribution)
               for fsid, _, r, e in fits if parent_of[fsid] == sid]
        tally.check("VaR", ref.check_var_days, args["y"], args["x"], args["window"],
                    args["refit_every"], args["level"], series.var_value, own)
    return noninvertible, unattained


def _check_fit(args: dict, result, params: dict) -> bool:
    """True when the fit shows the known unattained-log-likelihood fault."""
    try:
        ref.check_fit(args["y"], args["x"], params, result.spec.distribution,
                      result.loglik, result.x_mean, result.x_std)
    except ref.UnattainedLoglik as exc:
        print(f"known fault, fit log-likelihood not attained: {exc}", file=sys.stderr)
        return True
    return False


def traced_round(case: Case, tally: Tally) -> tuple[dict[str, float], dict]:
    probes = [fresh_import_seconds() for _ in range(PROBES)]
    tally.op(True)
    from chainvol import cli

    tracer = spans.Tracer()
    untraced: dict[str, float] = {}
    caught: list = []
    for stage in STAGES:
        argv = case.argv(stage)
        # The first call pays one-time costs, such as growing the heap, so the
        # plain call that the traced one is compared with is the second.
        run_inprocess(cli, argv, [])
        start = time.perf_counter()
        run_inprocess(cli, argv, [])
        untraced[stage] = time.perf_counter() - start
        tracer.install()
        try:
            rc, stdout = tracer.run_span(spans.STAGE_PREFIX + stage, run_inprocess,
                                         cli, argv, caught)
        finally:
            tracer.uninstall()
        case.count_stage(tally, stage, [case.check_call(tally, stage, rc, stdout)])
    noninvertible, unattained = check_fits_and_var(tracer, tally)

    s = spans.SpanSummary(tracer.spans)
    stages = s.stages()
    for stage in STAGES:
        stages[stage]["untraced_s"] = untraced[stage]
        stages[stage]["overhead_s"] = stages[stage]["duration_s"] - untraced[stage]
    fits = [r for _, _, r, _ in tracer.bound_calls("garchx.fit") if r is not None]
    series = [r for _, _, r, _ in tracer.bound_calls("backtest.rolling_backtest") if r is not None]
    n_fits = s.count("garchx.fit")
    days = sum(v.n for v in series)
    load_s = s.total("ingest.load_transactions")
    nll_s = s.total("garchx.neg_log_likelihood")
    m = {
        "cli.import_s": statistics.median(probes),
        "ingest.load_transactions_s": load_s,
        "ingest.tx_per_s": case.rows / load_s if load_s else 0.0,
        "ingest.write_matrix_file_s": s.total("ingest.write_matrix_file"),
        "ingest.load_matrix_file_s": s.total("ingest.load_matrix_file"),
        "ingest.load_prices_s": s.total("ingest.load_prices"),
        "chainlets.build_matrix_s": s.total("chainlets.build_matrix"),
        "chainlets.build_matrix_calls": s.count("chainlets.build_matrix"),
        "chainlets.combine_matrices_s": s.total("chainlets.combine_matrices"),
        "chainlets.feature_series_s": s.total("chainlets.feature_series"),
        "chainlets.read_feature_csv_s": s.total("chainlets.read_feature_csv"),
        "stats.ols_fit_s": s.total("stats.ols_fit"),
        "stats.conditional_moments_s": s.total("stats.conditional_moments"),
        "stats.gaussian_kde_grid_s": s.total("stats.gaussian_kde_grid"),
        "garchx.fits": n_fits,
        "garchx.fit_s": s.median("garchx.fit"),
        "garchx.nll_evals_per_fit": s.count("garchx.neg_log_likelihood") / n_fits if n_fits else 0.0,
        "garchx.nll_eval_us": s.mean_us("garchx.neg_log_likelihood"),
        "garchx.filter_model_calls": s.count("garchx.filter_model"),
        "garchx.filter_model_us": s.mean_us("garchx.filter_model"),
        "garchx.optimizer_iterations": sum(f.iterations for f in fits),
        "garchx.noninvertible_fits": noninvertible,
        "garchx.unattained_loglik_fits": unattained,
        "garchx.runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "skewt.innovation_logpdf_us": s.mean_us("skewt.innovation_logpdf"),
        "skewt.logpdf_share_of_nll":
            s.child_total("garchx.neg_log_likelihood", "skewt.innovation_logpdf") / nll_s
            if nll_s else 0.0,
        "backtest.rolling_backtest_s": s.total("backtest.rolling_backtest"),
        "backtest.forecast_days": days,
        "backtest.forecast_step_us":
            1e6 * (s.total("backtest.rolling_backtest")
                   - s.child_total("backtest.rolling_backtest", "garchx.fit")) / days
            if days else 0.0,
        "backtest.refit_failures": sum(len(v.refit_failures) for v in series),
        "backtest.coverage_tests_s":
            s.total("backtest.backtest_report") + s.total("backtest.diebold_mariano"),
    }
    for stage in STAGES:
        st = stages[stage]
        for layer in STAGE_LAYERS[stage]:
            m[f"{stage}.self.{layer}_s"] = st["layers_self_s"].get(layer, 0.0)
        m[f"{stage}.unattributed_s"] = st["unattributed_s"]
        m[f"{stage}.trace_overhead_s"] = st["overhead_s"]
    traced_total = sum(stages[st]["duration_s"] for st in STAGES)
    untraced_total = sum(untraced.values())
    m["trace.overhead_share"] = (traced_total - untraced_total) / untraced_total

    t0 = min((sp[3] for sp in tracer.spans), default=0.0)
    record = {
        "stages": stages,
        "spans": [[sid, parent, name, start - t0, end - t0]
                  for sid, parent, name, start, end in tracer.spans],
    }
    return m, record


# --- entry point ------------------------------------------------------------

def load_metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def print_stage_table(record: dict) -> None:
    print("stage      traced_s untraced_s overhead_s unattributed_s  layer self times (s)",
          file=sys.stderr)
    for stage, st in record["stages"].items():
        layers = " ".join(f"{k}={v:.3f}" for k, v in sorted(st["layers_self_s"].items()))
        print(f"{stage:<10} {st['duration_s']:8.3f} {st['untraced_s']:10.3f} "
              f"{st['overhead_s']:10.3f} {st['unattributed_s']:14.3f}  {layers}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chainvol", "cli.py")):
        print(f"error: chainvol sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import chainvol

    units = load_metric_spec()[args.trace]
    case = Case(wl.WORKLOADS[args.workload], args.seed)
    print(f"# workload={case.w.name} seed={case.seed} trace={args.trace} "
          f"chainvol.NUMBA_ENABLED={getattr(chainvol, 'NUMBA_ENABLED', 'absent')} "
          f"cores={os.cpu_count()} usable_cores={len(os.sched_getaffinity(0))}")
    shutil.rmtree(case.dir, ignore_errors=True)
    os.makedirs(case.path("logs"))
    tally = Tally()
    try:
        setup = case.setup()
        case.prepare_references()
        rounds, record = [], None
        start = time.perf_counter()
        while True:
            if args.trace:
                metrics, record = traced_round(case, tally)
            else:
                metrics = untraced_round(case, tally)
                metrics["setup_s"] = statistics.median(setup)
            rounds.append(metrics)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(case.dir, ignore_errors=True)

    if record is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{case.w.name}-{case.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": case.w.name, "seed": case.seed, **record}, fh)
        print_stage_table(record)
        print(f"# spans: {len(record['spans'])} written to {os.path.relpath(trace_path, ROOT)}")
    print(f"# rounds: {len(rounds)}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(statistics.median(r[name] for r in rounds)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
