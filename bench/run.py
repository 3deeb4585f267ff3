"""skylink CLI benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload example --seed 0 --seconds 34 --trace 0

Each command of a workload runs as ``python -m skylink.cli`` in its own
process, with the checkout's absolute ``src`` directory on PYTHONPATH (no
install needed), and is timed from process start to exit. Repetitions of
the whole command sequence run for about ``--seconds``; every metric is the
median over the repetitions. Timings are scaled to a nominal host speed
by the ``reference.py`` runs around each command (see REFERENCE_NOMINAL_S).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced repetitions with traced ones, in which each command runs under
``trace_child.py``; it reports the per-layer metrics and the tracing
overhead (traced minus untraced ``wall_s``).

Every repetition checks the outputs: exit codes, a row count for every
artifact, PLOS in [0, 1], one finite float per predicted row, and the same
SHA-256 for each artifact in every repetition. A command that exits
nonzero is a failed op: it is counted, with its exit code and first
``error:`` line, and the run goes on. A check that fails on a successful
op makes this command exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(machine facts, calibration loop, per-op times, failures, artifact hashes)
goes to ``bench/out/results-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
REFERENCE = os.path.join(HERE, "reference.py")
PYTHON = sys.executable

# (name, unit). The first eight are the end-to-end metrics of the JSON
# result; error_rate is 0 on workloads where no op fails, so it is printed
# and recorded but carried in the JSON by ``attempted`` and ``failed``.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("gen_rows_per_s", "rows/s"),
    ("train_steps_per_s", "steps/s"),
    ("score_rows_per_s", "rows/s"),
    ("curves_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rmse_db", "dB"),
)
REPORTED = END_TO_END + (("error_rate", "ratio"),)

# Host-speed scaling. The host's CPU speed drifts by tens of percent over
# seconds to minutes, so raw times of the same code differ more between
# runs than any useful bound. ``reference.py`` runs before the first
# command and after every command; each command's time is divided by the
# mean of the reference times next to it over REFERENCE_NOMINAL_S, which
# gives its time at the nominal host speed. That is one reference on each
# side, or two for a command longer than LONG_COMMAND_S: a long command
# spans more of the host's speed changes, and the wider mean tracked those
# commands better while the narrow one tracked short commands better. The
# timing metrics are computed from these times; the measured values are
# printed beside them and kept in the record.
REFERENCE_NOMINAL_S = 0.25
LONG_COMMAND_S = 1.5
TIMED = ("wall_s", "setup_s", "gen_rows_per_s", "train_steps_per_s",
         "score_rows_per_s", "curves_s")

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
NO_WAITING = "not recorded: one thread and no queues, so no layer waits"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


@dataclass
class OpResult:
    name: str
    stage: str
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    error: str


def run_child(argv, cwd, stdout_path, stderr_path) -> tuple[int, float, object]:
    """Run one process to completion; returns (exit code, wall s, rusage)."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_op(op, workdir, logdir, index, trace_to=None, run_id="") -> OpResult:
    for path in op.artifacts:
        full = os.path.join(workdir, path)
        if os.path.exists(full):
            os.remove(full)
    if trace_to is None:
        argv = [PYTHON, "-m", "skylink.cli", *op.argv]
    else:
        argv = [PYTHON, TRACE_CHILD, trace_to, run_id, "--", *op.argv]
    out_path = os.path.join(logdir, f"op{index}.out")
    err_path = os.path.join(logdir, f"op{index}.err")
    code, wall, usage = run_child(argv, workdir, out_path, err_path)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        errors = [line for line in fh if line.startswith("error:")]
    return OpResult(
        name=op.name, stage=op.stage, code=code, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout, error=errors[0].strip() if errors else "",
    )


# ---------------------------------------------------------------- checks


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_table(path: str, lines: list[str], header_len: int | None) -> tuple[int, list[str]]:
    """Data rows and problems of a CSV body (header first, no comments)."""
    problems = []
    header = lines[0].split(",") if lines else []
    if not header or (header_len is not None and len(header) != header_len):
        return 0, [f"{path}: bad header {header!r}"]
    numeric = [i for i, h in enumerate(header) if h not in ("index", "scenario")]
    bounded = [i for i, h in enumerate(header) if h.upper().startswith("PLOS")]
    rows = lines[1:]
    for lineno, line in enumerate(rows, start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            problems.append(f"{path}:{lineno}: {len(fields)} fields")
            break
        if not all(_finite(fields[i]) for i in numeric):
            problems.append(f"{path}:{lineno}: non-finite value")
            break
        if not all(0.0 <= float(fields[i]) <= 1.0 for i in bounded):
            problems.append(f"{path}:{lineno}: PLOS outside [0, 1]")
            break
    return len(rows), problems


def count_rows(path: str, kind: str) -> tuple[int, list[str]]:
    """Data rows of an artifact and any problems found while reading it."""
    try:
        if kind in ("sidecar", "model"):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if kind == "model":
                if not all(math.isfinite(v) for v in doc["spans"]):
                    return 0, [f"{path}: non-finite span"]
                return len(doc["centers"]), []
            return len(doc.get("distances_m") or doc.get("altitudes_m") or []), []
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 0, [f"{path}: unreadable: {exc}"]
    return _check_table(path, lines, 8 if kind == "dataset" else None)


def check_stdout(op, stdout: str) -> tuple[dict[str, float], list[str]]:
    """Numbers an op prints, and problems with its standard output."""
    lines = stdout.splitlines()
    if op.stage == "predict":
        if len(lines) != op.stdout_rows:
            return {}, [f"predict printed {len(lines)} lines for {op.stdout_rows} rows"]
        if not all(_finite(line) for line in lines):
            return {}, ["predict printed a non-finite or non-numeric line"]
        return {}, []
    if op.stage in ("eval", "train"):
        values = dict(line.split("=", 1) for line in lines if "=" in line)
        keys = ("rmse_db", "mae_db", "max_abs_error_db") if op.stage == "eval" \
            else ("train_rmse_db", "val_rmse_db")
        if not all(_finite(values.get(k, "")) for k in keys):
            return {}, [f"{op.stage} printed no finite {', '.join(keys)}"]
        return {k: float(values[k]) for k in keys}, []
    return {}, []


def check_op(op, result: OpResult, workdir: str, hashes: dict[str, str]) -> tuple[dict, list[str]]:
    """Check a successful op's outputs; record and compare their SHA-256."""
    printed, problems = check_stdout(op, result.stdout)
    digests = {f"stdout:{op.name}": hashlib.sha256(result.stdout.encode()).hexdigest()}
    for path, (kind, rows) in op.artifacts.items():
        full = os.path.join(workdir, path)
        if not os.path.isfile(full):
            problems.append(f"{op.name}: missing artifact {path}")
            continue
        found, issues = count_rows(full, kind)
        problems += issues
        if found != rows:
            problems.append(f"{path}: {found} rows, expected {rows}")
        digests[path] = _sha256(full)
    for key, digest in digests.items():
        if hashes.setdefault(key, digest) != digest:
            problems.append(f"{key}: SHA-256 differs between repetitions")
    return printed, problems


# --------------------------------------------------------------- metrics


def _throughput(ops, results, times, stages) -> float | None:
    wall = sum(t for r, t in zip(results, times) if r.stage in stages)
    work = sum(op.work for op, r in zip(ops, results)
               if op.stage in stages and r.code == 0)
    return work / wall if wall else None


def stage_metrics(ops, results, times, rmse) -> dict[str, float]:
    """A repetition's metrics, with ``times[i]`` as the time of op i."""
    curves = [t for r, t in zip(results, times) if r.stage == "curves"]
    metrics = {
        "wall_s": sum(times),
        "gen_rows_per_s": _throughput(ops, results, times, ("generate",)),
        "train_steps_per_s": _throughput(ops, results, times, ("train",)),
        "score_rows_per_s": _throughput(ops, results, times, ("predict", "eval")),
        "curves_s": sum(curves) if curves else None,
        "peak_rss_mb": max(r.maxrss_mb for r in results),
        "rmse_db": rmse,
        "error_rate": sum(r.code != 0 for r in results) / len(results),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def medians(per_rep: list[dict[str, float]]) -> dict[str, float]:
    keys = per_rep[0].keys() if per_rep else ()
    return {k: statistics.median(m[k] for m in per_rep if k in m) for k in keys}


# ---------------------------------------------------------- machine facts


def calibrate() -> float:
    """Median time of a fixed pure-Python loop; tracks host CPU speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _steal_jiffies() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_facts() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                for k, v in deps.items()}
    except (TypeError, AttributeError):
        blas = {"unavailable": "numpy.show_config(mode='dicts') not supported"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_executable": PYTHON,
        "numpy": np.__version__,
        "numpy_blas": blas,
        "loadavg_start": os.getloadavg(),
    }


# ------------------------------------------------------------------ runs


def at_nominal_speed(measured: list[float], reference: list[float]) -> list[float]:
    """Command times scaled to nominal host speed; ``reference[i]`` and
    ``reference[i + 1]`` are the reference times just before and just after
    command i."""
    nominal = []
    for i, seconds in enumerate(measured):
        width = 2 if seconds > LONG_COMMAND_S else 1
        near = reference[max(0, i + 1 - width):i + 1 + width]
        nominal.append(seconds * REFERENCE_NOMINAL_S / statistics.mean(near))
    return nominal


class Run:
    """One benchmark invocation: repetitions of a workload plus checks."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.workdir = os.path.join(OUT, workload)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.ops = workloads.build(workload, seed, self.workdir, tiny)
        self.logdir = os.path.join(self.workdir, "logs")
        self.tracedir = os.path.join(self.workdir, "trace")
        os.makedirs(self.logdir)
        os.makedirs(self.tracedir)
        self.hashes: dict[str, str] = {}
        self.problems: list[str] = []
        self.failures: dict[tuple[str, int, str], int] = {}
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []

    def probe(self, argv: list[str], expect: str) -> float:
        """Time a short command that must print ``expect``."""
        out = os.path.join(self.logdir, "probe.out")
        code, wall, _ = run_child([PYTHON, *argv], self.workdir, out,
                                  os.path.join(self.logdir, "probe.err"))
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        if code != 0 or expect not in text:
            self.problems.append(f"{' '.join(argv)}: exit {code}, output {text!r}")
        return wall

    def reference(self) -> float:
        return self.probe([REFERENCE], "reference ")

    def setup_s(self) -> tuple[list[float], list[float]]:
        """Measured and nominal-speed times of ``skylink.cli --version``."""
        measured, reference = [], [self.reference()]
        for _ in range(SETUP_REPEATS):
            measured.append(self.probe(["-m", "skylink.cli", "--version"], "skylink "))
            reference.append(self.reference())
        return measured, at_nominal_speed(measured, reference)

    def import_s(self) -> float:
        bare, full = [], []
        for _ in range(IMPORT_REPEATS):
            bare.append(self.probe(["-c", "print('ok')"], "ok"))
            full.append(self.probe(["-c", "import skylink.cli; print('ok')"], "ok"))
        return statistics.median(full) - statistics.median(bare)

    def rep(self, traced: bool) -> tuple[dict[str, float], dict[str, float], list[str]]:
        """Run the workload's ops once; returns its metrics at nominal host
        speed, its measured metrics and its span files."""
        index = len(self.records)
        run_id = f"{self.workload}-rep{index}"
        calib = calibrate()
        results, spans, reference = [], [], [self.reference()]
        for i, op in enumerate(self.ops):
            trace_to = os.path.join(self.tracedir, f"op{i}.npz") if traced else None
            results.append(run_op(op, self.workdir, self.logdir, i, trace_to, run_id))
            if trace_to:
                spans.append(trace_to)
            reference.append(self.reference())
        rmse = None
        for op, result in zip(self.ops, results):
            self.attempted += 1
            if result.code != 0:
                self.failed += 1
                key = (op.name, result.code, result.error)
                self.failures[key] = self.failures.get(key, 0) + 1
                continue
            printed, problems = check_op(op, result, self.workdir, self.hashes)
            self.problems += [f"rep {index}: {p}" for p in problems]
            rmse = printed.get("rmse_db", rmse)
        measured = [r.wall_s for r in results]
        nominal = at_nominal_speed(measured, reference)
        metrics = stage_metrics(self.ops, results, nominal, rmse)
        metrics_measured = stage_metrics(self.ops, results, measured, rmse)
        self.records.append({
            "rep": index, "traced": traced, "calibration_s": calib,
            "reference_s": reference,
            "metrics": metrics,
            "metrics_measured": metrics_measured,
            "ops": [
                {"name": r.name, "code": r.code, "wall_s": r.wall_s,
                 "nominal_s": t, "cpu_s": r.cpu_s, "maxrss_mb": r.maxrss_mb}
                for r, t in zip(results, nominal)
            ],
        })
        return metrics, metrics_measured, spans


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (JSON result, full record)."""
    facts = machine_facts()
    # The vCPUs of a shared host change speed independently; on one vCPU,
    # every command and the references around it see the same speed.
    facts["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    steal0 = _steal_jiffies()
    started = time.perf_counter()
    bench = Run(workload, seed, tiny)
    setup_measured, setup = bench.setup_s()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": facts,
              "setup_s_samples": setup_measured, "setup_s_nominal": setup}
    untraced, untraced_measured, traced, layer_reps = [], [], [], []
    totals = None
    if trace:
        record["cli_import_s"] = import_s = bench.import_s()
    # Start another repetition only if it should end within half a
    # repetition of --seconds, so a run lasts about --seconds whatever the
    # workload's length.
    loop_start = now = time.perf_counter()
    last = 0.0
    while not untraced or now - loop_start + last / 2 < seconds:
        rep_start = time.perf_counter()
        metrics, metrics_measured, _ = bench.rep(traced=False)
        untraced.append(metrics)
        untraced_measured.append(metrics_measured)
        if trace:
            _, metrics_measured, spans = bench.rep(traced=True)
            traced.append(metrics_measured)
            totals = layers.Totals()
            for path in spans:
                totals.add(path)
            failed = sum(op["code"] != 0 for op in bench.records[-1]["ops"])
            layer_reps.append(layers.rep_metrics(totals, len(bench.ops), failed))
        now = time.perf_counter()
        last = now - rep_start

    e2e = medians(untraced)
    e2e["setup_s"] = statistics.median(setup)
    measured = medians(untraced_measured)
    measured["setup_s"] = statistics.median(setup_measured)
    missing = [name for name, _ in REPORTED if name not in e2e]
    if missing:
        bench.problems.append(f"metrics not measured: {missing}")

    if trace:
        for name, unit, _ in layers.PER_LAYER:
            if unit in layers.EXACT_UNITS and name in layer_reps[0] \
                    and len({r[name] for r in layer_reps}) != 1:
                bench.problems.append(f"{name} differs between traced repetitions")
        per_layer = medians(layer_reps)
        per_layer["cli.import_s"] = import_s
        per_layer["trace.overhead_s"] = (
            medians(traced)["wall_s"] - measured["wall_s"]
        )
        shown = [(n, u, per_layer[n]) for n, u, _ in layers.PER_LAYER]
        record["layer_self_s"] = {
            layer: ns / 1e9 for layer, ns in sorted(totals.layer_self.items())
        }
        record["spans_per_rep"] = totals.spans
        record["span_files"] = sorted(
            os.path.relpath(p, ROOT) for p in
            (os.path.join(bench.tracedir, f) for f in os.listdir(bench.tracedir))
        )
        record["per_layer"] = per_layer
    else:
        shown = [(n, u, e2e[n]) for n, u in END_TO_END if n in e2e]

    steal1 = _steal_jiffies()
    correct = not bench.problems
    calib = [r["calibration_s"] for r in bench.records]
    reference = [t for r in bench.records for t in r["reference_s"]]
    record.update({
        "elapsed_s": time.perf_counter() - started,
        "reps_untraced": len(untraced),
        "reps_traced": len(traced),
        "calibration_s_median": statistics.median(calib),
        "reference_s_median": statistics.median(reference),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "end_to_end_measured": measured,
        "steal_jiffies": None if steal0 is None or steal1 is None else steal1 - steal0,
        "loadavg_end": os.getloadavg(),
        "end_to_end": e2e,
        "waiting_time": NO_WAITING,
        "correct": correct,
        "problems": bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": [
            {"op": name, "exit_code": code, "error": error, "count": count}
            for (name, code, error), count in bench.failures.items()
        ],
        "sha256": bench.hashes,
        "reps": bench.records,
    })
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in shown},
    }
    return result, record


def report(result: dict, record: dict, path: str) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['reps_untraced']} untraced and "
          f"{record['reps_traced']} traced repetitions, nproc {record['machine']['nproc']}, "
          f"calibration loop {record['calibration_s_median'] * 1e3:.2f} ms")
    print(f"reference {record['reference_s_median']:.4f} s median, nominal "
          f"{record['reference_nominal_s']} s: timings are at nominal host speed, "
          f"measured values in parentheses")
    for name, unit in REPORTED:
        if name in record["end_to_end"]:
            raw = ""
            if name in TIMED:
                raw = f" (measured {_fmt(record['end_to_end_measured'][name])})"
            print(f"{name} {_fmt(record['end_to_end'][name])} {unit}{raw}")
    if record["trace"]:
        for name, unit, _ in layers.PER_LAYER:
            print(f"{name} {_fmt(record['per_layer'][name])} {unit}")
        print(f"waiting time: {NO_WAITING}")
    for failure in record["failures"]:
        print(f"failed op '{failure['op']}' x{failure['count']}: exit "
              f"{failure['exit_code']}: {failure['error']}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that run_child kills the running command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "skylink", "cli.py")):
        print(f"error: no skylink sources at {SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(
        OUT, f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    report(result, record, path)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
