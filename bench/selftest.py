"""Fast self-test of the benchmark harness.

Usage (from the repository root): python3 bench/selftest.py

Runs every workload once at a tiny size, untraced and traced, and checks
that the report names every end-to-end and per-layer metric with its unit
and ends in a well-formed JSON line. Then it corrupts artifacts of a tiny
run and checks that the output checks catch each corruption, checks that
seed 0 reproduces the shipped example config, and checks that the
benchmark refuses to run without the skylink sources. Exits 1 on any
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import layers
import run
import workloads


def check_report(workload: str, trace: bool) -> list[str]:
    result, record = run.run(workload, seed=1, seconds=0, trace=trace, tiny=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(result, record, os.path.join(run.OUT, "selftest.json"))
    lines = buf.getvalue().splitlines()
    wanted = list(run.REPORTED)
    if trace:
        wanted += [(name, unit) for name, unit, _ in layers.PER_LAYER]
    problems = [
        f"{workload}: no line '{name} <value> {unit}'"
        for name, unit in wanted
        if not any(ln.split()[:1] == [name] and ln.split()[2:3] == [unit] for ln in lines)
    ]
    last = json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: JSON keys {sorted(last)}")
    expected = ([n for n, _, _ in layers.PER_LAYER] if trace
                else [n for n, _ in run.END_TO_END])
    if sorted(last["metrics"]) != sorted(expected):
        problems.append(f"{workload}: JSON metrics {sorted(last['metrics'])}")
    if not last["correct"]:
        problems.append(f"{workload}: checks failed: {record['problems']}")
    return problems


def _rewrite(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))


def _plos_out_of_range(lines):
    fields = lines[1].split(",")
    fields[6] = "1.5"
    return [lines[0], ",".join(fields)] + lines[2:]


def _change_last_digit(lines):
    last = lines[-1].rstrip("\n")
    digit = int(last[-1])
    return lines[:-1] + [f"{last[:-1]}{(digit + 1) % 10}\n"]


def check_corruption() -> list[str]:
    bench = run.Run("example", seed=1, tiny=True)
    bench.rep(traced=False)
    ops = {op.name: (i, op) for i, op in enumerate(bench.ops)}

    def problems_after(op_name, edit=None, stdout_edit=None, fresh=False):
        index, op = ops[op_name]
        with open(os.path.join(bench.logdir, f"op{index}.out"), encoding="utf-8") as fh:
            stdout = fh.read()
        if stdout_edit:
            stdout = stdout_edit(stdout)
        if edit:
            path, change = edit
            _rewrite(os.path.join(bench.workdir, path), change)
        result = run.OpResult(op.name, op.stage, 0, 0.0, 0.0, 0.0, stdout, "")
        hashes = {} if fresh else dict(bench.hashes)
        return run.check_op(op, result, bench.workdir, hashes)[1]

    cases = {
        "PLOS outside [0, 1]": problems_after(
            "generate out", ("out/dataset.csv", _plos_out_of_range), fresh=True),
        "missing row": problems_after(
            "train", ("out/training_report.csv", lambda ls: ls[:-1]), fresh=True),
        "changed bytes": problems_after(
            "curves rician", ("out/rician.csv", _change_last_digit)),
        "non-finite prediction": problems_after(
            "predict", stdout_edit=lambda s: "nan\n" + s.split("\n", 1)[1],
            fresh=True),
        "missing prediction": problems_after(
            "predict", stdout_edit=lambda s: s.split("\n", 1)[1], fresh=True),
    }
    found = [f"corrupted artifact not caught: {name}"
             for name, problems in cases.items() if not problems]
    if bench.problems:
        found.append(f"clean tiny run reported problems: {bench.problems}")
    return found


def check_example_config() -> list[str]:
    shipped = os.path.join(run.ROOT, "configs", "run.example.json")
    envs = os.path.join(run.ROOT, "configs", "environments.example.json")
    problems = []
    for path, ours in ((shipped, workloads.example_config(workloads.DEFAULT_SEED)),
                       (envs, workloads.ENVIRONMENTS)):
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            if json.load(fh) != ours:
                problems.append(f"default-seed config differs from {path}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "bench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "example", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            problems += check_report(workload, trace)
    problems += check_corruption()
    problems += check_example_config()
    problems += check_refuses_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
