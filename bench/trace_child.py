"""Run one skylink CLI command in this process with its layers traced.

Usage: python trace_child.py SPANS_PATH RUN_ID -- CLI_ARGS...

Before calling ``skylink.cli.main``, every public function of the layer
modules (cli, datagen, channel_models, fading, rbf_net) is replaced by a
wrapper that records a span: name, start, end and parent span. A few
methods that carry a layer's work are wrapped too (``RbfNetwork.predict``
and ``RunConfig.__init__``). Nothing under ``src/`` changes: the wrappers
are installed on the module and class attributes at run time, and the CLI
reaches its layers through those attributes.

Spans are kept in memory and written to SPANS_PATH (``.npz``) when the
command ends, together with the run id shared by all commands of one
workload repetition. The process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "datagen", "channel_models", "fading", "rbf_net")
METHODS = {"rbf_net": ("RbfNetwork", "predict"), "cli": ("RunConfig", "__init__")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _array_rows(args, kwargs, result):
    rows = [np.size(a) for a in args if isinstance(a, np.ndarray)]
    return max(rows, default=1), 0


def _result_rows(args, kwargs, result):
    return len(result.samples), 0


def _write_dataset(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    path = _arg(args, kwargs, 1, "csv_path")
    return len(dataset.samples), _size(path) + _size(result)


def _read_dataset(args, kwargs, result):
    path = _arg(args, kwargs, 0, "csv_path")
    sidecar = os.path.splitext(path)[0] + ".json"
    return len(result.samples), _size(path) + _size(sidecar)


def _dataset_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "dataset").samples), 0


def _curve_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 3, "rows")), 0


def _train_steps(args, kwargs, result):
    features = _arg(args, kwargs, 1, "features")
    config = _arg(args, kwargs, 3, "config")
    return np.shape(features)[0] * config.epochs, 0


def _predict_rows(args, kwargs, result):
    raw = np.asarray(_arg(args, kwargs, 1, "raw_features"))
    return (1 if raw.ndim == 1 else raw.shape[0]), 0


# Work counted per span: (rows or steps, bytes). Spans of other functions
# count one unit each.
COUNTS = {
    "channel_models.plos_product": _array_rows,
    "channel_models.plos_holis": _array_rows,
    "channel_models.plos_sigmoid": _array_rows,
    "datagen.gen_distance_sweep": _result_rows,
    "datagen.gen_altitude_waypoints": _result_rows,
    "datagen.write_dataset": _write_dataset,
    "datagen.read_dataset": _read_dataset,
    "datagen.features_targets": _dataset_rows,
    "datagen.write_curve_csv": _curve_rows,
    "rbf_net.train": _train_steps,
    "rbf_net.RbfNetwork.predict": _predict_rows,
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.nbytes = array("q")
        self.stack = [-1]

    def wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        count = COUNTS.get(qualname)
        clock = time.perf_counter_ns
        stack = self.stack
        name, parent, start, end = self.name, self.parent, self.start, self.end
        work, nbytes = self.work, self.nbytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(index)
            parent.append(stack[-1])
            end.append(0)
            work.append(1)
            nbytes.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count is not None:
                work[sid], nbytes[sid] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for layer in LAYERS:
            module = importlib.import_module(f"skylink.{layer}")
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))
            if layer in METHODS:
                cls_name, method = METHODS[layer]
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(
                    f"{layer}.{cls_name}.{method}", getattr(cls, method)
                ))

    def dump(self, path: str, run_id: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            run_id=np.array(run_id),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.int64),
            nbytes=np.frombuffer(self.nbytes, dtype=np.int64),
        )


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_child.py SPANS_PATH RUN_ID -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    from skylink import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, run_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
