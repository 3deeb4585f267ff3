"""Per-layer metrics from the spans that ``trace_child.py`` writes.

A span's self time is its duration minus the time its direct child spans
cover. A layer's self time is the sum of the self times of its spans, so
time spent in a nested call into another layer is charged to that layer.
Spans inside a generation call (``datagen.gen_*``) are marked, so per-row
generation costs can be taken apart from the same functions' use by the
curves.

The program runs on one thread and has no queues, so no layer waits for
another and no waiting time is recorded.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

# (name, unit, better). Counts, bytes and ratios repeat exactly between
# repetitions of a workload; times are medians over traced repetitions.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.config_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.ops", "count", "higher"),
    ("cli.ops_failed", "count", "lower"),
    ("channel_models.plos.calls", "count", "lower"),
    ("channel_models.plos_per_row", "ratio", "lower"),
    ("channel_models.plos_product.us_per_call", "us", "lower"),
    ("channel_models.mean_path_loss.self_us_per_call", "us", "lower"),
    ("channel_models.self_us_per_row", "us", "lower"),
    ("channel_models.fit_sigmoid.ms", "ms", "lower"),
    ("datagen.gen.self_us_per_row", "us", "lower"),
    ("datagen.fading_draw_db.us_per_call", "us", "lower"),
    ("datagen.write_dataset.us_per_row", "us", "lower"),
    ("datagen.write_dataset.bytes", "bytes", "lower"),
    ("datagen.read_dataset.us_per_row", "us", "lower"),
    ("datagen.read_dataset.bytes", "bytes", "lower"),
    ("datagen.features_targets.us_per_row", "us", "lower"),
    ("datagen.write_curve_csv.us_per_row", "us", "lower"),
    ("fading.rician_pdf.calls", "count", "lower"),
    ("fading.rician_pdf.us_per_call", "us", "lower"),
    ("rbf_net.train.steps", "count", "higher"),
    ("rbf_net.train.us_per_step", "us", "lower"),
    ("rbf_net.predict.calls", "count", "lower"),
    ("rbf_net.predict.rows", "count", "higher"),
    ("rbf_net.predict.rows_per_call", "ratio", "higher"),
    ("rbf_net.predict.us_per_row", "us", "lower"),
    ("rbf_net.model_io.ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

EXACT_UNITS = ("count", "bytes", "ratio")

GEN = ("datagen.gen_distance_sweep", "datagen.gen_altitude_waypoints")
PLOS_PREFIX = "channel_models.plos_"


class Totals:
    """Sums over the spans of one workload repetition (times in ns)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.dur = defaultdict(int)
        self.self_ = defaultdict(int)
        self.work = defaultdict(int)
        self.nbytes = defaultdict(int)
        self.layer_self = defaultdict(int)
        self.gen_rows = 0
        self.gen_plos = 0
        self.gen_channel_self = 0
        self.gen_datagen_self = 0
        self.spans = 0

    def add(self, path: str) -> None:
        """Add the spans of one traced command."""
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
            work, nbytes = z["work"], z["nbytes"]
        self.spans += len(name)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ = dur - child

        gen_ids = [i for i, n in enumerate(names) if n in GEN]
        in_gen = np.isin(name, gen_ids).tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0 and in_gen[p]:
                in_gen[i] = True
        in_gen = np.array(in_gen, dtype=bool)

        for i, qual in enumerate(names):
            mine = name == i
            if not mine.any():
                continue
            self.calls[qual] += int(mine.sum())
            self.dur[qual] += int(dur[mine].sum())
            self.self_[qual] += int(self_[mine].sum())
            self.work[qual] += int(work[mine].sum())
            self.nbytes[qual] += int(nbytes[mine].sum())
            self.layer_self[qual.split(".")[0]] += int(self_[mine].sum())
            generating = mine & in_gen
            if qual in GEN:
                self.gen_rows += int(work[mine].sum())
            if qual.startswith(PLOS_PREFIX):
                self.gen_plos += int(work[generating].sum())
            if qual.startswith("channel_models."):
                self.gen_channel_self += int(self_[generating].sum())
            if qual.startswith("datagen.") and qual != "datagen.fading_draw_db":
                self.gen_datagen_self += int(self_[generating].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_metrics(t: Totals, ops: int, ops_failed: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, without the run-level
    ``cli.import_s`` and ``trace.overhead_s``."""
    plos_calls = sum(n for k, n in t.calls.items() if k.startswith(PLOS_PREFIX))
    steps = t.work["rbf_net.train"]
    predict_rows = t.work["rbf_net.RbfNetwork.predict"]
    predict_calls = t.calls["rbf_net.RbfNetwork.predict"]
    return {
        "cli.config_ms": (
            t.dur["cli.RunConfig.__init__"]
            + t.dur["channel_models.load_environments"]
        ) / 1e6,
        "cli.self_s": t.layer_self["cli"] / 1e9,
        "cli.ops": ops,
        "cli.ops_failed": ops_failed,
        "channel_models.plos.calls": plos_calls,
        "channel_models.plos_per_row": _ratio(t.gen_plos, t.gen_rows),
        "channel_models.plos_product.us_per_call": _ratio(
            t.dur["channel_models.plos_product"],
            t.calls["channel_models.plos_product"]) / 1e3,
        "channel_models.mean_path_loss.self_us_per_call": _ratio(
            t.self_["channel_models.mean_path_loss"],
            t.calls["channel_models.mean_path_loss"]) / 1e3,
        "channel_models.self_us_per_row": _ratio(
            t.gen_channel_self, t.gen_rows) / 1e3,
        "channel_models.fit_sigmoid.ms": t.dur["channel_models.fit_sigmoid"] / 1e6,
        "datagen.gen.self_us_per_row": _ratio(
            t.gen_datagen_self, t.gen_rows) / 1e3,
        "datagen.fading_draw_db.us_per_call": _ratio(
            t.dur["datagen.fading_draw_db"],
            t.calls["datagen.fading_draw_db"]) / 1e3,
        "datagen.write_dataset.us_per_row": _ratio(
            t.dur["datagen.write_dataset"], t.work["datagen.write_dataset"]) / 1e3,
        "datagen.write_dataset.bytes": t.nbytes["datagen.write_dataset"],
        "datagen.read_dataset.us_per_row": _ratio(
            t.dur["datagen.read_dataset"], t.work["datagen.read_dataset"]) / 1e3,
        "datagen.read_dataset.bytes": t.nbytes["datagen.read_dataset"],
        "datagen.features_targets.us_per_row": _ratio(
            t.dur["datagen.features_targets"],
            t.work["datagen.features_targets"]) / 1e3,
        "datagen.write_curve_csv.us_per_row": _ratio(
            t.dur["datagen.write_curve_csv"],
            t.work["datagen.write_curve_csv"]) / 1e3,
        "fading.rician_pdf.calls": t.calls["fading.rician_pdf"],
        "fading.rician_pdf.us_per_call": _ratio(
            t.dur["fading.rician_pdf"], t.calls["fading.rician_pdf"]) / 1e3,
        "rbf_net.train.steps": steps,
        "rbf_net.train.us_per_step": _ratio(t.self_["rbf_net.train"], steps) / 1e3,
        "rbf_net.predict.calls": predict_calls,
        "rbf_net.predict.rows": predict_rows,
        "rbf_net.predict.rows_per_call": _ratio(predict_rows, predict_calls),
        "rbf_net.predict.us_per_row": _ratio(
            t.dur["rbf_net.RbfNetwork.predict"], predict_rows) / 1e3,
        "rbf_net.model_io.ms": (
            t.dur["rbf_net.save_model"] + t.dur["rbf_net.load_model"]
        ) / 1e6,
    }
