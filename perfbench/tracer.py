"""Per-module spans and counts for a traced cowqkd run, recorded from outside.

Each wrapper replaces one module attribute, so it sees the calls that look
the name up there.  experiment.py binds most pipeline functions with
``from .detectors import ...``, so those are wrapped on ``cowqkd.experiment``;
the helpers that detectors.py calls are wrapped on ``cowqkd.detectors``.
A target that no longer exists is skipped, and its metrics read 0.

Spans stay in memory and become metrics once, after the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer metric, span name) for every timed span; the value is the total
# time of all spans of that name.
SPAN_TIMES = (
    ("source.generate_frames_s", "source.generate_frames"),
    ("source.pulses_s", "source.pulses"),
    ("detectors.spad_detect_s", "detectors.spad_detect"),
    ("detectors.dead_time_filter_s", "detectors.dead_time_filter"),
    ("detectors.snspd_detect_s", "detectors.snspd_detect"),
    ("detectors.correlation_histogram_s", "detectors.correlation_histogram"),
    ("timebase.poisson_event_times_s", "timebase.poisson_event_times"),
    ("timebase.sample_delay_s", "timebase.sample_delay"),
    ("distill.sift_s", "distill.sift"),
    ("distill.form_blocks_s", "distill.form_blocks"),
    ("attack.calibrate_s", "attack.calibrate"),
    ("attack.fold_and_cluster_s", "attack.fold_and_cluster"),
    ("attack.infer_bits_s", "attack.infer_bits"),
    ("rates.compare_s", "rates.compare"),
    ("experiment.write_run_artifacts_s", "experiment.write_run_artifacts"),
)

COUNTS = (
    "source.frames",
    "source.pulses",
    "detectors.dead_time_candidates",
    "detectors.bob_clicks",
    "detectors.eve_counts",
    "detectors.eve_backflash",
    "detectors.eve_reflection",
    "detectors.eve_dark",
    "distill.sifted_bits",
    "distill.blocks",
    "attack.calibration_shifts",
    "attack.eve_assigned",
    "attack.eve_correct",
    "rates.rows_checked",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def add(self, key: str, n) -> None:
        self.counts[key] += int(n)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        target = getattr(owner, attr, None)
        if target is None:
            return

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with self.span(name):
                out = target(*args, **kwargs)
            if count is not None:
                count(self, args, out)
            return out

        setattr(owner, attr, traced)

    def install(self) -> None:
        from cowqkd import attack, cli, detectors, distill, experiment, source

        w = self.wrap
        w(cli, "run_simulation", "experiment.run")
        w(cli, "emit_timing_correlation", "experiment.run")
        w(experiment, "generate_frames", "source.generate_frames",
          lambda t, a, out: t.add("source.frames", len(out)))
        w(getattr(source, "FrameBatch", None), "pulses", "source.pulses",
          lambda t, a, out: t.add("source.pulses", out["time_ps"].size))
        w(experiment, "spad_detect", "detectors.spad_detect",
          lambda t, a, out: t.add("detectors.bob_clicks", len(out.clicks)))
        w(experiment, "_dead_time_filter", "detectors.dead_time_filter", _count_dead_time)
        w(detectors, "_dead_time_filter", "detectors.dead_time_filter", _count_dead_time)
        w(experiment, "snspd_detect", "detectors.snspd_detect", _count_eve)
        w(experiment, "correlation_histogram", "detectors.correlation_histogram")
        w(detectors, "poisson_event_times", "timebase.poisson_event_times")
        w(detectors, "sample_delay", "timebase.sample_delay")
        w(experiment, "sample_delay", "timebase.sample_delay")
        w(experiment, "sift", "distill.sift", lambda t, a, out: t.add("distill.sifted_bits", len(out)))
        w(distill, "form_blocks", "distill.form_blocks", lambda t, a, out: t.add("distill.blocks", len(out[0])))
        w(attack, "calibrate", "attack.calibrate",
          lambda t, a, out: t.add("attack.calibration_shifts", len(out.candidate_scores)))
        w(attack, "fold_and_cluster", "attack.fold_and_cluster")
        w(attack, "infer_bits", "attack.infer_bits", _count_inference)
        w(experiment, "compare", "rates.compare",
          lambda t, a, out: t.add("rates.rows_checked", sum(r.empirical is not None for r in out.rows)))
        w(experiment, "write_run_artifacts", "experiment.write_run_artifacts")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts; call after the run's outermost span closed."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += (t1 - t0) - covered[i]

        out = {metric: total[name] for metric, name in SPAN_TIMES}
        out["detectors.spad_detect_self_s"] = own["detectors.spad_detect"]
        out["experiment.other_s"] = own["experiment.run"]
        out["cli.self_s"] = own["cli.main"]
        out.update({key: self.counts[key] for key in COUNTS})
        c = self.counts
        out["detectors.click_yield"] = c["detectors.bob_clicks"] / c["source.pulses"] if c["source.pulses"] else 0.0
        out["attack.correct_ratio"] = (
            c["attack.eve_correct"] / c["attack.eve_assigned"] if c["attack.eve_assigned"] else 0.0
        )
        return out


def _count_dead_time(t: Tracer, args, out) -> None:
    t.add("detectors.dead_time_candidates", len(args[0]))
    # Clicks kept inside spad_detect are already counted from its result.
    if not t.inside("detectors.spad_detect"):
        t.add("detectors.bob_clicks", out[0].sum())


def _count_eve(t: Tracer, args, out) -> None:
    t.add("detectors.eve_counts", len(out))
    by_cause = out.counts_by_cause()
    for cause in ("backflash", "reflection", "dark"):
        t.add(f"detectors.eve_{cause}", by_cause.get(cause, 0))


def _count_inference(t: Tracer, args, out) -> None:
    t.add("attack.eve_assigned", len(out))
    t.add("attack.eve_correct", out.correct_count)
