"""Integer-picosecond time base, per-device RNG streams, delay models, and
the CSV writer shared by every artifact.

Every timestamp in the simulator is an integer count of picoseconds carried
in int64 arrays.  Run extents are validated up front so that int64 arithmetic
stays far away from the wrap point; see :func:`check_time_range`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

PS_PER_S = 10**12
PS_PER_NS = 1000

# int64 headroom: run extents must stay below this so sums of a timestamp
# and any modeled delay can never wrap.
MAX_TIME_PS = 2**62


class TimeRangeError(ValueError):
    """A requested run extent would overflow the integer time base."""


def check_time_range(extent_ps: int) -> int:
    if not 0 <= extent_ps < MAX_TIME_PS:
        raise TimeRangeError(
            f"time extent {extent_ps} ps outside supported range [0, 2**62)"
        )
    return int(extent_ps)


class Stream(IntEnum):
    """Stable stream ids, one per physical device or random mechanism.

    Draws on one stream never perturb another, so e.g. disabling dark counts
    leaves the photon click sequence bit-identical.
    """

    BITS = 0
    ARRIVAL = 1
    SPAD = 2
    SPAD_DARK = 3
    BACKFLASH = 4
    SNSPD = 5
    DISCLOSE = 6
    AUX = 7


class RngStream:
    """Deterministic generator keyed by (seed, trial, stream id).

    Identical keys reproduce bit-identical draw sequences.
    """

    def __init__(self, seed: int, stream_id: int, trial: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.trial = int(trial)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.trial, self.stream_id))
        self.gen = np.random.Generator(np.random.Philox(ss))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, trial={self.trial})"


@dataclass
class DeviceRngs:
    """One independent stream per device for a single trial."""

    seed: int
    trial: int = 0
    bits: RngStream = field(init=False)
    arrival: RngStream = field(init=False)
    spad: RngStream = field(init=False)
    spad_dark: RngStream = field(init=False)
    backflash: RngStream = field(init=False)
    snspd: RngStream = field(init=False)
    disclose: RngStream = field(init=False)
    aux: RngStream = field(init=False)

    def __post_init__(self) -> None:
        self.bits = RngStream(self.seed, Stream.BITS, self.trial)
        self.arrival = RngStream(self.seed, Stream.ARRIVAL, self.trial)
        self.spad = RngStream(self.seed, Stream.SPAD, self.trial)
        self.spad_dark = RngStream(self.seed, Stream.SPAD_DARK, self.trial)
        self.backflash = RngStream(self.seed, Stream.BACKFLASH, self.trial)
        self.snspd = RngStream(self.seed, Stream.SNSPD, self.trial)
        self.disclose = RngStream(self.seed, Stream.DISCLOSE, self.trial)
        self.aux = RngStream(self.seed, Stream.AUX, self.trial)


class DelayModelError(ValueError):
    """Raised for malformed delay-model parameters."""


@dataclass(frozen=True)
class DelayDistribution:
    """Bounded avalanche-to-emission delay model.

    Two families are supported:

    * ``truncated-exponential``: exponential with ``scale_ps`` renormalized to
      [0, support_max_ps].
    * ``empirical-histogram``: piecewise-uniform over user-supplied bins,
      e.g. digitized from a measured start-stop histogram.

    Samples always fall in [0, support_max_ps].
    """

    kind: str
    support_max_ps: int
    scale_ps: float = 0.0
    bin_edges_ps: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("truncated-exponential", "empirical-histogram"):
            raise DelayModelError(f"unknown delay model kind {self.kind!r}")
        if self.support_max_ps < 0:
            raise DelayModelError("support_max_ps must be >= 0")
        if self.kind == "truncated-exponential":
            if self.support_max_ps > 0 and self.scale_ps <= 0:
                raise DelayModelError("scale_ps must be positive")
        else:
            edges = self.bin_edges_ps
            w = self.weights
            if edges is None or w is None:
                raise DelayModelError("empirical histogram needs bin_edges_ps and weights")
            edges = np.asarray(edges, dtype=np.int64)
            w = np.asarray(w, dtype=float)
            if edges.ndim != 1 or edges.size < 2:
                raise DelayModelError("need at least two bin edges")
            if np.any(np.diff(edges) <= 0):
                raise DelayModelError("bin edges must be strictly increasing")
            if edges[0] < 0:
                raise DelayModelError("bin edges must be non-negative")
            if w.size != edges.size - 1:
                raise DelayModelError("weights must have one entry per bin")
            if np.any(w < 0) or w.sum() <= 0:
                raise DelayModelError("weights must be non-negative with positive total")
            if edges[-1] > self.support_max_ps:
                raise DelayModelError("histogram extends past support_max_ps")
            object.__setattr__(self, "bin_edges_ps", edges)
            object.__setattr__(self, "weights", w / w.sum())

    @classmethod
    def truncated_exponential(cls, scale_ps: float, support_max_ps: int) -> "DelayDistribution":
        return cls(kind="truncated-exponential", support_max_ps=int(support_max_ps),
                   scale_ps=float(scale_ps))

    @classmethod
    def empirical(cls, bin_edges_ps, weights) -> "DelayDistribution":
        edges = np.asarray(bin_edges_ps, dtype=np.int64)
        return cls(kind="empirical-histogram", support_max_ps=int(edges[-1]),
                   bin_edges_ps=edges, weights=np.asarray(weights, dtype=float))

    def truncated(self, support_max_ps: int) -> "DelayDistribution":
        """Distribution conditioned on delay <= support_max_ps.

        The receiver caps the backflash delay at one gate width counted from
        the avalanche, not at the time left in the gate, so a click late in
        the gate can emit after the gate has closed.  Timing is reshaped;
        the emission probability is unchanged.
        """
        cap = int(min(self.support_max_ps, support_max_ps))
        if cap >= self.support_max_ps:
            return self
        if self.kind == "truncated-exponential":
            return DelayDistribution.truncated_exponential(self.scale_ps, cap)
        edges = self.bin_edges_ps
        w = self.weights
        keep = int(np.searchsorted(edges, cap, side="left"))
        if keep < 1 or cap <= edges[0]:
            # all mass quenched: degenerate at zero
            return DelayDistribution.truncated_exponential(1.0, 0)
        new_edges = np.append(edges[:keep], cap)
        new_w = w[: keep].copy()
        # partial last bin keeps a proportional share of its weight
        left = edges[keep - 1]
        right = edges[keep] if keep < edges.size else cap
        if cap < right:
            new_w[-1] *= (cap - left) / (right - left)
        if new_w.sum() <= 0:
            return DelayDistribution.truncated_exponential(1.0, 0)
        return DelayDistribution.empirical(new_edges, new_w)


def sample_delay(dist: DelayDistribution, rng: RngStream, size: int | None = None) -> np.ndarray | int:
    """Draw integer-ps delays from ``dist``; scalar when ``size`` is None."""
    n = 1 if size is None else int(size)
    if dist.support_max_ps == 0:
        out = np.zeros(n, dtype=np.int64)
        return int(out[0]) if size is None else out
    if dist.kind == "truncated-exponential":
        u = rng.gen.random(n)
        s = dist.scale_ps
        a = float(dist.support_max_ps)
        x = -s * np.log1p(-u * (1.0 - math.exp(-a / s)))
        out = np.minimum(np.rint(x).astype(np.int64), dist.support_max_ps)
    else:
        edges = dist.bin_edges_ps
        idx = rng.gen.choice(edges.size - 1, size=n, p=dist.weights)
        lo = edges[idx].astype(float)
        hi = edges[idx + 1].astype(float)
        x = lo + rng.gen.random(n) * (hi - lo)
        out = np.minimum(x.astype(np.int64), dist.support_max_ps)
    out = np.maximum(out, 0)
    return int(out[0]) if size is None else out


def poisson_event_times(rate_per_s: float, window_ps: tuple[int, int], rng: RngStream) -> np.ndarray:
    """Sorted int64 event times of a homogeneous Poisson process on [t0, t1).

    Zero rate or an empty window yields an empty array.
    """
    if rate_per_s < 0:
        raise ValueError("rate must be >= 0")
    t0, t1 = int(window_ps[0]), int(window_ps[1])
    check_time_range(max(t1, t0))
    if rate_per_s == 0 or t1 <= t0:
        return np.empty(0, dtype=np.int64)
    duration_s = (t1 - t0) / PS_PER_S
    n = int(rng.gen.poisson(rate_per_s * duration_s))
    times = t0 + rng.gen.integers(0, t1 - t0, size=n, dtype=np.int64)
    times.sort()
    return times


def write_csv(path, header_lines: list[str] | None, columns: list[str], rows) -> None:
    """Artifact CSV: one ``# line`` comment per header line, then the rows."""
    with open(path, "w", newline="") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)
