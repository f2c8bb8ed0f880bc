"""Integer-picosecond time base, per-device random generators, the backflash
delay sampler, the CSV writer shared by every artifact, and the one
configuration error every module raises.

Every timestamp in the simulator is an integer count of picoseconds carried
in int64 arrays.  Run extents are validated up front so that int64 arithmetic
stays far away from the wrap point; see :func:`check_time_range`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

PS_PER_S = 10**12

# int64 headroom: run extents must stay below this so sums of a timestamp
# and any modeled delay can never wrap.
MAX_TIME_PS = 2**62


class ConfigError(ValueError):
    """Invalid or inconsistent configuration, a run extent past the time base
    included."""


def check_time_range(extent_ps: int) -> int:
    if not 0 <= extent_ps < MAX_TIME_PS:
        raise ConfigError(
            f"time extent {extent_ps} ps outside supported range [0, 2**62)"
        )
    return int(extent_ps)


class Stream(IntEnum):
    """Stable stream ids, one per physical device or random mechanism.

    Draws on one stream never perturb another.  Each detector's dark counts
    have a stream of their own, so a change of either dark rate leaves every
    photon, backflash and reflection draw bit-identical.
    """

    BITS = 0
    ARRIVAL = 1
    SPAD = 2
    SPAD_DARK = 3
    BACKFLASH = 4
    SNSPD = 5
    DISCLOSE = 6
    # 7 is no device's stream.
    REFLECTION = 8
    SNSPD_DARK = 9


# Spawn-key tag of the dark-exposure timing study.  A trial's spawn key ends
# in its Stream id and this tag is no Stream id, so no trial index, however
# large, reproduces the study's draws.  The study's block size,
# experiment.STUDY_BLOCK_DARKS, is the other half of its draw scheme.
TIMING_CORRELATION_STUDY = (2**32 - 1,)


# The numpy bit generator under every stream, by name.  The name is the draw
# scheme that ``manifest.json`` and ``tests/reference_digests.json`` record:
# a change of it moves every draw, and the config hash, a hash of the
# physics, does not move.  It is looked up when the first stream is made,
# since numpy 2 imports ``numpy.random`` (14-18 ms) on first access.
DRAW_SCHEME = "SFC64"


def stream_generator(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The generator of one stream: the :data:`DRAW_SCHEME` bit generator
    seeded by ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.Generator(getattr(np.random, DRAW_SCHEME)(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass
class DeviceRngs:
    """One independent generator per :class:`Stream` for a single trial, or
    for one setting of a study (see :data:`TIMING_CORRELATION_STUDY`).

    Each is :func:`stream_generator` on ``(seed, (trial, stream, *study))``,
    so identical keys reproduce bit-identical draw sequences.  A detector's
    dark counts draw apart from its other draws: ``spad_dark`` and
    ``snspd_dark`` hold the darks, ``spad`` the photon clicks and ``snspd``
    the thinning of the light that reaches the eavesdropper.

    The bit generator is SFC64 (:data:`DRAW_SCHEME`), for its cost per
    draw: on Philox an exponential draw costs about 1.4 times as much and a
    uniform one 2.3 times (2-vCPU x86, numpy 2.4), and about half of the C8
    study's time goes to such draws, one exponential per receiver dark.
    Philox's counter-based ``advance`` would be of no use: every stream is
    reached through its ``SeedSequence`` spawn key, never by advancing
    another, and a keyed SFC64 generator takes about 12 us to make.
    """

    seed: int
    trial: int = 0
    study: tuple[int, ...] = ()
    bits: np.random.Generator = field(init=False)
    arrival: np.random.Generator = field(init=False)
    spad: np.random.Generator = field(init=False)
    spad_dark: np.random.Generator = field(init=False)
    backflash: np.random.Generator = field(init=False)
    snspd: np.random.Generator = field(init=False)
    disclose: np.random.Generator = field(init=False)
    reflection: np.random.Generator = field(init=False)
    snspd_dark: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        def generator(stream: Stream) -> np.random.Generator:
            return stream_generator(int(self.seed), (int(self.trial), int(stream), *map(int, self.study)))

        self.bits = generator(Stream.BITS)
        self.arrival = generator(Stream.ARRIVAL)
        self.spad = generator(Stream.SPAD)
        self.spad_dark = generator(Stream.SPAD_DARK)
        self.backflash = generator(Stream.BACKFLASH)
        self.snspd = generator(Stream.SNSPD)
        self.disclose = generator(Stream.DISCLOSE)
        self.reflection = generator(Stream.REFLECTION)
        self.snspd_dark = generator(Stream.SNSPD_DARK)


def sample_delay(scale_ps: float, support_max_ps: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Integer-ps delays from an exponential of ``scale_ps`` renormalized to
    [0, support_max_ps], drawn by inverse CDF; no draw when the support is 0."""
    if support_max_ps == 0:
        return np.zeros(size, dtype=np.int64)
    x = rng.random(size)
    x *= math.exp(-support_max_ps / scale_ps) - 1.0
    np.log1p(x, out=x)
    x *= -scale_ps
    x = np.rint(x, out=x).astype(np.int64)
    return np.clip(x, 0, support_max_ps, out=x)


# Rows formatted and written per pass of ``write_csv``'s loop.  A pass makes
# about twenty numpy calls a column, so short slices pay for the calls: at
# 2**9 rows `paper`'s artifacts took about 1.6 times as long as at 2**12 and
# up.  The slice's byte matrices and masks take about 90 bytes a row:
# writing `paper`'s artifacts peaks 1.9 MB above the live data at 2**13
# rows and 2.7 MB at 2**14 (tracemalloc), where it began to set the run's
# peak RSS.
CSV_SLICE_ROWS = 2**13


@functools.cache  # built on first use: set-up time counts on every run
def _digit_groups() -> np.ndarray:
    """The four ASCII digits of every number q below 10**4, one 4-byte cell
    each: zero-filled at q, with leading zeros as NUL (0 all NUL) at
    10**4 + q, and so again with 0 as "0" at 2 * 10**4 + q.  The cells are
    little-endian, so their first byte holds the thousands digit."""
    q = np.arange(10**4, dtype="<u4")
    full = np.zeros(10**4, dtype="<u4")
    lead = np.zeros(10**4, dtype="<u4")
    for byte, place in enumerate((1000, 100, 10, 1)):
        digit = (q // place % 10 + ord("0")) << (8 * byte)
        full |= digit
        np.bitwise_or(lead, digit, out=lead, where=q >= place)
    units = lead.copy()
    units[0] = ord("0") << 24
    return np.concatenate([full, lead, units])


def _int_matrix(col: np.ndarray) -> np.ndarray:
    """An integer column slice as ASCII decimals, right-aligned in one
    ``(rows, width)`` uint8 matrix padded with NUL bytes; when a cell is
    negative, a first column holds the signs."""
    neg = col < 0
    rest = col.astype(np.uint64)
    np.negative(rest, out=rest, where=neg)  # wraps to |x|, int64's minimum too
    top = len(str(int(rest.max(initial=0))))
    groups = -(-top // 4)
    table = _digit_groups()
    out = np.empty((len(col), groups), dtype=table.dtype)
    for k in range(groups):  # least significant four digits first
        high = rest // 10**4
        rest -= high * 10**4
        # The row's leading group: no zero fill, and "0" for a value of 0.
        np.add(rest, 10**4 if k else 2 * 10**4, out=rest, where=high == 0)
        out[:, groups - 1 - k] = table.take(rest)
        rest = high
    digits = out.view(np.uint8)[:, 4 * groups - top:]
    if not neg.any():
        return digits
    return np.concatenate([(neg * ord("-")).astype(np.uint8)[:, None], digits], axis=1)


def _slice_bytes(cols) -> np.ndarray:
    r"""The csv.writer rows of one slice of ``cols``: each column's cell
    matrix, from :func:`_int_matrix` or an ``S`` array's bytes, joined by
    ``,`` and ``\r\n`` columns, with the NUL padding dropped.  A slice that
    is not an integer or ``S`` array, or a text cell that csv.writer would
    quote (one holding ``,``, ``"``, ``\r`` or ``\n``) or that holds a NUL,
    raises ValueError."""
    mats = []
    for c in cols:
        if not isinstance(c, np.ndarray) or c.dtype.kind not in "iuS":
            raise ValueError(f"a CSV column slice of {getattr(c, 'dtype', type(c).__name__)}, not integers or S")
        if c.dtype.kind != "S":
            mats.append(_int_matrix(c))
            continue
        m = np.ascontiguousarray(c).view(np.uint8).reshape(len(c), c.dtype.itemsize)
        raw = m.tobytes()
        # str_len stops at the NUL padding, so it counts a NUL inside a cell.
        if any(b in raw for b in b',"\r\n') or np.count_nonzero(m) != np.char.str_len(c).sum():
            raise ValueError("a CSV text cell holds one of ',', '\"', CR, LF or NUL")
        mats.append(m)
    rows = np.full((len(mats[0]), sum(m.shape[1] + 1 for m in mats) + 1), ord(","), dtype=np.uint8)
    at = 0
    for m in mats:
        rows[:, at:at + m.shape[1]] = m
        at += m.shape[1] + 1
    rows[:, -2] = ord("\r")
    rows[:, -1] = ord("\n")
    flat = rows.reshape(-1)
    return flat[flat != 0]


def write_csv(path, header_lines: list[str] | None, columns: list[str], cols) -> None:
    r"""Artifact CSV in UTF-8: one ``# line`` comment per header line, the
    column names, then one row per index of ``cols``.

    ``cols`` holds two or more columns, one per name, all of one length: an
    integer or ``S`` array, or any sized column whose slices are such arrays.
    The bytes are those of ``csv.writer`` with its defaults, written
    :data:`CSV_SLICE_ROWS` rows at a time; an ``S`` array's cells are their
    UTF-8 text.  A name or cell that csv.writer would quote, or a NUL, raises
    ValueError (see :func:`_slice_bytes`) when its slice is built.
    """
    n = len(cols[0]) if cols else 0
    if len(cols) != len(columns) or len(cols) < 2 or any(len(c) != n for c in cols):
        raise ValueError(f"{len(columns)} names, column lengths {[len(c) for c in cols]}: need two or more of one length")
    if "\0" in "".join(columns):  # numpy would drop a NUL at a name's end as padding
        raise ValueError("a CSV column name holds a NUL")
    names = np.array([name.encode() for name in columns], dtype="S")
    head = "".join(f"# {line}\n" for line in header_lines or []).encode() + _slice_bytes(names[:, None]).tobytes()
    with open(path, "wb") as fh:
        fh.write(head)
        # One slice at least, so that a column with no rows is checked too.
        for i in range(0, max(n, 1), CSV_SLICE_ROWS):
            fh.write(_slice_bytes([c[i:i + CSV_SLICE_ROWS] for c in cols]))
