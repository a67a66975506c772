"""Batch Monte Carlo kernels, vectorized over trials with numpy.

The trial loops are the only hot code in the package.  They implement
the exact counter-based stream of ``rng`` on uint64: trial i's k-th
draw is a pure function of (master seed, i, k), so the outcome arrays
are bit-identical to the scalar ``rng`` route and independent of how
the trials are batched.  One walk, ``_Stream.walk``, yields ``CHUNK``
trials' seeds at a time for both samplers and overwrites them with the
next chunk's, so the working set is one chunk's, about 1 MB at 2**14,
however many trials are asked for.

The stream is mixed in place: a run allocates the buffers of its
seeds, draws, picks and cells once, at most ``CHUNK`` long, and every
shift, xor and multiply of a draw writes into them.  A draw is kept as
its 53-bit integer m, whose uniform is u = m * 2**-53, and a cumulative
entry c as the int64 threshold T = ceil(c * 2**53) (``_thresholds``).
For finite c >= 0 these are the same test:

    c <= u   <=>   c * 2**53 <= m   <=>   T <= m

the second as scaling by a power of two is exact, the third as m is an
integer.  So no draw is converted to float, and every pick is the one
the float compares give.  A pick reads a threshold table column by
column: column j is one contiguous 1-D array over the table's rows, a
trial's row is a flat index into it, and the pick counts the columns
whose threshold at that row is at or below the trial's draw.  A
categorical row needs only counts, so ``categorical_counts`` counts
the draws that reach each threshold and builds no pick.

A trial is a path through nested stages, value_A, value_B, rank_A,
rank_B for the value-first protocol; its cell is that path's flat
index, and each stage's row is the cell so far.  A rank selected by the
drawn values gives the exit 2*rank + value, which carries the value
drawn.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .rng import GOLDEN, MASK64, MIX1, MIX2, mix64

U64 = np.uint64
_GOLD = U64(GOLDEN)
_M1 = U64(MIX1)
_M2 = U64(MIX2)

# trials per batch: each stream buffer is 128 KB and fits in L2; a chunk's records are 1.8 MB
CHUNK = 1 << 14
# (start, seeds, cells) of each chunk of trials
Chunks = Iterator[tuple[int, np.ndarray, np.ndarray]]


def cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative rows for sampling.  Kernels select the first index
    whose cumulative weight exceeds the draw u < 1, so zero-width
    intervals (snapped-impossible outcomes) are never hit: every entry
    from a row's last positive weight on is pinned to 1, however the
    row's sum rounds.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cum = probs.cumsum(axis=-1)
    positives = (probs > 0.0).cumsum(axis=-1)
    cum[positives == positives[..., -1:]] = 1.0
    return cum


# --- uint64 stream arithmetic -------------------------------------------------


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer on z, in place; tmp is scratch of z's length."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, U64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, U64(31), out=tmp)
    z ^= tmp


def trial_seeds(master: int, trials: int, start: int, stream: _Stream) -> np.ndarray:
    """uint64 seeds of trials start .. start + trials - 1, as rng.trial_seed,
    in the seed buffer of ``stream``, which the next call overwrites."""
    seeds = stream.seeds[:trials]
    np.add(stream.steps[:trials], U64((start * GOLDEN + int(master)) & MASK64), out=seeds)
    _mix(seeds, stream.tmp[:trials])
    return seeds


class _Stream:
    """Scratch that every chunk of a kernel call reuses: the 8-byte seeds,
    draws, picks and cells of up to ``size`` trials, 128 KB at CHUNK."""

    def __init__(self, size: int):
        # trial start + k enters the mix as master + (start + k + 1) * GOLDEN:
        # steps[k] = (k + 1) * GOLDEN plus one offset per chunk, mod 2**64
        self.steps = np.arange(1, size + 1, dtype=np.uint64) * _GOLD
        self.seeds = np.empty(size, dtype=np.uint64)
        self.z = np.empty(size, dtype=np.uint64)
        self.tmp = np.empty(size, dtype=np.uint64)
        self.picks = np.empty(size, dtype=np.intp)
        self.cells = np.empty(size, dtype=np.intp)

    def walk(self, master: int, trials: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, seeds)`` for each run of ``CHUNK`` trials of
        master seed ``master``: the first trial's index and the trials'
        seeds, in a buffer that the next chunk overwrites."""
        for start in range(0, trials, CHUNK):
            yield start, trial_seeds(master, min(CHUNK, trials - start), start, self)

    def uniform(self, seeds: np.ndarray, draw: int) -> np.ndarray:
        """Draw ``draw`` of each seed's stream as its 53-bit integer m,
        int64 in [0, 2**53), in a buffer that the next call overwrites.
        The stream's uniform is exactly m * 2**-53."""
        n = len(seeds)
        z, tmp = self.z[:n], self.tmp[:n]
        # the draw offset is composed with Python ints: numpy warns on
        # scalar uint64 wraparound even though the result is well defined
        np.add(seeds, U64(((draw + 1) * GOLDEN) & MASK64), out=z)
        _mix(z, tmp)
        z >>= U64(11)
        return z.view(np.int64)

    def pick(self, columns: list[np.ndarray], row, m: np.ndarray) -> np.ndarray:
        """Per trial, how many thresholds of row ``row`` (a flat row
        index, shared or one per trial) of ``_thresholds`` are at or
        below its draw ``m``, in a buffer that the next call overwrites:
        the first index whose cumulative entry is above the uniform, as
        the pinned last entry never counts."""
        pick = self.picks[: len(m)]
        pick[:] = 0
        for column in columns:
            pick += column[row] <= m
        return pick


def _thresholds(cum: np.ndarray) -> list[np.ndarray]:
    """The columns of a cumulative table with its rows flattened, each
    one contiguous int64 array of thresholds T = ceil(c * 2**53), so
    that T <= m exactly when c <= m * 2**-53; the pinned last column is
    left out.  An entry of 1 or more gives 2**53, which no draw reaches.
    A NaN, infinite or negative entry, or a row that decreases below 1,
    raises ``ValueError``."""
    flat = np.asarray(cum, dtype=np.float64).reshape(-1, np.shape(cum)[-1])
    # NaN fails both compares, and casting it to int64 is undefined
    if not np.all((flat >= 0.0) & (flat < np.inf)):
        raise ValueError("cumulative tables must be finite and non-negative")
    scaled = np.ceil(np.minimum(flat, 1.0) * float(1 << 53)).astype(np.int64)
    # categorical_counts takes an outcome's count as a difference of two
    # threshold counts, which only a non-decreasing row makes a count
    if np.any(scaled[:, 1:] < scaled[:, :-1]):
        raise ValueError("cumulative rows must not decrease")
    return list(np.ascontiguousarray(scaled.T[:-1]))


# --- public entry points -------------------------------------------------------


def categorical_counts(cum_rows: np.ndarray, master_seed: int, trials: int) -> np.ndarray:
    """int64 outcome counts, of shape ``cum_rows.shape``, of independent
    categorical rows, each non-decreasing as ``cumulative`` gives it.
    Row r is a one-stage walk of master mix64(master, r): its trial i
    picks the first cumulative entry above uniform 0 of the stream
    seeded by mix64(mix64(master, r), i).  No pick is built: the trials
    whose draw reaches each threshold are counted, and outcome j's count
    is the trials that reach threshold j - 1 but not threshold j."""
    cum = np.asarray(cum_rows, dtype=np.float64)
    if cum.ndim != 2:
        raise ValueError("cum_rows must be 2-D")
    columns = _thresholds(cum)
    stream = _Stream(min(CHUNK, trials))
    counts = np.zeros(cum.shape, dtype=np.int64)
    for r in range(len(cum)):
        # reached[j]: the trials that pick j or above, so all of them at
        # j = 0 and none past the pinned last entry
        reached = [trials] + [0] * cum.shape[1]
        for _, seeds in stream.walk(mix64(int(master_seed), r), trials):
            m = stream.uniform(seeds, 0)
            for j, column in enumerate(columns, 1):
                reached[j] += np.count_nonzero(m >= column[r])
        counts[r] = np.subtract(reached[:-1], reached[1:])
    return counts


def protocol_chunks(cums: list[np.ndarray], master_seed: int, trials: int) -> Chunks:
    """``(start, seeds, cells)`` of each chunk of ``_Stream.walk`` over
    value-first trials with seeds mix64(master, i): the cells are the
    ``protocol_outcomes`` over the four stages' cumulative tables
    ``cums``.  The next chunk overwrites the seeds and the cells, so a
    caller that keeps a chunk copies it."""
    stream = _Stream(min(CHUNK, trials))
    tables = [_thresholds(c) for c in cums]
    return ((start, seeds, protocol_outcomes(tables, seeds, stream))
            for start, seeds in stream.walk(int(master_seed), trials))


def protocol_outcomes(tables: list, seeds: np.ndarray, stream: _Stream) -> np.ndarray:
    """The cell of each trial with these seeds, such as the flat index
    of [value_A, value_B, rank_A, rank_B] in a (2, 2, 3, 3) array, in a
    buffer that the next call overwrites.  A rank is an orientation's
    place in ascending order.  ``tables`` holds each stage's
    ``_thresholds``: the first stage's has one row, and a trial consumes
    draw k of its stream at stage k."""
    cell = stream.cells[: len(seeds)]
    first, *rest = tables
    cell[:] = stream.pick(first, 0, stream.uniform(seeds, 0))
    # in place: a new array per stage, as in cell * width + pick, made a
    # 1e6-trial run take about five times the page faults and 40% longer
    for draw, columns in enumerate(rest, 1):
        pick = stream.pick(columns, cell, stream.uniform(seeds, draw))
        cell *= len(columns) + 1
        cell += pick
    return cell
