"""Batch Monte Carlo kernels, vectorized over trials with numpy.

The trial loops are the only hot code in the package.  They implement
the exact counter-based stream of ``rng`` on uint64: trial i's k-th
uniform is a pure function of (master seed, i, k), so the outcome
arrays are bit-identical to the scalar ``rng`` route and independent of
how the trials are batched.  The kernels draw ``CHUNK`` trials at a
time, so their temporaries stay O(CHUNK) however many trials are asked
for; ``protocol_chunks`` hands each chunk to its caller instead of
collecting the outcomes of every trial.

The stream is mixed in place: a run allocates the buffers of its
seeds, uniforms and picks once, at most ``CHUNK`` long, and every
shift, xor and multiply of a draw writes into them.  A pick reads a
cumulative table column by column: column j is one contiguous 1-D array
over the table's rows, a trial's row is a flat index into it, and the
pick counts the columns whose entry at that row is at or below the
trial's uniform.
That is the same count of the same float compares as comparing the
whole row at once, so no pick depends on how the table is laid out.

A value-first trial is a path through four nested stages, value_A,
value_B, rank_A, rank_B; its cell is that path's flat index, and each
stage's row is the cell so far.  A rank selected by the drawn values
gives the exit 2*rank + value, which carries the value drawn.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .rng import GOLDEN, mix64

_MASK64 = (1 << 64) - 1
U64 = np.uint64
_GOLD = U64(GOLDEN)
_M1 = U64(0xBF58476D1CE4E5B9)
_M2 = U64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0

# trials per batch: sampling and record writing work through this many at once
CHUNK = 1 << 16


def cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative rows for sampling.  Kernels select the first index
    whose cumulative weight exceeds the draw u < 1, so zero-width
    intervals (snapped-impossible outcomes) are never hit: every entry
    from a row's last positive weight on is pinned to 1, however the
    row's sum rounds.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cum = np.cumsum(probs, axis=-1)
    positives = np.cumsum(probs > 0.0, axis=-1)
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
    """uint64 seeds of trials start .. start + trials - 1, identical to
    rng.trial_seed.  They are written into the seed buffer of
    ``stream``, which the next call overwrites."""
    seeds = stream.seeds[:trials]
    np.add(stream.steps[:trials], U64((start * GOLDEN + int(master)) & _MASK64), out=seeds)
    _mix(seeds, stream.tmp[:trials])
    return seeds


class _Stream:
    """Scratch buffers for the seeds, uniforms and picks of up to
    ``size`` trials.  Every chunk of a kernel call reuses them, so no
    chunk allocates its own."""

    def __init__(self, size: int):
        # trial start + k enters the mix as master + (start + k + 1) * GOLDEN:
        # steps[k] = (k + 1) * GOLDEN plus one offset per chunk, mod 2**64
        self.steps = np.arange(1, size + 1, dtype=np.uint64) * _GOLD
        self.seeds = np.empty(size, dtype=np.uint64)
        self.z = np.empty(size, dtype=np.uint64)
        self.tmp = np.empty(size, dtype=np.uint64)
        self.u = np.empty(size, dtype=np.float64)
        self.picks = np.empty(size, dtype=np.intp)

    def uniform(self, seeds: np.ndarray, draw: int) -> np.ndarray:
        """Uniform ``draw`` of each seed's stream, in a buffer that the
        next call overwrites."""
        n = len(seeds)
        z, tmp, u = self.z[:n], self.tmp[:n], self.u[:n]
        # the draw offset is composed with Python ints: numpy warns on
        # scalar uint64 wraparound even though the result is well defined
        np.add(seeds, U64(((draw + 1) * GOLDEN) & _MASK64), out=z)
        _mix(z, tmp)
        z >>= U64(11)
        np.multiply(z, _INV53, out=u)
        return u

    def pick(self, columns: list[np.ndarray], row, u: np.ndarray) -> np.ndarray:
        """Per trial, how many entries of cumulative row ``row`` (a flat
        row index, shared or one per trial) are at or below ``u``, in a
        buffer that the next call overwrites.  ``columns`` comes from
        ``_columns``; the pinned last entry never counts, because u < 1.
        On a nondecreasing row this is the first index whose entry is
        above u."""
        pick = self.picks[: len(u)]
        pick[:] = 0
        for column in columns:
            pick += column[row] <= u
        return pick


def _columns(cum: np.ndarray) -> list[np.ndarray]:
    """The columns of a cumulative table with its rows flattened, each
    one contiguous array; the pinned last column is left out."""
    cum = np.asarray(cum, dtype=np.float64)
    flat = cum.reshape(-1, cum.shape[-1])
    return [np.ascontiguousarray(flat[:, j]) for j in range(flat.shape[1] - 1)]


# --- public entry points -------------------------------------------------------


def categorical_counts(cum_rows: np.ndarray, master_seed: int, trials: int) -> np.ndarray:
    """Outcome counts for independent categorical rows.

    Row r, trial i draws one uniform from the stream seeded by
    mix64(mix64(master, r), i) and selects the first cumulative entry
    above it.  Returns int64 counts of shape ``cum_rows.shape``.
    """
    cum = np.ascontiguousarray(cum_rows, dtype=np.float64)
    if cum.ndim != 2:
        raise ValueError("cum_rows must be 2-D")
    master_seed = int(master_seed) & _MASK64
    columns = _columns(cum)
    stream = _Stream(min(CHUNK, trials))
    counts = np.zeros(cum.shape, dtype=np.int64)
    for r in range(cum.shape[0]):
        row_seed = mix64(master_seed, r)
        for start in range(0, trials, CHUNK):
            seeds = trial_seeds(row_seed, min(CHUNK, trials - start), start, stream)
            chosen = stream.pick(columns, r, stream.uniform(seeds, 0))
            counts[r] += np.bincount(chosen, minlength=cum.shape[1])
    return counts


def protocol_chunks(
    cums: list[np.ndarray], master_seed: int, trials: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(start, seeds, cells)`` for each run of ``CHUNK``
    value-first trials: the first trial's index, the trials' uint64
    seeds mix64(master, i), in a buffer that the next chunk overwrites,
    and their ``protocol_outcomes``, a new array per chunk.  ``cums``
    are the four stages' cumulative tables.
    """
    tables = [_columns(c) for c in cums]
    stream = _Stream(min(CHUNK, trials))
    for start in range(0, trials, CHUNK):
        seeds = trial_seeds(int(master_seed), min(CHUNK, trials - start), start, stream)
        yield start, seeds, protocol_outcomes(tables, seeds, stream)


def protocol_outcomes(tables: list, seeds: np.ndarray, stream: _Stream) -> np.ndarray:
    """The cell of each trial with these seeds: the flat index of
    [value_A, value_B, rank_A, rank_B] in a (2, 2, 3, 3) array.  A rank
    is an orientation's place in ascending order.  ``tables`` holds the
    four stages' ``_columns``; each stage's table is indexed by the
    stages before it, so its row is the cell so far.  A trial consumes
    uniforms 0..3 of its stream, one per stage in recorded order.
    """
    # in place: a new array per stage, as in cell * width + pick, made a
    # 1e6-trial run take about five times the page faults and 40% longer
    cell = np.zeros(len(seeds), dtype=np.intp)
    for draw, columns in enumerate(tables):
        pick = stream.pick(columns, cell, stream.uniform(seeds, draw))
        cell *= len(columns) + 1
        cell += pick
    return cell
