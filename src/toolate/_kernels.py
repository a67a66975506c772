"""Batch Monte Carlo kernels, vectorized over trials with numpy.

The trial loops are the only hot code in the package.  They implement
the exact counter-based stream of ``rng`` on uint64: trial i's k-th
uniform is a pure function of (master seed, i, k), so the outcome
arrays are bit-identical to the scalar ``rng`` route and independent of
how the trials are batched.  One walk, ``_Stream.walk``, draws
``CHUNK`` trials at a time for both samplers and overwrites the seeds
and cells it handed with the next chunk's, so the working set is one
chunk's, about 1 MB at 2**14, however many trials are asked for.

The stream is mixed in place: a run allocates the buffers of its
seeds, uniforms, picks and cells once, at most ``CHUNK`` long, and
every shift, xor and multiply of a draw writes into them.  A pick reads
a cumulative table column by column: column j is one contiguous 1-D
array over the table's rows, a trial's row is a flat index into it, and
the pick counts the columns whose entry at that row is at or below the
trial's uniform.  That is the same count of the same float compares as
comparing the whole row at once, so no pick depends on the layout.

A trial is a path through nested stages, value_A, value_B, rank_A,
rank_B for the value-first protocol and one stage for a categorical
row; its cell is that path's flat index, and each stage's row is the
cell so far.  A rank selected by the drawn values gives the exit
2*rank + value, which carries the value drawn.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .rng import GOLDEN, INV53, MASK64, MIX1, MIX2, mix64

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
    """uint64 seeds of trials start .. start + trials - 1, as rng.trial_seed,
    in the seed buffer of ``stream``, which the next call overwrites."""
    seeds = stream.seeds[:trials]
    np.add(stream.steps[:trials], U64((start * GOLDEN + int(master)) & MASK64), out=seeds)
    _mix(seeds, stream.tmp[:trials])
    return seeds


class _Stream:
    """Scratch that every chunk of a kernel call reuses: the 8-byte seeds,
    uniforms, picks and cells of up to ``size`` trials, 128 KB at CHUNK."""

    def __init__(self, size: int):
        # trial start + k enters the mix as master + (start + k + 1) * GOLDEN:
        # steps[k] = (k + 1) * GOLDEN plus one offset per chunk, mod 2**64
        self.steps = np.arange(1, size + 1, dtype=np.uint64) * _GOLD
        self.seeds = np.empty(size, dtype=np.uint64)
        self.z = np.empty(size, dtype=np.uint64)
        self.tmp = np.empty(size, dtype=np.uint64)
        self.u = np.empty(size, dtype=np.float64)
        self.picks = np.empty(size, dtype=np.intp)
        self.cells = np.empty(size, dtype=np.intp)

    def walk(self, tables: list, master: int, trials: int) -> Chunks:
        """Yield ``(start, seeds, cells)`` for each run of ``CHUNK``
        trials of master seed ``master``: the first trial's index, the
        trials' seeds and their ``protocol_outcomes`` over ``tables``,
        both in buffers that the next chunk overwrites."""
        for start in range(0, trials, CHUNK):
            seeds = trial_seeds(master, min(CHUNK, trials - start), start, self)
            yield start, seeds, protocol_outcomes(tables, seeds, self)

    def uniform(self, seeds: np.ndarray, draw: int) -> np.ndarray:
        """Uniform ``draw`` of each seed's stream, in a buffer that the
        next call overwrites."""
        n = len(seeds)
        z, tmp, u = self.z[:n], self.tmp[:n], self.u[:n]
        # the draw offset is composed with Python ints: numpy warns on
        # scalar uint64 wraparound even though the result is well defined
        np.add(seeds, U64(((draw + 1) * GOLDEN) & MASK64), out=z)
        _mix(z, tmp)
        z >>= U64(11)
        np.multiply(z, INV53, out=u)
        return u

    def pick(self, columns: list[np.ndarray], row, u: np.ndarray) -> np.ndarray:
        """Per trial, how many entries of cumulative row ``row`` (a flat
        row index, shared or one per trial) of ``_columns`` are at or
        below ``u``, in a buffer that the next call overwrites: the
        first index whose entry is above u, as the pinned last entry
        never counts."""
        pick = self.picks[: len(u)]
        pick[:] = 0
        for column in columns:
            pick += column[row] <= u
        return pick


def _columns(cum: np.ndarray) -> list[np.ndarray]:
    """The columns of a cumulative table with its rows flattened, each
    one contiguous array; the pinned last column is left out."""
    flat = np.asarray(cum, dtype=np.float64).reshape(-1, np.shape(cum)[-1])
    return [np.ascontiguousarray(flat[:, j]) for j in range(flat.shape[1] - 1)]


# --- public entry points -------------------------------------------------------


def categorical_counts(cum_rows: np.ndarray, master_seed: int, trials: int) -> np.ndarray:
    """int64 outcome counts, of shape ``cum_rows.shape``, of independent
    categorical rows.  Row r is a one-stage walk of master mix64(master,
    r): its trial i picks the first cumulative entry above uniform 0 of
    the stream seeded by mix64(mix64(master, r), i)."""
    cum = np.ascontiguousarray(cum_rows, dtype=np.float64)
    if cum.ndim != 2:
        raise ValueError("cum_rows must be 2-D")
    stream = _Stream(min(CHUNK, trials))
    counts = np.zeros(cum.shape, dtype=np.int64)
    for r, row in enumerate(cum):
        for _, _, cells in stream.walk([_columns(row)], mix64(int(master_seed), r), trials):
            counts[r] += np.bincount(cells, minlength=cum.shape[1])
    return counts


def protocol_chunks(cums: list[np.ndarray], master_seed: int, trials: int) -> Chunks:
    """``_Stream.walk`` of value-first trials over the four stages'
    cumulative tables ``cums``, with seeds mix64(master, i).  The next
    chunk overwrites the seeds and the cells, so a caller that keeps a
    chunk copies it."""
    return _Stream(min(CHUNK, trials)).walk([_columns(c) for c in cums], int(master_seed), trials)


def protocol_outcomes(tables: list, seeds: np.ndarray, stream: _Stream) -> np.ndarray:
    """The cell of each trial with these seeds, such as the flat index
    of [value_A, value_B, rank_A, rank_B] in a (2, 2, 3, 3) array, in a
    buffer that the next call overwrites.  A rank is an orientation's
    place in ascending order.  ``tables`` holds each stage's
    ``_columns``: the first stage's has one row, and a trial consumes
    uniform k of its stream at stage k."""
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
