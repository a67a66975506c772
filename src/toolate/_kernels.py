"""Batch Monte Carlo kernels, vectorized over trials with numpy.

The trial loops are the only hot code in the package.  They implement
the exact counter-based stream of ``rng`` on uint64: trial i's k-th
uniform is a pure function of (master seed, i, k), so the outcome
arrays are bit-identical to the scalar ``rng`` route and independent of
how the trials are batched.  The kernels draw ``CHUNK`` trials at a
time, so their temporaries stay O(CHUNK) however many trials are asked for.

The stream is mixed in place: a kernel call allocates the buffers of
its uniforms once, at most ``CHUNK`` long, and every shift, xor and
multiply of a draw writes into them.  A pick reads a cumulative table
column by column: column j is one contiguous 1-D array over the table's
rows, a trial's row is a flat index into it, and the pick counts the
columns whose entry at that row is at or below the trial's uniform.
That is the same count of the same float compares as comparing the
whole row at once, so no pick depends on how the table is laid out.
"""

from __future__ import annotations

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
    """Cumulative rows for sampling; the final entry is pinned to 1.

    Kernels select the first index whose cumulative weight exceeds the
    draw, so zero-width intervals (snapped-impossible outcomes) are
    never hit.
    """
    cum = np.cumsum(np.asarray(probs, dtype=np.float64), axis=-1)
    cum[..., -1] = 1.0
    return np.ascontiguousarray(cum)


# --- uint64 stream arithmetic -------------------------------------------------


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer on z, in place; tmp is scratch of z's length."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, U64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, U64(31), out=tmp)
    z ^= tmp


def trial_seeds(master: int, trials: int, start: int = 0) -> np.ndarray:
    """uint64 seeds of trials start .. start + trials - 1, identical to
    rng.trial_seed."""
    z = np.arange(start + 1, start + trials + 1, dtype=np.uint64)
    z *= _GOLD
    z += U64(master & _MASK64)
    _mix(z, np.empty_like(z))
    return z


class _Stream:
    """Scratch buffers for the uniforms of up to ``size`` trials.  Every
    chunk of a kernel call reuses them, so no chunk allocates its own."""

    def __init__(self, size: int):
        self.z = np.empty(size, dtype=np.uint64)
        self.tmp = np.empty(size, dtype=np.uint64)
        self.u = np.empty(size, dtype=np.float64)

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


def _columns(cum: np.ndarray) -> list[np.ndarray]:
    """The columns of a cumulative table with its rows flattened, each
    one contiguous array; the pinned last column is left out."""
    cum = np.asarray(cum, dtype=np.float64)
    flat = cum.reshape(-1, cum.shape[-1])
    return [np.ascontiguousarray(flat[:, j]) for j in range(flat.shape[1] - 1)]


def _pick(columns: list[np.ndarray], row, u: np.ndarray) -> np.ndarray:
    """Per trial, how many entries of cumulative row ``row`` (a flat row
    index, shared or one per trial) are at or below ``u``.  ``columns``
    comes from ``_columns``; the pinned last entry never counts, because
    u < 1.  On a nondecreasing row this is the first index whose entry
    is above u."""
    pick = np.zeros(len(u), dtype=np.intp)
    for column in columns:
        pick += column[row] <= u
    return pick


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
            seeds = trial_seeds(row_seed, min(CHUNK, trials - start), start)
            chosen = _pick(columns, r, stream.uniform(seeds, 0))
            counts[r] += np.bincount(chosen, minlength=cum.shape[1])
    return counts


def protocol_outcomes(
    cum_va: np.ndarray,
    cum_vb: np.ndarray,
    cum_ea: np.ndarray,
    cum_eb: np.ndarray,
    master_seed: int,
    trials: int,
) -> np.ndarray:
    """Stage outcomes for the value-first protocol, shape (trials, 4).

    Columns: value_A, value_B, exit_A, exit_B (exit index = 2*rank +
    value in canonical orientation order).  Trial i consumes uniforms
    0..3 of the stream seeded by mix64(master, i), one per stage in
    recorded order.  The array is column-major, so each stage's picks
    are copied into one contiguous column.
    """
    cva, cvb, cea, ceb = (_columns(c) for c in (cum_va, cum_vb, cum_ea, cum_eb))
    n_exit = np.shape(cum_ea)[-1]
    stream = _Stream(min(CHUNK, trials))
    out = np.empty((4, trials), dtype=np.int64)
    for start in range(0, trials, CHUNK):
        seeds = trial_seeds(int(master_seed), min(CHUNK, trials - start), start)
        va, vb, ea, eb = out[:, start : start + len(seeds)]
        va[:] = _pick(cva, 0, stream.uniform(seeds, 0))
        vb[:] = _pick(cvb, va, stream.uniform(seeds, 1))
        row = 2 * va + vb  # flat row of the exit_A table
        ea[:] = _pick(cea, row, stream.uniform(seeds, 2))
        eb[:] = _pick(ceb, row * n_exit + ea, stream.uniform(seeds, 3))
    return out.T
