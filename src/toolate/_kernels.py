"""Batch Monte Carlo kernels, vectorized over trials with numpy.

The trial loops are the only hot code in the package.  They implement
the exact counter-based stream of ``rng`` on uint64: trial i's k-th
uniform is a pure function of (master seed, i, k), so the outcome
arrays are bit-identical to the scalar ``rng`` route and independent of
how the trials are batched.  The kernels draw ``CHUNK`` trials at a
time, so their temporaries stay O(CHUNK) however many trials are asked for.
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


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> U64(30))) * _M1
    z = (z ^ (z >> U64(27))) * _M2
    return z ^ (z >> U64(31))


def trial_seeds(master: int, trials: int, start: int = 0) -> np.ndarray:
    """uint64 seeds of trials start .. start + trials - 1, identical to
    rng.trial_seed."""
    ids = np.arange(start, start + trials, dtype=np.uint64)
    return _mix(U64(master & _MASK64) + (ids + U64(1)) * _GOLD)


def _uniform(seeds: np.ndarray, draw: int) -> np.ndarray:
    # the draw offset is composed with Python ints: numpy warns on
    # scalar uint64 wraparound even though the result is well defined
    offset = U64(((draw + 1) * GOLDEN) & _MASK64)
    z = _mix(seeds + offset)
    return (z >> U64(11)) * _INV53


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
    counts = np.zeros(cum.shape, dtype=np.int64)
    for r in range(cum.shape[0]):
        row_seed = mix64(master_seed, r)
        for start in range(0, trials, CHUNK):
            seeds = trial_seeds(row_seed, min(CHUNK, trials - start), start)
            picks = np.searchsorted(cum[r], _uniform(seeds, 0), side="right")
            counts[r] += np.bincount(picks, minlength=cum.shape[1])
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
    recorded order.
    """
    cva, cvb, cea, ceb = (
        np.ascontiguousarray(c, dtype=np.float64) for c in (cum_va, cum_vb, cum_ea, cum_eb)
    )
    out = np.empty((trials, 4), dtype=np.int64)
    for start in range(0, trials, CHUNK):
        seeds = trial_seeds(int(master_seed), min(CHUNK, trials - start), start)
        va = np.searchsorted(cva, _uniform(seeds, 0), side="right")
        vb = np.sum(cvb[va] <= _uniform(seeds, 1)[:, None], axis=1)
        ea = np.sum(cea[va, vb] <= _uniform(seeds, 2)[:, None], axis=1)
        eb = np.sum(ceb[va, vb, ea] <= _uniform(seeds, 3)[:, None], axis=1)
        rows = out[start : start + CHUNK]
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = va, vb, ea, eb
    return out
