"""Deterministic counter-based random streams.

All stochastic output in this package is a pure function of
``(master_seed, trial_id, draw_index)``.  The mixing function is the
splitmix64 output permutation; a trial's k-th uniform is

    u_k = mix(seed + (k + 1) * GOLDEN) >> 11   scaled to [0, 1)

and per-trial seeds are derived the same way from the master seed.
Because no generator state is shared between trials, trials can be
evaluated in any order (or in parallel) with identical results.  The
batch sampler in ``_kernels`` does the same arithmetic on numpy
``uint64`` arrays, many trials at once, and is bit-identical to this
module.
"""

from __future__ import annotations

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def mix(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64(a: int, b: int) -> int:
    """Combine two 64-bit values into a well-mixed 64-bit seed."""
    return mix((a + (b + 1) * GOLDEN) & _MASK)


def uniform_at(seed: int, index: int) -> float:
    """The index-th uniform in [0, 1) of the stream rooted at ``seed``."""
    return (mix((seed + (index + 1) * GOLDEN) & _MASK) >> 11) * _INV53


def trial_seed(master_seed: int, trial_id: int) -> int:
    """Seed for one trial; trials never share generator state."""
    return mix64(master_seed, trial_id)


class TrialRng:
    """Sequential view of one counter-based stream.

    Draws are ``uniform_at(seed, 0), uniform_at(seed, 1), ...`` so a
    consumer that takes one uniform per decision matches the batch
    kernels draw for draw.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def uniform(self) -> float:
        u = uniform_at(self.seed, self.counter)
        self.counter += 1
        return u

    @classmethod
    def for_trial(cls, master_seed: int, trial_id: int) -> "TrialRng":
        return cls(trial_seed(master_seed, trial_id))
