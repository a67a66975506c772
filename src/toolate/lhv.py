"""Local-hidden-variable baselines.

Two model families: deterministic per-orientation value assignments for
the standard Bell test, and source-fixed "conspiracy" joint tables for
the value-first protocol, where orientation and value are both decided
at emission.  Bell statistics alone cannot exclude the latter; the
interference module provides the discriminator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .protocol import PATH_DIM, Trine, three_port_splitter
from .spinlab import chsh


@dataclass(frozen=True)
class DeterministicStrategy:
    """Pre-assigned +-1 outcomes for each side's two settings."""

    a: int
    a2: int
    b: int
    b2: int

    def __post_init__(self):
        for v in (self.a, self.a2, self.b, self.b2):
            if v not in (-1, 1):
                raise ValueError("assignments must be +-1")

    def chsh(self) -> int:
        """``spinlab.chsh`` of the four value products, each +-1."""
        return chsh((self.a * self.b, self.a * self.b2, self.a2 * self.b, self.a2 * self.b2))


def enumerate_chsh_max() -> tuple[float, DeterministicStrategy]:
    """Exhaustive maximum of |S| over all 16 deterministic strategies.

    Deterministic assignments make S a pure sign combination, so the
    setting angles do not enter and the maximum is exactly 2 for any of
    them.
    """
    best = None
    best_s = -1
    for signs in itertools.product((1, -1), repeat=4):
        strat = DeterministicStrategy(*signs)
        s = abs(strat.chsh())
        if s > best_s:
            best_s, best = s, strat
    return float(best_s), best


@dataclass(frozen=True)
class ConspiracyModel:
    """Joint source distribution over both orientations and both values.

    ``table[oa, ob, va, vb]`` is the probability that the source fixes
    orientation rank oa/ob and value va/vb for particles A/B.  Nothing
    constrains the table: models that copy the quantum exit statistics
    are deliberately representable.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (PATH_DIM, PATH_DIM, 2, 2):
            raise ValueError("table must have shape (3, 3, 2, 2)")
        if np.any(t < -1e-15):
            raise ValueError("probabilities must be nonnegative")
        if abs(t.sum() - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "table", np.clip(t, 0.0, None))

    @classmethod
    def uniform(cls) -> "ConspiracyModel":
        return cls(np.full((PATH_DIM, PATH_DIM, 2, 2), 1.0 / 36.0))

    @classmethod
    def from_exit_table(cls, dist: np.ndarray) -> "ConspiracyModel":
        """Copy a quantum joint exit table into a source-fixed model."""
        # exit index 2*rank + value: [ea, eb] -> [oa, va, ob, vb] -> [oa, ob, va, vb];
        # copied to C order, because the order of a sum over the table follows its layout
        d = np.asarray(dist, dtype=float).reshape(PATH_DIM, 2, PATH_DIM, 2)
        return cls(np.ascontiguousarray(d.transpose(0, 2, 1, 3)))

    def exit_table(self) -> np.ndarray:
        """The model's joint exit-pair distribution, shape (6, 6)."""
        return self.table.transpose(0, 2, 1, 3).reshape(2 * PATH_DIM, 2 * PATH_DIM)


def conspiracy_predictions(
    model: ConspiracyModel, trine: Trine
) -> tuple[np.ndarray, np.ndarray]:
    """Exit-pair table and recombination-port prediction of a source model.

    A source-fixed orientation means a definite port, so recombination
    sees an incoherent mixture: each definite port spreads uniformly
    through the inverse splitter and every model predicts equal thirds,
    whatever its joint table.
    """
    inverse = three_port_splitter().conj().T
    port_marginal = np.zeros(PATH_DIM)
    for rank in range(PATH_DIM):
        port = trine.port_of(trine.orientations[rank])
        port_marginal[port] += model.table[rank].sum()
    ports = np.zeros(PATH_DIM)
    for port in range(PATH_DIM):
        spread = np.abs(inverse[:, port]) ** 2
        ports += port_marginal[port] * spread
    return model.exit_table(), ports
