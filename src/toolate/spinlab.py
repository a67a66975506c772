"""Spin-1/2 conventions, the singlet pair, and exact Bell quantities.

All measurement orientations live in one fixed plane, so eigenstates
carry real amplitudes: up(t) = (cos t/2, sin t/2), down(t) =
(-sin t/2, cos t/2).  Angles are radians, normalized to [0, 2*pi).
"""

from __future__ import annotations

import enum
import math

import numpy as np

_TWO_PI = 2.0 * math.pi


class SpinValue(enum.IntEnum):
    UP = 0
    DOWN = 1

    @property
    def sign(self) -> int:
        return 1 if self is SpinValue.UP else -1

    @property
    def label(self) -> str:
        return "up" if self is SpinValue.UP else "down"


def wrap_angle(theta: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    t = math.fmod(float(theta), _TWO_PI)
    if t < 0.0:
        t += _TWO_PI
    return 0.0 if t == _TWO_PI else t


def spin_eigenstates(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (up, down) pair along orientation ``theta``: the two
    columns of its ``_eigenbases`` matrix."""
    up, down = _eigenbases(theta).T.copy()
    return up, down


def singlet() -> np.ndarray:
    """Total-spin-zero pair in the z (x) z basis: (|ud> - |du>)/sqrt 2."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _eigenbases(theta) -> np.ndarray:
    """Eigenbasis matrices, columns (up, down), of every angle in
    ``theta``: shape theta.shape + (2, 2), entries [[c, -s], [s, c]] of
    half of each wrapped angle: the one cos and sin site in this module."""
    angles = np.asarray(theta, dtype=float)
    halves = [wrap_angle(t) / 2.0 for t in angles.reshape(-1).tolist()]
    cos_sin = [(math.cos(h), math.sin(h)) for h in halves]
    entries = [(c, -s, s, c) for c, s in cos_sin]
    return np.array(entries, dtype=complex).reshape(angles.shape + (2, 2))


def joint_value_probabilities(a, b) -> np.ndarray:
    """Born weights of the four joint outcomes (uu, ud, du, dd) for the
    singlet measured along a and b, by explicit projection.

    amps[va, vb] = <va(a), vb(b)|singlet>, evaluated for all four
    outcomes in one contraction over the eigenbases.  ``a`` and ``b``
    may be angle arrays, broadcast together; the result then has their
    shape plus a last axis of the four weights.
    """
    pair = singlet().reshape(2, 2)
    basis_a = _eigenbases(a)
    basis_b = _eigenbases(b)
    amps = np.swapaxes(basis_a.conj(), -1, -2) @ pair @ basis_b.conj()
    return (np.abs(amps) ** 2).reshape(amps.shape[:-2] + (4,))


def expectation(weights):
    """Joint-value expectation of (uu, ud, du, dd) weights along the
    last axis: sum of sign(va) sign(vb) w[va, vb], added in that order.
    Integer counts give an exact integer sum."""
    w = np.asarray(weights)
    return sum(va.sign * vb.sign * w[..., 2 * va + vb] for va in SpinValue for vb in SpinValue)


def chsh(e):
    """Bell combination S = E(a,b) - E(a,b2) + E(a2,b) + E(a2,b2) of four
    correlations ``e`` in that order.  Any local deterministic value
    assignment keeps |S| <= 2; the singlet reaches |S| = 2*sqrt 2."""
    return e[0] - e[1] + e[2] + e[3]


def correlations(a, b) -> np.ndarray:
    """Joint-value expectation for the singlet at orientations a and b,
    which may be angle arrays broadcast together.

    The ``expectation`` of the four joint weights that projecting the
    singlet onto each eigenstate pair gives.  The closed form is
    -cos(a - b); tests check the two routes agree.
    """
    return expectation(joint_value_probabilities(a, b))


def correlation_exact(a: float, b: float) -> float:
    """``correlations`` at one pair of orientations."""
    return float(correlations(a, b))


def chsh_value(a: float, a2: float, b: float, b2: float) -> float:
    """``chsh`` of the singlet correlations at settings (a, a2) x (b, b2),
    all four from one ``correlations`` call."""
    return float(chsh(correlations([a, a, a2, a2], [b, b2, b, b2])))
