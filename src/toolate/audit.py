"""Literal closed-form states for the value-first protocol, audited
against states derived from first principles.

The protocol's idealized description assigns compact closed forms to
the post-value-measurement states: a uniform superposition of the three
exits for one particle, and uniform-coefficient pair states with the
same-orientation terms subtracted for two.  This module constructs
those expressions exactly as written (reporting their raw norms, which
the printed prefactors do not make 1) and compares them against oracle
states obtained by actually projecting the prepared pair.

One structural fact the audit surfaces: the equal-value conditional
states derived from the singlet are odd under exchange of the
particles, so their exit amplitudes alternate in sign, while the
literal pair forms carry a uniform sign.  Magnitudes agree entrywise
for the default trine; the overlap itself vanishes.  Reports carry both
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import qcore
from .protocol import (
    PARTICLE_A,
    PARTICLE_B,
    ExitLabel,
    JointState,
    Trine,
    TrineProjectors,
    exit_amplitudes,
    exit_basis,
    exit_labels,
    exit_vector,
    joint_exit_basis,
    prepare_joint,
)
from .spinlab import SpinValue

ZERO_CHECK_TOL = 1e-14


def literal_value_state(value: SpinValue, trine: Trine) -> tuple[np.ndarray, float]:
    """Uniform superposition of one value across the three exits.

    Returns the normalized 6-dim state and the norm of the expression
    as written with its 1/sqrt(3) prefactor (expected 1).
    """
    raw = exit_basis(trine)[:, value::2].sum(axis=1) / math.sqrt(3.0)
    literal_norm = float(np.linalg.norm(raw))
    return raw / literal_norm, literal_norm


def _pair_product(value_a: SpinValue, value_b: SpinValue, trine: Trine) -> np.ndarray:
    single_a, _ = literal_value_state(value_a, trine)
    single_b, _ = literal_value_state(value_b, trine)
    return np.kron(single_a, single_b)


def _same_orientation_term(value: SpinValue, trine: Trine) -> np.ndarray:
    # joint column 7*e is exit e on both particles; value v has exits v, v+2, v+4
    return joint_exit_basis(trine)[:, 7 * value :: 14].sum(axis=1)


def literal_pair_state(trine: Trine) -> tuple[np.ndarray, float]:
    """Up-up pair form: product of singles minus a third of the
    same-orientation up-up terms, all under a 1/sqrt(6) prefactor.

    The expression as written has norm 1/3.  Its normalized version has
    zero amplitude on same-orientation exit pairs and magnitude
    1/sqrt(6) on the six unequal-orientation pairs.
    """
    raw = (
        _pair_product(SpinValue.UP, SpinValue.UP, trine)
        - _same_orientation_term(SpinValue.UP, trine) / 3.0
    ) / math.sqrt(6.0)
    literal_norm = float(np.linalg.norm(raw))
    return raw / literal_norm, literal_norm


def literal_joint_state(trine: Trine) -> tuple[np.ndarray, float]:
    """Full pair form: the four value-pair products minus a third of all
    six same-orientation same-value terms, under a 1/sqrt(30) prefactor.

    The expression as written has norm 1/3.  Normalized, it is a
    uniform-magnitude superposition of the 30 exit pairs that are not
    same-orientation same-value.
    """
    raw = np.zeros(36, dtype=complex)
    for va in SpinValue:
        for vb in SpinValue:
            raw += _pair_product(va, vb, trine)
    for value in SpinValue:
        raw -= _same_orientation_term(value, trine) / 3.0
    raw /= math.sqrt(30.0)
    literal_norm = float(np.linalg.norm(raw))
    return raw / literal_norm, literal_norm


def oracle_value_state(value: SpinValue, trine: Trine) -> np.ndarray:
    """Exit-machinery route to the single-particle uniform value state."""
    acc = np.zeros(6, dtype=complex)
    for label in exit_labels(trine):
        if label.value == value:
            acc += exit_vector(trine, label)
    return qcore.normalize(acc)


def oracle_conditional_state(
    value_a: SpinValue, value_b: SpinValue, projectors: TrineProjectors
) -> tuple[JointState, float]:
    """Ground-truth pair state after both value measurements.

    Projects the prepared pair of ``projectors.trine`` with the two
    value projectors and renormalizes; also returns the joint
    probability of that value pair.  Derived entirely from first
    principles.
    """
    start = prepare_joint(projectors.trine)
    prob_a, state = qcore.project(projectors.value[PARTICLE_A][value_a], start.vec)
    prob_b, state = qcore.project(projectors.value[PARTICLE_B][value_b], state)
    return JointState(state, projectors.trine), prob_a * prob_b


@dataclass
class VerificationReport:
    """Norms, fidelities, amplitude table, and zero checks for the audit."""

    equations: list[dict[str, Any]]
    amplitude_table: list[dict[str, Any]]
    zero_checks: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "equations": self.equations,
            "amplitude_table": self.amplitude_table,
            "zero_checks": self.zero_checks,
            "notes": "\n".join(self.notes),
        }

    def all_zero_checks_pass(self) -> bool:
        return all(row["pass"] for row in self.zero_checks)


def _zero_check_rows(
    name: str, amps: np.ndarray, trine: Trine, labels: list[ExitLabel]
) -> list[dict[str, Any]]:
    rows = []
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            if la.theta == lb.theta and la.value == lb.value:
                mag = float(abs(amps[i, j]))
                rows.append(
                    {
                        "label": f"{name}[{la.text(trine)} & {lb.text(trine)}]",
                        "magnitude": mag,
                        "pass": mag <= ZERO_CHECK_TOL,
                    }
                )
    return rows


def verify_states(projectors: TrineProjectors) -> VerificationReport:
    """Audit the three literal forms of ``projectors.trine`` against
    first-principles states.

    Deterministic: two invocations produce identical reports.  The
    report states what was measured; it asserts nothing.
    """
    trine = projectors.trine
    labels = exit_labels(trine)

    single, single_norm = literal_value_state(SpinValue.UP, trine)
    pair, pair_norm = literal_pair_state(trine)
    joint, joint_norm = literal_joint_state(trine)

    cond_upup, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, projectors)
    pre_value = prepare_joint(trine)

    equations = [
        {
            "name": "single_value_up",
            "literal_norm": single_norm,
            "fidelity_vs_oracle": qcore.fidelity(single, oracle_value_state(SpinValue.UP, trine)),
        },
        {
            "name": "pair_up_up",
            "literal_norm": pair_norm,
            "fidelity_vs_oracle": qcore.fidelity(pair, cond_upup.vec),
        },
        {
            "name": "joint_all_values",
            "literal_norm": joint_norm,
            "fidelity_vs_oracle": qcore.fidelity(joint, pre_value.vec),
        },
    ]

    amps = exit_amplitudes(pre_value)
    amplitude_table = [
        {
            "exit_A": la.text(trine),
            "exit_B": lb.text(trine),
            "re": float(amps[i, j].real),
            "im": float(amps[i, j].imag),
            "magnitude": float(abs(amps[i, j])),
        }
        for i, la in enumerate(labels)
        for j, lb in enumerate(labels)
    ]

    # a vdot per contiguous row: strided rows or a matmul move the printed bits
    exit_pairs = np.ascontiguousarray(joint_exit_basis(trine).T)
    joint_amps = np.array([np.vdot(pair, joint) for pair in exit_pairs]).reshape(6, 6)
    cond_amps = exit_amplitudes(cond_upup)
    zero_checks = (
        _zero_check_rows("literal_joint", joint_amps, trine, labels)
        + _zero_check_rows("pre_value_oracle", amps, trine, labels)
        + _zero_check_rows("conditional_up_up", cond_amps, trine, labels)
    )

    notes = [
        "The repeated third-orientation factor in the printed pair and joint "
        "forms is read as one factor per particle (A then B), matching the "
        "structure of the other same-orientation terms.",
        "The printed 1/sqrt(6) and 1/sqrt(30) prefactors leave the pair and "
        "joint forms with norm 1/3; the raw norms are reported and the states "
        "renormalized, never silently corrected.",
        "Derived equal-value conditional states are odd under particle "
        "exchange (exit amplitudes alternate in sign); the literal forms carry "
        "a uniform sign, so their overlap with the derived states vanishes "
        "even where magnitudes agree entrywise.",
        "The derived pre-value state is not a uniform-magnitude superposition: "
        "its exit magnitudes take three values depending on whether the "
        "orientations and values agree (see amplitude_table).  The joint form's "
        "fidelity against it is reported without asserting a target.",
    ]

    return VerificationReport(equations, amplitude_table, zero_checks, notes)
