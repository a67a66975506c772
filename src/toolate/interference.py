"""Path recombination and which-path erasure.

Recombination runs a single particle's path register backwards through
the splitter and reads the port distribution; coherent path amplitudes
interfere there while any source-fixed port gives equal thirds.
Erasure projects both path registers of a pair onto the uniform path
vector, modeling detection that carries no port information, and
inspects the residual two-spin state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import qcore
from .audit import oracle_conditional_state
from .protocol import (
    JOINT_LAYOUT,
    PARTICLE_DIM,
    PATH_DIM,
    SPIN_DIM,
    JointState,
    Trine,
    prepare_joint,
    three_port_splitter,
    trine_projectors,
    uniform_paths,
)
from .spinlab import SpinValue, singlet, spin_eigenstates

DEFAULT_TV_THRESHOLD = 0.05


def recombine(state6: np.ndarray) -> np.ndarray:
    """Port distribution after the inverse splitter, spin traced out."""
    vec = qcore.require_normalized(state6)
    if vec.size != PARTICLE_DIM:
        raise ValueError("recombine expects a single-particle (path x spin) state")
    back = three_port_splitter().conj().T @ vec.reshape(PATH_DIM, SPIN_DIM)
    return np.sum(np.abs(back) ** 2, axis=1)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p, float) - np.asarray(q, float))))


def interference_discriminator(
    quantum: np.ndarray, model: np.ndarray, threshold: float = DEFAULT_TV_THRESHOLD
) -> tuple[float, bool]:
    """Total-variation distance and whether it exceeds the threshold.

    Returns (tv, passed); passed means the model is discriminated from
    the quantum prediction.
    """
    for dist in (quantum, model):
        d = np.asarray(dist, float)
        if np.any(d < -1e-12) or abs(d.sum() - 1.0) > 1e-10:
            raise ValueError("not a probability distribution")
    tv = tv_distance(quantum, model)
    return tv, tv > threshold


@dataclass(frozen=True)
class ErasureResult:
    success_prob: float
    post_spin_state: np.ndarray  # dim 4, normalized
    entanglement_bits: float
    fidelity_to_singlet: float


def erase_paths(state: JointState) -> ErasureResult:
    """Project both path registers onto the uniform vector and keep spins.

    success_prob is the weight of the path-symmetric component; the
    orthogonal path outcomes are counted as failure, not explored.  The
    residual two-spin state is renormalized and characterized by its
    reduced entropy and singlet fidelity.
    """
    u = uniform_paths()
    t = state.vec.reshape(JOINT_LAYOUT)
    spin = np.einsum("p,q,psqz->sz", u.conj(), u.conj(), t).reshape(4)
    success = float(np.real(np.vdot(spin, spin)))
    if success <= qcore.ZERO_PROB:
        raise qcore.ZeroProbability(
            "no weight on the path-symmetric component; erasure never fires"
        )
    post = spin / np.sqrt(success)
    rho = qcore.reduced_density(post, (SPIN_DIM, SPIN_DIM), keep=(0,))
    return ErasureResult(
        success_prob=success,
        post_spin_state=post,
        entanglement_bits=qcore.entanglement_entropy(rho),
        fidelity_to_singlet=qcore.fidelity(post, singlet()),
    )


def definite_path_contrast(trine: Trine) -> dict[str, Any]:
    """Erasure outcome for a source model with definite ports.

    The mixture has no path coherence, so erasure selects one (port_A,
    port_B) component at a time: acceptance weight (1/3)^2 = 1/9 for
    each particle pair, and the surviving spins are a product state
    with zero entanglement.  Reported per component and aggregated.
    """
    u = uniform_paths()
    accept = float(abs(u[0]) ** 2) ** 2  # any definite port pair gives the same weight
    entropies = []
    for ta in trine.orientations:
        for tb in trine.orientations:
            spin_a = spin_eigenstates(ta)[SpinValue.UP]
            spin_b = spin_eigenstates(tb)[SpinValue.UP]
            post = np.kron(spin_a, spin_b)
            rho = qcore.reduced_density(post, (SPIN_DIM, SPIN_DIM), keep=(0,))
            entropies.append(qcore.entanglement_entropy(rho))
    return {
        "model": "definite_path_mixture",
        "values": {
            "success_prob": accept,
            "entanglement_bits": float(max(entropies)),
            "separable": True,
        },
    }


def swap_report(trine: Trine) -> dict[str, Any]:
    """Erasure survey: the prepared pair, all four value-conditional
    states, and the definite-path contrast.  Deterministic."""
    rows = []

    def add_row(condition: str, state: JointState) -> None:
        res = erase_paths(state)
        rows.append(
            {
                "condition": condition,
                "success_prob": res.success_prob,
                "entanglement_bits": res.entanglement_bits,
                "fidelity_to_singlet": res.fidelity_to_singlet,
            }
        )

    add_row("prepared_pair", prepare_joint(trine))
    projectors = trine_projectors(trine)
    for va in SpinValue:
        for vb in SpinValue:
            state, _ = oracle_conditional_state(va, vb, projectors)
            add_row(f"conditional_{va.label}_{vb.label}", state)

    return {
        "rows": rows,
        "contrast": definite_path_contrast(trine),
        "notes": [
            "Residual spin registers stand in for the reemitted probe "
            "carriers; erasure restores their nonlocal correlations."
        ],
    }
