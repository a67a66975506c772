"""Composite path (x) spin registers and the value-first measurement protocol.

Register layout
---------------
A particle occupies a 6-dim space: path factor of dim 3 (ports p1/p2/p3,
each aimed at one magnet orientation) tensored with a spin factor of
dim 2 (z basis).  Single-particle basis index = 2*port + spin.  The pair
lives in 36 dims laid out as path_A (x) spin_A (x) path_B (x) spin_B,
row-major, so the joint index is 6*(2*pA + sA) + (2*pB + sB).

Exit bookkeeping
----------------
A detector-level outcome ("exit") is an orientation together with a
spin value.  Exits are enumerated by ascending orientation angle, not
by port, so every tabulated statistic is invariant under re-binding of
ports to orientations; the port is recovered through the trine when a
spatial mode is needed.  ``exit_basis`` holds the six exit states as
columns in that order: column 2*k + v is the k-th orientation with
value v, so ``[:, v::2]`` are the three exits of value v.  The value
projectors and the audit's literal forms are built from it, and the 36
joint exit states are its Kronecker square, column 6*eA + eB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import qcore
from .rng import TrialRng
from .spinlab import SpinValue, singlet, spin_eigenstates, wrap_angle

PATH_DIM = 3
SPIN_DIM = 2
PARTICLE_DIM = PATH_DIM * SPIN_DIM
JOINT_DIM = PARTICLE_DIM * PARTICLE_DIM
JOINT_LAYOUT = (PATH_DIM, SPIN_DIM, PATH_DIM, SPIN_DIM)

PARTICLE_A = 0
PARTICLE_B = 1


@dataclass(frozen=True)
class Trine:
    """Three distinct coplanar orientations with their port binding.

    ``angles_by_port[k]`` is the orientation of the magnet behind port
    k.  ``orientations`` lists the same angles sorted ascending; that
    order is the canonical exit enumeration used by every table.
    """

    angles_by_port: tuple[float, float, float]

    def __post_init__(self):
        wrapped = tuple(wrap_angle(t) for t in self.angles_by_port)
        if len(set(wrapped)) != PATH_DIM:
            raise ValueError("orientations must be distinct")
        object.__setattr__(self, "angles_by_port", wrapped)

    @classmethod
    def default(cls) -> "Trine":
        return cls((0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0))

    @classmethod
    def from_degrees(cls, degrees: Sequence[float]) -> "Trine":
        return cls(tuple(math.radians(d) for d in degrees))

    def permuted(self, perm: Sequence[int]) -> "Trine":
        """Re-bind ports: new port k carries angles_by_port[perm[k]]."""
        if sorted(perm) != [0, 1, 2]:
            raise ValueError("perm must be a permutation of (0, 1, 2)")
        return Trine(tuple(self.angles_by_port[p] for p in perm))

    @property
    def orientations(self) -> tuple[float, float, float]:
        return tuple(sorted(self.angles_by_port))

    def port_of(self, theta: float) -> int:
        t = wrap_angle(theta)
        for port, angle in enumerate(self.angles_by_port):
            if angle == t:
                return port
        raise ValueError(f"orientation {theta!r} is not in the trine")


def degrees_of(theta: float) -> float:
    """Angle in degrees, rounded so conversion dust never leaks into
    labels or records (119.99999999999999 -> 120.0); adding 0.0 turns
    -0.0 into 0.0."""
    return round(math.degrees(theta), 9) + 0.0


class ExitLabel(NamedTuple):
    theta: float
    value: SpinValue

    @property
    def degrees(self) -> float:
        return degrees_of(self.theta)

    def text(self, trine: Trine) -> str:
        return f"p{trine.port_of(self.theta) + 1}@{self.degrees:g}deg:{self.value.label}"


def exit_labels(trine: Trine) -> list[ExitLabel]:
    """The six exits in canonical order: ascending angle, up before down."""
    return [ExitLabel(t, v) for t in trine.orientations for v in SpinValue]


@dataclass(frozen=True, eq=False)
class JointState:
    """Normalized 36-dim pair state plus the trine it was built with."""

    vec: np.ndarray
    trine: Trine

    def __post_init__(self):
        object.__setattr__(self, "vec", qcore.require_normalized(self.vec))
        if self.vec.size != JOINT_DIM:
            raise ValueError("joint state must have dim 36")


def three_port_splitter() -> np.ndarray:
    """Balanced three-port splitter: DFT entries w**(j*k)/sqrt 3."""
    w = np.exp(2j * math.pi / PATH_DIM)
    j, k = np.meshgrid(np.arange(PATH_DIM), np.arange(PATH_DIM), indexing="ij")
    return w ** (j * k) / math.sqrt(PATH_DIM)


def uniform_paths() -> np.ndarray:
    """Splitter output for input port p1: equal coherent amplitudes."""
    return three_port_splitter()[:, 0]


def exit_vector(trine: Trine, label: ExitLabel) -> np.ndarray:
    """Single-particle exit state |port> (x) |eigenstate along theta>."""
    port = trine.port_of(label.theta)
    vec = np.zeros(PARTICLE_DIM, dtype=complex)
    vec[SPIN_DIM * port : SPIN_DIM * (port + 1)] = spin_eigenstates(label.theta)[label.value]
    return vec


def exit_basis(trine: Trine) -> np.ndarray:
    """The six exit states as the columns of one 6x6 basis, in exit order."""
    return np.column_stack([exit_vector(trine, lab) for lab in exit_labels(trine)])


def prepare_joint(trine: Trine) -> JointState:
    """Both particles beam-split from port p1, spins in the singlet.

    Paths and spins start as a product, so the reduced spin state is
    exactly the singlet projector and each path marginal is uniform.
    """
    u = uniform_paths()
    spin_pair = singlet().reshape(SPIN_DIM, SPIN_DIM)
    vec = np.einsum("p,q,sz->psqz", u, u, spin_pair).reshape(JOINT_DIM)
    return JointState(vec, trine)


def _particle_operator(op6: np.ndarray, particle: int) -> np.ndarray:
    eye = np.eye(PARTICLE_DIM, dtype=complex)
    if particle == PARTICLE_A:
        return np.kron(op6, eye)
    if particle == PARTICLE_B:
        return np.kron(eye, op6)
    raise ValueError("particle must be 0 (A) or 1 (B)")


def value_projectors(trine: Trine, particle: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors fixing one particle's spin value across all three ports.

    P_up sums |port(o)><port(o)| (x) |up(o)><up(o)| over the trine; the
    orientation stays superposed.  P_up + P_down is the identity.
    """
    basis = exit_basis(trine)
    return tuple(
        _particle_operator(basis[:, v::2] @ basis[:, v::2].conj().T, particle)
        for v in SpinValue
    )


def exit_projector(trine: Trine, particle: int, label: ExitLabel) -> np.ndarray:
    vec = exit_vector(trine, label)
    return _particle_operator(np.outer(vec, vec.conj()), particle)


class TrineProjectors(NamedTuple):
    """A trine's four measurement families, each checked once when built.

    ``value[particle]`` is (P_up, P_down) and ``exits[particle]`` the six
    exit projectors in ``exit_labels`` order, for particle A (0) and B
    (1).  Build them with ``trine_projectors`` in the call that uses
    them: nothing keeps them past it.
    """

    trine: Trine
    value: tuple[qcore.ProjectorFamily, qcore.ProjectorFamily]
    exits: tuple[qcore.ProjectorFamily, qcore.ProjectorFamily]


def trine_projectors(trine: Trine) -> TrineProjectors:
    """Build and check the four families of ``trine``."""
    labels = exit_labels(trine)
    particles = (PARTICLE_A, PARTICLE_B)
    return TrineProjectors(
        trine,
        tuple(qcore.ProjectorFamily(value_projectors(trine, p)) for p in particles),
        tuple(
            qcore.ProjectorFamily([exit_projector(trine, p, lab) for lab in labels])
            for p in particles
        ),
    )


def _families(
    state: JointState, particle: int, projectors: TrineProjectors
) -> tuple[qcore.ProjectorFamily, qcore.ProjectorFamily]:
    """One particle's value and exit families, for a state of their trine."""
    if projectors.trine != state.trine:
        raise ValueError("projectors were built for another trine")
    if particle not in (PARTICLE_A, PARTICLE_B):
        raise ValueError("particle must be 0 (A) or 1 (B)")
    return projectors.value[particle], projectors.exits[particle]


def measure_value(
    state: JointState, particle: int, rng: TrialRng, projectors: TrineProjectors
) -> tuple[SpinValue, JointState]:
    """Measure one particle's spin value only; orientation stays superposed."""
    values, _ = _families(state, particle, projectors)
    index, post = qcore.sample(state.vec, values, rng)
    return SpinValue(index), JointState(post, state.trine)


def measure_orientation(
    state: JointState, particle: int, rng: TrialRng, projectors: TrineProjectors
) -> tuple[ExitLabel, JointState]:
    """Complete one particle's measurement by sampling its six exits."""
    _, exits = _families(state, particle, projectors)
    index, post = qcore.sample(state.vec, exits, rng)
    return exit_labels(state.trine)[index], JointState(post, state.trine)


def joint_exit_basis(trine: Trine) -> np.ndarray:
    """Columns are the 36 joint exit states in canonical (A, B) order."""
    basis = exit_basis(trine)
    return np.kron(basis, basis)


def exit_amplitudes(state: JointState) -> np.ndarray:
    """Amplitude of every joint exit pair, shape (6, 6), indexed [A, B]."""
    basis = joint_exit_basis(state.trine)
    return (basis.conj().T @ state.vec).reshape(PARTICLE_DIM, PARTICLE_DIM)


def joint_distribution(state: JointState) -> np.ndarray:
    """Exact Born probability of every joint exit pair, shape (6, 6)."""
    return np.abs(exit_amplitudes(state)) ** 2


STAGE_ORDERS: tuple[tuple[str, ...], ...] = (
    ("vA", "vB", "oA", "oB"),
    ("vA", "vB", "oB", "oA"),
    ("vA", "oA", "vB", "oB"),
    ("vB", "vA", "oA", "oB"),
    ("vB", "vA", "oB", "oA"),
    ("vB", "oB", "vA", "oA"),
)


def composed_distribution(
    state: JointState, order: Sequence[str], projectors: TrineProjectors
) -> np.ndarray:
    """Joint exit table composed from sequential stage probabilities.

    ``order`` interleaves the four stages (value/orientation for each
    particle) with each particle's value before its orientation.  Used
    as the ordering-invariance oracle against ``joint_distribution``.
    """
    if sorted(order) != ["oA", "oB", "vA", "vB"]:
        raise ValueError("order must contain vA, vB, oA, oB exactly once")
    if order.index("vA") > order.index("oA") or order.index("vB") > order.index("oB"):
        raise ValueError("each particle's value stage must precede its orientation stage")

    labels = exit_labels(state.trine)
    partitions = {}  # by stage tag
    for side, particle in (("A", PARTICLE_A), ("B", PARTICLE_B)):
        partitions["v" + side], partitions["o" + side] = _families(state, particle, projectors)
    table = np.zeros((PARTICLE_DIM, PARTICLE_DIM))
    # depth-first over outcome branches; each (exit_A, exit_B) leaf is
    # reached by exactly one branch, so the visiting order is immaterial
    pending = [(0, state.vec, 1.0, {})]
    while pending:
        stage, vec, weight, outcome = pending.pop()
        if stage == len(order):
            table[outcome["oA"], outcome["oB"]] += weight
            continue
        tag = order[stage]
        for name, proj in enumerate(partitions[tag]):
            prob = qcore.projection_probability(proj, vec)
            if prob <= qcore.ZERO_PROB:
                continue
            if tag[0] == "o" and labels[name].value != outcome["v" + tag[1]]:
                # exits conflicting with the recorded value carry zero
                # weight; reaching here would mean a broken collapse
                raise AssertionError("nonzero weight on a value-inconsistent exit")
            post = (proj @ vec) / np.sqrt(prob)
            pending.append((stage + 1, post, weight * prob, {**outcome, tag: name}))
    return table


def _snap(probs: np.ndarray) -> np.ndarray:
    out = np.where(probs <= qcore.ZERO_PROB, 0.0, probs)
    total = out.sum()
    return out / total


@dataclass(frozen=True)
class StageConditionals:
    """Exact stage-by-stage outcome probabilities for the value-first run.

    Derived once from the prepared pair by actual projection and
    collapse; a Monte Carlo trial then consumes one uniform per stage
    against these tables, which reproduces sequential measurement
    draw for draw.  Entries at or below 1e-12 are snapped to zero so
    impossible exits are never sampled.
    """

    trine: Trine
    p_value_a: np.ndarray          # (2,)
    p_value_b: np.ndarray          # (2, 2)    [vA, vB]
    p_exit_a: np.ndarray           # (2, 2, 6) [vA, vB, eA]
    p_exit_b: np.ndarray           # (2, 2, 6, 6) [vA, vB, eA, eB]


def stage_conditionals(projectors: TrineProjectors) -> StageConditionals:
    """The stage tables of ``projectors.trine``, by projecting its
    prepared pair with the trine's families."""
    trine = projectors.trine
    start = prepare_joint(trine)
    proj_a, proj_b = projectors.value
    exits_a, exits_b = projectors.exits

    p_value_a = np.zeros(2)
    p_value_b = np.zeros((2, 2))
    p_exit_a = np.zeros((2, 2, PARTICLE_DIM))
    p_exit_b = np.zeros((2, 2, PARTICLE_DIM, PARTICLE_DIM))

    for va in SpinValue:
        prob_a, state_a = qcore.project(proj_a[va], start.vec)
        p_value_a[va] = prob_a
        for vb in SpinValue:
            prob_b, state_b = qcore.project(proj_b[vb], state_a)
            p_value_b[va, vb] = prob_b
            for ea, exit_a in enumerate(exits_a):
                prob_ea = qcore.projection_probability(exit_a, state_b)
                p_exit_a[va, vb, ea] = prob_ea
                if prob_ea <= qcore.ZERO_PROB:
                    continue
                _, state_ea = qcore.project(exit_a, state_b)
                for eb, exit_b in enumerate(exits_b):
                    p_exit_b[va, vb, ea, eb] = qcore.projection_probability(exit_b, state_ea)

    p_value_a = _snap(p_value_a)
    p_value_b = np.stack([_snap(row) for row in p_value_b])
    for va in SpinValue:
        for vb in SpinValue:
            p_exit_a[va, vb] = _snap(p_exit_a[va, vb])
            for ea in range(PARTICLE_DIM):
                row = p_exit_b[va, vb, ea]
                if p_exit_a[va, vb, ea] == 0.0:
                    p_exit_b[va, vb, ea] = 0.0
                else:
                    p_exit_b[va, vb, ea] = _snap(row)
    return StageConditionals(trine, p_value_a, p_value_b, p_exit_a, p_exit_b)


@dataclass(frozen=True)
class OutcomeRecord:
    """One trial's outcomes: both values (t2), then both exits (t3)."""

    trial: int
    seed: int
    value_a: SpinValue
    value_b: SpinValue
    exit_a: ExitLabel
    exit_b: ExitLabel

    def __post_init__(self):
        if self.exit_a.value != self.value_a or self.exit_b.value != self.value_b:
            raise ValueError("exit value disagrees with the recorded stage-t2 value")


def run_trial(trine: Trine, rng: TrialRng, trial: int = 0) -> OutcomeRecord:
    """One full value-first trial via explicit state collapse (slow path)."""
    projectors = trine_projectors(trine)
    state = prepare_joint(trine)
    value_a, state = measure_value(state, PARTICLE_A, rng, projectors)
    value_b, state = measure_value(state, PARTICLE_B, rng, projectors)
    exit_a, state = measure_orientation(state, PARTICLE_A, rng, projectors)
    exit_b, state = measure_orientation(state, PARTICLE_B, rng, projectors)
    return OutcomeRecord(trial, rng.seed, value_a, value_b, exit_a, exit_b)
