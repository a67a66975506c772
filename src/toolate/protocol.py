"""Composite path (x) spin registers and the value-first measurement protocol.

Register layout
---------------
A particle occupies a 6-dim space: path factor of dim 3 (ports p1/p2/p3,
each aimed at one magnet orientation) tensored with a spin factor of
dim 2 (z basis).  Single-particle basis index = 2*port + spin.  The pair
lives in 36 dims laid out as path_A (x) spin_A (x) path_B (x) spin_B,
row-major, so the joint index is 6*(2*pA + sA) + (2*pB + sB).  Each
measurement acts on one particle: its 6x6 operator acts on that
particle's factor of the pair, A's the leading 6 dimensions and B's the
trailing 6 (``qcore`` ``factor`` 0 and 1), and is never lifted to 36x36.

Exit bookkeeping
----------------
A detector-level outcome ("exit") is an orientation together with a
spin value.  Exits are enumerated by ascending orientation angle, not
by port, so every tabulated statistic is invariant under re-binding of
ports to orientations; the port is recovered through the trine when a
spatial mode is needed.  ``Trine.basis`` holds the six exit states as
columns in that order: column 2*k + v is the k-th orientation with
value v, so ``[:, v::2]`` are the three exits of value v.  The value
projectors and the audit's literal forms are built from it, and the
amplitude of the joint exit pair (eA, eB) is that of basis column eA on
A's factor and column eB on B's (``exit_amplitudes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
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
    order is the canonical exit enumeration used by every table.  A trine
    builds its exit basis (``basis``), checked families (``families``)
    and prepared pair (``pair``) once, on first use, and keeps them;
    equality and hashing see only ``angles_by_port``.
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

    @cached_property
    def basis(self) -> np.ndarray:
        """The six exit states as columns, in exit order; read-only."""
        return _read_only(np.column_stack([exit_vector(self, lab) for lab in exit_labels(self)]))

    @cached_property
    def families(self) -> tuple[qcore.ProjectorFamily, qcore.ProjectorFamily]:
        """``(values, exits)``: the value family (P_up, P_down) and the
        six exit projectors in ``exit_labels`` order, each a 6x6
        ``qcore.ProjectorFamily`` checked once.  Both particles measure
        with them, each on its own factor of the pair."""
        basis = self.basis
        values = qcore.ProjectorFamily(_value_blocks(basis))
        # exit e's projector is the outer product of basis column e
        exits = qcore.ProjectorFamily(basis.T[:, :, None] * basis.T.conj()[:, None, :])
        return values, exits

    @cached_property
    def pair(self) -> np.ndarray:
        """``prepare_joint(self).vec``, read-only.  The trine keeps the
        amplitudes, not the ``JointState``, which refers back to the
        trine: that reference cycle would keep a trine, families and
        all, until the cyclic collector ran."""
        return _read_only(prepare_joint(self).vec)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def degrees_of(theta: float) -> float:
    """Angle in degrees, rounded so conversion dust never leaks into
    labels or records (119.99999999999999 -> 120.0); adding 0.0 turns
    -0.0 into 0.0."""
    return round(math.degrees(theta), 9) + 0.0


def degree_text(theta: float) -> str:
    """``degrees_of(theta)`` as a label: its shortest round-tripping
    ``repr`` without a trailing ".0", so two orientations that differ
    get different labels however many digits they need (100.0001,
    120, 1e-06)."""
    text = repr(degrees_of(theta))
    return text[:-2] if text.endswith(".0") else text


class ExitLabel(NamedTuple):
    theta: float
    value: SpinValue

    def text(self, trine: Trine) -> str:
        return f"p{trine.port_of(self.theta) + 1}@{degree_text(self.theta)}deg:{self.value.label}"


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


@cache
def three_port_splitter() -> np.ndarray:
    """Balanced three-port splitter, DFT entries w**(j*k)/sqrt 3; built once, read-only."""
    w = np.exp(2j * math.pi / PATH_DIM)
    j, k = np.meshgrid(np.arange(PATH_DIM), np.arange(PATH_DIM), indexing="ij")
    return _read_only(w ** (j * k) / math.sqrt(PATH_DIM))


def uniform_paths() -> np.ndarray:
    """Splitter output for input port p1: equal coherent amplitudes."""
    return three_port_splitter()[:, 0]


def exit_vector(trine: Trine, label: ExitLabel) -> np.ndarray:
    """Single-particle exit state |port> (x) |eigenstate along theta>."""
    port = trine.port_of(label.theta)
    vec = np.zeros(PARTICLE_DIM, dtype=complex)
    vec[SPIN_DIM * port : SPIN_DIM * (port + 1)] = spin_eigenstates(label.theta)[label.value]
    return vec


def prepare_joint(trine: Trine) -> JointState:
    """Both particles beam-split from port p1, spins in the singlet.

    Paths and spins start as a product, so the reduced spin state is
    exactly the singlet projector and each path marginal is uniform.
    """
    u = uniform_paths()
    spin_pair = singlet().reshape(SPIN_DIM, SPIN_DIM)
    vec = np.einsum("p,q,sz->psqz", u, u, spin_pair).reshape(JOINT_DIM)
    return JointState(vec, trine)


def _factor(particle: int) -> int:
    """The factor of the pair that one particle's operators act on: the
    leading 6 dimensions (0) for A, the trailing 6 (1) for B."""
    if particle not in (PARTICLE_A, PARTICLE_B):
        raise ValueError("particle must be 0 (A) or 1 (B)")
    return particle


def _value_blocks(basis: np.ndarray) -> np.ndarray:
    """The 6x6 (P_up, P_down) of one particle, from its exit basis."""
    return np.array([basis[:, v::2] @ basis[:, v::2].conj().T for v in SpinValue])


def _on_pair(block: np.ndarray, particle: int) -> np.ndarray:
    # kron(block, I) for A, kron(I, block) for B
    eye = np.eye(PARTICLE_DIM, dtype=complex)
    return np.kron(block, eye) if _factor(particle) == PARTICLE_A else np.kron(eye, block)


def value_projectors(trine: Trine, particle: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors fixing one particle's spin value across all three ports,
    as 36x36 operators on the pair.

    P_up sums |port(o)><port(o)| (x) |up(o)><up(o)| over the trine; the
    orientation stays superposed.  P_up + P_down is the identity.  The
    measurements use the 6x6 blocks of ``Trine.families`` instead.
    """
    return tuple(_on_pair(block, particle) for block in _value_blocks(trine.basis))


def exit_projector(trine: Trine, particle: int, label: ExitLabel) -> np.ndarray:
    """One exit's projector as a 36x36 operator on the pair."""
    vec = exit_vector(trine, label)
    return _on_pair(np.outer(vec, vec.conj()), particle)


def measure_value(
    state: JointState, particle: int, rng: TrialRng
) -> tuple[SpinValue, JointState]:
    """Measure one particle's spin value only; orientation stays superposed.
    Samples the value family of the state's trine (``Trine.families``)
    on the particle's factor of the pair."""
    values, _ = state.trine.families
    index, post = qcore.sample(state.vec, values, rng, _factor(particle))
    return SpinValue(index), JointState(post, state.trine)


def measure_orientation(
    state: JointState, particle: int, rng: TrialRng
) -> tuple[ExitLabel, JointState]:
    """Complete one particle's measurement by sampling its six exits,
    the exit family of the state's trine (``Trine.families``), on the
    particle's factor of the pair.  Only the drawn exit's label is
    built: exit ``index`` is the orientation of rank ``index // 2`` with
    value ``index % 2``, as in ``exit_labels``."""
    _, exits = state.trine.families
    index, post = qcore.sample(state.vec, exits, rng, _factor(particle))
    label = ExitLabel(state.trine.orientations[index // 2], SpinValue(index % 2))
    return label, JointState(post, state.trine)


def exit_amplitudes(state: JointState) -> np.ndarray:
    """Amplitude of every joint exit pair, shape (6, 6), indexed [A, B]:
    sum over i, j of conj(basis[i, eA]) conj(basis[j, eB]) M[i, j], with
    M the pair as a 6x6 matrix indexed [A, B]."""
    conj = state.trine.basis.conj()
    return np.einsum("ie,jf,ij->ef", conj, conj, state.vec.reshape(PARTICLE_DIM, PARTICLE_DIM))


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


def composed_distribution(state: JointState, order: Sequence[str]) -> np.ndarray:
    """Joint exit table composed from sequential stage probabilities.

    ``order`` interleaves the four stages (value/orientation for each
    particle) with each particle's value before its orientation, each
    measured with the families of the state's trine on that particle's
    factor of the pair.  Used as the ordering-invariance oracle against
    ``joint_distribution``.  One stage at a time, every live branch's
    state goes into one stacked ``qcore.projections`` product over the
    stage's family, all six exits for an orientation stage; a member of
    weight at or below 1e-12 is not a branch.  The others collapse in one
    stacked division of their rows by the square roots of their weights;
    a last-stage leaf adds its weight to its own cell and collapses nothing.
    """
    if sorted(order) != ["oA", "oB", "vA", "vB"]:
        raise ValueError("order must contain vA, vB, oA, oB exactly once")
    if order.index("vA") > order.index("oA") or order.index("vB") > order.index("oB"):
        raise ValueError("each particle's value stage must precede its orientation stage")

    values, exits = state.trine.families
    vecs = state.vec[None]
    weights = np.ones(1)
    outcome: dict[str, np.ndarray] = {}  # each stage's outcome index, per branch
    for stage, tag in enumerate(order, 1):
        family = exits if tag[0] == "o" else values
        probs, rows = qcore.projections(family.stack, vecs, "AB".index(tag[1]))
        branch, name = np.nonzero(probs > qcore.ZERO_PROB)
        # exit 2*r + v has value v; exits conflicting with the recorded
        # value carry zero weight, so one here would mean a broken collapse
        if tag[0] == "o" and (name % 2 != outcome["v" + tag[1]][branch]).any():
            raise AssertionError("nonzero weight on a value-inconsistent exit")
        outcome = {t: picks[branch] for t, picks in outcome.items()}
        outcome[tag] = name
        prob = probs[branch, name]
        weights = weights[branch] * prob
        if stage < len(order):
            vecs = rows[branch, name] / np.sqrt(prob)[:, None]
    table = np.zeros((PARTICLE_DIM, PARTICLE_DIM))
    # each (exit_A, exit_B) leaf is reached by exactly one branch
    table[outcome["oA"], outcome["oB"]] += weights
    return table


@dataclass(frozen=True)
class StageConditionals:
    """Exact stage-by-stage outcome probabilities for the value-first run.

    Derived once from the prepared pair by actual projection and
    collapse; a Monte Carlo trial then consumes one uniform per stage
    against these tables, which reproduces sequential measurement
    draw for draw.  The orientation stages are indexed by rank, an
    orientation's place in ascending order; given the drawn value v,
    rank r is exit 2*r + v.  Each row is made drawable by
    ``qcore.snap``, so impossible exits are never sampled.
    """

    p_value_a: np.ndarray          # (2,)
    p_value_b: np.ndarray          # (2, 2)    [vA, vB]
    p_orient_a: np.ndarray         # (2, 2, 3) [vA, vB, rA]
    p_orient_b: np.ndarray         # (2, 2, 3, 3) [vA, vB, rA, rB]


def stage_conditionals(trine: Trine) -> StageConditionals:
    """The stage tables of ``trine``, by projecting its prepared pair
    ``trine.pair`` with ``trine.families``, each particle's stages on
    its own factor of the pair.  The six value stages collapse through
    ``qcore.project``.  Each orientation stage projects only onto the
    exits of the value drawn before it, ``stack[v::2]``, in one stacked
    ``qcore.projections`` product per value over the states of that
    value, and A's exit collapses reuse its projected rows.  A value
    pair whose joint weight is at or below 1e-12 keeps weight 0 and
    all-zero orientation rows, as an orientation of weight 0 does; that
    includes a B value that ``qcore.project`` refuses to collapse onto
    after A's collapse."""
    values, exits = trine.families

    p_value_a = np.zeros(2)
    p_value_b = np.zeros((2, 2))
    p_orient_a = np.zeros((2, 2, PATH_DIM))
    p_orient_b = np.zeros((2, 2, PATH_DIM, PATH_DIM))

    # the states that reach each orientation stage, by the value it projects on
    at_a = {va: {} for va in SpinValue}
    at_b = {vb: {} for vb in SpinValue}
    for va in SpinValue:
        prob_a, state_a = qcore.project(values[va], trine.pair, PARTICLE_A)
        p_value_a[va] = prob_a
        for vb in SpinValue:
            try:
                prob_b, state_b = qcore.project(values[vb], state_a, PARTICLE_B)
            except qcore.ZeroProbability:
                continue  # an impossible value pair keeps zero rows
            if prob_a * prob_b <= qcore.ZERO_PROB:
                continue  # so does one whose joint weight is rounding dust
            p_value_b[va, vb] = prob_b
            at_a[va][vb] = state_b
        p_value_b[va] = qcore.snap(p_value_b[va])

    # rank r of value v is exit 2*r + v
    for va, states in at_a.items():
        stacked = np.array([*states.values()]).reshape(-1, JOINT_DIM)
        probs, rows = qcore.projections(exits.stack[va::2], stacked, PARTICLE_A)
        for vb, weights, rows_a in zip(states, probs, rows):
            p_orient_a[va, vb] = qcore.snap(weights)
            for ra in p_orient_a[va, vb].nonzero()[0]:
                at_b[vb][va, ra] = rows_a[ra] / np.sqrt(weights[ra])
    for vb, states in at_b.items():
        stacked = np.array([*states.values()]).reshape(-1, JOINT_DIM)
        probs, _ = qcore.projections(exits.stack[vb::2], stacked, PARTICLE_B)
        for (va, ra), weights in zip(states, probs):
            p_orient_b[va, vb, ra] = qcore.snap(weights)
    return StageConditionals(qcore.snap(p_value_a), p_value_b, p_orient_a, p_orient_b)


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
    """One full value-first trial via explicit state collapse (slow path).

    The independent oracle for the batch sampler: from the trine's kept
    pair (``Trine.pair``), both values are drawn at t2 with the
    orientations still superposed, then both exits, one uniform of
    ``rng`` per stage.  Each draw checks its state once, in
    ``qcore.sample``, and each collapsed state is checked as a
    ``JointState``."""
    state = JointState(trine.pair, trine)
    value_a, state = measure_value(state, PARTICLE_A, rng)
    value_b, state = measure_value(state, PARTICLE_B, rng)
    exit_a, state = measure_orientation(state, PARTICLE_A, rng)
    exit_b, state = measure_orientation(state, PARTICLE_B, rng)
    return OutcomeRecord(trial, rng.seed, value_a, value_b, exit_a, exit_b)
