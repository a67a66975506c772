import itertools
import math

import numpy as np
import pytest
import scipy.stats

from conftest import random_state
from oracles import entropy_bits, jacobi_eigvalsh, validate_partition_reference
from toolate import protocol, qcore
from toolate.audit import oracle_conditional_state
from toolate.protocol import (
    JOINT_LAYOUT,
    PARTICLE_A,
    PARTICLE_B,
    STAGE_ORDERS,
    JointState,
    Trine,
    composed_distribution,
    exit_labels,
    exit_projector,
    exit_vector,
    prepare_joint,
    run_trial,
    stage_conditionals,
    value_projectors,
)
from toolate.rng import TrialRng
from toolate.spinlab import SpinValue, singlet, spin_eigenstates

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)


class TestProject:
    def test_half_weight_collapse(self):
        prob, post = qcore.project(np.outer(E0, E0), PLUS)
        assert abs(prob - 0.5) < 1e-15
        np.testing.assert_allclose(post, E0, atol=1e-15)

    def test_identity_projector(self, rand):
        state = random_state(rand, 4)
        prob, post = qcore.project(np.eye(4), state)
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(post, state, atol=1e-12)

    def test_singlet_same_axis_same_value_is_forbidden(self):
        up, _ = spin_eigenstates(0.77)
        joint = np.kron(up, up)
        with pytest.raises(qcore.ZeroProbability):
            qcore.project(np.outer(joint, joint.conj()), singlet())

    def test_projection_is_idempotent(self, rand):
        up, _ = spin_eigenstates(1.3)
        proj = np.outer(up, up.conj())
        _, post = qcore.project(proj, random_state(rand, 2))
        prob2, _ = qcore.project(proj, post)
        assert abs(prob2 - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "op",
        [np.zeros(3), np.zeros((2, 2, 2)), np.zeros(()), np.zeros((2, 3)), np.zeros((0,))],
        ids=["vector", "stack", "scalar", "non-square", "empty"],
    )
    def test_non_matrix_is_not_a_projector(self, op):
        assert qcore.is_projector(op) is False
        with pytest.raises(ValueError, match="not a projector"):
            qcore.project(op, np.ones(3, dtype=complex) / math.sqrt(3))

    def test_non_projector_rejected(self):
        with pytest.raises(ValueError):
            qcore.project(np.array([[0, 1], [0, 0]]), PLUS)


class TestSample:
    def partition(self):
        return qcore.ProjectorFamily([np.outer(E0, E0), np.outer(E1, E1)])

    def test_definite_state_always_same_outcome(self):
        rng = TrialRng(99)
        for _ in range(20):
            index, post = qcore.sample(E0, self.partition(), rng)
            assert index == 0
            np.testing.assert_allclose(post, E0)

    def test_seeded_reproducibility(self, rand):
        state = random_state(rand, 2)
        first = [qcore.sample(state, self.partition(), TrialRng.for_trial(5, i))[0] for i in range(200)]
        second = [qcore.sample(state, self.partition(), TrialRng.for_trial(5, i))[0] for i in range(200)]
        assert first == second

    def test_frequencies_match_born_weights(self):
        up, down = spin_eigenstates(2.0)
        partition = qcore.ProjectorFamily([np.outer(up, up.conj()), np.outer(down, down.conj())])
        state = np.array([0.8, 0.6], dtype=complex)
        exact = [qcore.projection_probability(p, state) for p in partition]
        counts = [0, 0]
        for i in range(20000):
            index, _ = qcore.sample(state, partition, TrialRng.for_trial(2024, i))
            counts[index] += 1
        _, p = scipy.stats.chisquare(counts, np.multiply(exact, sum(counts)))
        assert p > 0.001

    def test_incomplete_partition_rejected(self):
        with pytest.raises(qcore.InvalidPartition):
            qcore.sample(E0, [np.outer(E0, E0)], TrialRng(0))
        with pytest.raises(qcore.InvalidPartition):
            qcore.sample(E0, qcore.ProjectorFamily([np.outer(E0, E0)]), TrialRng(0))

    def test_complete_partition_weights_sum_to_one(self, rand, trine):
        from toolate.protocol import PARTICLE_A, exit_labels, exit_projector

        partition = [exit_projector(trine, PARTICLE_A, lab) for lab in exit_labels(trine)]
        for _ in range(20):
            state = random_state(rand, 36)
            total = sum(qcore.projection_probability(p, state) for p in partition)
            assert abs(total - 1.0) < 1e-10


def snap_row(weights):
    """The zero snap of one row, written out: entries at or below 1e-12
    become 0, then the row is divided by its sum."""
    out = np.where(np.asarray(weights) <= qcore.ZERO_PROB, 0.0, weights)
    return out / out.sum()


SNAP_ROWS = [
    [1e-33, 0.5, 0.5],
    [0.3, 1e-13, 0.7 - 1e-13],
    [2.0, 1e-13, 6.0],
    [1e-12, 0.25, 0.5],
    [1 / 3, 1e-33, 1e-13, 2 / 3],
]


class TestSnap:
    @pytest.mark.parametrize("row", SNAP_ROWS)
    def test_one_row_matches_the_written_out_snap(self, row):
        got = qcore.snap(row)
        assert np.array_equal(got, snap_row(row)) and got[np.asarray(row) <= 1e-12].max() == 0.0

    @pytest.mark.parametrize("degrees, count", [((0, 0.0001, 0.0002), 11), ((0, 120, 240), 19)])
    def test_stage_rows_match_the_written_out_snap(self, degrees, count, monkeypatch):
        rows = []
        real = qcore.snap
        monkeypatch.setattr(qcore, "snap", lambda w: rows.append(np.array(w)) or real(w))
        stage_conditionals(Trine.from_degrees(degrees))
        assert len(rows) == count  # one per value row and per possible rank row
        # some rows hold rounding dust or do not sum to 1, so the snap changes them
        assert any(not np.array_equal(real(row), row) for row in rows)
        for row in rows:
            assert np.array_equal(real(row), snap_row(row))

    def test_each_row_of_a_table_is_snapped_alone(self):
        table = np.array([row[:3] for row in SNAP_ROWS])
        want = np.array([snap_row(row) for row in table])
        assert np.array_equal(qcore.snap(table), want)
        assert np.array_equal(qcore.snap(table.reshape(5, 1, 3)), want.reshape(5, 1, 3))


def family_checks(monkeypatch) -> list:
    """The shape of every partition ``validate_partition`` checks from now on."""
    checked = []
    real = qcore.validate_partition
    monkeypatch.setattr(
        qcore, "validate_partition", lambda ops, dim: checked.append(np.shape(ops)) or real(ops, dim)
    )
    return checked


class TestProjectorFamily:
    def family(self):
        return qcore.ProjectorFamily([np.outer(E0, E0), np.outer(E1, E1)])

    def test_members_are_read_only_copies(self):
        raw = [np.outer(E0, E0), np.outer(E1, E1)]
        family = qcore.ProjectorFamily(raw)
        raw[0][1, 1] = 1.0  # the caller's array, not the member
        assert family.dim == 2 and len(family) == 2
        np.testing.assert_array_equal(family[0], np.outer(E0, E0))
        with pytest.raises(ValueError):
            family[0][0, 0] = 0.5
        assert qcore.is_projector(family[0])

    @pytest.mark.parametrize(
        "partition",
        [
            [np.array([[0, 1], [0, 0]]), np.eye(2)],  # not a projector
            [np.outer(E0, E0)],  # does not sum to the identity
            [np.outer(E0, E0), np.outer(PLUS, PLUS), np.eye(2) - np.outer(PLUS, PLUS)],
            # a projector and a perturbed complement of it
            [np.outer(PLUS, PLUS), np.eye(2) - np.outer(PLUS, PLUS) + 1e-3 * np.outer(E0, E0)],
            [np.outer(E0, E0), np.eye(3)],  # wrong shape
            [np.ones((2, 3))],  # not square
            [],
        ],
        ids=[
            "not-projector",
            "incomplete",
            "non-orthogonal",
            "perturbed-complement",
            "mixed-shape",
            "non-square",
            "empty",
        ],
    )
    def test_bad_family_rejected_at_construction(self, partition):
        with pytest.raises(qcore.InvalidPartition):
            qcore.ProjectorFamily(partition)

    def test_wrong_dimension_rejected_by_sample(self):
        with pytest.raises(qcore.InvalidPartition):
            qcore.sample(np.array([1, 0, 0], dtype=complex), self.family(), TrialRng(0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda family: [np.outer(E0, E0), np.outer(E1, E1)],
            lambda family: tuple(family),
            lambda family: family.stack,
        ],
        ids=["raw-list", "tuple-of-members", "stack"],
    )
    def test_sample_takes_only_a_family(self, make, monkeypatch):
        full = []
        real = qcore.validate_partition
        monkeypatch.setattr(qcore, "validate_partition", lambda *a: full.append(1) or real(*a))
        family = self.family()
        full.clear()
        with pytest.raises(qcore.InvalidPartition):
            qcore.sample(PLUS, make(family), TrialRng(0))
        qcore.sample(PLUS, family, TrialRng(0))
        assert not full  # a family is not checked again on a draw

    def test_raw_arrays_are_checked_on_every_call(self, monkeypatch):
        full = []
        real = qcore.within_atol
        monkeypatch.setattr(qcore, "within_atol", lambda a, b: full.append(1) or real(a, b))
        # a family member is checked in full too
        for proj in (np.outer(E0, E0), self.family()[0]):
            full.clear()
            for _ in range(3):
                qcore.project(proj, PLUS)
            assert len(full) == 3 * 2  # Hermitian and idempotent, each call
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        for _ in range(2):
            with pytest.raises(ValueError):
                qcore.project(bad, PLUS)

    def test_trine_families_check_each_member_once(self, trine, monkeypatch):
        checked, asked = family_checks(monkeypatch), []
        real_is = qcore.is_projector
        monkeypatch.setattr(qcore, "is_projector", lambda op: asked.append(op) or real_is(op))
        families = trine.families
        # one stacked check each for the value and exit families, on 6x6
        # blocks that both particles measure with
        assert checked == [(2, 6, 6), (6, 6, 6)]
        assert not asked  # the stack is checked whole, not member by member
        members = [m for f in families for m in f]
        assert len(members) == 2 + 6 and all(m.shape == (6, 6) for m in members)

        checked.clear()
        assert trine.families is families  # kept by the trine, not built again
        stage_conditionals(trine)
        composed_distribution(prepare_joint(trine), STAGE_ORDERS[0])
        assert asked  # project still asks about every projector
        assert not checked  # and no family is validated again

    def test_run_trial_checks_its_trine_families_once(self, trine, monkeypatch):
        checked = family_checks(monkeypatch)
        for i in range(25):
            run_trial(trine, TrialRng.for_trial(3, i), i)
        # the first trial's build, one stacked check per 6x6 family; the rest reuse it
        assert checked == [(2, 6, 6), (6, 6, 6)]

    def test_one_draw_checks_its_state_once(self, trine, monkeypatch):
        state = JointState(trine.pair, trine)
        checks = []
        real = qcore.as_state
        monkeypatch.setattr(qcore, "as_state", lambda vec: checks.append(1) or real(vec))
        for family in trine.families:
            for factor in (PARTICLE_A, PARTICLE_B):
                checks.clear()
                qcore.sample(state.vec, family, TrialRng.for_trial(3, 0), factor)
                assert len(checks) == 1
        checks.clear()
        run_trial(trine, TrialRng.for_trial(3, 1), 1)
        # the JointState over the kept pair, then each of the four draws
        # and each collapsed JointState
        assert len(checks) == 1 + 4 * 2

    def test_built_families_leave_equality_and_hash_alone(self, trine):
        fresh = Trine.default()
        assert len(trine.families) == 2
        assert "families" in vars(trine) and "families" not in vars(fresh)
        assert trine == fresh and hash(trine) == hash(fresh)

    @pytest.mark.parametrize(
        "break_basis",
        [lambda b: 1.01 * b, lambda b: np.column_stack([(b[:, 0] + b[:, 1]) / np.sqrt(2), b[:, 1:]])],
        ids=["scaled", "non-orthogonal"],
    )
    def test_trine_families_with_a_bad_basis_fail_and_are_not_kept(
        self, trine, monkeypatch, break_basis
    ):
        real_basis = vars(protocol.Trine)["basis"].func
        monkeypatch.setattr(protocol.Trine, "basis", property(lambda t: break_basis(real_basis(t))))
        with pytest.raises(qcore.InvalidPartition):
            trine.families
        assert "families" not in vars(trine)  # a failed build is not kept


# trines with their port bindings: the default, an uneven one, one whose
# degrees print as decimals, and a rotated even one
STACKED_TRINES = [
    ((0, 120, 240), (0, 1, 2)),
    ((0, 90, 200), (1, 2, 0)),
    ((33.3, 100, 271.5), (2, 0, 1)),
    ((10, 130, 250), (2, 1, 0)),
]


class TestProjections:
    """``projections`` and the stacked families against the member-by-member
    route, bit for bit, on either factor of the pair."""

    @pytest.mark.parametrize("degrees, perm", STACKED_TRINES)
    def test_weights_and_rows_match_each_member(self, rand, degrees, perm):
        trine = Trine.from_degrees(degrees).permuted(perm)
        states = [prepare_joint(trine).vec] + [random_state(rand, 36) for _ in range(4)]
        for family in trine.families:
            for stack in (family.stack, family.stack[0::2], family.stack[1::2]):
                for state, factor in itertools.product(states, (PARTICLE_A, PARTICLE_B)):
                    weights, rows = qcore.projections(stack, state, factor)
                    want = [qcore.projection_probability(p, state, factor) for p in stack]
                    assert weights.tobytes() == np.array(want).tobytes()
                    want = [qcore.projections(p[None], state, factor)[1][0] for p in stack]
                    assert rows.tobytes() == np.array(want).tobytes()
                    assert rows.flags.c_contiguous and rows.shape == (len(stack), 36)

    @pytest.mark.parametrize("degrees, perm", STACKED_TRINES)
    def test_pair_operators_pass_the_full_check(self, degrees, perm):
        trine = Trine.from_degrees(degrees).permuted(perm)
        for particle in (PARTICLE_A, PARTICLE_B):
            exits = [exit_projector(trine, particle, label) for label in exit_labels(trine)]
            for partition in (value_projectors(trine, particle), exits):
                ops = qcore.validate_partition(partition, 36)
                assert [op.tobytes() for op in ops] == [p.tobytes() for p in partition]

    @pytest.mark.parametrize("degrees, perm", STACKED_TRINES)
    def test_family_members_match_the_single_builders(self, degrees, perm):
        trine = Trine.from_degrees(degrees).permuted(perm)
        eye = np.eye(6, dtype=complex)
        kron = {PARTICLE_A: lambda op: np.kron(op, eye), PARTICLE_B: lambda op: np.kron(eye, op)}
        values, exits = trine.families
        for particle in (PARTICLE_A, PARTICLE_B):
            for v in SpinValue:
                want = value_projectors(trine, particle)[v]
                assert kron[particle](values[v]).tobytes() == want.tobytes()
            for e, label in enumerate(exit_labels(trine)):
                want = exit_projector(trine, particle, label)
                assert kron[particle](exits[e]).tobytes() == want.tobytes()
                vec = exit_vector(trine, label)
                assert exits[e].tobytes() == np.outer(vec, vec.conj()).tobytes()

    def test_members_are_read_only_views_of_the_stack(self, trine):
        for family, k in zip(trine.families, (2, 6)):
            assert family.stack.shape == (k, 6, 6) and not family.stack.flags.writeable
            for member in family:
                assert type(member) is np.ndarray and np.shares_memory(member, family.stack)
                assert not member.flags.writeable
                assert qcore.is_projector(member)


class TestFactor:
    """A d x d operator on one factor of a larger state, against the
    Kronecker product with an identity that it replaces."""

    @pytest.mark.parametrize("d, m, k", [(2, 3, 2), (3, 2, 3), (6, 6, 4), (2, 1, 2)])
    def test_each_factor_matches_the_kron_reference(self, rand, d, m, k):
        stack = np.array(random_family(rand, d, k))
        eye = np.eye(m, dtype=complex)
        state = random_state(rand, d * m)
        for factor, lift in ((0, lambda p: np.kron(p, eye)), (1, lambda p: np.kron(eye, p))):
            weights, rows = qcore.projections(stack, state, factor)
            for p, weight, row in zip(stack, weights, rows):
                want = lift(p) @ state
                assert abs(weight - np.vdot(state, want).real) < 1e-15
                assert np.abs(row - want).max() < 1e-15
                assert qcore.projection_probability(p, state, factor) == weight
                prob, post = qcore.project(p, state, factor)
                assert prob == weight and post.tobytes() == (row / np.sqrt(weight)).tobytes()

    def test_the_default_is_the_plain_product(self, rand):
        stack = np.array(random_family(rand, 6, 3))
        state = random_state(rand, 6)
        weights, rows = qcore.projections(stack, state)
        assert rows.tobytes() == (stack @ state).tobytes()
        assert weights.tobytes() == qcore.projections(stack, state, 0)[0].tobytes()
        assert np.abs(qcore.projections(stack, state, 1)[1] - rows).max() < 1e-15

    @pytest.mark.parametrize("factor", [-1, 2, 6])
    def test_other_factors_are_refused(self, factor):
        family = qcore.ProjectorFamily([np.outer(E0, E0), np.outer(E1, E1)])
        state = np.kron(PLUS, PLUS)
        for call in (
            lambda: qcore.projections(family.stack, state, factor),
            lambda: qcore.projection_probability(family[0], state, factor),
            lambda: qcore.project(family[0], state, factor),
            lambda: qcore.sample(state, family, TrialRng(0), factor),
        ):
            with pytest.raises(ValueError, match="factor must be 0"):
                call()

    def test_sample_draws_from_a_family_on_either_factor(self, rand):
        family = qcore.ProjectorFamily(random_family(rand, 2, 2))
        state = random_state(rand, 6)
        for factor in (0, 1):
            for i in range(20):
                index, post = qcore.sample(state, family, TrialRng.for_trial(4, i), factor)
                _, want = qcore.project(family[index], state, factor)
                assert post.tobytes() == want.tobytes()
        with pytest.raises(qcore.InvalidPartition):
            qcore.sample(random_state(rand, 6), qcore.ProjectorFamily(random_family(rand, 4, 2)),
                         TrialRng(0))


def tilted_pair(overlap: float) -> list[np.ndarray]:
    """Two rank-one projectors on a 2-dim space whose states overlap by
    about ``overlap``.  On axes at pi/8 the product's largest entry is
    cos(pi/8)**2 of the overlap, and the sum's largest residual only
    cos(pi/4) of it, so only the orthogonality check can tell."""
    t = math.pi / 8
    u1 = np.array([math.cos(t), math.sin(t)], dtype=complex)
    u2 = np.array([-math.sin(t), math.cos(t)], dtype=complex)
    tilted = (u2 + overlap * u1) / np.linalg.norm(u2 + overlap * u1)
    return [np.outer(u1, u1.conj()), np.outer(tilted, tilted.conj())]


def with_nan(op: np.ndarray) -> np.ndarray:
    out = op.astype(complex)
    out[0, 0] = np.nan
    return out


# one defect each, with the message both checks give for it
BAD_FAMILIES = {
    "scaled": ([1.01 * np.outer(E0, E0), 1.01 * np.outer(E1, E1)], "partition element is not a projector"),
    "non-hermitian": (
        [np.array([[1, 1], [0, 0]]), np.array([[0, -1], [0, 1]])],  # idempotent, summing to I
        "partition element is not a projector",
    ),
    "non-idempotent": ([np.diag([0.5, 0.0]), np.diag([0.5, 1.0])], "partition element is not a projector"),
    "incomplete": ([np.outer(E0, E0)], "partition does not sum to the identity"),
    "non-orthogonal": (tilted_pair(1.3e-10), "partition elements are not orthogonal"),
    "wrong-shape": ([np.outer(E0, E0), np.eye(3)], "partition element has wrong shape"),
    "nan-entry": ([with_nan(np.outer(E0, E0)), np.outer(E1, E1)], "partition element is not a projector"),
    "empty": ([], "empty partition"),
}


def random_family(rand, dim: int, members: int) -> list[np.ndarray]:
    """Projectors onto ``members`` consecutive runs of the columns of a
    random unitary: a complete orthogonal family of mixed ranks."""
    basis, _ = np.linalg.qr(rand.normal(size=(dim, dim)) + 1j * rand.normal(size=(dim, dim)))
    cuts = np.linspace(0, dim, members + 1).astype(int)
    return [basis[:, a:b] @ basis[:, a:b].conj().T for a, b in zip(cuts, cuts[1:])]


class TestStackedCheck:
    """``validate_partition``'s one pass over the stack against the
    member-by-member check it replaced (``oracles.validate_partition_reference``)."""

    @pytest.mark.parametrize("defect", BAD_FAMILIES)
    def test_each_defect_raises_the_member_checks_message(self, defect):
        partition, message = BAD_FAMILIES[defect]
        with pytest.raises(qcore.InvalidPartition) as want:
            validate_partition_reference(partition, 2)
        with pytest.raises(qcore.InvalidPartition) as got:
            qcore.validate_partition(partition, 2)
        assert str(got.value) == str(want.value) == message
        with pytest.raises(qcore.InvalidPartition, match=message):
            qcore.ProjectorFamily(partition)

    def test_the_tilted_pair_passes_below_the_tolerance(self):
        partition = tilted_pair(1e-11)
        got = qcore.validate_partition(partition, 2)
        assert got.tobytes() == np.array(validate_partition_reference(partition, 2)).tobytes()

    @pytest.mark.parametrize("degrees, perm", STACKED_TRINES)
    def test_good_families_give_the_member_checks_members(self, rand, degrees, perm):
        trine = Trine.from_degrees(degrees).permuted(perm)
        families = [[np.array(m) for m in f] for f in trine.families]
        families += [[np.outer(b, b.conj()) for b in trine.basis.T]]
        families += [random_family(rand, dim, k) for dim, k in ((2, 1), (3, 3), (6, 2), (6, 4))]
        for partition in families:
            dim = partition[0].shape[0]
            got = qcore.validate_partition(partition, dim)
            want = validate_partition_reference(partition, dim)
            assert got.shape == (len(partition), dim, dim)
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
            assert not any(np.shares_memory(got, m) for m in partition)  # a new stack

    def test_agrees_with_the_member_check_near_the_tolerance(self, rand):
        seen = set()
        for dim, k in ((2, 2), (3, 3), (6, 2), (6, 6)) * 60:
            partition = random_family(rand, dim, k)
            # one member moved by about ATOL in a random entry, kept Hermitian
            i, j = rand.integers(dim, size=2)
            step = np.zeros((dim, dim), dtype=complex)
            step[i, j] = qcore.ATOL * rand.uniform(0.3, 3) * np.exp(1j * rand.uniform(0, 2 * np.pi))
            partition[rand.integers(k)] += step + step.conj().T
            outcome = []
            for check in (qcore.validate_partition, validate_partition_reference):
                try:
                    outcome.append([m.tobytes() for m in check(partition, dim)])
                except qcore.InvalidPartition as exc:
                    outcome.append(str(exc))
            assert outcome[0] == outcome[1]
            seen.add(outcome[0] if isinstance(outcome[0], str) else "passed")
        # the perturbed families reach each side of the first two checks
        assert {"passed", BAD_FAMILIES["scaled"][1], BAD_FAMILIES["incomplete"][1]} <= seen


class TestWithinAtol:
    def test_agrees_with_allclose_near_the_boundary(self, rand):
        seen = set()
        for shape, complex_ in (((36, 36), True), ((6,), False), ((4, 4), True), ((2, 2), False)):
            for _ in range(200):
                a = rand.normal(size=shape) + (1j * rand.normal(size=shape) if complex_ else 0)
                # a few entries moved by ATOL, give or take 0.1%, in a random direction
                scale = qcore.ATOL * rand.uniform(0.999, 1.001, size=shape)
                phase = np.exp(1j * rand.uniform(0, 2 * np.pi, size=shape)) if complex_ else 1
                b = a + scale * phase * (rand.uniform(size=shape) < 0.1)
                want = np.allclose(a, b, atol=qcore.ATOL, rtol=0.0)
                assert qcore.within_atol(a, b) == want
                seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_fails_every_check(self, bad):
        proj = np.outer(E0, E0).astype(complex)
        proj[0, 0] = bad
        assert not qcore.within_atol(proj, proj)
        assert not qcore.is_projector(proj)
        with pytest.raises(qcore.InvalidPartition):
            qcore.validate_partition([proj, np.outer(E1, E1)], 2)
        with pytest.raises(qcore.InvalidPartition):
            qcore.ProjectorFamily([proj, np.outer(E1, E1)])
        with pytest.raises(ValueError):
            qcore.entanglement_entropy(np.diag([bad, 0.5]))
        with pytest.raises(ValueError):
            qcore.entanglement_entropy(np.full((2, 2), bad))


class TestStateChecks:
    @pytest.mark.parametrize("dim", [2, 6, 36])
    def test_norm_is_held_to_atol(self, rand, dim):
        vec = random_state(rand, dim)
        for scale in (1.0 + 5e-11, 1.0 - 5e-11):
            assert np.array_equal(qcore.require_normalized(vec * scale), vec * scale)
        for scale in (1.0 + 2e-10, 1.0 - 2e-10):
            with pytest.raises(ValueError, match="not normalized"):
                qcore.require_normalized(vec * scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_non_finite_amplitudes_are_refused(self, bad, imaginary):
        vec = np.array([1, 0], dtype=complex)
        vec[1] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
        for check in (qcore.as_state, qcore.require_normalized):
            with pytest.raises(ValueError, match="non-finite amplitudes"):
                check(vec)


class TestReducedDensity:
    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        rho = qcore.reduced_density(bell, (2, 2), keep=(0,))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_product_state_reduces_to_rank_one(self, rand):
        u = random_state(rand, 3)
        v = random_state(rand, 2)
        rho = qcore.reduced_density(np.kron(u, v), (3, 2), keep=(1,))
        evals = np.linalg.eigvalsh(rho)
        assert abs(evals[-1] - 1.0) < 1e-12 and np.all(evals[:-1] < 1e-12)

    def test_singlet_reduces_to_maximally_mixed(self):
        rho = qcore.reduced_density(singlet(), (2, 2), keep=(0,))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_trace_one_and_eigenvalue_bounds(self, rand):
        for _ in range(20):
            state = random_state(rand, 36)
            rho = qcore.reduced_density(state, JOINT_LAYOUT, keep=(0, 1))
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            evals = np.linalg.eigvalsh(rho)
            assert np.all(evals > -1e-10) and np.all(evals < 1 + 1e-10)

    def test_layout_mismatch(self, rand):
        with pytest.raises(ValueError):
            qcore.reduced_density(random_state(rand, 6), (2, 2), keep=(0,))


class TestEntropy:
    def test_pure_state_entropy_zero(self, rand):
        v = random_state(rand, 4)
        rho = np.outer(v, v.conj())
        assert abs(qcore.entanglement_entropy(rho)) < 1e-10

    def test_maximally_mixed_qubit_is_one_bit(self):
        assert abs(qcore.entanglement_entropy(np.eye(2) / 2) - 1.0) < 1e-14

    def test_conditional_state_reduction_against_jacobi_oracle(self, trine):
        state, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, trine)
        rho = qcore.reduced_density(state.vec, JOINT_LAYOUT, keep=(0, 1))
        assert rho.shape == (6, 6)
        assert abs(qcore.entanglement_entropy(rho) - entropy_bits(rho)) < 1e-9
        # frozen: spectrum (1/2, 1/2, 0, 0, 0, 0) -> exactly one bit
        assert abs(qcore.entanglement_entropy(rho) - 1.0) < 1e-10

    def test_jacobi_oracle_agrees_with_lapack(self, rand):
        m = rand.normal(size=(6, 6)) + 1j * rand.normal(size=(6, 6))
        h = (m + m.conj().T) / 2
        np.testing.assert_allclose(jacobi_eigvalsh(h), np.linalg.eigvalsh(h), atol=1e-9)


class TestFidelity:
    def test_self_fidelity(self, rand):
        v = random_state(rand, 6)
        assert abs(qcore.fidelity(v, v) - 1.0) < 1e-14

    def test_orthogonal_states(self):
        assert qcore.fidelity(E0, E1) == 0.0

    def test_global_phase_invariance(self, rand):
        v = random_state(rand, 4)
        assert abs(qcore.fidelity(v, np.exp(0.7j) * v) - 1.0) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.fidelity(E0, np.array([1, 0, 0], dtype=complex))
