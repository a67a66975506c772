import math

import numpy as np
import pytest
import scipy.stats

from conftest import random_state
from oracles import entropy_bits, jacobi_eigvalsh
from toolate import qcore
from toolate.audit import oracle_conditional_state
from toolate.protocol import (
    JOINT_LAYOUT,
    STAGE_ORDERS,
    composed_distribution,
    prepare_joint,
    stage_conditionals,
    trine_projectors,
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

    def test_non_projector_rejected(self):
        with pytest.raises(ValueError):
            qcore.project(np.array([[0, 1], [0, 0]]), PLUS)


class TestSample:
    def partition(self):
        return [np.outer(E0, E0), np.outer(E1, E1)]

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
        partition = [np.outer(up, up.conj()), np.outer(down, down.conj())]
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

    def test_non_orthogonal_partition_rejected(self):
        fuzzy = np.outer(PLUS, PLUS.conj())
        with pytest.raises(qcore.InvalidPartition):
            qcore.sample(E0, [fuzzy, np.eye(2) - fuzzy + 1e-3 * np.outer(E0, E0)], TrialRng(0))

    def test_complete_partition_weights_sum_to_one(self, rand, trine):
        from toolate.protocol import PARTICLE_A, exit_labels, exit_projector

        partition = [exit_projector(trine, PARTICLE_A, lab) for lab in exit_labels(trine)]
        for _ in range(20):
            state = random_state(rand, 36)
            total = sum(qcore.projection_probability(p, state) for p in partition)
            assert abs(total - 1.0) < 1e-10


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
            [np.outer(E0, E0), np.eye(3)],  # wrong shape
            [np.ones((2, 3))],  # not square
            [],
        ],
        ids=["not-projector", "incomplete", "non-orthogonal", "mixed-shape", "non-square", "empty"],
    )
    def test_bad_family_rejected_at_construction(self, partition):
        with pytest.raises(qcore.InvalidPartition):
            qcore.ProjectorFamily(partition)

    def test_wrong_dimension_rejected_by_sample(self):
        with pytest.raises(qcore.InvalidPartition):
            qcore.sample(np.array([1, 0, 0], dtype=complex), self.family(), TrialRng(0))

    def test_sample_from_family_matches_raw_partition(self, rand):
        state = random_state(rand, 2)
        raw = [np.outer(E0, E0), np.outer(E1, E1)]
        for i in range(20):
            got = qcore.sample(state, self.family(), TrialRng.for_trial(3, i))
            want = qcore.sample(state, raw, TrialRng.for_trial(3, i))
            assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_views_copies_and_results_are_not_trusted(self, monkeypatch):
        member = self.family()[0]
        full = []
        real = qcore.within_atol
        monkeypatch.setattr(qcore, "within_atol", lambda a, b: full.append(1) or real(a, b))
        assert qcore.is_projector(member) and not full
        for derived in (member.copy(), member.T, member @ member, np.asarray(member)):
            full.clear()
            assert qcore.is_projector(derived) and full
        assert type(member @ E0) is np.ndarray
        assert not qcore.is_projector(member[:1, :])

    def test_raw_arrays_are_checked_on_every_call(self, monkeypatch):
        full = []
        real = qcore.within_atol
        monkeypatch.setattr(qcore, "within_atol", lambda a, b: full.append(1) or real(a, b))
        proj = np.outer(E0, E0)
        for _ in range(3):
            qcore.project(proj, PLUS)
        assert len(full) == 3 * 2  # Hermitian and idempotent, each call
        full.clear()
        for i in range(3):
            qcore.sample(PLUS, [np.outer(E0, E0), np.outer(E1, E1)], TrialRng(i))
        assert len(full) == 3 * (2 * 2 + 1)  # both members and their sum, each call
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        for _ in range(2):
            with pytest.raises(ValueError):
                qcore.project(bad, PLUS)

    def test_trine_families_check_each_member_once(self, trine, monkeypatch):
        checked = []
        real = qcore.is_projector
        monkeypatch.setattr(qcore, "is_projector", lambda op: checked.append(op) or real(op))
        projectors = trine_projectors(trine)
        assert len(checked) == 2 * (2 + 6)  # value and exit families of both particles
        members = [m for fams in (projectors.value, projectors.exits) for f in fams for m in f]
        assert len(members) == len(checked)
        assert all(type(op) is np.ndarray for op in checked)

        full = []
        real_close = qcore.within_atol
        monkeypatch.setattr(qcore, "within_atol", lambda a, b: full.append(1) or real_close(a, b))
        stage_conditionals(projectors)
        composed_distribution(prepare_joint(trine), STAGE_ORDERS[0], projectors)
        assert len(checked) > len(members)  # project still asks about every projector
        assert not full  # and nothing is checked again


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
        state, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, trine_projectors(trine))
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
