import gc
import math
import weakref

import numpy as np
import pytest

from oracles import (
    independent_exit_basis,
    independent_exit_table,
    independent_joint_exit_basis,
    independent_splitter,
)
from toolate import protocol, qcore
from toolate.audit import oracle_conditional_state
from toolate.experiments import ExperimentConfig, run_verify
from toolate.protocol import (
    JOINT_LAYOUT,
    PARTICLE_A,
    PARTICLE_B,
    STAGE_ORDERS,
    ExitLabel,
    JointState,
    OutcomeRecord,
    Trine,
    composed_distribution,
    degree_text,
    degrees_of,
    exit_labels,
    exit_vector,
    exit_amplitudes,
    exit_projector,
    joint_distribution,
    measure_orientation,
    measure_value,
    prepare_joint,
    run_trial,
    stage_conditionals,
    three_port_splitter,
    uniform_paths,
    value_projectors,
)
from toolate.rng import TrialRng
from toolate.spinlab import SpinValue, singlet

ALL_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


class TestTrine:
    def test_default_is_equally_spaced(self, trine):
        np.testing.assert_allclose(trine.angles_by_port, [0, 2 * math.pi / 3, 4 * math.pi / 3])

    def test_from_degrees_and_port_lookup(self):
        t = Trine.from_degrees((120, 0, 240))
        assert t.port_of(0.0) == 1
        assert t.orientations == tuple(sorted(t.angles_by_port))

    def test_permuted_rebinds_ports(self, trine):
        t = trine.permuted((2, 0, 1))
        assert tuple(degrees_of(a) for a in t.angles_by_port) == (240.0, 0.0, 120.0)
        assert t.orientations == trine.orientations

    def test_rejects_duplicate_angles(self):
        with pytest.raises(ValueError):
            Trine((0.0, 0.0, 1.0))

    def test_rejects_bad_permutation(self, trine):
        with pytest.raises(ValueError):
            trine.permuted((0, 0, 1))


class TestSplitter:
    def test_unitary(self):
        u = three_port_splitter()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)

    def test_balanced_entries(self):
        np.testing.assert_allclose(
            np.abs(three_port_splitter()), np.full((3, 3), 1 / math.sqrt(3)), atol=1e-12
        )

    def test_recombination_identity(self):
        u = three_port_splitter()
        port = np.zeros(3, dtype=complex)
        port[0] = 1.0
        np.testing.assert_allclose(u.conj().T @ (u @ port), port, atol=1e-12)

    def test_kept_read_only_and_built_once(self):
        u = three_port_splitter()
        assert u.tobytes() == independent_splitter().tobytes()
        assert three_port_splitter() is u
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
        paths = uniform_paths()
        assert paths.tobytes() == u[:, 0].tobytes() and np.shares_memory(paths, u)
        with pytest.raises(ValueError):
            paths[0] = 0.0
        # the body runs on the first call in the process, and never again
        assert three_port_splitter.cache_info().misses == 1


class TestExitVectors:
    def test_axis_aligned_exit(self, trine):
        vec = exit_vector(trine, ExitLabel(0.0, SpinValue.UP))
        expected = np.zeros(6)
        expected[0] = 1.0
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_trine_exit_spin_components(self, trine):
        vec = exit_vector(trine, ExitLabel(2 * math.pi / 3, SpinValue.UP))
        np.testing.assert_allclose(vec[2:4], [0.5, math.sqrt(3) / 2], atol=1e-12)

    def test_six_exits_orthonormal(self, trine):
        vecs = [exit_vector(trine, lab) for lab in exit_labels(trine)]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)

    def test_unknown_orientation_rejected(self, trine):
        with pytest.raises(ValueError):
            exit_vector(trine, ExitLabel(0.123, SpinValue.UP))

    @pytest.mark.parametrize("degrees", [(0, 120, 240), (0, 90, 200), (33.3, 100, 271.5)])
    @pytest.mark.parametrize("perm", ALL_PERMS)
    def test_kept_bases_are_read_only_and_match_the_entrywise_builders(self, degrees, perm):
        trine = Trine.from_degrees(degrees).permuted(perm)
        basis = trine.basis
        assert basis is trine.basis
        assert basis.tobytes() == independent_exit_basis(trine.angles_by_port).tobytes()
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        assert trine == Trine.from_degrees(degrees).permuted(perm)  # equality sees angles only

    def test_each_basis_is_built_once_per_trine(self, monkeypatch):
        built = []
        real = protocol.exit_vector
        monkeypatch.setattr(protocol, "exit_vector", lambda t, lab: built.append(t) or real(t, lab))
        trine = Trine.from_degrees((0, 90, 200))
        for _ in range(3):
            trine.basis
            value_projectors(trine, PARTICLE_B)
            stage_conditionals(trine)
            joint_distribution(JointState(trine.pair, trine))
        assert len(built) == 6  # one exit state per column, once

    def test_verify_builds_each_trines_basis_once(self, monkeypatch):
        # the audit's own exit-state route (oracle_value_state) imports
        # exit_vector by name, so only the bases' calls are counted here
        built = []
        real = protocol.exit_vector
        monkeypatch.setattr(
            protocol, "exit_vector", lambda t, lab: built.append(t.angles_by_port) or real(t, lab)
        )
        run_verify(ExperimentConfig("verify", angles=(0.0, 90.0, 200.0)))
        counts = {angles: built.count(angles) for angles in built}
        # the configured trine and its five other port bindings
        assert len(counts) == 6 and set(counts.values()) == {6}

    @pytest.mark.parametrize("degrees", [(0, 120, 240), (0, 90, 200)])
    @pytest.mark.parametrize("perm", ALL_PERMS)
    def test_bases_and_value_projectors_match_loop_built_states(self, degrees, perm):
        trine = Trine.from_degrees(degrees).permuted(perm)
        labels = exit_labels(trine)
        vecs = [exit_vector(trine, lab) for lab in labels]
        assert np.array_equal(trine.basis, np.column_stack(vecs))
        for v in SpinValue:
            block = sum(np.outer(x, x.conj()) for x, lab in zip(vecs, labels) if lab.value == v)
            assert np.array_equal(value_projectors(trine, PARTICLE_A)[v], np.kron(block, np.eye(6)))
            assert np.array_equal(value_projectors(trine, PARTICLE_B)[v], np.kron(np.eye(6), block))


class TestPrepareJoint:
    def test_normalized(self, trine):
        assert abs(np.linalg.norm(prepare_joint(trine).vec) - 1.0) < 1e-12

    def test_path_marginals_uniform(self, trine):
        state = prepare_joint(trine)
        rho_a = qcore.reduced_density(state.vec, JOINT_LAYOUT, keep=(0,))
        rho_b = qcore.reduced_density(state.vec, JOINT_LAYOUT, keep=(2,))
        for rho in (rho_a, rho_b):
            np.testing.assert_allclose(np.diag(rho).real, np.full(3, 1 / 3), atol=1e-12)

    def test_spin_pair_is_exactly_the_singlet(self, trine):
        state = prepare_joint(trine)
        rho_spin = qcore.reduced_density(state.vec, JOINT_LAYOUT, keep=(1, 3))
        psi = singlet()
        np.testing.assert_allclose(rho_spin, np.outer(psi, psi.conj()), atol=1e-12)

    @pytest.mark.parametrize("degrees, perm", [((0, 120, 240), (0, 1, 2)), ((0, 90, 200), (1, 2, 0))])
    def test_trine_keeps_its_prepared_pair_read_only(self, degrees, perm):
        trine = Trine.from_degrees(degrees).permuted(perm)
        pair = trine.pair
        assert pair.tobytes() == prepare_joint(trine).vec.tobytes()
        assert trine.pair is pair  # built once, then kept
        with pytest.raises(ValueError):
            pair[0] = 0.0
        state = JointState(pair, trine)
        assert np.shares_memory(state.vec, pair) and not state.vec.flags.writeable
        assert trine == Trine.from_degrees(degrees).permuted(perm)  # equality sees angles only

    def test_kept_pair_makes_no_reference_cycle(self):
        """A trine that ran a trial and a joint distribution, and so keeps
        its pair, families and exit basis, is freed by its reference
        count alone."""
        trine = Trine.from_degrees((0, 90, 200))
        run_trial(trine, TrialRng.for_trial(1, 0))
        joint_distribution(JointState(trine.pair, trine))
        assert {"pair", "families", "basis"} <= set(vars(trine))
        freed = weakref.ref(trine)
        gc.disable()
        try:
            del trine
            assert freed() is None
        finally:
            gc.enable()


class TestValueProjectors:
    def test_complete_and_orthogonal(self, trine):
        for particle in (PARTICLE_A, PARTICLE_B):
            p_up, p_down = value_projectors(trine, particle)
            np.testing.assert_allclose(p_up + p_down, np.eye(36), atol=1e-12)
            assert np.max(np.abs(p_up @ p_down)) < 1e-12
            assert qcore.is_projector(p_up) and qcore.is_projector(p_down)

    def test_born_weight_is_half(self, trine):
        state = prepare_joint(trine)
        p_up, _ = value_projectors(trine, PARTICLE_A)
        assert abs(qcore.projection_probability(p_up, state.vec) - 0.5) < 1e-12

    @pytest.mark.parametrize("particle", [-1, 2, 6])
    def test_only_particles_a_and_b_are_measured(self, trine, particle):
        state = JointState(trine.pair, trine)
        label = exit_labels(trine)[0]
        for call in (
            lambda: value_projectors(trine, particle),
            lambda: exit_projector(trine, particle, label),
            lambda: measure_value(state, particle, TrialRng(0)),
            lambda: measure_orientation(state, particle, TrialRng(0)),
        ):
            with pytest.raises(ValueError, match="particle must be 0 \\(A\\) or 1 \\(B\\)"):
                call()


class TestMeasurement:
    def test_value_pair_weights_quarter(self, trine):
        tree = stage_conditionals(trine)
        joint = tree.p_value_a[:, None] * tree.p_value_b
        np.testing.assert_allclose(joint, np.full((2, 2), 0.25), atol=1e-12)

    def test_up_up_collapse_kills_same_orientation_exits(self, trine):
        state = prepare_joint(trine)
        rng = TrialRng(3)
        p_up_a = value_projectors(trine, PARTICLE_A)[0]
        p_up_b = value_projectors(trine, PARTICLE_B)[0]
        _, state_vec = qcore.project(p_up_a, state.vec)
        _, state_vec = qcore.project(p_up_b, state_vec)
        collapsed = JointState(state_vec, trine)
        amps = np.abs(joint_distribution(collapsed))
        for rank in range(3):
            assert amps[2 * rank, 2 * rank] < 1e-28

    def test_measure_value_reproducible(self, trine):
        state = prepare_joint(trine)
        outcomes = [
            measure_value(state, PARTICLE_A, TrialRng.for_trial(11, i))[0] for i in range(50)
        ]
        again = [
            measure_value(state, PARTICLE_A, TrialRng.for_trial(11, i))[0] for i in range(50)
        ]
        assert outcomes == again

    def test_orientation_conditionals_given_up_up(self, trine):
        tree = stage_conditionals(trine)
        cond = np.zeros((3, 3))
        for ra in range(3):
            for rb in range(3):
                cond[ra, rb] = tree.p_orient_a[0, 0, ra] * tree.p_orient_b[0, 0, ra, rb]
        np.testing.assert_allclose(np.diag(cond), np.zeros(3), atol=1e-14)
        off = cond[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, np.full(6, 1 / 6), atol=1e-12)

    @pytest.mark.parametrize("degrees", [(0, 120, 240), (0, 90, 200), (33.3, 100, 271.5)])
    @pytest.mark.parametrize("perm", [(0, 1, 2), (2, 0, 1), (1, 0, 2)])
    def test_measure_orientation_labels_every_exit_as_exit_labels(self, degrees, perm, monkeypatch):
        trine = Trine.from_degrees(degrees).permuted(perm)
        state = JointState(trine.pair, trine)
        labels = exit_labels(trine)
        for particle in (PARTICLE_A, PARTICLE_B):
            for index in range(6):
                monkeypatch.setattr(qcore, "sample", lambda vec, family, rng, factor: (index, vec))
                label, _ = measure_orientation(state, particle, TrialRng(0))
                assert label == labels[index] and type(label.value) is SpinValue

    def test_measure_orientation_respects_prior_value(self, trine):
        state = prepare_joint(trine)
        for trial in range(30):
            rng = TrialRng.for_trial(17, trial)
            value_a, state_a = measure_value(state, PARTICLE_A, rng)
            exit_a, _ = measure_orientation(state_a, PARTICLE_A, rng)
            assert exit_a.value == value_a


class TestJointDistribution:
    def test_sums_to_one(self, trine):
        assert abs(joint_distribution(prepare_joint(trine)).sum() - 1.0) < 1e-12

    def test_same_orientation_same_value_entries_vanish(self, trine):
        table = joint_distribution(prepare_joint(trine))
        for rank in range(3):
            for v in range(2):
                assert table[2 * rank + v, 2 * rank + v] < 1e-28

    @pytest.mark.parametrize("degrees", [(0, 120, 240), (0, 90, 200), (33.3, 100, 271.5)])
    @pytest.mark.parametrize("perm", ALL_PERMS)
    def test_amplitudes_match_the_loop_built_joint_exit_basis(self, degrees, perm):
        # the 36x36 oracle basis, column 6*eA + eB, against the per-factor
        # sum, on the prepared pair and on every value-conditional state
        trine = Trine.from_degrees(degrees).permuted(perm)
        joint = independent_joint_exit_basis(trine.angles_by_port)
        states = [JointState(trine.pair, trine)]
        for va in SpinValue:
            for vb in SpinValue:
                states.append(oracle_conditional_state(va, vb, trine)[0])
        for state in states:
            want = (joint.conj().T @ state.vec).reshape(6, 6)
            assert np.abs(exit_amplitudes(state) - want).max() <= 1e-15

    def test_matches_independent_loop_construction(self, trine):
        mine = joint_distribution(prepare_joint(trine))
        oracle = independent_exit_table(trine.angles_by_port)
        np.testing.assert_allclose(mine, oracle, atol=1e-14)

    def test_ordering_invariance_all_interleavings(self, trine):
        state = prepare_joint(trine)
        one_shot = joint_distribution(state)
        for order in STAGE_ORDERS:
            composed = composed_distribution(state, order)
            assert np.max(np.abs(composed - one_shot)) < 1e-12

    def test_rejects_misordered_stages(self, trine):
        with pytest.raises(ValueError):
            composed_distribution(prepare_joint(trine), ("oA", "vA", "vB", "oB"))


class TestPortBinding:
    @pytest.mark.parametrize("perm", ALL_PERMS)
    def test_statistics_invariant_under_rebinding(self, trine, perm):
        base = joint_distribution(prepare_joint(trine))
        rebound = joint_distribution(prepare_joint(trine.permuted(perm)))
        np.testing.assert_allclose(rebound, base, atol=1e-12)

    @pytest.mark.parametrize("perm", ALL_PERMS)
    def test_sampled_outcomes_identical_under_rebinding(self, trine, perm):
        records = [run_trial(trine, TrialRng.for_trial(23, i), i) for i in range(40)]
        rebound = [run_trial(trine.permuted(perm), TrialRng.for_trial(23, i), i) for i in range(40)]
        for a, b in zip(records, rebound):
            assert (a.value_a, a.value_b) == (b.value_a, b.value_b)
            assert (a.exit_a.theta, a.exit_b.theta) == (b.exit_a.theta, b.exit_b.theta)


class TestRecords:
    def test_run_trial_consistency(self, trine):
        record = run_trial(trine, TrialRng.for_trial(9, 4), trial=4)
        assert record.exit_a.value == record.value_a
        assert record.exit_b.value == record.value_b

    def test_record_rejects_value_mismatch(self):
        with pytest.raises(ValueError):
            OutcomeRecord(
                trial=0,
                seed=0,
                value_a=SpinValue.UP,
                value_b=SpinValue.UP,
                exit_a=ExitLabel(0.0, SpinValue.DOWN),
                exit_b=ExitLabel(0.0, SpinValue.UP),
            )

    def test_degrees_are_rounded_clean(self):
        assert degrees_of(2 * math.pi / 3) == 120.0
        assert degrees_of(4 * math.pi / 3) == 240.0

    @pytest.mark.parametrize(
        "degrees, text",
        [(120, "120"), (-0.0, "0"), (33.3, "33.3"), (100.0001, "100.0001"), (1e-6, "1e-06"),
         (1e6, "1000000"), (90.0000005, "90.0000005")],
    )
    def test_degree_text_keeps_every_digit_that_tells_angles_apart(self, degrees, text):
        assert degree_text(math.radians(degrees)) == text


class TestStageConditionals:
    def test_snapped_zeros_are_exact(self, trine):
        tree = stage_conditionals(trine)
        # equal values forbid the matching orientation on the partner side
        for v in range(2):
            for rank in range(3):
                assert tree.p_orient_b[v, v, rank, rank] == 0.0

    @pytest.mark.parametrize(
        "degrees", [(0, 0.000001, 0.000002), (90, 90.0000005, 90.000001), (0, 0.0001, 0.0002)]
    )
    def test_impossible_value_pair_keeps_zero_rows(self, degrees):
        # the equal-value pairs weigh about 1e-16 in the first two, which
        # qcore.project refuses to collapse onto; in the third, B's value
        # weighs 1.02e-12 after A's collapse, but the pair weighs 5.1e-13
        tree = stage_conditionals(Trine.from_degrees(degrees))
        for v in range(2):
            assert tree.p_value_b[v, v] == 0.0 and tree.p_value_b[v, 1 - v] == 1.0
            assert not tree.p_orient_a[v, v].any() and not tree.p_orient_b[v, v].any()
            assert abs(tree.p_orient_a[v, 1 - v].sum() - 1.0) < 1e-14

    def test_rows_renormalized(self, trine):
        tree = stage_conditionals(trine)
        assert abs(tree.p_value_a.sum() - 1.0) < 1e-15
        for va in range(2):
            for vb in range(2):
                assert abs(tree.p_orient_a[va, vb].sum() - 1.0) < 1e-14
                for ra in range(3):
                    total = tree.p_orient_b[va, vb, ra].sum()
                    if tree.p_orient_a[va, vb, ra] > 0:
                        assert abs(total - 1.0) < 1e-14


class TestStageWalkCalls:
    """The exact walks take one stacked product per stage, not one call
    per branch state."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"projections": 0, "project": 0}
        for name in counts:
            original = getattr(qcore, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(qcore, name, counted)
        return counts

    @pytest.mark.parametrize("degrees", [(0, 120, 240), (0, 90, 200), (0, 0.0001, 0.0002)])
    def test_composed_distribution_takes_four_products_per_order(self, calls, degrees):
        trine = Trine.from_degrees(degrees)
        state = JointState(trine.pair, trine)
        for order in STAGE_ORDERS:
            calls["projections"] = 0
            composed_distribution(state, order)
            assert calls == {"projections": 4, "project": 0}, order

    @pytest.mark.parametrize("degrees", [(0, 120, 240), (0, 90, 200), (0, 0.0001, 0.0002)])
    def test_stage_conditionals_takes_four_products_and_six_collapses(self, calls, degrees):
        stage_conditionals(Trine.from_degrees(degrees))
        assert calls == {"projections": 4, "project": 6}
