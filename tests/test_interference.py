import json
import math

import numpy as np
import pytest

from oracles import entropy_bits
from toolate import qcore
from toolate.audit import literal_value_state, oracle_conditional_state
from toolate.interference import (
    definite_path_contrast,
    erase_paths,
    interference_discriminator,
    recombine,
    swap_report,
    tv_distance,
)
from toolate.protocol import (
    JointState,
    prepare_joint,
    three_port_splitter,
    trine_projectors,
    uniform_paths,
)
from toolate.spinlab import SpinValue, singlet

UP_Z = np.array([1, 0], dtype=complex)


class TestRecombine:
    def test_definite_port_spreads_uniformly(self):
        state = np.kron(np.array([1, 0, 0], dtype=complex), UP_Z)
        np.testing.assert_allclose(recombine(state), np.full(3, 1 / 3), atol=1e-12)

    def test_uniform_coherent_product_refocuses(self):
        state = np.kron(uniform_paths(), UP_Z)
        np.testing.assert_allclose(recombine(state), [1, 0, 0], atol=1e-12)
        # the splitter's outputs for input ports p2 and p3 carry complex
        # phases, which tell the inverse splitter from the forward one
        for port in (1, 2):
            state = np.kron(three_port_splitter()[:, port], UP_Z)
            np.testing.assert_allclose(recombine(state), np.eye(3)[port], atol=1e-12)

    def test_value_fixed_state_port_weights(self, trine):
        state, _ = literal_value_state(SpinValue.UP, trine)
        # frozen: (4/9, 5/18, 5/18)
        np.testing.assert_allclose(recombine(state), [4 / 9, 5 / 18, 5 / 18], atol=1e-12)

    def test_distribution_properties(self, rand):
        from conftest import random_state

        for _ in range(50):
            state = random_state(rand, 6)
            ports = recombine(state)
            assert abs(ports.sum() - 1.0) < 1e-10
            np.testing.assert_allclose(
                recombine(np.exp(1.1j) * state), ports, atol=1e-12
            )

    def test_rejects_wrong_dimension(self, rand):
        with pytest.raises(ValueError):
            recombine(np.array([1, 0, 0], dtype=complex))


class TestDiscriminator:
    def test_identical_distributions_fail(self):
        tv, passed = interference_discriminator(np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert tv == 0.0 and not passed

    def test_quantum_vs_source_model(self, trine):
        quantum = recombine(literal_value_state(SpinValue.UP, trine)[0])
        tv, passed = interference_discriminator(quantum, np.full(3, 1 / 3))
        assert abs(tv - 1 / 9) < 1e-12
        assert passed

    def test_threshold_is_respected(self):
        a = np.array([0.36, 0.32, 0.32])
        tv, passed = interference_discriminator(a, np.full(3, 1 / 3), threshold=0.05)
        assert not passed and abs(tv - tv_distance(a, np.full(3, 1 / 3))) < 1e-15

    def test_rejects_non_distributions(self):
        with pytest.raises(ValueError):
            interference_discriminator(np.array([0.5, 0.6]), np.array([0.5, 0.5]))


class TestErasure:
    def test_prepared_pair_always_passes(self, trine):
        res = erase_paths(prepare_joint(trine))
        assert abs(res.success_prob - 1.0) < 1e-10
        assert abs(res.fidelity_to_singlet - 1.0) < 1e-12
        assert abs(res.entanglement_bits - 1.0) < 1e-10

    @pytest.mark.parametrize("va,vb", [(v, w) for v in SpinValue for w in SpinValue])
    def test_conditional_states_restore_the_singlet(self, trine, va, vb):
        state, _ = oracle_conditional_state(va, vb, trine_projectors(trine))
        res = erase_paths(state)
        # frozen: acceptance weight 1/4, singlet restored for all four pairs
        assert abs(res.success_prob - 0.25) < 1e-10
        assert abs(res.fidelity_to_singlet - 1.0) < 1e-10
        assert abs(res.entanglement_bits - 1.0) < 1e-10

    def test_entropy_agrees_with_jacobi_oracle(self, trine):
        state, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, trine_projectors(trine))
        res = erase_paths(state)
        rho = qcore.reduced_density(res.post_spin_state, (2, 2), keep=(0,))
        assert abs(res.entanglement_bits - entropy_bits(rho)) < 1e-9

    def test_antisymmetric_path_component_never_fires(self, trine):
        path = np.array([1, -1, 0], dtype=complex) / math.sqrt(2)
        vec = np.kron(np.kron(path, UP_Z), np.kron(path, np.array([0, 1], complex)))
        with pytest.raises(qcore.ZeroProbability):
            erase_paths(JointState(vec, trine))

    def test_weight_conservation(self, trine, rand):
        from conftest import random_state

        u = uniform_paths()
        proj_u = np.outer(u, u.conj())
        proj36 = np.kron(np.kron(proj_u, np.eye(2)), np.kron(proj_u, np.eye(2)))
        for _ in range(10):
            state = JointState(random_state(rand, 36), trine)
            accepted = qcore.projection_probability(proj36, state.vec)
            rejected = qcore.projection_probability(np.eye(36) - proj36, state.vec)
            assert abs(accepted + rejected - 1.0) < 1e-10
            if accepted > 1e-12:
                assert abs(erase_paths(state).success_prob - accepted) < 1e-10


class TestSwapReport:
    def test_rows_and_contrast(self, trine):
        report = swap_report(trine)
        conditions = [row["condition"] for row in report["rows"]]
        assert conditions == [
            "prepared_pair",
            "conditional_up_up",
            "conditional_up_down",
            "conditional_down_up",
            "conditional_down_down",
        ]
        for row in report["rows"]:
            assert {"condition", "success_prob", "entanglement_bits", "fidelity_to_singlet"} <= set(row)
        contrast = report["contrast"]
        assert contrast["model"] == "definite_path_mixture"
        assert abs(contrast["values"]["success_prob"] - 1 / 9) < 1e-12
        assert abs(contrast["values"]["entanglement_bits"]) < 1e-10

    def test_deterministic(self, trine):
        a = json.dumps(swap_report(trine), sort_keys=True)
        b = json.dumps(swap_report(trine), sort_keys=True)
        assert a == b

    def test_contrast_matches_direct_computation(self, trine):
        contrast = definite_path_contrast(trine)
        assert contrast["values"]["separable"] is True
