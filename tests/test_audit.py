import json
import math

import numpy as np
import pytest

from oracles import independent_joint_exit_basis
from toolate import qcore
from toolate.audit import (
    _same_orientation_term,
    _literal_joint,
    _literal_pair,
    literal_value_state,
    oracle_conditional_state,
    oracle_value_state,
    verify_states,
)
from toolate.protocol import (
    ExitLabel,
    Trine,
    exit_amplitudes,
    exit_vector,
    prepare_joint,
    uniform_paths,
)
from toolate.spinlab import SpinValue


def literal_pair(trine):
    """The up-up pair form, built from the two literal single-value states."""
    return _literal_pair([literal_value_state(v, trine) for v in SpinValue], trine)


def literal_joint(trine):
    """The full pair form, built from the two literal single-value states."""
    return _literal_joint([literal_value_state(v, trine) for v in SpinValue], trine)


class TestLiteralForms:
    @pytest.mark.parametrize("degrees, perm", [((0, 120, 240), (0, 1, 2)), ((0, 90, 200), (1, 2, 0)),
                                               ((33.3, 100, 271.5), (2, 0, 1))])
    def test_same_orientation_terms_are_bitwise_the_kron_columns(self, degrees, perm):
        # joint column 7*e is kron(exit e, exit e); value v has exits v, v+2, v+4
        trine = Trine.from_degrees(degrees).permuted(perm)
        joint = independent_joint_exit_basis(trine.angles_by_port)
        for value in SpinValue:
            want = joint[:, 7 * value :: 14].sum(axis=1)
            assert _same_orientation_term(value, trine).tobytes() == want.tobytes()

    def test_single_value_norm_and_amplitudes(self, trine):
        state, literal_norm = literal_value_state(SpinValue.UP, trine)
        assert abs(literal_norm - 1.0) < 1e-12
        for theta in trine.orientations:
            amp = np.vdot(exit_vector(trine, ExitLabel(theta, SpinValue.UP)), state)
            assert abs(amp - 1 / math.sqrt(3)) < 1e-12

    def test_pair_norm_is_one_third(self, trine):
        _, literal_norm = literal_pair(trine)
        assert abs(literal_norm - 1 / 3) < 1e-12

    def test_pair_normalized_structure(self, trine):
        state, _ = literal_pair(trine)
        for ia, ta in enumerate(trine.orientations):
            for ib, tb in enumerate(trine.orientations):
                vec = np.kron(
                    exit_vector(trine, ExitLabel(ta, SpinValue.UP)),
                    exit_vector(trine, ExitLabel(tb, SpinValue.UP)),
                )
                amp = np.vdot(vec, state)
                if ia == ib:
                    assert abs(amp) < 1e-14
                else:
                    assert abs(abs(amp) - 1 / math.sqrt(6)) < 1e-12

    def test_joint_norm_is_one_third(self, trine):
        _, literal_norm = literal_joint(trine)
        assert abs(literal_norm - 1 / 3) < 1e-12

    def test_joint_normalized_structure(self, trine):
        state, _ = literal_joint(trine)
        mags = []
        zeros = []
        for ia, ta in enumerate(trine.orientations):
            for va in SpinValue:
                for ib, tb in enumerate(trine.orientations):
                    for vb in SpinValue:
                        vec = np.kron(
                            exit_vector(trine, ExitLabel(ta, va)),
                            exit_vector(trine, ExitLabel(tb, vb)),
                        )
                        amp = abs(np.vdot(vec, state))
                        if ia == ib and va == vb:
                            zeros.append(amp)
                        else:
                            mags.append(amp)
        assert len(zeros) == 6 and max(zeros) < 1e-14
        assert len(mags) == 30
        np.testing.assert_allclose(mags, np.full(30, 1 / math.sqrt(30)), atol=1e-12)


class TestOracleStates:
    def test_single_route_agreement(self, trine):
        literal, _ = literal_value_state(SpinValue.DOWN, trine)
        assert abs(qcore.fidelity(literal, oracle_value_state(SpinValue.DOWN, trine)) - 1) < 1e-12

    def test_conditional_probability_quarter(self, trine):
        for va in SpinValue:
            for vb in SpinValue:
                _, prob = oracle_conditional_state(va, vb, trine)
                assert abs(prob - 0.25) < 1e-12

    def test_up_up_amplitudes_antisymmetric_uniform(self, trine):
        state, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, trine)
        amps = exit_amplitudes(state)
        up = amps[0::2, 0::2]  # up-up block by orientation rank
        np.testing.assert_allclose(np.diag(up), np.zeros(3), atol=1e-14)
        for ra in range(3):
            for rb in range(3):
                if ra != rb:
                    assert abs(abs(up[ra, rb]) - 1 / math.sqrt(6)) < 1e-12
                    assert abs(up[ra, rb] + up[rb, ra]) < 1e-14  # sign alternation

    def test_up_down_magnitudes(self, trine):
        state, _ = oracle_conditional_state(SpinValue.UP, SpinValue.DOWN, trine)
        amps = exit_amplitudes(state)
        block = amps[0::2, 1::2]  # up(A) x down(B) by rank
        # frozen: same-orientation 2/(3*sqrt 2) = 0.4714...; unequal half that
        same = abs(block[0, 0])
        diff = abs(block[0, 1])
        assert abs(same - 2 / (3 * math.sqrt(2))) < 1e-12
        assert abs(diff - 1 / (3 * math.sqrt(2))) < 1e-12
        assert same > diff

    def test_pair_overlap_vanishes_despite_matching_magnitudes(self, trine):
        literal, _ = literal_pair(trine)
        oracle, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, trine)
        # the derived state is odd under particle exchange; the literal is even
        assert qcore.fidelity(literal, oracle.vec) < 1e-12
        lit_mags = np.abs(exit_amplitudes_of(literal, trine))
        ora_mags = np.abs(exit_amplitudes(oracle))
        np.testing.assert_allclose(lit_mags, ora_mags, atol=1e-12)

    def test_joint_overlap_with_pre_value_state_vanishes(self, trine):
        literal, _ = literal_joint(trine)
        assert qcore.fidelity(literal, prepare_joint(trine).vec) < 1e-12

    def test_single_vs_z_prepared_conditional(self, trine):
        # a particle prepared spin-up along z and conditioned on value UP
        # is not the uniform form: overlap is 2/9 for the default binding
        start = np.kron(uniform_paths(), np.array([1, 0], dtype=complex))
        p_up6 = np.zeros((6, 6), dtype=complex)
        for theta in trine.orientations:
            vec = exit_vector(trine, ExitLabel(theta, SpinValue.UP))
            p_up6 += np.outer(vec, vec.conj())
        _, conditional = qcore.project(p_up6, start)
        literal, _ = literal_value_state(SpinValue.UP, trine)
        assert abs(qcore.fidelity(literal, conditional) - 2 / 9) < 1e-12


def exit_amplitudes_of(vec36: np.ndarray, trine: Trine) -> np.ndarray:
    from toolate.protocol import JointState, exit_amplitudes as _ea

    return _ea(JointState(vec36, trine))


class TestVerifyStates:
    def test_report_is_deterministic(self, trine):
        a = verify_states(trine).to_dict()
        b = verify_states(trine).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_schema_and_values(self, trine):
        report = verify_states(trine)
        data = report.to_dict()
        assert set(data) == {"equations", "amplitude_table", "zero_checks", "notes"}
        names = {row["name"]: row for row in data["equations"]}
        assert abs(names["single_value_up"]["literal_norm"] - 1.0) < 1e-12
        assert abs(names["pair_up_up"]["literal_norm"] - 1 / 3) < 1e-12
        assert abs(names["joint_all_values"]["literal_norm"] - 1 / 3) < 1e-12
        assert names["pair_up_up"]["fidelity_vs_oracle"] < 1e-12
        assert 0.0 <= names["joint_all_values"]["fidelity_vs_oracle"] < 1.0
        assert len(data["amplitude_table"]) == 36
        assert report.all_zero_checks_pass()
        assert data["notes"]

    def test_amplitude_table_magnitudes(self, trine):
        # frozen pre-value magnitudes: 1/(3 sqrt 2), sin(pi/3)/(3 sqrt 2), cos(pi/3)/(3 sqrt 2)
        report = verify_states(trine)
        mags = sorted({round(row["magnitude"], 10) for row in report.amplitude_table})
        expected = sorted(
            {
                0.0,
                round(1 / (3 * math.sqrt(2)), 10),
                round(math.sin(math.pi / 3) / (3 * math.sqrt(2)), 10),
                round(math.cos(math.pi / 3) / (3 * math.sqrt(2)), 10),
            }
        )
        assert mags == expected

    def test_zero_checks_cover_three_states(self, trine):
        report = verify_states(trine)
        prefixes = {row["label"].split("[")[0] for row in report.zero_checks}
        assert prefixes == {"literal_joint", "pre_value_oracle", "conditional_up_up"}
        assert len(report.zero_checks) == 18
