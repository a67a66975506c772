import math

import numpy as np

from oracles import correlation_matrix_route
from toolate.spinlab import (
    SpinValue,
    chsh_value,
    correlation_exact,
    correlations,
    joint_value_probabilities,
    singlet,
    spin_eigenstates,
    wrap_angle,
)

TWO_PI = 2 * math.pi


def sgm_projectors(theta):
    """Rank-1 projectors onto the two magnet exits along ``theta``."""
    up, down = spin_eigenstates(theta)
    return np.outer(up, up.conj()), np.outer(down, down.conj())


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(TWO_PI) == 0.0
    assert abs(wrap_angle(-math.pi / 2) - 3 * math.pi / 2) < 1e-15
    assert abs(wrap_angle(5 * math.pi) - math.pi) < 1e-12


class TestEigenstates:
    def test_convention_at_zero(self):
        up, down = spin_eigenstates(0.0)
        np.testing.assert_allclose(up, [1, 0])
        np.testing.assert_allclose(down, [0, 1])

    def test_overlap_at_trine_spacing(self):
        up0, _ = spin_eigenstates(0.0)
        up120, _ = spin_eigenstates(2 * math.pi / 3)
        assert abs(np.vdot(up0, up120).real - 0.5) < 1e-15

    def test_orthonormality_random_angles(self, rand):
        for theta in rand.uniform(0, TWO_PI, size=100):
            up, down = spin_eigenstates(theta)
            assert abs(np.vdot(up, up) - 1) < 1e-14
            assert abs(np.vdot(down, down) - 1) < 1e-14
            assert abs(np.vdot(up, down)) < 1e-14


class TestProjectors:
    def test_axis_aligned(self):
        p_up, _ = sgm_projectors(0.0)
        np.testing.assert_allclose(p_up, np.diag([1, 0]), atol=1e-15)

    def test_completeness_random_angles(self, rand):
        for theta in rand.uniform(0, TWO_PI, size=50):
            p_up, p_down = sgm_projectors(theta)
            np.testing.assert_allclose(p_up + p_down, np.eye(2), atol=1e-12)

    def test_eigenstate_is_certain(self, rand):
        theta = rand.uniform(0, TWO_PI)
        p_up, _ = sgm_projectors(theta)
        up, _ = spin_eigenstates(theta)
        assert abs(np.vdot(up, p_up @ up).real - 1.0) < 1e-14


class TestSinglet:
    def test_amplitudes_as_written(self):
        psi = singlet()
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(psi, [0, s, -s, 0], atol=1e-16)

    def test_rotation_invariance(self, rand):
        psi = singlet()
        for theta in rand.uniform(0, TWO_PI, size=30):
            r = np.column_stack(spin_eigenstates(theta))  # z frame -> theta frame
            rotated = np.kron(r.conj().T, r.conj().T) @ psi
            np.testing.assert_allclose(rotated, psi, atol=1e-12)

    def test_no_same_value_component_along_any_axis(self, rand):
        psi = singlet()
        for theta in rand.uniform(0, TWO_PI, size=50):
            up, _ = spin_eigenstates(theta)
            assert abs(np.vdot(np.kron(up, up), psi)) < 1e-14

    def test_either_marginal_is_unbiased(self, rand):
        for theta in rand.uniform(0, TWO_PI, size=20):
            probs = joint_value_probabilities(theta, rand.uniform(0, TWO_PI))
            p_up_a = probs[0] + probs[1]
            assert abs(p_up_a - 0.5) < 1e-12


class TestCorrelation:
    def test_perfect_anticorrelation(self):
        assert abs(correlation_exact(1.234, 1.234) + 1.0) < 1e-14

    def test_orthogonal_settings(self):
        assert abs(correlation_exact(0.0, math.pi / 2)) < 1e-15

    def test_trine_value(self):
        # frozen: four joint weights (3/8, 1/8, 1/8, 3/8) -> E = 1/2
        assert abs(correlation_exact(0.0, 2 * math.pi / 3) - 0.5) < 1e-14

    def test_against_projector_matrix_oracle(self, rand):
        for _ in range(1000):
            a, b = rand.uniform(0, TWO_PI, size=2)
            assert abs(correlation_exact(a, b) - correlation_matrix_route(a, b)) < 1e-12

    def test_closed_form_on_random_pairs(self, rand):
        for _ in range(1000):
            a, b = rand.uniform(0, TWO_PI, size=2)
            assert abs(correlation_exact(a, b) + math.cos(a - b)) < 1e-12

    def test_array_form_matches_scalar_route(self, rand):
        # raw angles, wrapped by the eigenstates: negative and beyond 2*pi
        a = np.concatenate([rand.uniform(-3 * TWO_PI, 3 * TWO_PI, size=40), [0.0, TWO_PI, -TWO_PI]])
        b = np.concatenate([rand.uniform(-3 * TWO_PI, 3 * TWO_PI, size=30), [math.pi, 5 * TWO_PI]])
        grid = correlations(a[:, None], b[None, :])
        assert grid.shape == (len(a), len(b))
        scalar = np.array([[correlation_exact(x, y) for y in b] for x in a])
        assert np.max(np.abs(grid - scalar)) <= 1e-15
        probs = joint_value_probabilities(a[:, None], b[None, :])
        assert probs.shape == (len(a), len(b), 4)
        assert np.max(np.abs(probs[3, 7] - joint_value_probabilities(a[3], b[7]))) <= 1e-15

    def test_symmetry(self, rand):
        for _ in range(100):
            a, b = rand.uniform(0, TWO_PI, size=2)
            assert abs(correlation_exact(a, b) - correlation_exact(b, a)) < 1e-14


class TestChsh:
    def test_equal_settings_floor(self):
        assert abs(chsh_value(0.3, 0.3, 0.3, 0.3) + 2.0) < 1e-14

    def test_pinned_angles_reach_quantum_bound(self):
        s = chsh_value(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        assert abs(abs(s) - 2 * math.sqrt(2)) < 1e-9

    def test_grid_scan_peaks_at_quantum_bound(self):
        best = 0.0
        for deg in range(0, 360):
            phi = math.radians(deg)
            best = max(best, abs(chsh_value(0.0, 2 * phi, phi, 3 * phi)))
        assert abs(best - 2 * math.sqrt(2)) < 1e-4

    def test_never_exceeds_quantum_bound_on_random_settings(self, rand):
        for _ in range(200):
            a, a2, b, b2 = rand.uniform(0, TWO_PI, size=4)
            assert abs(chsh_value(a, a2, b, b2)) <= 2 * math.sqrt(2) + 1e-9


def test_spin_value_signs():
    assert SpinValue.UP.sign == 1 and SpinValue.DOWN.sign == -1
    assert SpinValue.UP.label == "up" and SpinValue.DOWN.label == "down"


def test_every_unitary_constructor_is_unitary(rand):
    from toolate.protocol import three_port_splitter
    from toolate.qcore import is_unitary

    assert is_unitary(three_port_splitter())
    assert is_unitary(three_port_splitter().conj().T)
    for theta in rand.uniform(0, TWO_PI, size=50):
        assert is_unitary(np.column_stack(spin_eigenstates(theta)))
