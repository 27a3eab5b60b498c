import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx.bloch import pure_state_from_direction
from blochx.linalg import ValidationError
from blochx.spin import (Direction3, X1, X3, build_spin_system, check_projection,
                         check_spin, classical_resultant_range, cone_parameters,
                         cone_projection_range, spin_along)
from conftest import PAULI_1, PAULI_2, PAULI_3, ket_state


def sample_cone_vectors(s, mu, phis):
    _, _, radius = cone_parameters(s, mu)
    return np.stack([radius * np.cos(phis), radius * np.sin(phis),
                     np.full_like(phis, mu)], axis=1)


class TestDirection3:
    def test_from_angles_matches_components(self):
        d = Direction3.from_angles(0.8, 2.1)
        expected = [np.sin(0.8) * np.cos(2.1), np.sin(0.8) * np.sin(2.1), np.cos(0.8)]
        assert np.allclose(d.components, expected, atol=1e-15)
        assert abs(d.theta - 0.8) < 1e-12
        assert abs(d.phi - 2.1) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="norm"):
            Direction3(np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("v", [[1e200, 1e200, 1e200], [-1e308, 1.7e308, 1e-300],
                                   [0.0, 0.0, 1e155]])
    def test_normalizes_vectors_whose_squares_overflow(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = Direction3.normalized(v)
        big = np.max(np.abs(v))
        expected = Direction3.normalized(np.asarray(v) / big).components
        assert d.components.tobytes() == expected.tobytes()
        if v[0] == v[1] == v[2]:
            assert d.components.tobytes() == (np.ones(3) / np.sqrt(3.0)).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3)
           .filter(lambda v: np.linalg.norm(v) >= 1e-12))
    def test_directions_up_to_1e150_keep_their_bits(self, v):
        v = np.array(v)
        expected = v / np.linalg.norm(v)
        assert Direction3.normalized(v).components.tobytes() == expected.tobytes()

    def test_normalized(self):
        d = Direction3.normalized([3.0, 0.0, 4.0])
        assert np.allclose(d.components, [0.6, 0.0, 0.8], atol=1e-15)

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            Direction3.normalized([0.0, 0.0, 0.0])


class TestBuildSpinSystem:
    def test_spin_half_is_half_pauli(self):
        sys_ = build_spin_system(0.5)
        assert np.array_equal(sys_.s1, PAULI_1 / 2)
        assert np.array_equal(sys_.s2, PAULI_2 / 2)
        assert np.array_equal(sys_.s3, PAULI_3 / 2)

    def test_spin_one_matrices(self):
        sys_ = build_spin_system(1.0)
        assert np.allclose(sys_.s3, np.diag([1.0, 0.0, -1.0]), atol=1e-15)
        # ladder elements sqrt(2) give off-tridiagonal 1/sqrt(2)
        expected_s1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
        assert np.allclose(sys_.s1, expected_s1, atol=1e-15)

    @pytest.mark.parametrize("s", (0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
    def test_commutation_and_square(self, s):
        sys_ = build_spin_system(s)
        pairs = ((sys_.s1, sys_.s2, sys_.s3), (sys_.s2, sys_.s3, sys_.s1),
                 (sys_.s3, sys_.s1, sys_.s2))
        for a, b, c in pairs:
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
        s_squared = sys_.s1 @ sys_.s1 + sys_.s2 @ sys_.s2 + sys_.s3 @ sys_.s3
        assert np.max(np.abs(s_squared - s * (s + 1) * np.eye(sys_.dim))) < 1e-12

    @pytest.mark.parametrize("s", (0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
    def test_component_trace_orthogonality(self, s):
        sys_ = build_spin_system(s)
        comps = (sys_.s1, sys_.s2, sys_.s3)
        n = sys_.dim
        for i in range(3):
            for j in range(3):
                t = np.trace(comps[i] @ comps[j])
                expected = s * (s + 1) * n / 3 if i == j else 0.0
                assert abs(t - expected) < 1e-10

    @pytest.mark.parametrize("bad", (0.4, 0.0, -0.5, 0.75))
    def test_rejects_invalid_spin(self, bad):
        with pytest.raises(ValueError, match="invalid spin"):
            build_spin_system(bad)

    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan, np.float64(np.nan), 1e308))
    def test_rejects_non_finite_spin(self, bad):
        # 2s of 1e308 is past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="invalid spin"):
                check_spin(bad)
            with pytest.raises(ValueError, match="invalid spin"):
                check_projection(bad, 0.5)
            with pytest.raises(ValueError, match="projection .* is not on the half-integer grid"):
                check_projection(0.5, bad)


class TestSpinAlong:
    def test_axis_observable_is_diagonal(self):
        obs = spin_along(build_spin_system(0.5), X3)
        assert np.allclose(obs.eigenvalues, [-0.5, 0.5], atol=0)
        assert np.allclose(ket_state(obs.kets[0]).matrix, np.diag([0.0, 1.0]), atol=1e-14)
        assert np.allclose(ket_state(obs.kets[1]).matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_top_eigenstate_matches_spherical_form(self):
        sys_ = build_spin_system(0.5)
        for theta, phi in ((0.4, 0.9), (1.9, -2.2), (2.8, 0.0)):
            obs = spin_along(sys_, Direction3.from_angles(theta, phi))
            expected = pure_state_from_direction(theta, phi).matrix
            assert np.max(np.abs(ket_state(obs.kets[1]).matrix - expected)) < 1e-12

    def test_spin_one_transverse_spectrum(self):
        obs = spin_along(build_spin_system(1.0), X1)
        assert np.allclose(obs.eigenvalues, [-1.0, 0.0, 1.0], atol=0)
        assert np.max(np.abs(obs.matrix - build_spin_system(1.0).s1)) == 0

    def test_spectrum_is_direction_independent(self):
        rng = np.random.default_rng(53)
        sys_ = build_spin_system(1.5)
        mu = np.array([-1.5, -0.5, 0.5, 1.5])
        for _ in range(100):
            n = Direction3.normalized(rng.standard_normal(3))
            values = np.linalg.eigvalsh(sys_.component_along(n))
            assert np.max(np.abs(values - mu)) < 1e-10

    def test_spectrum_off_the_grid_is_a_validation_error(self):
        sys_ = build_spin_system(1.0)
        stretched = dataclasses.replace(sys_, s3=1.5 * sys_.s3)
        with pytest.raises(ValidationError, match="spectrum deviates"):
            spin_along(stretched, X3)

    def test_eigenstates_resolve_identity(self):
        obs = spin_along(build_spin_system(1.0), Direction3.from_angles(1.0, 0.5))
        total = sum(ket_state(k).matrix for k in obs.kets)
        assert np.max(np.abs(total - np.eye(3))) < 1e-12


class TestConeParameters:
    def test_spin_half_up(self):
        height, slant, radius = cone_parameters(0.5, 0.5)
        assert height == 0.5
        assert abs(slant - np.sqrt(3) / 2) < 1e-15
        assert abs(radius - 1 / np.sqrt(2)) < 1e-15

    def test_equatorial_cone(self):
        height, slant, radius = cone_parameters(1.0, 0.0)
        assert height == 0.0
        assert abs(slant - np.sqrt(2)) < 1e-15
        assert abs(radius - np.sqrt(2)) < 1e-15

    @pytest.mark.parametrize("s", (0.5, 1.0, 2.5, 4.0))
    def test_top_cone_radius(self, s):
        _, _, radius = cone_parameters(s, s)
        assert abs(radius - np.sqrt(s)) < 1e-14

    def test_rejects_out_of_range_projection(self):
        with pytest.raises(ValueError, match="projection"):
            cone_parameters(0.5, 1.5)
        with pytest.raises(ValueError, match="projection"):
            cone_parameters(0.5, 0.0)  # wrong parity for the half-integer ladder


class TestConeProjectionRange:
    def test_spin_half_interval(self):
        lo, hi = cone_projection_range(0.5, 0.5)
        assert abs(lo - (-1 / (2 * np.sqrt(3)))) < 1e-12
        assert abs(hi - np.sqrt(3) / 2) < 1e-12
        # the spin-down eigenvalue -1/2 is outside: the no-go
        assert lo > -0.5

    def test_self_projection_is_max(self):
        for s in (0.5, 1.5, 3.0):
            _, slant, _ = cone_parameters(s, s)
            assert cone_projection_range(s, s)[1] == slant

    def test_spin_one_interval(self):
        lo, hi = cone_projection_range(1.0, 1.0)
        assert abs(lo) < 1e-15
        assert abs(hi - np.sqrt(2)) < 1e-15

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(59)
        lo, hi = cone_projection_range(0.5, 0.5)
        fixed = sample_cone_vectors(0.5, 0.5, np.zeros(1))[0]
        others = sample_cone_vectors(0.5, 0.5, rng.uniform(0, 2 * np.pi, 10_000))
        projections = others @ fixed / np.linalg.norm(fixed)
        assert projections.min() >= lo - 1e-12
        assert projections.max() <= hi + 1e-12
        assert projections.min() < lo + 0.01
        assert projections.max() > hi - 0.01


class TestClassicalResultantRange:
    def test_analytic_range(self):
        lo, hi = classical_resultant_range()
        assert abs(lo - 1.0) < 1e-9
        assert abs(hi - np.sqrt(3)) < 1e-9

    def test_sqrt_two_achievable(self):
        # opposite-quadrature azimuths give the resultant length sqrt(2)
        a = sample_cone_vectors(0.5, 0.5, np.array([0.0]))[0]
        b = sample_cone_vectors(0.5, 0.5, np.array([np.pi / 2]))[0]
        assert abs(np.linalg.norm(a + b) - np.sqrt(2)) < 1e-12

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(61)
        lo, hi = classical_resultant_range()
        a = sample_cone_vectors(0.5, 0.5, rng.uniform(0, 2 * np.pi, 10_000))
        b = sample_cone_vectors(0.5, 0.5, rng.uniform(0, 2 * np.pi, 10_000))
        lengths = np.linalg.norm(a + b, axis=1)
        assert lengths.min() >= lo - 1e-9 and lengths.max() <= hi + 1e-9
        assert lengths.min() < lo + 0.01 and lengths.max() > hi - 0.01
