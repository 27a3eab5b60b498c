import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx.bloch import BlochVector, bloch_to_operator, is_state, state_to_bloch
from blochx.composite import build_composite, coupled_basis
from blochx.correspondence import (direction_scale_composite,
                                   direction_scale_single,
                                   eigenstate_projections, isomorphism_sweep,
                                   random_directions, space_vector_composite,
                                   space_vector_single, v_overlap_with_extremal,
                                   verify_isomorphism)
from blochx.generators import build_generators, expand_on_generators
from blochx.measurement import simplex_from_observable
from blochx.spin import Direction3, X1, X2, X3, build_spin_system, spin_along


def single_setup(s, direction=X3):
    sys_ = build_spin_system(s)
    g = build_generators(sys_.dim)
    v = space_vector_single(sys_, direction, g)
    m = simplex_from_observable(spin_along(sys_, direction), g)
    return sys_, g, v, m


class TestScaleConstants:
    def test_single_values(self):
        assert abs(direction_scale_single(2) - 1.0) < 1e-15
        assert abs(direction_scale_single(3) - 1 / np.sqrt(3)) < 1e-15

    def test_composite_half_half(self):
        assert abs(direction_scale_composite(2, 2) - np.sqrt(3 / 8)) < 1e-15


class TestSpaceVectorSingle:
    def test_two_level_equals_top_eigenstate_vector(self):
        _, g, v, m = single_setup(0.5, Direction3.from_angles(0.9, 0.4))
        top = m.vertices[np.argmax(m.eigenvalues)]
        assert np.max(np.abs(v.coords - top)) < 1e-12
        # equivalently half the difference of the two eigenstate vectors
        diff = 0.5 * (m.vertices[1] - m.vertices[0])
        assert np.max(np.abs(v.coords - diff)) < 1e-12

    def test_three_level_extremal_difference(self):
        _, g, v, m = single_setup(1.0, Direction3.from_angles(1.8, -0.7))
        expected = (m.vertices[2] - m.vertices[0]) / np.sqrt(3)
        assert np.max(np.abs(v.coords - expected)) < 1e-12

    @pytest.mark.parametrize("s", (0.5, 1.0, 1.5, 2.0, 2.5))
    def test_unit_norm(self, s):
        _, _, v, _ = single_setup(s, Direction3.from_angles(0.3, 2.8))
        assert abs(np.linalg.norm(v.coords) - 1.0) < 1e-10


class TestIsomorphism:
    def test_same_direction(self):
        sys_ = build_spin_system(1.0)
        g = build_generators(3)
        dev = verify_isomorphism(lambda d: space_vector_single(sys_, d, g), X3, X3)
        assert dev < 1e-10

    def test_orthogonal_directions_spin_one(self):
        sys_ = build_spin_system(1.0)
        g = build_generators(3)
        make = lambda d: space_vector_single(sys_, d, g)
        assert verify_isomorphism(make, X1, X2) < 1e-10
        assert verify_isomorphism(make, X1, X3) < 1e-10

    def test_random_sweep_spin_three_half(self):
        sys_ = build_spin_system(1.5)
        g = build_generators(4)
        devs = isomorphism_sweep(lambda d: space_vector_single(sys_, d, g), 100, seed=7)
        assert devs.max() < 1e-9

    def test_axis_triad_is_orthonormal(self):
        sys_ = build_spin_system(2.0)
        g = build_generators(5)
        triad = np.stack([space_vector_single(sys_, d, g).coords for d in (X1, X2, X3)])
        assert np.max(np.abs(triad @ triad.T - np.eye(3))) < 1e-10


class TestEigenstateProjections:
    def test_two_level(self):
        _, _, v, m = single_setup(0.5)
        assert np.allclose(eigenstate_projections(v, m), [-1.0, 1.0], atol=1e-12)

    def test_three_level_spacing(self):
        _, _, v, m = single_setup(1.0, Direction3.from_angles(0.6, 1.1))
        proj = eigenstate_projections(v, m)
        assert np.allclose(np.diff(proj), np.sqrt(3) / 2, atol=1e-12)

    @pytest.mark.parametrize("s", (0.5, 1.0, 1.5, 2.0, 2.5))
    def test_arithmetic_progression(self, s):
        _, _, v, m = single_setup(s, Direction3.from_angles(2.2, -1.9))
        proj = eigenstate_projections(v, m)
        n = m.dim_n
        expected = np.sqrt(12.0 / (n + 1)) / (n - 1) * m.eigenvalues
        assert np.max(np.abs(proj - expected)) < 1e-10

    def test_dimension_mismatch(self):
        _, _, v, _ = single_setup(0.5)
        _, _, _, m = single_setup(1.0)
        with pytest.raises(ValueError, match="different observables"):
            eigenstate_projections(v, m)


class TestExtremalOverlap:
    def test_two_level_is_zero(self):
        _, g, v, m = single_setup(0.5)
        assert abs(v_overlap_with_extremal(v, m, g)) < 1e-12

    def test_three_level_value(self):
        # closed form (1/3)(1 - sqrt(3)), cross-checked by direct traces
        _, g, v, m = single_setup(1.0, Direction3.from_angles(1.0, 0.3))
        overlap = v_overlap_with_extremal(v, m, g)
        assert abs(overlap - (1 - np.sqrt(3)) / 3) < 1e-12
        operator = bloch_to_operator(BlochVector(3, v.coords), g)
        oracle = np.trace(operator @ m.projectors[0]).real
        assert abs(overlap - oracle) < 1e-14

    @pytest.mark.parametrize("s", (1.0, 1.5, 2.0, 2.5, 3.0))
    def test_negative_beyond_two_levels(self, s):
        _, g, v, m = single_setup(s, Direction3.from_angles(0.8, -2.4))
        assert v_overlap_with_extremal(v, m, g) < 0

    @pytest.mark.parametrize("s", (1.0, 1.5, 2.0, 2.5, 3.0))
    def test_space_vector_is_no_state(self, s):
        _, g, v, _ = single_setup(s, Direction3.from_angles(1.4, 0.9))
        ok, smallest = is_state(BlochVector(v.dim_n, v.coords), g)
        assert not ok and smallest < -1e-6

    def test_two_level_space_vector_is_a_state(self):
        _, g, v, _ = single_setup(0.5, Direction3.from_angles(2.6, 1.2))
        ok, _ = is_state(BlochVector(2, v.coords), g)
        assert ok


class TestExpansionIdentity:
    @pytest.mark.parametrize("s", (0.5, 1.0, 1.5))
    def test_space_vector_expands_the_observable(self, s):
        sys_ = build_spin_system(s)
        g = build_generators(sys_.dim)
        n = Direction3.from_angles(1.1, -0.5)
        v = space_vector_single(sys_, n, g)
        rebuilt = (g.c / (sys_.dim * v.scale)) * np.tensordot(v.coords, g.matrices, axes=1)
        assert np.max(np.abs(rebuilt - sys_.component_along(n))) < 1e-10


class TestSpaceVectorComposite:
    def test_half_half_extremal_difference(self):
        c = build_composite(0.5, 0.5)
        g = build_generators(4)
        n = Direction3.from_angles(0.7, 2.1)
        v = space_vector_composite(c, n, "coupled", g)
        vertices = {(e.s, e.mu): state_to_bloch(e.state.projector(), g).coords
                    for e in coupled_basis(c, n).entries}
        expected = np.sqrt(3 / 8) * (vertices[(1.0, 1.0)] - vertices[(1.0, -1.0)])
        assert np.max(np.abs(v.coords - expected)) < 1e-10

    @pytest.mark.parametrize("s1,s2", ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)))
    def test_coupled_and_product_agree(self, s1, s2):
        c = build_composite(s1, s2)
        g = build_generators(c.dim)
        n = Direction3.from_angles(1.9, 0.6)
        v = space_vector_composite(c, n, "coupled", g)
        w = space_vector_composite(c, n, "product", g)
        assert np.max(np.abs(v.coords - w.coords)) < 1e-10

    @pytest.mark.parametrize("s1,s2", ((0.5, 0.5), (0.5, 1.0)))
    def test_isomorphism_sweep(self, s1, s2):
        c = build_composite(s1, s2)
        g = build_generators(c.dim)
        devs = isomorphism_sweep(lambda d: space_vector_composite(c, d, "coupled", g),
                                 25, seed=11)
        assert devs.max() < 1e-9

    def test_zero_eigenvalue_states_project_to_origin(self):
        c = build_composite(0.5, 0.5)
        g = build_generators(4)
        n = Direction3.from_angles(1.2, -2.0)
        v = space_vector_composite(c, n, "coupled", g)
        for e in coupled_basis(c, n).entries:
            if e.mu == 0.0:
                vertex = state_to_bloch(e.state.projector(), g).coords
                assert abs(vertex @ v.coords) < 1e-10

    def test_composite_projection_spacing(self):
        c = build_composite(0.5, 0.5)
        g = build_generators(4)
        n = Direction3.from_angles(0.4, 1.6)
        v = space_vector_composite(c, n, "coupled", g)
        states, values = coupled_basis(c, n).eigensystem()
        m = simplex_from_observable((states, values), g)
        proj = eigenstate_projections(v, m)
        scale = direction_scale_composite(2, 2)
        expected = (4 * scale / 3) * m.eigenvalues
        assert np.max(np.abs(proj - expected)) < 1e-10

    def test_rejects_unknown_basis(self):
        c = build_composite(0.5, 0.5)
        g = build_generators(4)
        with pytest.raises(ValueError, match="basis"):
            space_vector_composite(c, X3, "mixed", g)


class TestRandomDirections:
    def test_seeded_and_unit(self):
        a = random_directions(10, seed=3)
        b = random_directions(10, seed=3)
        for da, db in zip(a, b):
            assert np.array_equal(da.components, db.components)
            assert abs(np.linalg.norm(da.components) - 1.0) < 1e-12


def direction_map(components, scale, g):
    """The closed form v(n) = M n: since sum_i mu_i P_i = S_n and the
    coordinate map is linear, column a of M is the scaled coordinate
    vector (N / c_N) Tr(S_a L) / 2 of the a-th spin component."""
    return np.column_stack([scale * g.dim / g.c * expand_on_generators(op, g)[1].real
                            for op in components])


unit_directions = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(Direction3.normalized)
# (s1, s2) with (2 s1 + 1)(2 s2 + 1) <= 64, the composites the CLI accepts
composite_spins = st.integers(1, 31).flatmap(lambda two_s1: st.tuples(
    st.just(two_s1 / 2), st.integers(1, 64 // (two_s1 + 1) - 1).map(lambda t: t / 2)))


class TestDirectionMapOracle:
    @settings(max_examples=30, deadline=None)
    @given(two_s=st.integers(1, 63), n=unit_directions)
    def test_single(self, two_s, n):
        sys_ = build_spin_system(two_s / 2)
        g = build_generators(sys_.dim)
        m = direction_map((sys_.s1, sys_.s2, sys_.s3), direction_scale_single(sys_.dim), g)
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-12
        v = space_vector_single(sys_, n, g)
        assert np.max(np.abs(m @ n.components - v.coords)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(spins=composite_spins, n=unit_directions)
    def test_composite(self, spins, n):
        c = build_composite(*spins)
        g = build_generators(c.dim)
        m = direction_map(c.components, direction_scale_composite(c.system1.dim, c.system2.dim), g)
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-12
        for basis in ("coupled", "product"):
            v = space_vector_composite(c, n, basis, g)
            assert np.max(np.abs(m @ n.components - v.coords)) <= 1e-12
