import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx.bloch import (BlochVector, DensityState, PureState, _projectors,
                          bloch_to_operator, is_state, projector_to_ket,
                          pure_state_from_direction, purity, random_density,
                          random_ket, state_to_bloch)
from blochx.correspondence import (SpaceVector, space_vector_composite,
                                   space_vector_single, v_overlap_with_extremal)
from blochx.composite import build_composite
from blochx.generators import build_generators
from blochx.linalg import ValidationError, eigh
from blochx.measurement import (lueders_post_state, run_measurement,
                                simplex_from_observable)
from blochx.spin import X1, X3, Direction3, build_spin_system, spin_along
from conftest import ket_state, random_hermitian


def unit_vector(n, index):
    coords = np.zeros(n * n - 1)
    coords[index] = 1.0
    return BlochVector(n, coords)


class TestDensityState:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityState(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DensityState(np.diag([1.5, -0.5]))


class TestStateToBloch:
    def test_maximally_mixed_center(self):
        for n in (2, 3, 4):
            g = build_generators(n)
            r = state_to_bloch(DensityState(np.eye(n) / n), g)
            assert np.max(np.abs(r.coords)) < 1e-14

    def test_two_level_pure_state_is_its_direction(self):
        g = build_generators(2)
        for theta, phi in ((0.3, 1.2), (2.1, -0.4), (np.pi / 2, 0.0)):
            r = state_to_bloch(pure_state_from_direction(theta, phi), g)
            expected = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            assert np.allclose(r.coords, expected, atol=1e-14)

    def test_n3_basis_projector_lands_on_diagonal_coords(self):
        # traces evaluated by hand against the fixed generator order:
        # only the two diagonal members contribute, (sqrt(3)/2, 1/2)
        g = build_generators(3)
        r = state_to_bloch(DensityState(np.diag([1.0, 0.0, 0.0])), g)
        assert np.max(np.abs(r.coords[:6])) < 1e-14
        assert abs(r.coords[6] - np.sqrt(3) / 2) < 1e-14
        assert abs(r.coords[7] - 0.5) < 1e-14
        assert abs(np.linalg.norm(r.coords) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            state_to_bloch(DensityState(np.eye(3) / 3), build_generators(2))

    def test_imaginary_residue_is_a_validation_error(self):
        # DensityState refuses a non-Hermitian matrix, so bypass its check
        d = object.__new__(DensityState)
        object.__setattr__(d, "matrix", np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValidationError, match="imaginary residue"):
            state_to_bloch(d, build_generators(2))


class TestBlochToOperator:
    def test_center_is_maximally_mixed(self):
        g = build_generators(3)
        op = bloch_to_operator(BlochVector(3, np.zeros(8)), g)
        assert np.allclose(op, np.eye(3) / 3, atol=1e-15)

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_last_axis_unit_vector_is_no_state(self, n):
        g = build_generators(n)
        op = bloch_to_operator(unit_vector(n, n * n - 2), g)
        smallest = np.linalg.eigvalsh(op)[0]
        assert abs(smallest - (-(n - 2) / n)) < 1e-12

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            g = build_generators(n)
            d = random_density(n, rng)
            back = bloch_to_operator(state_to_bloch(d, g), g)
            assert np.max(np.abs(back - d.matrix)) < 1e-10


class TestPurity:
    def test_center(self):
        assert abs(purity(BlochVector(3, np.zeros(8))) - 1 / 3) < 1e-15

    def test_unit_vector(self):
        assert abs(purity(unit_vector(4, 0)) - 1.0) < 1e-15

    def test_half_radius_two_level(self):
        r = BlochVector(2, np.array([0.5, 0.0, 0.0]))
        assert abs(purity(r) - 0.625) < 1e-15
        op = bloch_to_operator(r, build_generators(2))
        assert abs(purity(r) - np.trace(op @ op).real) < 1e-10

    def test_matches_matrix_purity_for_random_states(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 4):
            g = build_generators(n)
            d = random_density(n, rng)
            r = state_to_bloch(d, g)
            assert abs(purity(r) - np.trace(d.matrix @ d.matrix).real) < 1e-10

    def test_projectors_are_pure(self):
        rng = np.random.default_rng(31)
        g = build_generators(3)
        for _ in range(20):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            r = state_to_bloch(DensityState(np.outer(v, v.conj())), g)
            assert abs(purity(r) - 1.0) < 1e-10


class TestIsState:
    def test_center(self):
        g = build_generators(4)
        ok, smallest = is_state(BlochVector(4, np.zeros(15)), g)
        assert ok and abs(smallest - 0.25) < 1e-14

    def test_counterexample_n3(self):
        g = build_generators(3)
        ok, smallest = is_state(unit_vector(3, 7), g)
        assert not ok
        assert abs(smallest - (-1 / 3)) < 1e-12

    def test_round_trip_vectors_are_states(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 4):
            g = build_generators(n)
            ok, _ = is_state(state_to_bloch(random_density(n, rng), g), g)
            assert ok

    def test_convexity_of_the_state_region(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            g = build_generators(n)
            for _ in range(15):
                r1 = state_to_bloch(random_density(n, rng), g)
                r2 = state_to_bloch(random_density(n, rng), g)
                a = rng.random()
                mix = BlochVector(n, a * r1.coords + (1 - a) * r2.coords)
                ok, _ = is_state(mix, g)
                assert ok

    def test_norm_at_most_one_for_random_states(self):
        rng = np.random.default_rng(43)
        for n in (2, 3, 4):
            g = build_generators(n)
            for _ in range(1000):
                r = state_to_bloch(random_density(n, rng), g)
                assert r.norm <= 1 + 1e-10


class TestProjectorToKet:
    def test_basis_projector(self):
        ket = projector_to_ket(DensityState(np.diag([1.0, 0.0, 0.0])))
        assert np.allclose(ket.amplitudes, [1, 0, 0], atol=1e-14)

    def test_two_level_spherical_form(self):
        for theta, phi in ((0.9, 0.3), (2.2, -1.0)):
            ket = projector_to_ket(pure_state_from_direction(theta, phi))
            expected = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])
            assert np.allclose(ket.amplitudes, expected, atol=1e-12)

    def test_symmetric_superposition(self):
        m = 0.5 * np.ones((2, 2), dtype=complex)
        ket = projector_to_ket(DensityState(m))
        assert np.allclose(ket.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-14)

    def test_rejects_mixed_state(self):
        with pytest.raises(ValueError, match="rank-1"):
            projector_to_ket(DensityState(np.eye(2) / 2))

    def test_reconstructs_projector(self):
        rng = np.random.default_rng(47)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        p = DensityState(np.outer(v, v.conj()))
        ket = projector_to_ket(p)
        assert np.max(np.abs(ket.projector().matrix - p.matrix)) < 1e-10


class TestPureStateFromDirection:
    def test_poles(self):
        assert np.allclose(pure_state_from_direction(0.0, 1.3).matrix, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(pure_state_from_direction(np.pi, -0.2).matrix, np.diag([0.0, 1.0]), atol=1e-14)

    def test_equator(self):
        assert np.allclose(pure_state_from_direction(np.pi / 2, 0.0).matrix,
                           0.5 * np.ones((2, 2)), atol=1e-14)


class TestVectorTypes:
    def test_bloch_vector_length_check(self):
        with pytest.raises(ValueError, match="coordinates"):
            BlochVector(3, np.zeros(7))

    def test_bloch_vector_norm_check(self):
        with pytest.raises(ValueError, match="exceeds"):
            BlochVector(2, np.array([1.0, 1.0, 0.0]))

    def test_overflowing_checks_fail_with_their_own_text(self):
        huge = np.array([[1e308, 1e308], [-1e308, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^coordinate norm inf exceeds 1$"):
                BlochVector(2, np.array([1e308, 1e308, 0.0]))
            with pytest.raises(ValueError, match=r"^density matrix trace inf\+0j is not 1$"):
                DensityState(np.diag([1e308, 1e308]))
            with pytest.raises(ValueError, match="^density matrix is not Hermitian"):
                DensityState(huge)

    def test_pure_state_norm_check(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_phase_fixed(self):
        state = PureState(np.array([0.0, 1j]))
        assert np.allclose(state.amplitudes, [0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda x: Direction3(np.array([x, 0.0, 0.0])),
    lambda x: BlochVector(2, np.array([x, 0.0, 0.0])),
    lambda x: PureState(np.array([x, 0.0])),
    lambda x: SpaceVector(2, np.array([x, 0.0, 0.0]), 1.0, "single(0.5)"),
], ids=["Direction3", "BlochVector", "PureState", "SpaceVector"])
def test_norm_checks_refuse_non_finite_entries(build, bad):
    # a NaN norm compares false against any tolerance, so each check must
    # be written to fail unless the residual is provably small
    with pytest.raises(ValueError, match="norm"):
        build(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalized_refuses_non_finite_before_dividing(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            Direction3.normalized([bad, 0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_state_to_bloch_matches_the_dense_stack(n, seed):
    rng = np.random.default_rng(seed)
    g = build_generators(n)
    d = random_density(n, rng)
    dense = np.einsum("kij,ji->k", g.matrices, d.matrix) * (n / (2.0 * g.c))
    coords = state_to_bloch(d, g).coords
    assert np.max(np.abs(coords - dense.real)) <= 1e-14
    # same sums in the same order, so equal by value; np.array_equal counts
    # -0.0 equal to 0.0, so the sign of a zero goes unchecked: the
    # antisymmetric terms can give -0.0 where the einsum gives 0.0
    assert np.array_equal(coords, dense.real)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_bloch_to_operator_matches_the_dense_stack(n, seed):
    rng = np.random.default_rng(seed)
    g = build_generators(n)
    coords = rng.standard_normal(n * n - 1)
    r = BlochVector(n, coords * rng.random() / np.linalg.norm(coords))
    dense = (np.eye(n) + g.c * np.tensordot(r.coords, g.matrices, axes=1)) / n
    assert np.max(np.abs(bloch_to_operator(r, g) - dense)) <= 1e-14


def test_n36_paths_never_build_the_stack():
    g = build_generators(36)
    single = build_spin_system(17.5)
    v = space_vector_single(single, X3, g)
    simplex = simplex_from_observable(spin_along(single, X3), g)
    assert abs(v_overlap_with_extremal(v, simplex, g)
               - (1.0 - np.sqrt(3.0 * 35 ** 2 / 37)) / 36) < 1e-10
    psi = random_density(36, np.random.default_rng(36))
    stats = run_measurement(psi, simplex, 1000, seed=5, generators=g)
    assert int(stats.counts.sum()) == 1000
    assert is_state(state_to_bloch(psi, g), g)[0]
    pair = build_composite(2.5, 2.5)
    u = space_vector_composite(pair, X1, "coupled", g)
    w = space_vector_composite(pair, X1, "product", g)
    assert np.linalg.norm(u.coords - w.coords) < 1e-10
    assert "matrices" not in g.__dict__


def _random_ket(n, rng, strided):
    """A unit ket: a Haar-random vector, or an eigenvector column of
    ``eigh``, read with a stride."""
    if strided:
        return np.asfortranarray(eigh(random_hermitian(n, rng))[1])[int(rng.integers(n))]
    return random_ket(n, rng).amplitudes


def _eigvalsh_spy():
    return mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), strided=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_rank1_matches_the_validated_projector(n, strided, seed):
    v = _random_ket(n, np.random.default_rng(seed), strided)
    a = PureState(v).amplitudes
    for ket, trusted in ((v, _projectors(v[None])[0]), (a, PureState(v).projector().matrix)):
        validated = ket_state(ket).matrix
        assert trusted.dtype == validated.dtype and trusted.shape == validated.shape
        assert trusted.tobytes() == validated.tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 64), factor=st.sampled_from([0.5, 0.999, 1.001, 2.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rank1_rejects_a_non_unit_ket(n, factor, seed):
    v = factor * _random_ket(n, np.random.default_rng(seed), False)
    with pytest.raises(ValueError, match="density matrix trace .* is not 1") as validated:
        ket_state(v)
    # PureState.projector's path, which its own norm check keeps such kets from
    with pytest.raises(ValueError) as trusted:
        DensityState._psd(_projectors(v[None])[0])
    assert str(trusted.value) == str(validated.value)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_single_spin_paths_skip_the_eigenvalue_check(n, seed):
    rng = np.random.default_rng(seed)
    sys_ = build_spin_system((n - 1) / 2)
    g = build_generators(n)
    direction = Direction3.normalized(rng.standard_normal(3))
    psi = random_density(n, rng)
    with _eigvalsh_spy() as spy:
        space_vector_single(sys_, direction, g)
        m = simplex_from_observable(spin_along(sys_, direction), g)
        stats = run_measurement(psi, m, 200, seed, g)
    assert spy.call_count == 0
    for record in stats.records_sample:
        vertex = m.degeneracy_groups[record.outcome_index][0]
        assert record.post_state.matrix.tobytes() == m.projectors[vertex].tobytes()


@settings(max_examples=15, deadline=None)
@given(two_s1=st.integers(1, 7), two_s2=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_composite_paths_skip_the_eigenvalue_check(two_s1, two_s2, seed):
    c = build_composite(two_s1 / 2, two_s2 / 2)
    g = build_generators(c.dim)
    direction = Direction3.normalized(np.random.default_rng(seed).standard_normal(3))
    with _eigvalsh_spy() as spy:
        space_vector_composite(c, direction, "coupled", g)
        space_vector_composite(c, direction, "product", g)
    assert spy.call_count == 0


def test_user_facing_constructors_check_the_eigenvalues():
    rng = np.random.default_rng(6)
    m = simplex_from_observable(spin_along(build_spin_system(1.0), X3), build_generators(3))
    psi = random_density(3, rng)
    for make in (lambda: random_density(4, rng),
                 lambda: pure_state_from_direction(0.4, 1.1),
                 lambda: lueders_post_state(psi, m.kets[[0, 1]])):
        with _eigvalsh_spy() as spy:
            make()
        assert spy.call_count >= 1
