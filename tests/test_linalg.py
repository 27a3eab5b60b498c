import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx.linalg import PHASE_MAGNITUDE_CUTOFF, degeneracy_groups, eigh, fix_phases
from conftest import PAULI_1, PAULI_3, fix_phase, random_hermitian


class TestEigh:
    def test_sigma3(self):
        values, kets = eigh(PAULI_3)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)
        assert np.allclose(kets[0], [0, 1], atol=1e-14)
        assert np.allclose(kets[1], [1, 0], atol=1e-14)

    def test_identity_degenerate(self):
        values, kets = eigh(np.eye(3))
        assert np.allclose(values, [1, 1, 1], atol=1e-14)
        assert np.allclose(kets.conj() @ kets.T, np.eye(3), atol=1e-12)

    def test_sigma1_hand_diagonalized(self):
        # 2x2 by hand: eigenvalues -1, +1 with vectors (1, -1)/sqrt(2), (1, 1)/sqrt(2)
        values, kets = eigh(PAULI_1)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(kets[0], [inv_sqrt2, -inv_sqrt2], atol=1e-14)
        assert np.allclose(kets[1], [inv_sqrt2, inv_sqrt2], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8, 13):
            a = random_hermitian(n, rng)
            values, kets = eigh(a)
            back = kets.T @ np.diag(values) @ kets.conj()
            assert np.linalg.norm(back - a) < 1e-10 * np.linalg.norm(a)
            assert np.all(np.diff(values) >= 0)

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        _, kets = eigh(random_hermitian(6, rng))
        for ket in kets:
            lead = ket[np.abs(ket) > 1e-9][0]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    @pytest.mark.parametrize("n", (1, 2, 7, 64))
    def test_kets_are_c_contiguous_phase_fixed_rows(self, n):
        a = random_hermitian(n, np.random.default_rng(n))
        values, kets = eigh(a)
        w, v = np.linalg.eigh(a)
        assert kets.flags.c_contiguous and kets.shape == (n, n)
        assert values.tobytes() == w.tobytes()
        expected = np.stack([fix_phase(v[:, i]) for i in range(n)])
        assert kets.tobytes() == expected.tobytes()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def _assert_rows_match_the_scalar_fix(rows):
    fixed = fix_phases(rows)
    assert fixed.flags.c_contiguous and fixed.dtype == complex and fixed.shape == rows.shape
    assert fixed.tobytes() == np.stack([fix_phase(row) for row in rows]).tobytes()
    for row, expected in zip(rows, fixed):
        # the one-row case, as PureState calls it
        assert fix_phases(row[None])[0].tobytes() == expected.tobytes()


# finite parts spanning the cutoff, with both signed zeros and subnormals
_parts = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-10, -1e-10, 9.99e-10,
                     PHASE_MAGNITUDE_CUTOFF, 1.0000001e-9, 7.0710678e-10]),
    st.floats(-1e-9, 1e-9, allow_nan=False),
)


class TestFixPhases:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5), n=st.integers(1, 12))
    def test_random_rows_match_the_scalar_fix(self, data, k, n):
        parts = data.draw(st.lists(_parts, min_size=2 * k * n, max_size=2 * k * n))
        rows = np.array(parts).view(complex).reshape(k, n)
        _assert_rows_match_the_scalar_fix(rows)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1), small=st.integers(0, 3))
    def test_eigh_kets_match_the_scalar_fix(self, n, seed, small):
        _, v = np.linalg.eigh(random_hermitian(n, np.random.default_rng(seed)))
        rows = v.T  # strided rows, as eigh hands them over
        _assert_rows_match_the_scalar_fix(rows)
        # leading components below the cutoff, so a later one sets the phase
        scaled = np.array(rows)
        scaled[:, :min(small, n - 1)] *= 1e-10
        _assert_rows_match_the_scalar_fix(scaled)

    def test_rows_without_a_component_above_the_cutoff_are_copied(self):
        rows = np.array([[0.0, -0.0, 1e-10j], [-0.0 - 0.0j, 0.0, 0.0], [1e-9, -1e-9j, 0.0],
                         [0.5j, 0.0, -0.5]])
        fixed = fix_phases(rows)
        assert fixed[:3].tobytes() == rows[:3].tobytes()
        assert fixed[3].tobytes() == np.array([0.5, 0.0, 0.5j]).tobytes()
        assert fixed is not rows
        _assert_rows_match_the_scalar_fix(rows)


class TestHelpers:
    def test_fix_phase_rotates_leading_component(self):
        fixed = fix_phases(np.array([[1e-12, -1j, 1.0]]))[0]
        assert abs(fixed[1].imag) < 1e-15 and fixed[1].real > 0

    def test_degeneracy_groups_sorted(self):
        groups = degeneracy_groups([1.0, 1.0 + 1e-12, 2.0])
        assert groups == [[0, 1], [2]]
        # 2e-9 apart is above the 1e-9 tolerance
        assert degeneracy_groups([1.0, 1.0 + 2e-9]) == [[0], [1]]

    def test_degeneracy_groups_unsorted_input(self):
        groups = degeneracy_groups([0.5, -0.5, 0.5])
        assert groups == [[1], [0, 2]]
