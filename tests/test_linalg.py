import numpy as np
import pytest

from blochx.linalg import degeneracy_groups, eigh, fix_phase
from conftest import PAULI_1, PAULI_3, random_hermitian


class TestEigh:
    def test_sigma3(self):
        es = eigh(PAULI_3)
        assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)
        assert np.allclose(es.column(0), [0, 1], atol=1e-14)
        assert np.allclose(es.column(1), [1, 0], atol=1e-14)

    def test_identity_degenerate(self):
        es = eigh(np.eye(3))
        assert np.allclose(es.eigenvalues, [1, 1, 1], atol=1e-14)
        assert np.allclose(es.eigenvectors.conj().T @ es.eigenvectors, np.eye(3), atol=1e-12)

    def test_sigma1_hand_diagonalized(self):
        # 2x2 by hand: eigenvalues -1, +1 with vectors (1, -1)/sqrt(2), (1, 1)/sqrt(2)
        es = eigh(PAULI_1)
        assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(es.column(0), [inv_sqrt2, -inv_sqrt2], atol=1e-14)
        assert np.allclose(es.column(1), [inv_sqrt2, inv_sqrt2], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8, 13):
            a = random_hermitian(n, rng)
            es = eigh(a)
            back = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.conj().T
            assert np.linalg.norm(back - a) < 1e-10 * np.linalg.norm(a)
            assert np.all(np.diff(es.eigenvalues) >= 0)

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        es = eigh(random_hermitian(6, rng))
        for i in range(6):
            col = es.column(i)
            lead = col[np.abs(col) > 1e-9][0]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHelpers:
    def test_fix_phase_rotates_leading_component(self):
        v = np.array([1e-12, -1j, 1.0])
        fixed = fix_phase(v)
        assert abs(fixed[1].imag) < 1e-15 and fixed[1].real > 0

    def test_degeneracy_groups_sorted(self):
        groups = degeneracy_groups([1.0, 1.0 + 1e-12, 2.0])
        assert groups == [[0, 1], [2]]
        # 2e-9 apart is above the 1e-9 tolerance
        assert degeneracy_groups([1.0, 1.0 + 2e-9]) == [[0], [1]]

    def test_degeneracy_groups_unsorted_input(self):
        groups = degeneracy_groups([0.5, -0.5, 0.5])
        assert groups == [[1], [0, 2]]
