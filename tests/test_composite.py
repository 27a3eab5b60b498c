import numpy as np
import pytest

from blochx.composite import build_composite, coupled_basis, product_basis
from blochx.spin import Direction3, X3


def basis_matrix(states):
    return np.column_stack([s.amplitudes for s in states])


def one_entity_ops(c, n):
    """The four commuting one-entity operators along ``n``:
    S_n x I, S^2 x I, I x S_n, I x S^2."""
    i1 = np.eye(c.system1.dim, dtype=complex)
    i2 = np.eye(c.system2.dim, dtype=complex)
    return (np.kron(c.system1.component_along(n), i2), np.kron(c.system1.s_squared, i2),
            np.kron(i1, c.system2.component_along(n)), np.kron(i1, c.system2.s_squared))


class TestBuildComposite:
    def test_half_half_dimensions_and_trace(self):
        c = build_composite(0.5, 0.5)
        assert c.dim == 4
        for comp in c.components:
            assert abs(np.trace(comp @ comp).real - 2.0) < 1e-12

    def test_half_one_dimension(self):
        c = build_composite(0.5, 1.0)
        assert c.dim == 6
        # N1 N2 (N1^2 + N2^2 - 2) / 12 = 6 * 11 / 12
        for comp in c.components:
            assert abs(np.trace(comp @ comp).real - 5.5) < 1e-9

    def test_half_half_total_square_spectrum(self):
        c = build_composite(0.5, 0.5)
        values = np.linalg.eigvalsh(c.total_s_squared)
        assert np.allclose(values, [0.0, 2.0, 2.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("s1,s2", ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)))
    def test_square_commutes_with_components(self, s1, s2):
        c = build_composite(s1, s2)
        for comp in c.components:
            residual = c.total_s_squared @ comp - comp @ c.total_s_squared
            assert np.max(np.abs(residual)) < 1e-10

    def test_one_entity_ops_commute_with_total(self):
        c = build_composite(0.5, 1.0)
        n = Direction3.from_angles(0.9, -0.6)
        total = c.total_along(n)
        for op in one_entity_ops(c, n):
            assert np.max(np.abs(op @ total - total @ op)) < 1e-10

    def test_rejects_invalid_spins(self):
        with pytest.raises(ValueError, match="invalid spin"):
            build_composite(0.3, 0.5)


class TestCoupledBasis:
    def test_half_half_labels(self):
        cb = coupled_basis(build_composite(0.5, 0.5), X3)
        assert [(e.s, e.mu) for e in cb.entries] == [
            (0.0, 0.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_half_half_singlet_along_axis(self):
        cb = coupled_basis(build_composite(0.5, 0.5), X3)
        singlet = cb.entries[0].state.amplitudes
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.max(np.abs(singlet - expected)) < 1e-12

    def test_half_half_stretched_state_is_product(self):
        cb = coupled_basis(build_composite(0.5, 0.5), X3)
        top = [e for e in cb.entries if (e.s, e.mu) == (1.0, 1.0)][0]
        assert np.allclose(top.state.amplitudes, [1, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("s1,s2", ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)))
    def test_entries_are_simultaneous_eigenvectors(self, s1, s2):
        c = build_composite(s1, s2)
        n = Direction3.from_angles(1.3, 0.4)
        cb = coupled_basis(c, n)
        assert len(cb.entries) == c.dim
        total = c.total_along(n)
        for e in cb.entries:
            vec = e.state.amplitudes
            assert np.max(np.abs(total @ vec - e.mu * vec)) < 1e-9
            assert np.max(np.abs(c.total_s_squared @ vec - e.s * (e.s + 1) * vec)) < 1e-9

    @pytest.mark.parametrize("s1,s2", ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)))
    def test_completeness_unitarity(self, s1, s2):
        c = build_composite(s1, s2)
        u = basis_matrix([e.state for e in coupled_basis(c, Direction3.from_angles(0.7, 1.9)).entries])
        assert np.max(np.abs(u.conj().T @ u - np.eye(c.dim))) < 1e-10


class TestProductBasis:
    def test_half_half_axis_is_canonical(self):
        pb = product_basis(build_composite(0.5, 0.5), X3)
        assert [(e.mu1, e.mu2) for e in pb.entries] == [
            (-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
        u = np.abs(basis_matrix([e.state for e in pb.entries]))
        # canonical basis vectors up to order and phase
        assert np.max(np.abs(np.sort(u, axis=0) - np.sort(np.eye(4), axis=0))) < 1e-12

    def test_entries_are_one_entity_eigenvectors(self):
        c = build_composite(0.5, 1.0)
        n = Direction3.from_angles(2.0, -1.1)
        pb = product_basis(c, n)
        sn1, sq1, sn2, sq2 = one_entity_ops(c, n)
        total = c.total_along(n)
        for e in pb.entries:
            vec = e.state.amplitudes
            assert np.max(np.abs(sn1 @ vec - e.mu1 * vec)) < 1e-9
            assert np.max(np.abs(sn2 @ vec - e.mu2 * vec)) < 1e-9
            assert np.max(np.abs(sq1 @ vec - c.s1 * (c.s1 + 1) * vec)) < 1e-9
            assert np.max(np.abs(sq2 @ vec - c.s2 * (c.s2 + 1) * vec)) < 1e-9
            assert np.max(np.abs(total @ vec - (e.mu1 + e.mu2) * vec)) < 1e-9

    def test_mixed_projection_entries_are_not_square_eigenvectors(self):
        c = build_composite(0.5, 0.5)
        n = Direction3.from_angles(0.5, 0.8)
        pb = product_basis(c, n)
        for e in pb.entries:
            vec = e.state.amplitudes
            image = c.total_s_squared @ vec
            overlap = np.vdot(vec, image)
            residual = np.linalg.norm(image - overlap * vec)
            if e.mu1 != e.mu2:
                assert residual > 0.5
            else:
                assert residual < 1e-9

    def test_completeness_unitarity(self):
        c = build_composite(1.0, 1.0)
        u = basis_matrix([e.state for e in product_basis(c, Direction3.from_angles(1.0, 0.0)).entries])
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-10

    def test_extremal_states_shared_with_coupled_basis(self):
        c = build_composite(0.5, 0.5)
        n = Direction3.from_angles(1.7, 2.3)
        coupled = {(e.s, e.mu): e.state.amplitudes for e in coupled_basis(c, n).entries}
        product = {(e.mu1, e.mu2): e.state.amplitudes for e in product_basis(c, n).entries}
        for (mu, key) in ((1.0, (0.5, 0.5)), (-1.0, (-0.5, -0.5))):
            overlap = abs(np.vdot(coupled[(1.0, mu)], product[key]))
            assert abs(overlap - 1.0) < 1e-10
