import numpy as np
import pytest

from blochx.composite import _round_trip, build_composite, coupled_basis, product_basis
from blochx.correspondence import random_directions
from blochx.linalg import fix_phases
from blochx.spin import Direction3, X3, spin_along

# every (s1, s2) with N1 N2 <= 64, in half-integer steps from 1/2
SPIN_PAIRS = [((n1 - 1) / 2, (n2 - 1) / 2)
              for n1 in range(2, 33) for n2 in range(2, 33) if n1 * n2 <= 64]


def one_entity_ops(c, n):
    """The four commuting one-entity operators along ``n``:
    S_n x I, S^2 x I, I x S_n, I x S^2."""
    sys1, sys2 = c.system1, c.system2
    i1 = np.eye(sys1.dim, dtype=complex)
    i2 = np.eye(sys2.dim, dtype=complex)
    sq1, sq2 = (s.s1 @ s.s1 + s.s2 @ s.s2 + s.s3 @ s.s3 for s in (sys1, sys2))
    return (np.kron(sys1.component_along(n), i2), np.kron(sq1, i2),
            np.kron(i1, sys2.component_along(n)), np.kron(i1, sq2))


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

    def test_components_equal_np_kron_bit_for_bit(self):
        # uint64 views, so that the signs of zeros count too
        for s1, s2 in SPIN_PAIRS:
            c = build_composite(s1, s2)
            sys1, sys2 = c.system1, c.system2
            i1 = np.eye(sys1.dim, dtype=complex)
            i2 = np.eye(sys2.dim, dtype=complex)
            expected = [np.kron(a, i2) + np.kron(i1, b) for a, b in
                        zip((sys1.s1, sys1.s2, sys1.s3), (sys2.s1, sys2.s2, sys2.s3))]
            for got, want in zip(c.components, expected):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (s1, s2)
            square = sum(e @ e for e in expected)
            assert np.array_equal(c.total_s_squared.view(np.uint64),
                                  square.view(np.uint64)), (s1, s2)


class TestCoupledBasis:
    def test_half_half_labels(self):
        cb = coupled_basis(build_composite(0.5, 0.5), X3)
        assert list(zip(cb.s, cb.eigenvalues)) == [(0.0, 0.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)]
        assert cb.kets.flags.c_contiguous and cb.kets.shape == (4, 4)

    def test_half_half_singlet_along_axis(self):
        cb = coupled_basis(build_composite(0.5, 0.5), X3)
        singlet = cb.kets[0]
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.max(np.abs(singlet - expected)) < 1e-12

    def test_half_half_stretched_state_is_product(self):
        cb = coupled_basis(build_composite(0.5, 0.5), X3)
        top = cb.kets[(cb.s == 1.0) & (cb.eigenvalues == 1.0)][0]
        assert np.allclose(top, [1, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("s1,s2", ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)))
    def test_entries_are_simultaneous_eigenvectors(self, s1, s2):
        c = build_composite(s1, s2)
        n = Direction3.from_angles(1.3, 0.4)
        cb = coupled_basis(c, n)
        assert cb.kets.shape == (c.dim, c.dim) and cb.s.shape == cb.eigenvalues.shape == (c.dim,)
        total = c.total_along(n)
        for vec, s, mu in zip(cb.kets, cb.s, cb.eigenvalues):
            assert np.max(np.abs(total @ vec - mu * vec)) < 1e-9
            assert np.max(np.abs(c.total_s_squared @ vec - s * (s + 1) * vec)) < 1e-9

    @pytest.mark.parametrize("s1,s2", ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0)))
    def test_completeness_unitarity(self, s1, s2):
        c = build_composite(s1, s2)
        u = coupled_basis(c, Direction3.from_angles(0.7, 1.9)).kets.T
        assert np.max(np.abs(u.conj().T @ u - np.eye(c.dim))) < 1e-10


class TestProductBasis:
    def test_half_half_axis_is_canonical(self):
        pb = product_basis(build_composite(0.5, 0.5), X3)
        assert list(zip(pb.mu1, pb.mu2)) == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
        assert pb.kets.flags.c_contiguous and pb.kets.shape == (4, 4)
        u = np.abs(pb.kets.T)
        # canonical basis vectors up to order and phase
        assert np.max(np.abs(np.sort(u, axis=0) - np.sort(np.eye(4), axis=0))) < 1e-12

    def test_entries_are_one_entity_eigenvectors(self):
        c = build_composite(0.5, 1.0)
        n = Direction3.from_angles(2.0, -1.1)
        pb = product_basis(c, n)
        sn1, sq1, sn2, sq2 = one_entity_ops(c, n)
        total = c.total_along(n)
        for vec, mu1, mu2 in zip(pb.kets, pb.mu1, pb.mu2):
            assert np.max(np.abs(sn1 @ vec - mu1 * vec)) < 1e-9
            assert np.max(np.abs(sn2 @ vec - mu2 * vec)) < 1e-9
            assert np.max(np.abs(sq1 @ vec - c.s1 * (c.s1 + 1) * vec)) < 1e-9
            assert np.max(np.abs(sq2 @ vec - c.s2 * (c.s2 + 1) * vec)) < 1e-9
            assert np.max(np.abs(total @ vec - (mu1 + mu2) * vec)) < 1e-9

    def test_mixed_projection_entries_are_not_square_eigenvectors(self):
        c = build_composite(0.5, 0.5)
        n = Direction3.from_angles(0.5, 0.8)
        pb = product_basis(c, n)
        for vec, mu1, mu2 in zip(pb.kets, pb.mu1, pb.mu2):
            image = c.total_s_squared @ vec
            overlap = np.vdot(vec, image)
            residual = np.linalg.norm(image - overlap * vec)
            if mu1 != mu2:
                assert residual > 0.5
            else:
                assert residual < 1e-9

    @pytest.mark.parametrize("s1,s2", ((0.5, 1.5), (1.5, 1.0), (3.5, 0.5), (2.0, 2.5), (7.5, 1.5)))
    def test_kets_equal_np_kron_bit_for_bit(self, s1, s2):
        c = build_composite(s1, s2)
        for n in random_directions(4, seed=int(20 * s1 + 2 * s2)):
            kets1 = _round_trip(spin_along(c.system1, n).kets)
            kets2 = _round_trip(spin_along(c.system2, n).kets)
            expected = fix_phases(np.kron(kets1, kets2))
            got = product_basis(c, n).kets
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_completeness_unitarity(self):
        c = build_composite(1.0, 1.0)
        u = product_basis(c, Direction3.from_angles(1.0, 0.0)).kets.T
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-10

    def test_extremal_states_shared_with_coupled_basis(self):
        c = build_composite(0.5, 0.5)
        n = Direction3.from_angles(1.7, 2.3)
        cb, pb = coupled_basis(c, n), product_basis(c, n)
        coupled = dict(zip(zip(cb.s, cb.eigenvalues), cb.kets))
        product = dict(zip(zip(pb.mu1, pb.mu2), pb.kets))
        for (mu, key) in ((1.0, (0.5, 0.5)), (-1.0, (-0.5, -0.5))):
            overlap = abs(np.vdot(coupled[(1.0, mu)], product[key]))
            assert abs(overlap - 1.0) < 1e-10
