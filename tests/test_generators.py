import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx.bloch import _projectors, pure_state_from_direction
from blochx.generators import _generator_traces, build_generators, expand_on_generators, scale_constant
from blochx.spin import X3, Direction3, build_spin_system, spin_along
from conftest import (PAULI_1, PAULI_2, PAULI_3, bertlmann_krammer_stack, random_hermitian,
                      traces_by_cumsum)


class TestBuildGenerators:
    def test_n2_is_exactly_the_pauli_triple(self):
        g = build_generators(2)
        assert len(g) == 3
        assert np.array_equal(g.matrices[0], PAULI_1)
        assert np.array_equal(g.matrices[1], PAULI_2)
        assert np.array_equal(g.matrices[2], PAULI_3)

    def test_n3_diagonal_family(self):
        g = build_generators(3)
        assert len(g) == 8
        # evaluated by hand: l=1 gives diag(1, -1, 0), l=2 gives diag(1, 1, -2)/sqrt(3)
        assert np.allclose(g.matrices[6], np.diag([1.0, -1.0, 0.0]), atol=1e-15)
        assert np.allclose(g.matrices[7], np.diag([1.0, 1.0, -2.0]) / np.sqrt(3), atol=1e-15)

    def test_ordering_blocks(self):
        g = build_generators(3)
        # symmetric pairs first (real entries), then imaginary pairs, then diagonals
        for i in range(3):
            assert np.max(np.abs(g.matrices[i].imag)) == 0
        for i in range(3, 6):
            assert np.max(np.abs(g.matrices[i].real)) == 0
        for i in range(6, 8):
            assert np.max(np.abs(g.matrices[i] - np.diag(np.diag(g.matrices[i])))) == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orthogonality_and_tracelessness(self, n):
        g = build_generators(n)
        assert len(g) == n * n - 1
        traces = np.abs(np.einsum("kii->k", g.matrices))
        assert np.max(traces) < 1e-12
        gram = np.einsum("aij,bji->ab", g.matrices, g.matrices)
        assert np.max(np.abs(gram - 2 * np.eye(n * n - 1))) < 1e-12
        hermiticity = max(np.max(np.abs(m - m.conj().T)) for m in g.matrices)
        assert hermiticity < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_diagonal_member_count(self, n):
        g = build_generators(n)
        diagonal = [m for m in g.matrices if np.max(np.abs(m - np.diag(np.diag(m)))) == 0]
        assert len(diagonal) == n - 1
        for m in diagonal:
            assert abs(np.trace(m @ m).real - 2.0) < 1e-12

    def test_scale_constant(self):
        assert scale_constant(2) == 1.0
        assert abs(scale_constant(3) - np.sqrt(3)) < 1e-15
        g = build_generators(4)
        assert abs(g.c - np.sqrt(6)) < 1e-15

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_generators(1)


class TestExpandOnGenerators:
    def test_identity(self):
        g = build_generators(5)
        coeff, coords = expand_on_generators(np.eye(5), g)
        assert coeff == 1.0
        assert np.max(np.abs(coords)) < 1e-14

    def test_basis_element(self):
        g = build_generators(2)
        coeff, coords = expand_on_generators(PAULI_2, g)
        assert abs(coeff) < 1e-14
        assert np.allclose(coords, [0, 1, 0], atol=1e-14)

    def test_equatorial_pure_state(self):
        g = build_generators(2)
        state = pure_state_from_direction(np.pi / 2, 0.0)
        coeff, coords = expand_on_generators(state.matrix, g)
        assert abs(coeff - 0.5) < 1e-14
        assert np.allclose(coords, [0.5, 0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("n", (2, 3, 4, 6))
    def test_round_trip_random_hermitian(self, n):
        rng = np.random.default_rng(n)
        g = build_generators(n)
        a = random_hermitian(n, rng)
        coeff, coords = expand_on_generators(a, g)
        back = coeff * np.eye(n) + np.tensordot(coords, g.matrices, axes=1)
        assert np.max(np.abs(back - a)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            expand_on_generators(np.eye(3), build_generators(2))


class TestLazyStack:
    def test_length_and_maps_do_not_build_the_stack(self):
        g = build_generators(12)
        assert len(g) == 143
        expand_on_generators(np.eye(12), g)
        assert "matrices" not in g.__dict__

    def test_indexing_builds_the_stack_once(self):
        g = build_generators(3)
        first = g.matrices[0]
        assert "matrices" in g.__dict__
        assert g.matrices is g.matrices
        assert np.array_equal(first, g.matrices[0])
        assert len(list(g.matrices)) == 8


@pytest.mark.parametrize("n", [*range(2, 25), 36])
def test_stack_is_the_bertlmann_krammer_construction(n):
    # bit for bit, zero signs included: the tests that read g.matrices rest on it
    stack, oracle = build_generators(n).matrices, bertlmann_krammer_stack(n)
    assert stack.shape == oracle.shape and stack.dtype == oracle.dtype and stack.flags.c_contiguous
    assert stack.tobytes() == oracle.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_expansion_matches_the_dense_stack(n, seed):
    rng = np.random.default_rng(seed)
    g = build_generators(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coeff, coords = expand_on_generators(a, g)
    assert coeff == complex(np.trace(a)) / n
    assert np.max(np.abs(coords - np.einsum("kij,ji->k", g.matrices, a) / 2.0)) <= 1e-14


SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), k=st.integers(1, 4), zeros=st.floats(0.0, 0.9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_traces_equal_the_running_sum_bit_for_bit(n, k, zeros, seed):
    """The kernel against the running-sum oracle as ``uint64`` views, so that every
    zero's sign counts: eigenprojector stacks along X3 (kets of exact zeros, and so
    zero entries of either sign) and along a random direction, and random, also
    non-Hermitian, (k, N, N) stacks with a share ``zeros`` of signed-zero entries."""
    rng = np.random.default_rng(seed)
    g = build_generators(n)
    spin = build_spin_system((n - 1) / 2)
    a = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    where = rng.random(a.shape) < zeros
    a[where] = np.array(SIGNED_ZEROS)[rng.integers(0, 4, where.sum())]
    stacks = [_projectors(spin_along(spin, X3).kets),
              _projectors(spin_along(spin, Direction3.normalized(rng.standard_normal(3))).kets),
              a, a[:1], (a + a.conj().transpose(0, 2, 1)) / 2.0]
    for stack in stacks:
        got = _generator_traces(stack, g)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), traces_by_cumsum(stack, g).view(np.uint64))
        # each matrix of a stack alone gives the same bits
        assert np.array_equal(_generator_traces(stack[-1:], g).view(np.uint64), got[-1:].view(np.uint64))
