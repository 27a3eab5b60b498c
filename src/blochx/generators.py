"""Orthogonal traceless Hermitian generator bases for N-level systems.

For dimension N the set holds the N^2 - 1 generalized Gell-Mann matrices
on the canonical basis {|1>, ..., |N>} (Bertlmann and Krammer, J. Phys. A
41, 235303, 2008): the symmetric off-diagonal pairs, the antisymmetric
(imaginary) pairs, and N - 1 diagonal members, normalized so that
Tr(L_i L_j) = 2 delta_ij.  For N = 2 this is exactly the Pauli triple; for
N = 3 it is the Gell-Mann family.

The ordering is fixed: all symmetric pairs (j, k) with j < k in
lexicographic order, then the antisymmetric pairs in the same order, then
the diagonal members, so coordinate vectors are reproducible across runs.

The traces Tr(a L_i) and the combinations sum_i x_i L_i are read off and
written into matrix entries directly, in O(N^2), from one index layout; the
dense (N^2-1, N, N) stack is scattered from the same layout on first access.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_square_matrix


def scale_constant(n: int) -> float:
    """sqrt(N(N-1)/2), the radial scale of the generator expansion of a
    unit-trace operator."""
    return float(np.sqrt(n * (n - 1) / 2.0))


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered generator basis of an N-level system on the canonical basis.

    ``c`` is sqrt(N(N-1)/2).  ``matrices``, the (N^2-1, N, N) stack whose
    rows are the members (the set is not a sequence), is scattered from
    ``_layout`` on first access and kept.  The coordinate maps read the
    entries of an operator and never need it, so only its readers pay for it.
    """

    dim: int
    c: float

    @cached_property
    def matrices(self) -> np.ndarray:
        n = self.dim
        upper, lower, norm, l_norm, below = self._layout
        pairs = len(upper)
        m = np.zeros((len(self), n * n), dtype=complex)
        # the antisymmetric members are -i times a real matrix: their zeros are complex(0, -0)
        m[pairs:2 * pairs] = complex(0.0, -0.0)
        sym = np.arange(pairs)
        m[sym, upper] = m[sym, lower] = 1.0
        m[pairs + sym, upper], m[pairs + sym, lower] = complex(0.0, -1.0), 1j
        # diagonal member l: sqrt(2/(l(l+1))) on the entries j < l, -l times that on entry l
        diagonal = m[2 * pairs:, ::n + 1]
        np.copyto(diagonal, norm[:, None], where=below.T)
        np.fill_diagonal(diagonal[:, 1:], -l_norm)
        return m.reshape(-1, n, n)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Where the coordinate maps read and write: the flat positions of
        the entries (j, k) and (k, j) of each pair j < k, for the diagonal
        members l = 1..N-1 the normalizations sqrt(2/(l(l+1))) and the same
        times l, and the (N, N-1) mask of the diagonal entries j < l that
        member l sums."""
        n = self.dim
        j, k = np.triu_indices(n, 1)
        l = np.arange(1, n)
        norm = np.sqrt(2.0 / (l * (l + 1)))
        return j * n + k, k * n + j, norm, l * norm, np.arange(n)[:, None] < l

    def __len__(self) -> int:
        return self.dim * self.dim - 1


def build_generators(n: int) -> GeneratorSet:
    """Construct the ordered generator basis for dimension ``n``.

    Raises ValueError for n < 2.
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    return GeneratorSet(dim=n, c=scale_constant(n))


def _generator_traces(a: np.ndarray, g: GeneratorSet) -> np.ndarray:
    """Tr(a L_i) for every generator, in the generator order, read off the
    entries of ``a``: a_jk + a_kj and -i(a_kj - a_jk) for the pairs j < k,
    and sqrt(2/(l(l+1))) (a_00 + ... + a_(l-1)(l-1) - l a_ll) for the
    diagonal members.  Complex, so a non-Hermitian ``a`` keeps its
    imaginary parts.  A (k, N, N) stack gives the bits of each matrix alone."""
    upper, lower, norm, l_norm, below = g._layout
    d = a.diagonal(axis1=-2, axis2=-1)
    # each diagonal entry is scaled before it is summed, left to right, as
    # np.einsum over the dense stack sums it, so the traces equal that
    # contraction by value (a zero may carry the other sign).  The products come
    # first: numpy's broadcast multiply holds two buffers of up to 128 KiB while
    # it runs, and nothing else is alive yet
    terms = norm * d[..., :, None]
    flat = a.reshape(a.shape[:-2] + (-1,))
    # np.take, as indexing the last axis of a stack with an array ran up to 4x slower
    a_jk, a_kj = np.take(flat, upper, axis=-1), np.take(flat, lower, axis=-1)
    pairs = len(upper)
    out = np.empty(a.shape[:-2] + (len(g),), dtype=complex)
    np.add(a_jk, a_kj, out=out[..., :pairs])
    anti = np.subtract(a_kj, a_jk, out=out[..., pairs:2 * pairs])
    np.multiply(-1j, anti, out=anti)
    # member l sums the products of the entries j < l (the mask ``below``) over the
    # middle axis of the (k, N, N-1) terms: numpy adds along an outer axis one j
    # after the other, in einsum's left-to-right order (along the inner axis it
    # would sum pairwise, in another order).  The sum starts from -0, as -0 + x = x
    # for every x keeps each zero's sign where numpy's default start, +0, turns a
    # -0 into +0
    head = np.add.reduce(terms, axis=-2, out=out[..., 2 * pairs:], where=below, initial=-0j)
    np.subtract(head, l_norm * d[..., 1:], out=head)
    return out


def _generator_sum(coeffs: np.ndarray, g: GeneratorSet) -> np.ndarray:
    """sum_i coeffs_i L_i, scattered straight into the matrix entries; the
    inverse of :func:`_generator_traces` up to the factor Tr(L_i L_j) = 2."""
    n = g.dim
    upper, lower, norm, l_norm, _ = g._layout
    pairs = len(upper)
    sym, anti, diag = coeffs[:pairs], coeffs[pairs:2 * pairs], coeffs[2 * pairs:]
    m = np.zeros(n * n, dtype=complex)
    m[upper] = sym - 1j * anti
    m[lower] = sym + 1j * anti
    # member l adds its weight to the entries 0..l-1 and -l times it to entry l
    diagonal = np.zeros(n)
    diagonal[:-1] = np.cumsum((norm * diag)[::-1])[::-1]
    diagonal[1:] -= l_norm * diag
    m[::n + 1] = diagonal
    return m.reshape(n, n)


def expand_on_generators(a, g: GeneratorSet) -> tuple[complex, np.ndarray]:
    """Expand a matrix on the identity plus the generator basis.

    Returns ``(identity_coeff, coeffs)`` with identity_coeff = Tr(a)/N and
    coeffs_i = Tr(a L_i)/2, so that a = identity_coeff * I + sum coeffs_i L_i.
    """
    a = as_square_matrix(a)
    if a.shape[0] != g.dim:
        raise ValueError(f"dimension mismatch: matrix is {a.shape[0]}, generators are {g.dim}")
    identity_coeff = complex(np.trace(a)) / g.dim
    return identity_coeff, _generator_traces(a, g) / 2.0
