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

# bytes of N x N complex matrices per block of a stacked coordinate pass: a whole N=64
# basis at once ran slower than one state at a time, and 32 KiB (one N=36 matrix) lost the gain
_BLOCK_BYTES = 128 * 1024


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
        n, i = self.dim, np.arange(self.dim)
        j, k = (i[:, None] < i).nonzero()  # np.triu_indices(n, 1), in a fifth of its time
        l = i[1:]
        norm = np.sqrt(2.0 / (l * (l + 1)))
        return j * n + k, k * n + j, norm, l * norm, i[:, None] < l

    @cached_property
    def _reads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The entries the coordinate maps read, a_jk (j < k), a_kj, then a_jj, as rows,
        columns and flat positions; the diagonal entry of each term a_jj sqrt(2/(l(l+1)))
        (j < N, 0 < l < N), then l a_ll sqrt(2/(l(l+1))), and the terms' complex factors
        in rows for half a block of operators, two at least (up to 128 KiB)."""
        (upper, lower, norm, l_norm, _), n, diagonal = self._layout, self.dim, np.arange(self.dim)
        flat = np.concatenate([upper, lower, diagonal * (n + 1)])
        factors = np.concatenate([np.tile(norm, n), l_norm]).astype(complex)
        return (*np.divmod(flat, n), flat, np.concatenate([np.repeat(diagonal, n - 1), diagonal[1:]]),
                np.tile(factors, (max(2, _BLOCK_BYTES // (32 * n * n)), 1)))

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
    """Tr(a L_i) for every generator, in the generator order, of a matrix or of
    each matrix of a (k, N, N) stack (as its rows)."""
    entries = np.take(a.reshape(-1, g.dim * g.dim).T, g._reads[2], axis=0)
    return np.ascontiguousarray(_entry_traces(entries, g).T).reshape(a.shape[:-2] + (-1,))


def _entry_traces(e: np.ndarray, g: GeneratorSet) -> np.ndarray:
    """Tr(a L_i) of k operators a, one per column of their (N^2, k) entries ``e`` in
    the order of ``_reads``, computed over ``e``, whose first N^2 - 1 rows it returns:
    a_jk + a_kj and -i(a_kj - a_jk) for the pairs j < k, and sqrt(2/(l(l+1))) (a_00 + ...
    + a_(l-1)(l-1) - l a_ll) for the diagonal members; complex, each column's bits its own."""
    (upper, _, _, _, below), (_, _, _, heads, factors) = g._layout, g._reads
    n, pairs = g.dim, len(upper)
    # every operand is one contiguous run: numpy buffers up to 128 KiB for each
    # operand of a broadcast, a cast or a view it cannot walk in one stride
    a_jk, a_kj = e[:pairs], e[pairs:2 * pairs]
    anti = np.subtract(a_kj, a_jk)
    np.add(a_jk, a_kj, out=a_jk)
    np.multiply(-1j, anti, out=a_kj)
    del anti
    out, d = e[:len(g)], e[2 * pairs:].T
    for start in range(0, len(d), len(factors)):
        # each diagonal entry is scaled before it is summed, left to right, as
        # np.einsum over the dense stack sums it, so the traces equal it by value (a
        # zero may carry the other sign).  Member l sums the terms j < l (``below``)
        # over the middle axis of the (k, N, N-1) terms: numpy adds along an outer
        # axis one j after the other (along the inner axis it would sum pairwise).
        # The sum starts from -0, as -0 + x = x keeps each zero's sign
        terms = np.take(d[start:start + len(factors)], heads, axis=1)
        np.multiply(factors[:len(terms)], terms, out=terms)
        head = np.add.reduce(terms[:, :n * (n - 1)].reshape(-1, n, n - 1), axis=1,
                             out=out[2 * pairs:, start:start + len(terms)].T,
                             where=below, initial=-0j)
        np.subtract(head, terms[:, n * (n - 1):], out=head)
        del terms  # before the next chunk's terms exist
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
