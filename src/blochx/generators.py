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
written into matrix entries directly, in O(N^2); the dense (N^2-1, N, N)
stack is built only when it is asked for.
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

    ``c`` is sqrt(N(N-1)/2).  ``matrices``, the (N^2-1, N, N) stack, is
    built on first access and then kept: the coordinate maps work from the
    entries of an operator and never need it, so only iterating, indexing
    or reading ``matrices`` pays for it.
    """

    dim: int
    c: float

    @cached_property
    def matrices(self) -> np.ndarray:
        return _stack(np.eye(self.dim, dtype=complex))

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Where the coordinate maps read and write: the flat positions of
        the entries (j, k) and (k, j) of each pair j < k, and for the
        diagonal members l = 1..N-1 the normalizations sqrt(2/(l(l+1)))
        and the same times l."""
        n = self.dim
        j, k = np.triu_indices(n, 1)
        l = np.arange(1, n)
        norm = np.sqrt(2.0 / (l * (l + 1)))
        return j * n + k, k * n + j, norm, l * norm

    def __len__(self) -> int:
        return self.dim * self.dim - 1

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]


def _stack(b: np.ndarray) -> np.ndarray:
    """The dense generator stack on the columns of the unitary ``b``."""
    n = b.shape[0]
    cols = [b[:, i] for i in range(n)]
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            mats.append(np.outer(cols[j], cols[k].conj()) + np.outer(cols[k], cols[j].conj()))
    for j in range(n):
        for k in range(j + 1, n):
            mats.append(-1j * (np.outer(cols[j], cols[k].conj()) - np.outer(cols[k], cols[j].conj())))
    for l in range(1, n):
        diag_sum = sum(np.outer(cols[j], cols[j].conj()) for j in range(l))
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * (diag_sum - l * np.outer(cols[l], cols[l].conj())))
    return np.stack(mats)


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
    upper, lower, norm, l_norm = g._layout
    flat = a.reshape(a.shape[:-2] + (-1,))
    # np.take, as indexing the last axis of a stack with an array ran up to 4x slower
    a_jk, a_kj = np.take(flat, upper, axis=-1), np.take(flat, lower, axis=-1)
    d = a.diagonal(axis1=-2, axis2=-1)
    # each diagonal entry is scaled before it is summed, left to right, as
    # np.einsum over the dense stack sums it, so the traces equal that
    # contraction bit for bit
    head = np.cumsum(norm[:, None] * d[..., None, :], axis=-1).diagonal(axis1=-2, axis2=-1)
    return np.concatenate([a_jk + a_kj, -1j * (a_kj - a_jk), head - l_norm * d[..., 1:]], -1)


def _generator_sum(coeffs: np.ndarray, g: GeneratorSet) -> np.ndarray:
    """sum_i coeffs_i L_i, scattered straight into the matrix entries; the
    inverse of :func:`_generator_traces` up to the factor Tr(L_i L_j) = 2."""
    n = g.dim
    upper, lower, norm, l_norm = g._layout
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
