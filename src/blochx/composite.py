"""Two-spin composites on tensor-product spaces.

Builds the total spin components S_i = S_i x I + I x S_i, the squared
total spin, and the two natural eigenbases along a direction: the coupled
basis of simultaneous (S^2, S_n) eigenvectors labeled (s, mu_s), and the
product basis of one-entity eigenstate pairs labeled (mu1, mu2).  The two
bases agree only on the extremal states; the product states with unequal
projections are no eigenvectors of S^2, and the coupled zero-projection
states are entangled.  Each basis is its kets, the rows of one C-contiguous
array, next to arrays of their labels and eigenvalues; no N x N projector is formed.

No direction changes S^2, so a composite keeps its S^2 eigenspaces once it
has split them (on the first coupled basis, not when it is built): each
eigenspace's spin s and its eigenvectors as the columns of an F-ordered
block, next to the block's adjoint.  A coupled basis along a direction then
only diagonalizes the total component within each block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import degeneracy_groups, eigh, fix_phases
from .spin import Direction3, SpinSystem, build_spin_system, spin_along

EIGENVALUE_SNAP_ATOL = 1e-9


@dataclass(frozen=True)
class CompositeSpinSystem:
    """Total spin structure of two spin entities on C^(N1 N2)."""

    s1: float
    s2: float
    system1: SpinSystem
    system2: SpinSystem
    dim: int
    components: tuple[np.ndarray, np.ndarray, np.ndarray]
    total_s_squared: np.ndarray

    @cached_property
    def _eigenspaces(self) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
        """``(s, block, block_h)`` for each S^2 eigenspace, by s ascending:
        its spin, its eigenvectors as the columns of an F-ordered block, and
        the block's adjoint, C-ordered."""
        values, kets = eigh(self.total_s_squared)
        spaces = []
        for group in degeneracy_groups(values):
            block = kets[group].T
            spaces.append((_spin_from_casimir(float(values[group[0]])), block, block.conj().T))
        return tuple(spaces)

    def total_along(self, n: Direction3) -> np.ndarray:
        n1, n2, n3 = n.components
        c = self.components
        return n1 * c[0] + n2 * c[1] + n3 * c[2]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two 2-D arrays without its wrapper: for two arrays of
    kets, row i * N2 + j is np.kron(kets1[i], kets2[j]).  a's entry comes first, as
    in np.kron, since numpy's complex product is not symmetric bit for bit."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def build_composite(s1: float, s2: float) -> CompositeSpinSystem:
    """Assemble the total spin components of two spin entities."""
    sys1 = build_spin_system(s1)
    sys2 = build_spin_system(s2)
    i1 = np.eye(sys1.dim, dtype=complex)
    i2 = np.eye(sys2.dim, dtype=complex)
    components = tuple(
        _kron(a, i2) + _kron(i1, b)
        for a, b in zip((sys1.s1, sys1.s2, sys1.s3), (sys2.s1, sys2.s2, sys2.s3))
    )
    total_sq = sum(c @ c for c in components)
    return CompositeSpinSystem(s1=sys1.s, s2=sys2.s, system1=sys1, system2=sys2,
                               dim=sys1.dim * sys2.dim, components=components,
                               total_s_squared=total_sq)


@dataclass(frozen=True)
class CoupledBasis:
    """Simultaneous eigenbasis of total S^2 and the total component along a
    direction: the kets as the rows of one C-contiguous array, with their
    labels ``s`` and ``eigenvalues`` (mu_s), sorted by (s, mu_s)."""

    kets: np.ndarray
    s: np.ndarray
    eigenvalues: np.ndarray

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """``(kets, eigenvalues)``, read only by the benchmark harness; blochx
        reads the two attributes."""
        return self.kets, self.eigenvalues


@dataclass(frozen=True)
class ProductBasis:
    """Tensor products of one-entity eigenstates along a direction: the kets
    as the rows of one C-contiguous array, with their labels ``mu1`` and
    ``mu2`` and their ``eigenvalues`` mu1 + mu2, sorted by (mu1, mu2)."""

    kets: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    eigenvalues: np.ndarray


def _snap_half_integers(x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Each of ``x`` on its nearest half-integer, which must lie within 1e-9 of
    it and, in magnitude, at most its ``bound``; the first that does not raises.
    Halves round to even, as Python's round does, and + 0.0 turns -0.0 into 0.0."""
    snapped = np.round(2.0 * x) / 2.0 + 0.0
    bad = (np.abs(x - snapped) > EIGENVALUE_SNAP_ATOL) | (np.abs(snapped) > bound + 1e-9)
    if bad.any():
        raise ValueError(f"eigenvalue {float(x[bad.argmax()])} is not on the expected half-integer grid")
    return snapped


def _spin_from_casimir(value: float) -> float:
    s = (np.sqrt(1.0 + 4.0 * value) - 1.0) / 2.0
    snapped = round(2.0 * s) / 2.0
    if abs(s - snapped) > 1e-6:
        raise ValueError(f"squared-spin eigenvalue {value} is not s(s+1) for half-integer s")
    return snapped


def coupled_basis(c: CompositeSpinSystem, n: Direction3) -> CoupledBasis:
    """Diagonalize the total component along ``n`` within each of the
    composite's S^2 eigenspaces.

    Works for any pair of spins without coefficient tables; the restricted
    block is re-Hermitized before diagonalizing to shed rounding noise.
    """
    total = c.total_along(n)
    rows, s_labels, mu = [], [], []
    for s_label, block, block_h in c._eigenspaces:
        # BLAS rounds by operand layout, and compose reports carry the last bits:
        # keep the block F-ordered and multiply it one strided column at a time
        sub = block_h @ total @ block
        sub = (sub + sub.conj().T) / 2.0
        sub_values, sub_kets = eigh(sub)
        columns = np.ascontiguousarray(sub_kets.T)
        rows += [block @ columns[:, j] for j in range(len(sub_values))]
        s_labels.append(np.full(len(sub_values), s_label))
        mu.append(sub_values)
    s_labels = np.concatenate(s_labels)
    mu = _snap_half_integers(np.concatenate(mu), s_labels)
    order = np.lexsort((mu, s_labels))
    # the phase fix is not idempotent bit for bit, and reports carry both passes
    return CoupledBasis(kets=fix_phases(fix_phases(np.array(rows)[order])),
                        s=s_labels[order], eigenvalues=mu[order])


def _round_trip(kets: np.ndarray) -> np.ndarray:
    """``projector_to_ket`` of the projector of each row v of ``kets``, without
    forming it: v conj(v_k) / sqrt(v_k conj(v_k)), k the first index with
    population above 1e-12, in the same operations and order."""
    populations = (kets * kets.conj()).real
    lead = (np.arange(len(kets)), np.argmax(populations > 1e-12, axis=1))
    return fix_phases(kets * kets[lead].conj()[:, None] / np.sqrt(populations[lead])[:, None])


def product_basis(c: CompositeSpinSystem, n: Direction3) -> ProductBasis:
    """Pair up the one-entity eigenstates along ``n``."""
    obs1 = spin_along(c.system1, n)
    obs2 = spin_along(c.system2, n)
    # the round trip through each projector sets last bits that compose reports carry
    kets1, kets2 = _round_trip(obs1.kets), _round_trip(obs2.kets)
    products = _kron(kets1, kets2)
    mu1 = np.repeat(obs1.eigenvalues, len(obs2.eigenvalues))
    mu2 = np.tile(obs2.eigenvalues, len(obs1.eigenvalues))
    return ProductBasis(kets=fix_phases(products), mu1=mu1, mu2=mu2, eigenvalues=mu1 + mu2)
