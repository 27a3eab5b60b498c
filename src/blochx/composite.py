"""Two-spin composites on tensor-product spaces.

Builds the total spin components S_i = S_i x I + I x S_i, the squared
total spin, and the two natural eigenbases along a direction: the coupled
basis of simultaneous (S^2, S_n) eigenvectors labeled (s, mu_s), and the
product basis of one-entity eigenstate pairs labeled (mu1, mu2).  The two
bases agree only on the extremal states; the product states with unequal
projections are no eigenvectors of S^2, and the coupled zero-projection
states are entangled.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import DensityState, PureState, projector_to_ket
from .linalg import HermitianEigenSystem, degeneracy_groups, eigh, fix_phase
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
    def _casimir(self) -> HermitianEigenSystem:
        """eigh of the squared total spin, which no direction changes."""
        return eigh(self.total_s_squared)

    def total_along(self, n: Direction3) -> np.ndarray:
        n1, n2, n3 = n.components
        c = self.components
        return n1 * c[0] + n2 * c[1] + n3 * c[2]


def build_composite(s1: float, s2: float) -> CompositeSpinSystem:
    """Assemble the total spin components of two spin entities."""
    sys1 = build_spin_system(s1)
    sys2 = build_spin_system(s2)
    i1 = np.eye(sys1.dim, dtype=complex)
    i2 = np.eye(sys2.dim, dtype=complex)
    components = tuple(
        np.kron(a, i2) + np.kron(i1, b)
        for a, b in zip((sys1.s1, sys1.s2, sys1.s3), (sys2.s1, sys2.s2, sys2.s3))
    )
    total_sq = sum(c @ c for c in components)
    return CompositeSpinSystem(s1=sys1.s, s2=sys2.s, system1=sys1, system2=sys2,
                               dim=sys1.dim * sys2.dim, components=components,
                               total_s_squared=total_sq)


@dataclass(frozen=True)
class CoupledEntry:
    s: float
    mu: float
    state: PureState


@dataclass(frozen=True)
class CoupledBasis:
    """Simultaneous eigenbasis of total S^2 and the total component along a
    direction, entries sorted by (s, mu)."""

    entries: tuple[CoupledEntry, ...]

    def eigensystem(self) -> tuple[list, np.ndarray]:
        """Eigenstate projectors and total-component eigenvalues, ready to
        feed a measurement simplex."""
        return (DensityState._rank1_rows(np.stack([e.state.amplitudes for e in self.entries])),
                np.array([e.mu for e in self.entries]))


@dataclass(frozen=True)
class ProductEntry:
    mu1: float
    mu2: float
    state: PureState


@dataclass(frozen=True)
class ProductBasis:
    """Tensor products of one-entity eigenstates along a direction, entries
    sorted by (mu1, mu2)."""

    entries: tuple[ProductEntry, ...]

    def eigensystem(self) -> tuple[list, np.ndarray]:
        return (DensityState._rank1_rows(np.stack([e.state.amplitudes for e in self.entries])),
                np.array([e.mu1 + e.mu2 for e in self.entries]))


def _snap_half_integer(x: float, bound: float) -> float:
    snapped = round(2.0 * x) / 2.0
    if abs(x - snapped) > EIGENVALUE_SNAP_ATOL or abs(snapped) > bound + 1e-9:
        raise ValueError(f"eigenvalue {x} is not on the expected half-integer grid")
    return snapped


def _spin_from_casimir(value: float) -> float:
    s = (np.sqrt(1.0 + 4.0 * value) - 1.0) / 2.0
    snapped = round(2.0 * s) / 2.0
    if abs(s - snapped) > 1e-6:
        raise ValueError(f"squared-spin eigenvalue {value} is not s(s+1) for half-integer s")
    return snapped


def coupled_basis(c: CompositeSpinSystem, n: Direction3) -> CoupledBasis:
    """Diagonalize total S^2, then the total component along ``n`` within
    each S^2 eigenspace.

    Works for any pair of spins without coefficient tables; the restricted
    block is re-Hermitized before diagonalizing to shed rounding noise.
    """
    total = c.total_along(n)
    casimir = c._casimir
    entries = []
    for group in degeneracy_groups(casimir.eigenvalues):
        s_label = _spin_from_casimir(float(casimir.eigenvalues[group[0]]))
        block_vectors = casimir.eigenvectors[:, group]
        sub = block_vectors.conj().T @ total @ block_vectors
        sub = (sub + sub.conj().T) / 2.0
        sub_es = eigh(sub)
        for j in range(len(group)):
            mu = _snap_half_integer(float(sub_es.eigenvalues[j]), s_label)
            state = PureState(fix_phase(block_vectors @ sub_es.column(j)))
            entries.append(CoupledEntry(s=s_label, mu=mu, state=state))
    entries.sort(key=lambda e: (e.s, e.mu))
    return CoupledBasis(entries=tuple(entries))


def product_basis(c: CompositeSpinSystem, n: Direction3) -> ProductBasis:
    """Pair up the one-entity eigenstates along ``n``."""
    obs1 = spin_along(c.system1, n)
    obs2 = spin_along(c.system2, n)
    kets1 = np.stack([projector_to_ket(p).amplitudes for p in obs1.eigenstates])
    kets2 = np.stack([projector_to_ket(p).amplitudes for p in obs2.eigenstates])
    # row i * N2 + j is np.kron(kets1[i], kets2[j]), the same products
    products = (kets1[:, None, :, None] * kets2[None, :, None, :]).reshape(c.dim, c.dim)
    mu1, mu2 = np.meshgrid(obs1.eigenvalues, obs2.eigenvalues, indexing="ij")
    return ProductBasis(entries=tuple(
        ProductEntry(mu1=float(a), mu2=float(b), state=PureState(amplitudes))
        for a, b, amplitudes in zip(mu1.ravel(), mu2.ravel(), products)))
