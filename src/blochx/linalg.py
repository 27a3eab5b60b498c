"""Dense complex linear algebra for small Hilbert spaces.

Contract-checked wrappers around numpy: Hermitian eigendecompositions
with a deterministic per-column phase convention so eigenvectors are
reproducible, and the grouping of degenerate eigenvalues.  Nothing
here bounds N; the limit N <= 64 applies only to the dense generator
stack (N^4 * 16 bytes) and to the dimensions the CLI accepts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
PHASE_MAGNITUDE_CUTOFF = 1e-9
DEGENERACY_ATOL = 1e-9


class ValidationError(ValueError):
    """A numerical check failed on well-formed input: a spectrum off its
    grid, eigenstates that are not orthonormal, a simplex of the wrong
    shape, or an imaginary residue in real coordinates."""


def as_square_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(a) -> bool:
    """Whether every entry of a - a† is at most 1e-12 in magnitude."""
    a = as_square_matrix(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= HERMITICITY_ATOL)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rescale a vector by a unit phase so that its first component of
    magnitude above 1e-9 becomes real and positive."""
    v = np.asarray(v, dtype=complex)
    for x in v:
        if abs(x) > PHASE_MAGNITUDE_CUTOFF:
            return v * (x.conjugate() / abs(x))
    return v.copy()


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Spectral decomposition A = V diag(w) V† with w ascending.

    Columns of ``eigenvectors`` are unit norm, mutually orthogonal, and
    phase-fixed (first component of magnitude > 1e-9 real positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def column(self, i: int) -> np.ndarray:
        return self.eigenvectors[:, i]


def eigh(a) -> HermitianEigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises ValueError if the input deviates from Hermiticity by more than
    1e-12 in any entry.  Degenerate eigenspaces come back with orthonormal
    columns; the internal basis within such a space is whatever the solver
    picked, phase convention applied per column.
    """
    a = as_square_matrix(a)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(a)
    v = np.column_stack([fix_phase(v[:, i]) for i in range(v.shape[1])])
    return HermitianEigenSystem(eigenvalues=w, eigenvectors=v)


def degeneracy_groups(values) -> list[list[int]]:
    """Partition indices of ``values`` into groups equal within 1e-9.

    Groups are ordered by value ascending; indices inside a group keep
    their original relative order.  Values are compared against the first
    member of the current group, so near-ties cannot chain into drift.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    groups: list[list[int]] = []
    for idx in order:
        if groups and values[idx] - values[groups[-1][0]] <= DEGENERACY_ATOL:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups
