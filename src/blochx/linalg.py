"""Dense complex linear algebra for small Hilbert spaces.

Contract-checked wrappers around numpy: Hermitian eigendecompositions
that return their eigenvectors as kets, the rows of one array, with a
deterministic phase convention applied to all rows in one pass so that
they are reproducible, and the grouping of degenerate eigenvalues.  Nothing
here bounds N; the limit N <= 64 applies only to the dense generator
stack (N^4 * 16 bytes) and to the dimensions the CLI accepts.
"""
from __future__ import annotations

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


def fix_phases(rows) -> np.ndarray:
    """Rescale each row of ``rows`` by a unit phase so that its first component
    of magnitude above 1e-9 becomes real and positive; a row with no such
    component is copied unchanged.  Returns a new C-contiguous array."""
    rows = np.asarray(rows, dtype=complex)
    # the phases reach reports: np.hypot rounds as Python's abs() of one complex
    # entry does, while np.abs differs in about 35% of inputs
    magnitudes = np.hypot(rows.real, rows.imag)
    big = magnitudes > PHASE_MAGNITUDE_CUTOFF
    fixed = np.flatnonzero(big.any(axis=1))
    lead = (fixed, big[fixed].argmax(axis=1))
    out = rows.copy()  # other rows stay as they are: a product with 1 can flip a zero's sign
    out[fixed] = rows[fixed] * (rows[lead].conj() / magnitudes[lead])[:, None]
    return out


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V† of a Hermitian matrix, as
    ``(values, kets)``: w ascending, and the eigenvectors as the unit,
    mutually orthogonal, phase-fixed (``fix_phases``) rows of one
    C-contiguous array.

    Raises ValueError if the input deviates from Hermiticity by more than
    1e-12 in any entry.  Within a degenerate eigenspace the basis is
    whatever the solver picked, with the phase convention applied per ket.
    """
    a = as_square_matrix(a)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(a)
    return w, fix_phases(v.T)


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
