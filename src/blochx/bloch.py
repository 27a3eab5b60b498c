"""Operator-states and their real coordinate vectors in the unit ball.

A unit-trace positive semidefinite matrix D on an N-dimensional Hilbert
space maps to a real vector r of length N^2 - 1 through
D = (1/N)(I + c_N r.L) with c_N = sqrt(N(N-1)/2).  Pure states sit on the
unit sphere, the maximally mixed state at the center, and for N > 2 most
of the ball carries no state at all: the linear combination is always
Hermitian with unit trace but need not be positive.

An eigenbasis is built in one stacked pass, ``DensityState._rank1_rows`` for the
projectors of its kets and ``_bloch_rows`` for their coordinates, in blocks of at
most 128 KiB, with the checks and the bits of one state at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSet, _generator_sum, _generator_traces
from .linalg import HERMITICITY_ATOL, ValidationError, as_square_matrix, fix_phase, is_hermitian

TRACE_ATOL = 1e-12
POSITIVITY_ATOL = 1e-10
NORM_ATOL = 1e-10
PURITY_RANK1_ATOL = 1e-9
RESIDUE_ATOL = 1e-10
# bytes of N x N complex matrices per block of a stacked pass: a whole N=64 basis
# at once ran slower than one state at a time, and 32 KiB (one N=36 matrix) lost the gain
_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class DensityState:
    """A validated operator-state: Hermitian within 1e-12, unit trace
    within 1e-12, smallest eigenvalue >= -1e-10.  The private ``_rank1(v)``
    (v v† of a unit ket, or ``_rank1_rows`` of each row) and ``_psd(m)`` build
    states from matrices the library made PSD, and skip only the last check."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self._psd(as_square_matrix(self.matrix)).matrix
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -POSITIVITY_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _psd(cls, m: np.ndarray) -> DensityState:
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m) - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {np.trace(m):.15g} is not 1")
        return cls._wrap(m)

    @classmethod
    def _wrap(cls, m: np.ndarray) -> DensityState:
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        return state

    @classmethod
    def _rank1(cls, v: np.ndarray) -> DensityState:
        return cls._psd(np.outer(v, v.conj()))

    @classmethod
    def _rank1_rows(cls, kets: np.ndarray) -> list[DensityState]:
        """``_rank1`` of every row of ``kets``, checked a block at a time, each
        matrix a view of its block; a failing one goes through ``_psd``."""
        states, step = [], max(1, _BLOCK_BYTES // (16 * kets.shape[1] ** 2))
        kets = np.ascontiguousarray(kets)  # strided rows made the products ~2x slower
        for start in range(0, len(kets), step):
            v = kets[start:start + step]
            block = v[:, :, None] * v.conj()[:, None, :]
            asym = np.max(np.abs(block - block.conj().transpose(0, 2, 1)), axis=(1, 2))
            off = np.abs(block.trace(axis1=1, axis2=2) - 1.0)
            for m, ok in zip(block, (asym <= HERMITICITY_ATOL) & ~(off > TRACE_ATOL)):
                states.append(cls._wrap(m) if ok else cls._psd(m))
        return states

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BlochVector:
    """Real coordinate vector of length N^2 - 1, norm at most 1."""

    dim_n: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        expected = self.dim_n * self.dim_n - 1
        if c.shape != (expected,):
            raise ValueError(f"expected {expected} coordinates for N={self.dim_n}, got shape {c.shape}")
        if not np.linalg.norm(c) <= 1.0 + NORM_ATOL:
            raise ValueError(f"coordinate norm {np.linalg.norm(c):.15g} exceeds 1")
        object.__setattr__(self, "coords", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True)
class PureState:
    """A unit ket with the global phase fixed so the first component of
    magnitude > 1e-9 is real positive."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1:
            raise ValueError(f"expected a vector of amplitudes, got shape {a.shape}")
        if not abs(np.linalg.norm(a) - 1.0) <= TRACE_ATOL:
            raise ValueError(f"amplitude norm {np.linalg.norm(a):.15g} is not 1")
        object.__setattr__(self, "amplitudes", fix_phase(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> DensityState:
        return DensityState._rank1(self.amplitudes)


def state_to_bloch(d: DensityState, g: GeneratorSet) -> BlochVector:
    """Coordinates r_i = (N / 2c_N) Tr(D L_i) of an operator-state."""
    if d.dim != g.dim:
        raise ValueError(f"dimension mismatch: state is {d.dim}, generators are {g.dim}")
    raw = _generator_traces(d.matrix, g) * (g.dim / (2.0 * g.c))
    residue = float(np.max(np.abs(raw.imag)))
    if residue > RESIDUE_ATOL:
        raise ValidationError(f"imaginary residue {residue:.3e} in coordinates")
    return BlochVector(dim_n=g.dim, coords=raw.real)


def _bloch_rows(matrices, g: GeneratorSet) -> np.ndarray:
    """``state_to_bloch(d, g).coords`` of each of ``matrices`` ((k, N, N) or N x N
    arrays) as the rows of one C-contiguous array, a block at a time; the first
    failing matrix goes through ``state_to_bloch`` for the same error."""
    n, step = g.dim, max(1, _BLOCK_BYTES // (16 * g.dim ** 2))
    rows = np.empty((len(matrices), n * n - 1))
    for start in range(0, len(rows), step):
        block = np.asarray(matrices[start:start + step], dtype=complex)
        if block.shape[1:] != (n, n):
            raise ValueError(f"dimension mismatch: state is {block.shape[-1]}, generators are {n}")
        raw = _generator_traces(block, g) * (n / (2.0 * g.c))
        residue = np.max(np.abs(raw.imag), axis=1)
        bad = (residue > RESIDUE_ATOL) | ~(np.linalg.norm(raw.real, axis=1) <= 1.0 + NORM_ATOL)
        if bad.any():
            state_to_bloch(DensityState._wrap(block[np.argmax(bad)]), g)
        rows[start:start + len(block)] = raw.real
    return rows


def bloch_to_operator(r: BlochVector, g: GeneratorSet) -> np.ndarray:
    """Inverse map (1/N)(I + c_N r.L).

    Always Hermitian with unit trace, but not necessarily positive: the
    result describes a state only where :func:`is_state` says so.
    """
    if r.dim_n != g.dim:
        raise ValueError(f"dimension mismatch: vector is for N={r.dim_n}, generators are {g.dim}")
    n = g.dim
    return (np.eye(n, dtype=complex) + g.c * _generator_sum(r.coords, g)) / n


def purity(r: BlochVector) -> float:
    """Tr D^2 of the mapped operator: 1/N + (1 - 1/N) ||r||^2."""
    n = r.dim_n
    return 1.0 / n + (1.0 - 1.0 / n) * float(r.coords @ r.coords)


def is_state(r: BlochVector, g: GeneratorSet) -> tuple[bool, float]:
    """Whether the mapped operator is positive semidefinite.

    Returns ``(ok, smallest_eigenvalue)``; ok means the smallest eigenvalue
    is >= -1e-10, so exact boundary states are not rejected.
    """
    smallest = float(np.linalg.eigvalsh(bloch_to_operator(r, g))[0])
    return smallest >= -POSITIVITY_ATOL, smallest


def projector_to_ket(p: DensityState) -> PureState:
    """Recover the ket of a rank-1 operator-state.

    The global phase is gone; amplitudes are rebuilt from the first basis
    column with non-negligible population, b_l = <b_l|P|b_k> <b_k|P|b_k>^(-1/2).
    Raises ValueError if the input is not rank-1 (purity off 1 by > 1e-9).
    """
    m = p.matrix
    if abs(np.trace(m @ m).real - 1.0) > PURITY_RANK1_ATOL:
        raise ValueError("state is not rank-1; cannot extract a ket")
    populations = m.diagonal().real
    k = int(np.argmax(populations > 1e-12))
    if populations[k] <= 1e-12:
        raise ValueError("projector has no populated basis column")
    return PureState(m[:, k] / np.sqrt(populations[k]))


def pure_state_from_direction(theta: float, phi: float) -> DensityState:
    """Two-level pure state pointing along spherical angles (theta, phi)."""
    half = theta / 2.0
    c, s = np.cos(half), np.sin(half)
    off = s * c * np.exp(-1j * phi)
    return DensityState(np.array([[c * c, off], [np.conj(off), s * s]], dtype=complex))


def random_density(n: int, rng: np.random.Generator) -> DensityState:
    """Random operator-state G^dagger G / Tr(G^dagger G) from a complex
    Gaussian G; covers the full state region."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g.conj().T @ g
    return DensityState(m / np.trace(m).real)


def random_ket(n: int, rng: np.random.Generator) -> PureState:
    """Haar-random unit ket from normalized complex Gaussians."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(v / np.linalg.norm(v))

