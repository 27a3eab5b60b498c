"""Operator-states and their real coordinate vectors in the unit ball.

A unit-trace positive semidefinite matrix D on an N-dimensional Hilbert
space maps to a real vector r of length N^2 - 1 through
D = (1/N)(I + c_N r.L) with c_N = sqrt(N(N-1)/2).  Pure states sit on the
unit sphere, the maximally mixed state at the center, and for N > 2 most
of the ball carries no state at all: the linear combination is always
Hermitian with unit trace but need not be positive.

Coordinates (``_bloch_rows``) are one stacked pass over kets or matrices, in
blocks of at most 128 KiB; a ket's are products of its own entries, bit for bit
its projector's, and a single state is the one-row case, with the same checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import _BLOCK_BYTES, GeneratorSet, _entry_traces, _generator_sum, _generator_traces
from .linalg import ValidationError, as_square_matrix, fix_phases, is_hermitian

TRACE_ATOL = 1e-12
POSITIVITY_ATOL = 1e-10
NORM_ATOL = 1e-10
PURITY_RANK1_ATOL = 1e-9
RESIDUE_ATOL = 1e-10


@dataclass(frozen=True)
class DensityState:
    """A validated operator-state: Hermitian within 1e-12, unit trace
    within 1e-12, smallest eigenvalue >= -1e-10.  The private ``_psd(m)``
    builds a state from a matrix the library made PSD, and skips only the
    last check; ``_wrap(m)`` skips every check."""

    matrix: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):  # sums past the float range fail the checks as inf
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
        with np.errstate(over="ignore"):  # a norm past the float range fails as inf
            norm = np.linalg.norm(c)
        if not norm <= 1.0 + NORM_ATOL:
            raise ValueError(f"coordinate norm {norm:.15g} exceeds 1")
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
        object.__setattr__(self, "amplitudes", fix_phases(a[None])[0])

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> DensityState:
        return DensityState._psd(_projectors(self.amplitudes[None])[0])


def state_to_bloch(d: DensityState, g: GeneratorSet) -> BlochVector:
    """Coordinates r_i = (N / 2c_N) Tr(D L_i) of an operator-state."""
    vector = object.__new__(BlochVector)  # _bloch_rows made BlochVector's checks, with its texts
    vector.__dict__.update(dim_n=g.dim, coords=_bloch_rows(d.matrix[None], g)[0])
    return vector


def _projectors(kets: np.ndarray) -> np.ndarray:
    """The projector v v† of every row v of ``kets``, as one (k, N, N) stack."""
    return kets[:, :, None] * kets.conj()[:, None, :]


def _ket_entries(kets: np.ndarray, g: GeneratorSet) -> np.ndarray:
    """The entries v_j conj(v_k) of the projector of every row v of ``kets``, with
    the bits of ``_projectors``, as ``_entry_traces`` reads them.  Half of the
    conjugates at a time, as at most a block and a half of entries is alive."""
    rows, columns, _, _, _ = g._reads
    kets = np.ascontiguousarray(kets.T)
    entries, conj = np.take(kets, rows, axis=0), kets.conj()
    half = len(entries) // 2
    for part in slice(None, half), slice(half, None):
        entries[part] *= np.take(conj, columns[part], axis=0)
    return entries


def _bloch_rows(states, g: GeneratorSet) -> np.ndarray:
    """``state_to_bloch(d, g).coords`` of each of ``states`` ((k, N) kets or a (k, N, N)
    stack; one matrix ``m`` is passed as ``m[None]``, as ``state_to_bloch`` does) as the
    rows of one C-contiguous array, a block at a time.  The first failing matrix
    raises: ValidationError for an imaginary residue, else BlochVector's."""
    n, step = g.dim, max(1, _BLOCK_BYTES // (16 * g.dim ** 2))
    rows = np.empty((len(states), n * n - 1))
    for start in range(0, len(rows), step):
        block = np.asarray(states[start:start + step], dtype=complex)
        if block.shape[1:] not in ((n,), (n, n)):
            raise ValueError(f"dimension mismatch: state is {block.shape[-1]}, generators are {n}")
        raw = _entry_traces(_ket_entries(block, g), g) if block.ndim == 2 else _generator_traces(block, g).T
        raw *= n / (2.0 * g.c)
        real = rows[start:start + len(block)]
        real[...] = raw.real.T
        # np.linalg.norm's sum for axis=1 without its wrapper, which costs more than
        # the sum at small N
        norm = np.sqrt(np.add.reduce(real * real, axis=1))
        # per state only once one fails: a maximum down ``raw`` walks 2 entries at a time at N=64
        if np.maximum.reduce(np.abs(raw.imag), axis=None) > RESIDUE_ATOL \
                or not np.maximum.reduce(norm) <= 1.0 + NORM_ATOL:
            residue = np.maximum.reduce(np.abs(raw.imag), axis=0)
            for i in ((residue > RESIDUE_ATOL) | ~(norm <= 1.0 + NORM_ATOL)).nonzero()[0]:
                if residue[i] > RESIDUE_ATOL:
                    raise ValidationError(f"imaginary residue {residue[i]:.3e} in coordinates")
                BlochVector(n, real[i])  # its own norm check, with its error text
        del raw  # before the next block's entries exist
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

