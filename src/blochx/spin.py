"""Spin component matrices, directional observables, and the classical
cone picture.

Everything is in units of hbar = 1: eigenvalues are reported as bare
half-integers.  Components come from the ladder construction with the
basis ordered by descending projection, so s3 = diag(s, s-1, ..., -s) and
spin one-half reproduces the Pauli matrices over two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, eigh

DIRECTION_ATOL = 1e-12
SPECTRUM_ATOL = 1e-10


@dataclass(frozen=True)
class Direction3:
    """A unit vector in Euclidean 3-space."""

    components: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.components, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"expected 3 components, got shape {v.shape}")
        if not abs(np.linalg.norm(v) - 1.0) <= DIRECTION_ATOL:
            raise ValueError(f"direction norm {np.linalg.norm(v):.15g} is not 1")
        object.__setattr__(self, "components", v)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "Direction3":
        return cls(np.array([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ]))

    @classmethod
    def normalized(cls, components) -> "Direction3":
        v = np.asarray(components, dtype=float)
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        if nrm == np.inf and np.isfinite(v).all():  # only the squares pass the float range
            v = v / np.abs(v).max()
            nrm = np.linalg.norm(v)
        if not np.isfinite(nrm):
            raise ValueError(f"cannot normalize a non-finite direction {v}")
        if nrm < 1e-12:
            raise ValueError("cannot normalize a near-zero direction")
        return cls(v / nrm)

    @property
    def theta(self) -> float:
        return float(np.arccos(np.clip(self.components[2], -1.0, 1.0)))

    @property
    def phi(self) -> float:
        return float(np.arctan2(self.components[1], self.components[0]))


X1 = Direction3(np.array([1.0, 0.0, 0.0]))
X2 = Direction3(np.array([0.0, 1.0, 0.0]))
X3 = Direction3(np.array([0.0, 0.0, 1.0]))


def check_spin(s: float) -> float:
    """Validate a spin magnitude: 2s must be a positive integer."""
    two_s = 2.0 * s
    if not np.isfinite(two_s) or abs(two_s - round(two_s)) > 1e-9 or round(two_s) < 1:
        raise ValueError(f"invalid spin {s}: 2s must be a positive integer")
    return round(two_s) / 2.0


def check_projection(s: float, mu: float) -> tuple[float, float]:
    """Validate that mu is one of the 2s+1 projections -s, -s+1, ..., s."""
    s = check_spin(s)
    two_mu = 2.0 * mu
    if not np.isfinite(two_mu) or abs(two_mu - round(two_mu)) > 1e-9:
        raise ValueError(f"projection {mu} is not on the half-integer grid")
    mu = round(two_mu) / 2.0
    if abs(mu) > s or (round(2 * s) - round(2 * mu)) % 2 != 0:
        raise ValueError(f"projection {mu} is not in the ladder of spin {s}")
    return s, mu


@dataclass(frozen=True)
class SpinSystem:
    """The three component matrices of a spin-s entity."""

    s: float
    dim: int
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    def component_along(self, n: Direction3) -> np.ndarray:
        n1, n2, n3 = n.components
        return n1 * self.s1 + n2 * self.s2 + n3 * self.s3


def build_spin_system(s: float) -> SpinSystem:
    """Spin components from ladder matrix elements
    <m+1|S+|m> = sqrt(s(s+1) - m(m+1))."""
    s = check_spin(s)
    n = int(round(2 * s)) + 1
    m = s - np.arange(n)
    raising = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        raising[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    lowering = raising.conj().T
    s1 = (raising + lowering) / 2.0
    s2 = (raising - lowering) / 2.0j
    s3 = np.diag(m.astype(complex))
    return SpinSystem(s=s, dim=n, s1=s1, s2=s2, s3=s3)


@dataclass(frozen=True)
class SpinObservable:
    """A spin component along a spatial direction with its eigensystem.

    ``eigenvalues`` is the exact grid -s..s ascending (the computed
    spectrum is checked against it to 1e-10); the rows of ``kets`` are the
    eigenvectors in the same order, phase-fixed and C-contiguous as ``eigh``
    returns them (strided rows made the coordinate pass about 1.5x slower
    at N=64).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    kets: np.ndarray


def spin_along(sys: SpinSystem, n: Direction3) -> SpinObservable:
    """Diagonalize the spin component along ``n``."""
    mat = sys.component_along(n)
    values, kets = eigh(mat)
    mu = -sys.s + np.arange(sys.dim)
    deviation = float(np.max(np.abs(values - mu)))
    if deviation > SPECTRUM_ATOL:
        raise ValidationError(f"spectrum deviates from the -s..s grid by {deviation:.3e}")
    return SpinObservable(matrix=mat, eigenvalues=mu, kets=kets)


def cone_parameters(s: float, mu: float) -> tuple[float, float, float]:
    """(height, slant, radius) of the classical angular-momentum cone of a
    spin-s entity with projection mu: the set of 3-vectors of length
    sqrt(s(s+1)) whose projection on the axis is mu."""
    s, mu = check_projection(s, mu)
    slant = float(np.sqrt(s * (s + 1)))
    radius = float(np.sqrt(s * (s + 1) - mu * mu))
    return mu, slant, radius


def cone_projection_range(s: float, mu: float) -> tuple[float, float]:
    """Extremes of the orthogonal projection of the cone's vectors onto one
    fixed cone vector.

    Two cone vectors with azimuthal separation dphi have dot product
    mu^2 + radius^2 cos(dphi); dividing by the fixed vector's length gives
    the closed interval [(mu^2 - radius^2)/slant, slant].  The interval
    does not contain all eigenvalues of the spin, which is the no-go
    against reading the cone as a classical angular momentum.
    """
    height, slant, radius = cone_parameters(s, mu)
    return (height * height - radius * radius) / slant, slant


def classical_resultant_range() -> tuple[float, float]:
    """Length extremes of the sum of one vector from each of two spin-1/2
    cones with projection +1/2.

    ||a + b||^2 = 2 s(s+1) + 2(mu^2 + r^2 cos dphi) ranges over [1, 3]
    for s = mu = 1/2, so the resultant length spans [1, sqrt(3)].
    """
    ssq = 0.5 * 1.5
    mu = 0.5
    r2 = ssq - mu * mu
    lo = float(np.sqrt(2 * ssq + 2 * (mu * mu - r2)))
    hi = float(np.sqrt(2 * ssq + 2 * (mu * mu + r2)))
    return lo, hi
