"""Unit ball vectors standing in for Euclidean directions.

A spatial direction defines a spin observable, and the eigenvalue-weighted
sum of that observable's eigenstate vertex vectors, suitably normalized,
is a unit vector in the (N^2-1)-dimensional ball.  Two such vectors always
have the same dot product as the underlying spatial directions, so they
span an isomorphic copy of the direction sphere inside the ball.  The
eigenstate vertices project onto this axis at equally spaced heights
proportional to their eigenvalues, while the axis itself represents a
state only in the two-level case.  Each vector takes the coordinate rows
of its whole eigenbasis from one stacked pass over its kets (``bloch._bloch_rows``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bloch import BlochVector, _bloch_rows, _projectors, bloch_to_operator
from .composite import CompositeSpinSystem, coupled_basis, product_basis
from .generators import GeneratorSet
from .measurement import MeasurementSimplex
from .spin import Direction3, SpinSystem, spin_along

UNIT_NORM_ATOL = 1e-10


@dataclass(frozen=True)
class SpaceVector:
    """The ball-side representative of a Euclidean direction."""

    dim_n: int
    coords: np.ndarray
    scale: float
    source: str

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if not abs(np.linalg.norm(c) - 1.0) <= UNIT_NORM_ATOL:
            raise ValueError(f"space vector norm {np.linalg.norm(c):.15g} is not 1")
        object.__setattr__(self, "coords", c)


def direction_scale_single(n: int) -> float:
    """(1/N) sqrt(12/(N+1)), the weight normalizing a single entity's
    eigenvalue-weighted vertex sum to a unit vector."""
    return float(np.sqrt(12.0 / (n + 1)) / n)


def direction_scale_composite(n1: int, n2: int) -> float:
    """The analogous normalization for a two-entity composite."""
    n = n1 * n2
    return float(np.sqrt(12.0 * (n - 1) / (n * n1 * n2 * (n1 * n1 + n2 * n2 - 2))))


def _direction_vector(basis, scale: float, g: GeneratorSet, source: str) -> SpaceVector:
    """``scale`` times the eigenvalue-weighted sum of the coordinate rows of
    ``basis``, an eigenbasis with ``kets`` and ``eigenvalues``."""
    coords = scale * (basis.eigenvalues @ _bloch_rows(basis.kets, g))
    return SpaceVector(dim_n=g.dim, coords=coords, scale=scale, source=source)


def space_vector_single(sys: SpinSystem, n: Direction3, g: GeneratorSet) -> SpaceVector:
    """Direction representative of a single spin entity: the normalized
    eigenvalue-weighted sum of its eigenstate vectors."""
    return _direction_vector(spin_along(sys, n), direction_scale_single(sys.dim), g,
                             f"single({sys.s})")


def space_vector_composite(c: CompositeSpinSystem, n: Direction3, basis: str,
                           g: GeneratorSet) -> SpaceVector:
    """Direction representative of a two-entity composite, from either the
    coupled basis (weights mu_s) or the product basis (weights mu1 + mu2).
    The two constructions give the same vector."""
    if basis == "coupled":
        eigenbasis = coupled_basis(c, n)
    elif basis == "product":
        eigenbasis = product_basis(c, n)
    else:
        raise ValueError(f"basis must be 'coupled' or 'product', got {basis!r}")
    return _direction_vector(eigenbasis, direction_scale_composite(c.system1.dim, c.system2.dim),
                             g, f"{basis}({c.s1},{c.s2})")


def verify_isomorphism(make_vector: Callable[[Direction3], SpaceVector],
                       n: Direction3, n_prime: Direction3) -> float:
    """|v(n).v(n') - n.n'| for a direction-to-vector builder; zero up to
    rounding when the builder preserves the direction geometry."""
    v = make_vector(n)
    v_prime = make_vector(n_prime)
    return float(abs(v.coords @ v_prime.coords
                     - n.components @ n_prime.components))


def random_directions(count: int, seed: int) -> Iterator[Direction3]:
    """Seeded uniform directions on the sphere from normalized Gaussians,
    yielded one at a time from a single (count, 3) draw; a near-zero row is
    redrawn from the same stream when its turn comes."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for row in rng.standard_normal((count, 3)):
        while np.linalg.norm(row) < 1e-12:
            row = rng.standard_normal(3)
        yield Direction3.normalized(row)


def isomorphism_sweep(make_vector: Callable[[Direction3], SpaceVector],
                      trials: int, seed: int) -> np.ndarray:
    """Deviations |v.v' - n.n'| over ``trials`` seeded random direction
    pairs, drawn as they are used, so only the deviations are kept."""
    directions = random_directions(2 * trials, seed)
    return np.fromiter((verify_isomorphism(make_vector, n, n_prime)
                        for n, n_prime in zip(directions, directions)),
                       float, count=trials)


def eigenstate_projections(v: SpaceVector, m: MeasurementSimplex) -> np.ndarray:
    """Heights v.n_i of the simplex vertices along the direction axis.

    For a single entity these equal (1/(N-1)) sqrt(12/(N+1)) mu, and for a
    composite (N d / (N-1)) mu_s: equally spaced, one height per
    eigenvalue, with degenerate vertices landing on the same height.
    """
    if v.dim_n != m.dim_n:
        raise ValueError("space vector and simplex come from different observables")
    return m.vertices @ v.coords


def v_overlap_with_extremal(v: SpaceVector, m: MeasurementSimplex,
                            g: GeneratorSet) -> float:
    """Trace overlap between the direction axis (mapped to an operator) and
    the lowest-eigenvalue eigenstate.

    Equals (1/N)(1 - sqrt(3(N-1)^2/(N+1))): zero for N = 2, strictly
    negative beyond, which is why the axis cannot be a state there.
    """
    if not v.source.startswith("single"):
        raise ValueError("extremal overlap is defined for single-entity sources")
    operator = bloch_to_operator(BlochVector(v.dim_n, v.coords), g)
    lowest = _projectors(m.kets[[int(np.argmin(m.eigenvalues))]])[0]
    return float(np.trace(operator @ lowest).real)
