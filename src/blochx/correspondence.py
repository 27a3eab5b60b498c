"""Unit ball vectors standing in for Euclidean directions.

A spatial direction defines a spin observable, and the eigenvalue-weighted
sum of that observable's eigenstate vertex vectors, suitably normalized,
is a unit vector in the (N^2-1)-dimensional ball.  Two such vectors always
have the same dot product as the underlying spatial directions, so they
span an isomorphic copy of the direction sphere inside the ball.  The
eigenstate vertices project onto this axis at equally spaced heights
proportional to their eigenvalues, while the axis itself represents a
state only in the two-level case.  Each vector takes the coordinate rows
of its whole eigenbasis from one stacked pass (``bloch._bloch_rows``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bloch import BlochVector, _bloch_rows, bloch_to_operator
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


def space_vector_single(sys: SpinSystem, n: Direction3, g: GeneratorSet) -> SpaceVector:
    """Direction representative of a single spin entity: the normalized
    eigenvalue-weighted sum of its eigenstate vectors."""
    obs = spin_along(sys, n)
    vertices = _bloch_rows([p.matrix for p in obs.eigenstates], g)
    scale = direction_scale_single(sys.dim)
    return SpaceVector(dim_n=sys.dim, coords=scale * (obs.eigenvalues @ vertices),
                       scale=scale, source=f"single({sys.s})")


def space_vector_composite(c: CompositeSpinSystem, n: Direction3, basis: str,
                           g: GeneratorSet) -> SpaceVector:
    """Direction representative of a two-entity composite, from either the
    coupled basis (weights mu_s) or the product basis (weights mu1 + mu2).
    The two constructions give the same vector."""
    scale = direction_scale_composite(c.system1.dim, c.system2.dim)
    if basis == "coupled":
        states, weights = coupled_basis(c, n).eigensystem()
    elif basis == "product":
        states, weights = product_basis(c, n).eigensystem()
    else:
        raise ValueError(f"basis must be 'coupled' or 'product', got {basis!r}")
    vertices = _bloch_rows([p.matrix for p in states], g)
    return SpaceVector(dim_n=c.dim, coords=scale * (weights @ vertices),
                       scale=scale, source=f"{basis}({c.s1},{c.s2})")


def verify_isomorphism(make_vector: Callable[[Direction3], SpaceVector],
                       n: Direction3, n_prime: Direction3) -> float:
    """|v(n).v(n') - n.n'| for a direction-to-vector builder; zero up to
    rounding when the builder preserves the direction geometry."""
    v = make_vector(n)
    v_prime = make_vector(n_prime)
    return float(abs(v.coords @ v_prime.coords
                     - n.components @ n_prime.components))


def random_directions(count: int, seed: int) -> list[Direction3]:
    """Seeded uniform directions on the sphere from normalized Gaussians."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = rng.standard_normal((count, 3))
    directions = []
    for row in raw:
        while np.linalg.norm(row) < 1e-12:
            row = rng.standard_normal(3)
        directions.append(Direction3.normalized(row))
    return directions


def isomorphism_sweep(make_vector: Callable[[Direction3], SpaceVector],
                      trials: int, seed: int) -> np.ndarray:
    """Deviations |v.v' - n.n'| over ``trials`` seeded random direction
    pairs."""
    directions = random_directions(2 * trials, seed)
    return np.array([
        verify_isomorphism(make_vector, directions[2 * i], directions[2 * i + 1])
        for i in range(trials)
    ])


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
    lowest = m.projectors[int(np.argmin(m.eigenvalues))]
    return float(np.trace(operator @ lowest).real)
