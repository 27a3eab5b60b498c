"""Measurements as simplexes of eigenstate vectors, with outcome
probabilities arising as barycentric weights and a three-phase stochastic
collapse simulation.

A non-degenerate observable on an N-level system is represented inside the
unit ball by the N unit vectors of its eigenstates.  Their pairwise dot
products all equal -1/(N-1), so they are the vertices of a regular
(N-1)-simplex centered at the origin.  Orthogonally projecting a state
vector onto the simplex plane yields convex weights over the vertices, and
those weights are exactly the quantum outcome probabilities.

The simulation mirrors that geometry in three phases: a deterministic
straight-line approach from the state vector to its on-simplex projection
(a decoherence of the off-diagonal structure), an indeterministic
disintegration of the simplex at a uniformly distributed interior point
whose containing sub-simplex selects the outcome, and a deterministic
return to the appropriate final state (an eigenstate vertex, or the
renormalized projection onto the eigenspace for a degenerate outcome).
The simplex vertices come from one stacked coordinate pass over the
eigenstate projectors (``bloch._bloch_rows``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bloch import BlochVector, DensityState, _bloch_rows, state_to_bloch
from .generators import GeneratorSet, build_generators
from .linalg import ValidationError, degeneracy_groups
from .spin import SpinObservable

VERTEX_GEOMETRY_ATOL = 1e-10
ORTHONORMALITY_ATOL = 1e-10
NEGATIVE_WEIGHT_ATOL = 1e-10
ZERO_PROBABILITY_ATOL = 1e-12
RECORD_COUNT = 10  # full records kept by run_measurement

_DOUBLES_PER_BLOCK = 4  # numpy's Philox yields four 64-bit words per counter step
_CHUNK_SAMPLES = 8192  # draws per window of run_measurement's stream; 32k ran slower at N=16

ObservableLike = Union[SpinObservable, tuple]


@dataclass(frozen=True)
class MeasurementSimplex:
    """The eigenstate simplex of a measurement.

    ``vertices`` holds the N unit coordinate vectors as rows, sorted by
    eigenvalue ascending; ``projectors`` the matching rank-1 projectors;
    ``degeneracy_groups`` partitions vertex indices by equal eigenvalue
    (within 1e-9), ordered by eigenvalue, and defines the outcome list.
    """

    dim_n: int
    vertices: np.ndarray
    eigenvalues: np.ndarray
    projectors: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]
    vertex_group: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return len(self.degeneracy_groups)

    @property
    def outcome_eigenvalues(self) -> np.ndarray:
        return np.array([self.eigenvalues[g[0]] for g in self.degeneracy_groups])


@dataclass(frozen=True)
class OnSimplexState:
    """A state decomposed against a measurement simplex: the orthogonal
    projection onto the simplex plane, its barycentric weights over the
    vertices, and the norm of the discarded orthogonal part."""

    parallel: BlochVector
    weights: np.ndarray
    perp_norm: float


@dataclass(frozen=True)
class MeasurementRecord:
    """One collapse draw: the barycentric disintegration point, the index
    of the winning outcome (a degeneracy-group index; equal to the vertex
    index for a non-degenerate measurement), and the post-state."""

    lambda_: np.ndarray
    outcome_index: int
    post_state: DensityState


@dataclass(frozen=True)
class MeasurementStatistics:
    """Aggregate of repeated independent measurements of one state."""

    simplex: MeasurementSimplex
    samples: int
    seed: int
    vertex_weights: np.ndarray
    born: np.ndarray
    counts: np.ndarray
    empirical: np.ndarray
    std_errors: np.ndarray
    max_abs_deviation: float
    records_sample: tuple[MeasurementRecord, ...]
    trajectory: Optional[list] = None


def simplex_from_observable(obs: ObservableLike, g: GeneratorSet) -> MeasurementSimplex:
    """Build the eigenstate simplex of an observable.

    ``obs`` is either a :class:`SpinObservable` or an
    ``(eigenstates, eigenvalues)`` pair where the eigenstates are rank-1
    :class:`DensityState` projectors forming an orthonormal family; they
    are used as given, and any other type raises TypeError.
    Vertices are stored sorted by eigenvalue ascending (stable).
    """
    if isinstance(obs, SpinObservable):
        states, values = obs.eigenstates, obs.eigenvalues
    else:
        states, values = obs
    values = np.asarray(values, dtype=float)
    n = g.dim
    if len(states) != n or values.shape != (n,):
        raise ValueError(f"expected {n} eigenstates and eigenvalues for N={n}")

    order = np.argsort(values, kind="stable")
    values = values[order]
    states = [states[i] for i in order]
    if not all(isinstance(state, DensityState) for state in states):
        raise TypeError("eigenstates must be DensityState projectors")
    projectors = np.stack([state.matrix for state in states])

    gram = np.einsum("aij,bji->ab", projectors, projectors)
    if np.max(np.abs(gram - np.eye(n))) > ORTHONORMALITY_ATOL:
        raise ValidationError("eigenstates do not form an orthonormal rank-1 family")

    vertices = _bloch_rows(projectors, g)
    dots = vertices @ vertices.T
    expected = -np.ones((n, n)) / (n - 1) + (1.0 + 1.0 / (n - 1)) * np.eye(n)
    if np.max(np.abs(dots - expected)) > VERTEX_GEOMETRY_ATOL:
        raise ValidationError("eigenstate vectors do not form a regular simplex")
    if np.max(np.abs(vertices.sum(axis=0))) > VERTEX_GEOMETRY_ATOL:
        raise ValidationError("simplex centroid is off the ball center")

    groups = tuple(tuple(grp) for grp in degeneracy_groups(values))
    vertex_group = np.empty(n, dtype=int)
    for gi, grp in enumerate(groups):
        for v in grp:
            vertex_group[v] = gi
    return MeasurementSimplex(dim_n=n, vertices=vertices, eigenvalues=values,
                              projectors=projectors, degeneracy_groups=groups,
                              vertex_group=vertex_group)


def project_onto_simplex(r: BlochVector, m: MeasurementSimplex) -> OnSimplexState:
    """Orthogonal projection of a coordinate vector onto the simplex plane.

    The barycentric weight of vertex i is (1/N)(1 + (N-1) r.n_i); the
    weights sum to one because the vertices sum to zero, and they are all
    non-negative exactly when the source vector represents a state.
    """
    if r.dim_n != m.dim_n:
        raise ValueError(f"dimension mismatch: vector is for N={r.dim_n}, simplex for N={m.dim_n}")
    n = m.dim_n
    weights = (1.0 + (n - 1) * (m.vertices @ r.coords)) / n
    parallel = weights @ m.vertices
    perp_norm = float(np.linalg.norm(r.coords - parallel))
    return OnSimplexState(parallel=BlochVector(n, parallel), weights=weights,
                          perp_norm=perp_norm)


def born_probabilities(psi: DensityState, m: MeasurementSimplex, g: GeneratorSet,
                       by_group: bool = False) -> np.ndarray:
    """Outcome probabilities of measuring ``psi``, as barycentric weights.

    Equal to the trace probabilities Tr(psi P_i).  With ``by_group`` the
    weights of each degeneracy group are summed, one entry per outcome.
    """
    weights = project_onto_simplex(state_to_bloch(psi, g), m).weights
    if not by_group:
        return weights
    return np.array([weights[list(grp)].sum() for grp in m.degeneracy_groups])


def approach_trajectory(r: BlochVector, m: MeasurementSimplex,
                        steps: int) -> list[tuple[float, BlochVector]]:
    """The deterministic first phase: the straight segment from ``r`` to
    its on-simplex projection, sampled at ``steps`` uniform parameter
    values in [0, 1].  For a two-level system this path scales the
    off-diagonal elements of the operator by (1 - tau)."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    parallel = project_onto_simplex(r, m).parallel.coords
    points = []
    for tau in np.linspace(0.0, 1.0, steps):
        coords = (1.0 - tau) * r.coords + tau * parallel
        points.append((float(tau), BlochVector(m.dim_n, coords)))
    return points


def _blocks_per_sample(n: int) -> int:
    return -(-n // _DOUBLES_PER_BLOCK)


def barycentric_stream(n: int, seed: int, start: int, count: int) -> np.ndarray:
    """Uniform barycentric samples on the (n-1)-simplex.

    Normalized i.i.d. standard exponentials, i.e. a flat Dirichlet draw.
    Sample ``index`` consumes a fixed window of the counter-based Philox
    stream keyed by ``seed`` (blocks [index*B, (index+1)*B) with
    B = ceil(n/4)), so the draw for a given (seed, index) pair is the same
    no matter how sampling is batched or partitioned.
    """
    blocks = _blocks_per_sample(n)
    bits = np.random.Philox(key=seed, counter=start * blocks)
    u = np.random.Generator(bits).random((count, blocks * _DOUBLES_PER_BLOCK))[:, :n]
    exponentials = -np.log1p(-u)
    return exponentials / exponentials.sum(axis=1, keepdims=True)


def draw_disintegration_point(n: int, seed: int, index: int = 0) -> np.ndarray:
    """The uniform disintegration point for one collapse draw."""
    return barycentric_stream(n, seed, index, 1)[0]


def _sanitize_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.min() < -NEGATIVE_WEIGHT_ATOL:
        raise ValueError(f"negative outcome weight {w.min():.3e}: source vector is not a state")
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        raise ValueError("all outcome weights vanish")
    return w


def _winning_vertices(lam: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Vertex index per row of ``lam``: the minimizer of lambda_j / w_j
    (with lambda_j / 0 = +inf).

    A barycentric point lies in the sub-simplex spanned by the on-simplex
    state and the vertices other than i exactly when i attains that
    minimum, so this reproduces membership of the disintegration point in
    outcome i's sub-region.  Boundary ties go to the lowest index.
    """
    lam = np.atleast_2d(lam)
    ratios = np.full(lam.shape, np.inf)
    positive = weights > 0.0
    ratios[:, positive] = lam[:, positive] / weights[positive]
    return ratios.argmin(axis=1)


def _count_vertex_wins(n: int, seed: int, samples: int,
                      weights: np.ndarray) -> np.ndarray:
    """Per-vertex win counts of samples ``[0, samples)``: the counts of
    ``_winning_vertices(barycentric_stream(n, seed, 0, samples), weights)``,
    read from one pass over the stream in windows of ``_CHUNK_SAMPLES``
    draws, so memory does not grow with ``samples``.

    Rows are not normalized, since rescaling a row leaves the minimizer of
    lambda_j / w_j where it was.  With x_j = log1p(-u_j) = -e_j the
    minimizer of e_j / w_j is the first maximizer of x_j / w_j; the strict
    comparison keeps ties at the lowest index.
    """
    positive = np.flatnonzero(weights > 0.0)
    w = weights[positive][:, None]
    stream = np.random.Generator(np.random.Philox(key=seed, counter=0))
    u = np.empty((min(_CHUNK_SAMPLES, samples),
                  _blocks_per_sample(n) * _DOUBLES_PER_BLOCK))
    wins = np.zeros(len(positive), dtype=np.intp)
    for start in range(0, samples, len(u)):
        window = u[:samples - start]
        stream.random(out=window)
        x = np.ascontiguousarray(window.T[positive])
        np.negative(x, out=x)
        np.log1p(x, out=x)
        x /= w
        best = x[0]
        winner = np.zeros(len(window), dtype=np.intp)
        for j in range(1, len(positive)):
            # j exceeds every earlier winner, so no branch on the data
            np.maximum(winner, (x[j] > best) * j, out=winner)
            np.maximum(best, x[j], out=best)
        wins += np.bincount(winner, minlength=len(positive))
    counts = np.zeros(n, dtype=np.intp)
    counts[positive] = wins
    return counts


def lueders_post_state(psi: DensityState, group: Sequence[int],
                       projectors: np.ndarray) -> DensityState:
    """Post-state of a (possibly degenerate) outcome: the state projected
    onto the outcome's eigenspace and renormalized, P_G psi P_G / Tr(P_G psi).
    For a pure input the result is pure again."""
    pg = np.sum([projectors[i] for i in group], axis=0)
    prob = float(np.trace(pg @ psi.matrix).real)
    if prob <= ZERO_PROBABILITY_ATOL:
        raise ValueError("outcome group has vanishing probability")
    return DensityState(pg @ psi.matrix @ pg / prob)


def _post_state(m: MeasurementSimplex, group_index: int,
                psi: Optional[DensityState]) -> DensityState:
    group = m.degeneracy_groups[group_index]
    if len(group) == 1:
        # simplex_from_observable took this projector as a validated DensityState
        return DensityState._psd(m.projectors[group[0]])
    if psi is None:
        raise ValueError("degenerate outcome requires the pre-measurement state "
                         "to form its post-state")
    return lueders_post_state(psi, group, m.projectors)


def sample_collapse(w: OnSimplexState, m: MeasurementSimplex, seed: int,
                    index: int = 0,
                    psi: Optional[DensityState] = None) -> MeasurementRecord:
    """One disintegration-and-collapse draw.

    ``psi`` is only needed when the simplex has degenerate outcome groups,
    whose post-states are projections of the pre-measurement state.
    """
    weights = _sanitize_weights(w.weights)
    lam = draw_disintegration_point(m.dim_n, seed, index)
    vertex = int(_winning_vertices(lam, weights)[0])
    group_index = int(m.vertex_group[vertex])
    return MeasurementRecord(lambda_=lam, outcome_index=group_index,
                             post_state=_post_state(m, group_index, psi))


def run_measurement(psi: DensityState, obs, samples: int, seed: int,
                    generators: Optional[GeneratorSet] = None,
                    trajectory_steps: Optional[int] = None) -> MeasurementStatistics:
    """Measure ``psi`` repeatedly and aggregate the outcome statistics.

    ``obs`` may be a :class:`SpinObservable`, an (eigenstates, eigenvalues)
    pair, or a prebuilt :class:`MeasurementSimplex`.  Sample ``i`` draws
    its disintegration point exactly as
    ``sample_collapse(..., seed, index=i)`` would, so statistics are
    reproducible sample-by-sample.  Reports per-outcome probabilities,
    empirical frequencies, binomial standard errors, the largest absolute
    deviation, and the first ``RECORD_COUNT`` (10) full records.

    Outcomes are counted in fixed windows of the stream, read in order, and
    no disintegration point is kept: memory does not grow with ``samples``,
    and the counts do not depend on the window size.  Only the recorded
    samples have their points drawn again as barycentric rows, so each
    record's ``lambda_`` is a row of a ``(RECORD_COUNT, N)`` array.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if isinstance(obs, MeasurementSimplex):
        m = obs
        g = generators if generators is not None else build_generators(m.dim_n)
    else:
        g = generators if generators is not None else build_generators(psi.dim)
        m = simplex_from_observable(obs, g)

    r = state_to_bloch(psi, g)
    on = project_onto_simplex(r, m)
    weights = _sanitize_weights(on.weights)

    vertex_counts = _count_vertex_wins(m.dim_n, seed, samples, weights)
    counts = np.zeros(m.n_outcomes, dtype=np.intp)
    np.add.at(counts, m.vertex_group, vertex_counts)

    born = np.array([weights[list(grp)].sum() for grp in m.degeneracy_groups])
    empirical = counts / samples
    # an eigenstate's group weight can round to just above 1, where the
    # binomial variance would be a tiny negative number
    std_errors = np.sqrt(np.maximum(born * (1.0 - born), 0.0) / samples)
    max_dev = float(np.max(np.abs(empirical - born)))

    lam = barycentric_stream(m.dim_n, seed, 0, min(RECORD_COUNT, samples))
    group_wins = m.vertex_group[_winning_vertices(lam, weights)]
    post_cache: dict[int, DensityState] = {}
    records = []
    for i in range(len(lam)):
        gi = int(group_wins[i])
        if gi not in post_cache:
            post_cache[gi] = _post_state(m, gi, psi)
        records.append(MeasurementRecord(lambda_=lam[i], outcome_index=gi,
                                         post_state=post_cache[gi]))

    trajectory = None
    if trajectory_steps is not None:
        trajectory = approach_trajectory(r, m, trajectory_steps)

    return MeasurementStatistics(simplex=m, samples=samples, seed=seed,
                                 vertex_weights=weights, born=born,
                                 counts=counts, empirical=empirical,
                                 std_errors=std_errors,
                                 max_abs_deviation=max_dev,
                                 records_sample=tuple(records),
                                 trajectory=trajectory)
