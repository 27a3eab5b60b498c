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
A simplex keeps its eigenstate kets, not their projectors; its vertices come
from one stacked coordinate pass over the kets (``bloch._bloch_rows``).
"""
from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .bloch import BlochVector, DensityState, _bloch_rows, _projectors, state_to_bloch
from .generators import GeneratorSet
from .linalg import ValidationError, degeneracy_groups
from .spin import SpinObservable

VERTEX_GEOMETRY_ATOL = 1e-10
ORTHONORMALITY_ATOL = 1e-10
NEGATIVE_WEIGHT_ATOL = 1e-10
ZERO_PROBABILITY_ATOL = 1e-12
RECORD_COUNT = 10  # full records kept by run_measurement

_DOUBLES_PER_BLOCK = 4  # numpy's Philox yields four 64-bit words per counter step
# A window of run_measurement's stream holds at most _CHUNK_SAMPLES draws, and
# the windows that the workers of one call hold at once share _WINDOW_BYTES of
# uniforms.  On one thread that is 8192 draws for N <= 8, then 4096, 2048 and
# 1024 at N = 16, 32 and 64; two workers hold 8192 each up to N=4, then 4096
# and 2048 at N = 8 and 16.  The uniforms and their gathered copy are the two
# largest arrays, so one call's traced peak is 1.0-1.3 MB at N = 2...64 with
# two workers (1.1-1.4 MB with four), against 0.6 MB at N=2 and 0.7 at N=4 on
# one thread; a draw cap alone let it reach 12.7 MB at N=64.  32k draws ran
# slower at N=16.  Two workers on split windows of 1024 and 512 draws (N = 32
# and 64) ran 0.76-1.0x as fast as one thread while using 1.6 cores, hence
# _MIN_SPLIT_DRAWS; a call of fewer than _MIN_SPLIT_WINDOWS windows (the
# CLI's 1,000-sample runs) is not worth starting a helper thread for.
_CHUNK_SAMPLES = 8192
_WINDOW_BYTES = 512 * 1024
_MAX_WORKERS = 4
_MIN_SPLIT_DRAWS = 2048
_MIN_SPLIT_WINDOWS = 4

ObservableLike = Union[SpinObservable, tuple]


@dataclass(frozen=True)
class MeasurementSimplex:
    """The eigenstate simplex of a measurement.

    ``vertices`` holds the N unit coordinate vectors as rows, sorted by
    eigenvalue ascending; ``kets`` the matching eigenstates, also as rows;
    ``degeneracy_groups`` partitions vertex indices by equal eigenvalue
    (within 1e-9), ordered by eigenvalue, and defines the outcome list.
    """

    dim_n: int
    vertices: np.ndarray
    eigenvalues: np.ndarray
    kets: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]
    vertex_group: np.ndarray

    @property
    def projectors(self) -> np.ndarray:
        """The rank-1 projectors v v† of ``kets`` as one (N, N, N) stack, built
        on each access for readers outside the library; blochx reads ``kets``."""
        return _projectors(self.kets)

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


def simplex_from_observable(obs: ObservableLike, g: GeneratorSet) -> MeasurementSimplex:
    """Build the eigenstate simplex of an observable.

    ``obs`` is either a :class:`SpinObservable` or a ``(kets, eigenvalues)``
    pair whose N x N ``kets`` hold an orthonormal eigenbasis as rows; any
    other shape raises ValueError.  Vertices and kets are stored sorted by
    eigenvalue ascending (stable).
    """
    if isinstance(obs, SpinObservable):
        kets, values = obs.kets, obs.eigenvalues
    else:
        kets, values = obs
    kets, values = np.asarray(kets, dtype=complex), np.asarray(values, dtype=float)
    n = g.dim
    if kets.shape != (n, n) or values.shape != (n,):
        raise ValueError(f"expected {n} eigenstates and eigenvalues for N={n}")

    order = np.argsort(values, kind="stable")
    values = values[order]
    kets = kets[order]

    # <v_a|v_b> for every pair of rows
    gram = kets.conj() @ kets.T
    if not np.max(np.abs(gram - np.eye(n))) <= ORTHONORMALITY_ATOL:  # NaN fails too
        raise ValidationError("eigenstates do not form an orthonormal rank-1 family")

    vertices = _bloch_rows(kets, g)
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
                              kets=kets, degeneracy_groups=groups,
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
                        steps: int) -> Iterator[tuple[float, BlochVector]]:
    """The deterministic first phase: the straight segment from ``r`` to
    its on-simplex projection, sampled at ``steps`` uniform parameter
    values in [0, 1].  For a two-level system this path scales the
    off-diagonal elements of the operator by (1 - tau).

    ``steps`` is checked at the call; the points are built as they are
    read, so only one is held at a time."""
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    parallel = project_onto_simplex(r, m).parallel.coords
    return ((float(tau), BlochVector(m.dim_n, (1.0 - tau) * r.coords + tau * parallel))
            for tau in np.linspace(0.0, 1.0, steps))


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


def _allowed_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _window_wins(window: np.ndarray, positive: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Win counts over ``positive`` of the draws in one window of uniforms.

    Rows are not normalized, since rescaling a row leaves the minimizer of
    lambda_j / w_j where it was.  With x_j = log1p(-u_j) = -e_j the
    minimizer of e_j / w_j is the first maximizer of x_j / w_j; the strict
    comparison keeps ties at the lowest index.
    """
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
    return np.bincount(winner, minlength=len(positive))


def _count_windows(claims, seed: int, samples: int, draws: int, width: int,
                   positive: np.ndarray, w: np.ndarray, tallies: list) -> None:
    """Claim, draw and tally windows of ``draws`` draws until none is left,
    then append this worker's win counts over ``positive``, or the exception
    that stopped it, to ``tallies``.

    A worker claims the next window index from ``claims`` (``next`` on an
    ``itertools.count`` is atomic under the GIL), so its indices rise.  Its
    Philox stream starts at its first window's counter, as
    ``barycentric_stream`` starts one, and skips the windows others claimed.
    """
    total = -(-samples // draws)
    blocks = draws * (width // _DOUBLES_PER_BLOCK)  # Philox blocks per window
    wins = np.zeros(len(positive), dtype=np.intp)
    try:
        index = next(claims)
        bits = np.random.Philox(key=seed, counter=index * blocks)
        stream = np.random.Generator(bits)
        u = np.empty((draws, width))
        while index < total:
            window = u[:samples - index * draws]
            stream.random(out=window)
            wins += _window_wins(window, positive, w)
            if tallies:  # a worker failed, or one claimed past the end: all are taken
                break
            last, index = index, next(claims)
            if last + 1 < index < total:
                bits.advance((index - last - 1) * blocks)
        tallies.append(wins)
    except BaseException as exc:
        tallies.append(exc)


def _count_vertex_wins(n: int, seed: int, samples: int,
                      weights: np.ndarray) -> np.ndarray:
    """Per-vertex win counts of samples ``[0, samples)``: the counts of
    ``_winning_vertices(barycentric_stream(n, seed, 0, samples), weights)``,
    read in windows of at most ``_CHUNK_SAMPLES`` draws and, over all
    workers together, ``_WINDOW_BYTES`` of uniforms, so memory grows neither
    with ``samples`` nor with ``n``.

    Up to ``_MAX_WORKERS`` workers count the windows, no more than the
    allowed cores, and no more than leave each window ``_MIN_SPLIT_DRAWS``
    draws, so N >= 32 stays on the calling thread.  So does a call of fewer
    draws than ``_MIN_SPLIT_WINDOWS`` split windows hold.  The calling
    thread counts windows itself and starts one helper thread for each other
    worker; it joins them all before it returns, so no thread outlives the
    call, and the join waits only for windows already claimed.  If a worker
    fails, the others stop after the window each is counting, and the call
    raises the first failure once they are joined.  The counts are integer
    sums, the same whichever worker draws which window.
    """
    width = _blocks_per_sample(n) * _DOUBLES_PER_BLOCK
    workers = min(_allowed_cores(), _MAX_WORKERS,
                  max(1, _WINDOW_BYTES // (8 * width * _MIN_SPLIT_DRAWS)))
    draws = min(_CHUNK_SAMPLES, _WINDOW_BYTES // (8 * width * workers))
    if samples < _MIN_SPLIT_WINDOWS * draws:
        workers, draws = 1, min(_CHUNK_SAMPLES, _WINDOW_BYTES // (8 * width))
    positive = np.flatnonzero(weights > 0.0)
    tallies: list = []
    work = (itertools.count(), seed, samples, min(draws, samples), width, positive,
            weights[positive][:, None], tallies)
    helpers = [threading.Thread(target=_count_windows, args=work, name="blochx-sampler",
                                daemon=True) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    _count_windows(*work)
    for helper in helpers:
        helper.join()
    for tally in tallies:
        if isinstance(tally, BaseException):
            raise tally
    counts = np.zeros(n, dtype=np.intp)
    counts[positive] = sum(tallies)
    return counts


def lueders_post_state(psi: DensityState, kets: np.ndarray) -> DensityState:
    """Post-state of a (possibly degenerate) outcome whose eigenspace the rows
    of ``kets`` span: the state projected onto it and renormalized,
    P_G psi P_G / Tr(P_G psi).  For a pure input the result is pure again."""
    pg = _projectors(np.asarray(kets, dtype=complex)).sum(axis=0)
    prob = float(np.trace(pg @ psi.matrix).real)
    if prob <= ZERO_PROBABILITY_ATOL:
        raise ValueError("outcome group has vanishing probability")
    return DensityState(pg @ psi.matrix @ pg / prob)


def _post_state(m: MeasurementSimplex, group_index: int,
                psi: Optional[DensityState]) -> DensityState:
    group = m.degeneracy_groups[group_index]
    if len(group) == 1:
        # v v† of a ket that passed simplex_from_observable's orthonormality check
        return DensityState._psd(_projectors(m.kets[list(group)])[0])
    if psi is None:
        raise ValueError("degenerate outcome requires the pre-measurement state "
                         "to form its post-state")
    return lueders_post_state(psi, m.kets[list(group)])


def _records(weights: np.ndarray, m: MeasurementSimplex, seed: int, start: int,
             count: int, psi: Optional[DensityState]) -> list[MeasurementRecord]:
    """The records of draws ``[start, start + count)``, read in one stream call,
    with one post-state built per winning outcome group."""
    lam = barycentric_stream(m.dim_n, seed, start, count)
    groups = m.vertex_group[_winning_vertices(lam, weights)].tolist()
    posts = {gi: _post_state(m, gi, psi) for gi in dict.fromkeys(groups)}
    return [MeasurementRecord(lambda_=row, outcome_index=gi, post_state=posts[gi])
            for row, gi in zip(lam, groups)]


def sample_collapse(w: OnSimplexState, m: MeasurementSimplex, seed: int,
                    index: int = 0,
                    psi: Optional[DensityState] = None) -> MeasurementRecord:
    """One disintegration-and-collapse draw.

    ``psi`` is only needed when the simplex has degenerate outcome groups,
    whose post-states are projections of the pre-measurement state.
    """
    return _records(_sanitize_weights(w.weights), m, seed, index, 1, psi)[0]


def run_measurement(psi: DensityState, obs, samples: int, seed: int,
                    generators: GeneratorSet) -> MeasurementStatistics:
    """Measure ``psi`` repeatedly and aggregate the outcome statistics.

    ``obs`` may be a :class:`SpinObservable`, a (kets, eigenvalues) pair, or a
    prebuilt :class:`MeasurementSimplex`, and ``generators`` the basis of psi's
    dimension.  Sample ``i`` draws its disintegration point as ``sample_collapse(...,
    seed, index=i)`` does, so statistics are reproducible sample-by-sample.  Reports
    per-outcome probabilities, empirical frequencies, binomial standard errors, the
    largest absolute deviation, and the first ``RECORD_COUNT`` (10) full records.

    Outcomes are counted in windows of the stream of at most 8192 draws, and
    no disintegration point is kept.  Up to four workers, no more than the
    process's allowed cores, count the windows: the calling thread and helper
    threads started for this call and joined before it returns, each claiming
    one window at a time.  All windows held at once share 512 KiB of
    uniforms, so memory grows neither with ``samples`` nor with N (traced
    peak 1.0-1.3 MB at N = 2...64 with two workers).  Runs of fewer than four
    windows, and N >= 32, stay on the calling thread.  The counts depend neither on the window size nor on
    which worker counted which window.  Only the recorded samples are drawn
    again, by :func:`sample_collapse`'s path in one call, so each record's
    ``lambda_`` is a row of a ``(RECORD_COUNT, N)`` array.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    m = obs if isinstance(obs, MeasurementSimplex) else simplex_from_observable(obs, generators)

    on = project_onto_simplex(state_to_bloch(psi, generators), m)
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

    records = _records(weights, m, seed, 0, min(RECORD_COUNT, samples), psi)
    return MeasurementStatistics(simplex=m, samples=samples, seed=seed,
                                 vertex_weights=weights, born=born,
                                 counts=counts, empirical=empirical,
                                 std_errors=std_errors,
                                 max_abs_deviation=max_dev,
                                 records_sample=tuple(records))
