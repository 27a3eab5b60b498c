import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx.bloch import (BlochVector, DensityState, pure_state_from_direction,
                          random_density, random_ket, state_to_bloch)
from blochx import bloch, composite, measurement
from blochx.generators import build_generators
from blochx.linalg import ValidationError
from blochx.measurement import (OnSimplexState, approach_trajectory,
                                barycentric_stream, born_probabilities,
                                lueders_post_state, project_onto_simplex,
                                run_measurement, sample_collapse,
                                simplex_from_observable)
from blochx.spin import Direction3, X3, build_spin_system, spin_along
from conftest import ket_state, random_observable_frame

SRC_ROOT = Path(measurement.__file__).resolve().parents[1]


def spin_simplex(s, direction=X3):
    sys_ = build_spin_system(s)
    g = build_generators(sys_.dim)
    return simplex_from_observable(spin_along(sys_, direction), g), g


def gram_volume(vertices):
    """Volume of the simplex spanned by the given embedded vertices, from
    the Gram determinant of the edge vectors off the first vertex."""
    edges = vertices[1:] - vertices[0]
    k = edges.shape[0]
    gram = edges @ edges.T
    return np.sqrt(np.linalg.det(gram)) / math.factorial(k)


class TestSimplexFromObservable:
    def test_two_level_segment(self):
        m, _ = spin_simplex(0.5)
        assert np.allclose(m.eigenvalues, [-0.5, 0.5], atol=0)
        assert abs(np.linalg.norm(m.vertices[0] - m.vertices[1]) - 2.0) < 1e-12
        assert np.allclose(m.vertices[0], -m.vertices[1], atol=1e-12)

    def test_three_level_triangle_area(self):
        m, _ = spin_simplex(1.0, Direction3.from_angles(0.7, -0.3))
        assert abs(gram_volume(m.vertices) - 3 * np.sqrt(3) / 4) < 1e-10

    def test_four_level_tetrahedron_volume(self):
        m, _ = spin_simplex(1.5, Direction3.from_angles(1.2, 0.5))
        assert abs(gram_volume(m.vertices) - (4 / 3) ** 1.5 / 3) < 1e-10

    @pytest.mark.parametrize("s", (0.5, 1.0, 1.5, 2.0, 2.5))
    def test_geometry_invariants(self, s):
        m, _ = spin_simplex(s, Direction3.from_angles(0.9, 1.7))
        n = m.dim_n
        dots = m.vertices @ m.vertices.T
        assert np.max(np.abs(np.diag(dots) - 1.0)) < 1e-10
        off = dots[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off + 1 / (n - 1))) < 1e-10
        assert np.max(np.abs(m.vertices.sum(axis=0))) < 1e-10
        edge = np.sqrt(2 * n / (n - 1))
        for i in range(n):
            for j in range(i + 1, n):
                assert abs(np.linalg.norm(m.vertices[i] - m.vertices[j]) - edge) < 1e-10

    def test_eigenvalue_sorting_and_groups(self):
        g = build_generators(3)
        obs = spin_along(build_spin_system(1.0), X3)
        # feed the eigenstates out of order with a repeated eigenvalue
        kets = obs.kets[[2, 0, 1]]
        values = [1.0, 0.0, 0.0]
        m = simplex_from_observable((kets, values), g)
        assert np.allclose(m.eigenvalues, [0.0, 0.0, 1.0], atol=0)
        assert m.degeneracy_groups == ((0, 1), (2,))
        assert list(m.vertex_group) == [0, 0, 1]

    @pytest.mark.parametrize("frame", ["random", "spin"])
    def test_given_projectors_are_used_as_they_are(self, frame, monkeypatch):
        g = build_generators(5)
        if frame == "random":
            obs = random_observable_frame(5, np.random.default_rng(11))
        else:
            obs = spin_along(build_spin_system(2.0), Direction3.from_angles(0.7, 0.2))
        built = []
        post_init = DensityState.__post_init__
        monkeypatch.setattr(DensityState, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        m = simplex_from_observable(obs, g)
        assert built == []
        monkeypatch.undo()
        rewrapped = np.stack([state_to_bloch(DensityState(p), g).coords
                              for p in m.projectors])
        assert np.array_equal(m.vertices, rewrapped)

    @pytest.mark.parametrize("factor", (0.999, 1.001))
    @pytest.mark.parametrize("frame", ["random", "spin"])
    def test_rejects_a_ket_off_unit_norm(self, frame, factor):
        g = build_generators(5)
        if frame == "random":
            kets, values = random_observable_frame(5, np.random.default_rng(13))
        else:
            obs = spin_along(build_spin_system(2.0), Direction3.from_angles(0.7, 0.2))
            kets, values = obs.kets, obs.eigenvalues
        kets = np.array(kets)
        kets[3] *= factor
        with pytest.raises(ValidationError, match="orthonormal"):
            simplex_from_observable((kets, values), g)

    def test_rejects_a_nan_ket(self):
        kets, values = random_observable_frame(5, np.random.default_rng(13))
        kets = np.array(kets)
        kets[3] = np.nan
        # the Gram check fails on NaN, and names the fault
        with pytest.raises(ValidationError, match="orthonormal"):
            simplex_from_observable((kets, values), build_generators(5))

    @pytest.mark.parametrize("shape", ((3, 4), (5, 4), (4, 5), (4,), (4, 4, 4)))
    def test_rejects_kets_of_the_wrong_shape(self, shape):
        g = build_generators(4)
        kets = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError, match="expected 4 eigenstates and eigenvalues for N=4"):
            simplex_from_observable((kets, np.arange(4.0)), g)

    def test_rejects_non_orthonormal_family(self):
        g = build_generators(2)
        up = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="orthonormal"):
            simplex_from_observable(([up, up], [0.0, 1.0]), g)

    def test_validation_failures_have_their_own_type(self, monkeypatch):
        g = build_generators(2)
        up = np.array([1.0, 0.0])
        with pytest.raises(ValidationError, match="orthonormal"):
            simplex_from_observable(([up, up], [0.0, 1.0]), g)
        obs = spin_along(build_spin_system(0.5), X3)

        def shifted(shift):
            def rows(matrices, g):
                return (bloch._bloch_rows(matrices, g) + shift) / np.sqrt(1.0 + shift @ shift)
            return rows

        # a shift along x, orthogonal to both z-axis vertices, moves the dot
        # products by about 1e-12 (within tolerance) but the centroid by 2e-6
        monkeypatch.setattr(measurement, "_bloch_rows", shifted(np.array([1e-6, 0.0, 0.0])))
        with pytest.raises(ValidationError, match="centroid"):
            simplex_from_observable(obs, g)
        monkeypatch.setattr(measurement, "_bloch_rows", shifted(np.array([0.1, 0.0, 0.0])))
        with pytest.raises(ValidationError, match="regular simplex"):
            simplex_from_observable(obs, g)


class TestProjectOntoSimplex:
    def test_vertex_is_one_hot(self):
        m, _ = spin_simplex(1.0)
        for j in range(3):
            on = project_onto_simplex(BlochVector(3, m.vertices[j]), m)
            expected = np.zeros(3)
            expected[j] = 1.0
            assert np.allclose(on.weights, expected, atol=1e-12)
            assert on.perp_norm < 1e-12

    def test_center_is_uniform(self):
        m, _ = spin_simplex(1.5)
        on = project_onto_simplex(BlochVector(4, np.zeros(15)), m)
        assert np.allclose(on.weights, 0.25, atol=1e-14)

    def test_two_level_polar_angle(self):
        m, g = spin_simplex(0.5)
        for theta in (0.3, 1.1, 2.7):
            r = state_to_bloch(pure_state_from_direction(theta, 0.4), g)
            on = project_onto_simplex(r, m)
            # vertex order is ascending eigenvalue: (-1/2, +1/2)
            assert abs(on.weights[1] - np.cos(theta / 2) ** 2) < 1e-12
            assert abs(on.weights[0] - np.sin(theta / 2) ** 2) < 1e-12
            assert abs(on.perp_norm - abs(np.sin(theta))) < 1e-12

    def test_parallel_is_weighted_vertex_sum(self):
        m, g = spin_simplex(1.0, Direction3.from_angles(0.8, 0.1))
        rng = np.random.default_rng(67)
        r = state_to_bloch(random_density(3, rng), g)
        on = project_onto_simplex(r, m)
        assert abs(on.weights.sum() - 1.0) < 1e-10
        assert np.max(np.abs(on.parallel.coords - on.weights @ m.vertices)) < 1e-12
        # the residual is orthogonal to every vertex
        residual = r.coords - on.parallel.coords
        assert np.max(np.abs(m.vertices @ residual)) < 1e-12


class TestBornProbabilities:
    def test_eigenstate_is_certain(self):
        m, g = spin_simplex(1.0)
        obs = spin_along(build_spin_system(1.0), X3)
        p = born_probabilities(ket_state(obs.kets[1]), m, g)
        assert np.allclose(p, [0, 1, 0], atol=1e-12)

    def test_two_level_equator(self):
        m, g = spin_simplex(0.5)
        p = born_probabilities(pure_state_from_direction(np.pi / 2, 0.0), m, g)
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    def test_matches_trace_oracle_for_random_three_level_states(self):
        rng = np.random.default_rng(71)
        m, g = spin_simplex(1.0, Direction3.from_angles(1.9, -0.8))
        for _ in range(25):
            psi = random_density(3, rng)
            p = born_probabilities(psi, m, g)
            oracle = np.array([np.trace(psi.matrix @ m.projectors[i]).real for i in range(3)])
            assert np.max(np.abs(p - oracle)) < 1e-12

    def test_grouped_probabilities_sum_members(self):
        g = build_generators(3)
        obs = spin_along(build_spin_system(1.0), X3)
        m = simplex_from_observable((obs.kets, [1.0, 0.0, 1.0]), g)
        rng = np.random.default_rng(73)
        psi = random_density(3, rng)
        per_vertex = born_probabilities(psi, m, g)
        grouped = born_probabilities(psi, m, g, by_group=True)
        assert grouped.shape == (2,)
        assert abs(grouped[0] - per_vertex[0]) < 1e-14
        assert abs(grouped[1] - per_vertex[1] - per_vertex[2]) < 1e-14

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_three_formulas_agree(self, n):
        rng = np.random.default_rng(100 + n)
        g = build_generators(n)
        for _ in range(20):
            kets, values = random_observable_frame(n, rng)
            m = simplex_from_observable((kets, values), g)
            psi = random_ket(n, rng).projector()
            r = state_to_bloch(psi, g)
            barycentric = born_probabilities(psi, m, g)
            traces = np.array([np.trace(psi.matrix @ m.projectors[i]).real for i in range(n)])
            cosines = (1 + (n - 1) * (m.vertices @ r.coords)) / n
            assert np.max(np.abs(barycentric - traces)) < 1e-10
            assert np.max(np.abs(barycentric - cosines)) < 1e-10


class TestApproachTrajectory:
    def test_endpoints(self):
        m, g = spin_simplex(1.0)
        rng = np.random.default_rng(79)
        r = state_to_bloch(random_density(3, rng), g)
        on = project_onto_simplex(r, m)
        path = list(approach_trajectory(r, m, 7))
        assert path[0][0] == 0.0 and np.array_equal(path[0][1].coords, r.coords)
        assert path[-1][0] == 1.0
        assert np.max(np.abs(path[-1][1].coords - on.parallel.coords)) < 1e-12

    def test_two_level_off_diagonal_decay(self):
        from blochx.bloch import bloch_to_operator
        theta, phi = 1.2, 0.7
        m, g = spin_simplex(0.5)
        r = state_to_bloch(pure_state_from_direction(theta, phi), g)
        half = theta / 2
        off = np.sin(half) * np.cos(half) * np.exp(-1j * phi)
        for tau, point in approach_trajectory(r, m, 50):
            op = bloch_to_operator(point, g)
            expected = np.array([
                [np.cos(half) ** 2, (1 - tau) * off],
                [(1 - tau) * np.conj(off), np.sin(half) ** 2],
            ])
            assert np.max(np.abs(op - expected)) < 1e-12

    def test_rejects_too_few_steps(self):
        m, _ = spin_simplex(0.5)
        with pytest.raises(ValueError, match="steps"):
            approach_trajectory(BlochVector(2, np.zeros(3)), m, 1)


class TestBarycentricStream:
    def test_rows_are_barycentric(self):
        lam = barycentric_stream(4, seed=5, start=0, count=1000)
        assert lam.shape == (1000, 4)
        assert np.max(np.abs(lam.sum(axis=1) - 1.0)) < 1e-12
        assert lam.min() >= 0.0

    def test_index_determines_draw(self):
        for n in (2, 3, 4, 6):
            block = barycentric_stream(n, seed=42, start=0, count=30)
            for i in (0, 1, 7, 29):
                assert np.array_equal(block[i], barycentric_stream(n, 42, i, 1)[0])
            tail = barycentric_stream(n, seed=42, start=10, count=5)
            assert np.array_equal(tail, block[10:15])

    def test_uniform_coverage(self):
        # mean of a flat Dirichlet coordinate is 1/n
        lam = barycentric_stream(3, seed=9, start=0, count=200_000)
        assert np.max(np.abs(lam.mean(axis=0) - 1 / 3)) < 0.005


class TestSampleCollapse:
    def test_eigenstate_is_deterministic(self):
        m, g = spin_simplex(1.0)
        obs = spin_along(build_spin_system(1.0), X3)
        on = project_onto_simplex(state_to_bloch(ket_state(obs.kets[2]), g), m)
        for index in range(64):
            rec = sample_collapse(on, m, seed=3, index=index)
            assert rec.outcome_index == 2
            assert np.max(np.abs(rec.post_state.matrix - m.projectors[2])) < 1e-12

    def test_two_level_balanced_frequencies(self):
        m, g = spin_simplex(0.5)
        on = project_onto_simplex(state_to_bloch(pure_state_from_direction(np.pi / 2, 0.0), g), m)
        outcomes = [sample_collapse(on, m, seed=11, index=i).outcome_index for i in range(20_000)]
        freq = np.mean(outcomes)
        assert abs(freq - 0.5) < 0.01

    def test_subregion_rule_matches_geometric_membership(self):
        # classify uniform barycentric points both by the ratio rule and by
        # solving for their coordinates in each corner sub-simplex
        rng = np.random.default_rng(83)
        weights = np.array([0.5, 0.3, 0.2])
        lam = rng.dirichlet(np.ones(3), size=100_000)
        ratios = lam / weights
        rule_winner = ratios.argmin(axis=1)

        solutions = []
        for i in range(3):
            columns = [weights] + [np.eye(3)[j] for j in range(3) if j != i]
            m_i = np.stack(columns, axis=1)
            solutions.append(np.linalg.solve(m_i, lam.T).T)
        solutions = np.stack(solutions)          # (region, sample, coord)

        margins = np.abs(solutions).min(axis=(0, 2))
        keep = margins > 1e-9
        membership = (solutions >= 0).all(axis=2)    # (region, sample)
        assert np.all(membership[:, keep].sum(axis=0) == 1)
        geometric_winner = membership[:, keep].argmax(axis=0)
        assert np.array_equal(geometric_winner, rule_winner[keep])

    def test_three_level_frequencies_match_trace_oracle(self):
        rng = np.random.default_rng(89)
        direction = Direction3.from_angles(2.0, 1.3)
        m, g = spin_simplex(1.0, direction)
        psi = random_density(3, rng)
        on = project_onto_simplex(state_to_bloch(psi, g), m)
        stats = run_measurement(psi, m, samples=200_000, seed=13, generators=g)
        oracle = np.array([np.trace(psi.matrix @ m.projectors[i]).real for i in range(3)])
        assert np.max(np.abs(stats.empirical - oracle)) < 0.01

    def test_negative_weights_rejected(self):
        m, g = spin_simplex(1.0)
        bad = BlochVector(3, np.eye(8)[7])      # unit last-axis vector: not a state
        on = project_onto_simplex(bad, m)
        assert on.weights.min() < -1e-10
        with pytest.raises(ValueError, match="not a state"):
            sample_collapse(on, m, seed=1)

    def test_boundary_tie_goes_to_lowest_index(self):
        from blochx.measurement import _winning_vertices
        lam = np.array([[0.5, 0.5]])
        weights = np.array([0.5, 0.5])
        assert _winning_vertices(lam, weights)[0] == 0

    def test_all_zero_weights_rejected(self):
        m, _ = spin_simplex(0.5)
        fake = OnSimplexState(parallel=BlochVector(2, np.zeros(3)),
                              weights=np.zeros(2), perp_norm=0.0)
        with pytest.raises(ValueError, match="vanish"):
            sample_collapse(fake, m, seed=1)

    def test_degenerate_outcome_requires_state(self):
        g = build_generators(3)
        obs = spin_along(build_spin_system(1.0), X3)
        m = simplex_from_observable((obs.kets, [1.0, 0.0, 0.0]), g)
        psi = DensityState(np.eye(3) / 3)
        on = project_onto_simplex(state_to_bloch(psi, g), m)
        with pytest.raises(ValueError, match="pre-measurement"):
            # seed/index chosen so the degenerate group wins
            for i in range(50):
                sample_collapse(on, m, seed=2, index=i)


class TestLuedersPostState:
    def test_singleton_group_gives_eigenstate(self):
        m, g = spin_simplex(1.0)
        rng = np.random.default_rng(97)
        psi = random_density(3, rng)
        post = lueders_post_state(psi, m.kets[[1]])
        assert np.max(np.abs(post.matrix - m.projectors[1])) < 1e-12

    def test_pure_state_stays_pure(self):
        rng = np.random.default_rng(101)
        g = build_generators(4)
        obs = spin_along(build_spin_system(1.5), Direction3.from_angles(0.6, 2.0))
        m = simplex_from_observable(obs, g)
        psi = random_ket(4, rng).projector()
        post = lueders_post_state(psi, m.kets[[1, 2]])
        assert abs(np.trace(post.matrix @ post.matrix).real - 1.0) < 1e-10

    def test_maximally_mixed_input(self):
        m, _ = spin_simplex(1.5)
        psi = DensityState(np.eye(4) / 4)
        post = lueders_post_state(psi, m.kets[[0, 2]])
        expected = (m.projectors[0] + m.projectors[2]) / 2
        assert np.max(np.abs(post.matrix - expected)) < 1e-12

    def test_zero_probability_group_rejected(self):
        m, _ = spin_simplex(1.0)
        psi = DensityState(m.projectors[0])
        with pytest.raises(ValueError, match="probability"):
            lueders_post_state(psi, m.kets[[2]])


class TestRunMeasurement:
    def test_eigenstate_has_zero_deviation(self):
        obs = spin_along(build_spin_system(1.0), X3)
        stats = run_measurement(ket_state(obs.kets[0]), obs, samples=5000, seed=17,
                                generators=build_generators(3))
        assert stats.max_abs_deviation == 0.0
        assert np.array_equal(stats.counts, [5000, 0, 0])

    def test_records_match_individual_draws(self):
        rng = np.random.default_rng(103)
        direction = Direction3.from_angles(1.1, 0.2)
        m, g = spin_simplex(1.0, direction)
        obs = spin_along(build_spin_system(1.0), direction)
        degenerate = simplex_from_observable((obs.kets, [1.0, 0.0, 1.0]), g)
        psi = random_density(3, rng)
        for simplex in (m, degenerate):
            on = project_onto_simplex(state_to_bloch(psi, g), simplex)
            stats = run_measurement(psi, simplex, samples=50, seed=19, generators=g)
            # every outcome, the degenerate group's Lueders post-state included
            assert {rec.outcome_index for rec in stats.records_sample} == set(range(simplex.n_outcomes))
            for i, rec in enumerate(stats.records_sample):
                single = sample_collapse(on, simplex, seed=19, index=i, psi=psi)
                assert np.array_equal(rec.lambda_, single.lambda_)
                assert rec.outcome_index == single.outcome_index
                assert rec.post_state.matrix.tobytes() == single.post_state.matrix.tobytes()

    def test_convergence_within_binomial_bound(self):
        rng = np.random.default_rng(107)
        m, g = spin_simplex(1.5, Direction3.from_angles(0.4, -1.0))
        psi = random_density(4, rng)
        samples = 100_000
        stats = run_measurement(psi, m, samples=samples, seed=23, generators=g)
        for p, f in zip(stats.born, stats.empirical):
            bound = 5 * np.sqrt(max(p * (1 - p), 1e-12) / samples)
            assert abs(f - p) < max(bound, 1e-3)

    def test_repeatability_first_kind(self):
        rng = np.random.default_rng(109)
        m, g = spin_simplex(1.0, Direction3.from_angles(2.2, 0.9))
        psi = random_density(3, rng)
        on = project_onto_simplex(state_to_bloch(psi, g), m)
        rec = sample_collapse(on, m, seed=29, index=0)
        post_on = project_onto_simplex(state_to_bloch(rec.post_state, g), m)
        expected = np.zeros(3)
        expected[rec.outcome_index] = 1.0
        assert np.allclose(post_on.weights, expected, atol=1e-10)
        again = run_measurement(rec.post_state, m, samples=500, seed=31, generators=g)
        assert again.empirical[rec.outcome_index] == 1.0

    def test_degenerate_group_statistics_and_post_state(self):
        rng = np.random.default_rng(113)
        g = build_generators(3)
        obs = spin_along(build_spin_system(1.0), Direction3.from_angles(1.4, 0.3))
        m = simplex_from_observable((obs.kets, [1.0, 0.0, 1.0]), g)
        assert m.degeneracy_groups == ((0,), (1, 2))
        psi = random_ket(3, rng).projector()
        stats = run_measurement(psi, m, samples=100_000, seed=37, generators=g)
        per_vertex = born_probabilities(psi, m, g)
        assert abs(stats.born[1] - per_vertex[1] - per_vertex[2]) < 1e-12
        assert abs(stats.empirical[1] - stats.born[1]) < 0.01
        degenerate = [r for r in stats.records_sample if r.outcome_index == 1]
        if degenerate:
            pg = m.projectors[1] + m.projectors[2]
            expected = pg @ psi.matrix @ pg / np.trace(pg @ psi.matrix).real
            assert np.max(np.abs(degenerate[0].post_state.matrix - expected)) < 1e-10

    def test_rejects_zero_samples(self):
        obs = spin_along(build_spin_system(0.5), X3)
        psi = pure_state_from_direction(0.3, 0.0)
        with pytest.raises(ValueError, match="sample"):
            run_measurement(psi, obs, samples=0, seed=1, generators=build_generators(2))


CHUNK = measurement._CHUNK_SAMPLES


def stream_counts(stats, seed):
    """The counts of the whole-array path: every point drawn at once,
    normalized, and classified by ``_winning_vertices``."""
    m = stats.simplex
    lam = barycentric_stream(m.dim_n, seed, 0, stats.samples)
    vertex_counts = np.bincount(measurement._winning_vertices(lam, stats.vertex_weights),
                                minlength=m.dim_n)
    return np.bincount(m.vertex_group, weights=vertex_counts,
                       minlength=m.n_outcomes).astype(np.int64)


def sampled_state(kind, m, rng):
    """A state whose simplex weights are random, zero off a random subset of
    vertices (an eigenstate when the subset has one member), or uniform."""
    n = m.dim_n
    if kind == "random":
        return random_density(n, rng)
    if kind == "uniform":
        return DensityState(np.eye(n) / n)
    support = rng.permutation(n)[:rng.integers(1, n)]
    return DensityState(m.projectors[support].sum(axis=0) / len(support))


def coupled_half_half():
    pair = composite.build_composite(0.5, 0.5)
    g = build_generators(pair.dim)
    m = simplex_from_observable(
        composite.coupled_basis(pair, Direction3.from_angles(1.3, 0.4)).eigensystem(), g)
    return m, g


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16), kind=st.sampled_from(["random", "zeros", "uniform"]),
       samples=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
       seed=st.integers(0, 2 ** 62))
def test_counts_match_the_whole_array_path(n, kind, samples, seed):
    rng = np.random.default_rng(seed)
    g = build_generators(n)
    kets, values = random_observable_frame(n, rng)
    m = simplex_from_observable((kets, values), g)
    stats = run_measurement(sampled_state(kind, m, rng), m, samples, seed, generators=g)
    assert np.array_equal(stats.counts, stream_counts(stats, seed))


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["random", "zeros", "uniform"]),
       samples=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
       seed=st.integers(0, 2 ** 62))
def test_degenerate_coupled_counts_match_the_whole_array_path(kind, samples, seed):
    m, g = coupled_half_half()
    assert m.n_outcomes == 3
    psi = sampled_state(kind, m, np.random.default_rng(seed))
    stats = run_measurement(psi, m, samples, seed, generators=g)
    assert np.array_equal(stats.counts, stream_counts(stats, seed))


@pytest.mark.parametrize("n", (2, 5, 16, 64))
def test_counts_do_not_depend_on_the_chunk_size(n, monkeypatch):
    rng = np.random.default_rng(200 + n)
    g = build_generators(n)
    m = simplex_from_observable(random_observable_frame(n, rng), g)
    psi = random_density(n, rng)
    runs = []
    # one-draw windows over a few hundred draws only: 16,387 of them at N=64
    # took seconds, each paying the winner loop's N-1 steps
    for chunk, samples in ((8192, 2 * 8192 + 3), (7, 2 * 8192 + 3), (1, 301)):
        monkeypatch.setattr(measurement, "_CHUNK_SAMPLES", chunk)
        runs.append(run_measurement(psi, m, samples, 61, generators=g))
    assert np.array_equal(runs[1].counts, runs[0].counts)
    for stats in runs[1:]:
        for rec, first in zip(stats.records_sample, runs[0].records_sample, strict=True):
            assert np.array_equal(rec.lambda_, first.lambda_)
            assert rec.outcome_index == first.outcome_index
    for stats in (runs[0], runs[2]):
        assert np.array_equal(stats.counts, stream_counts(stats, 61))


def test_records_do_not_keep_the_sample_array():
    m, g = spin_simplex(0.5)
    psi = pure_state_from_direction(1.0, 0.0)
    stats = run_measurement(psi, m, 1_000_000, 67, generators=g)
    assert len(stats.records_sample) == 10
    for rec in stats.records_sample:
        assert rec.lambda_.base is None or rec.lambda_.base.nbytes <= 10 * 2 * 8
    # fewer samples than records: one record per sample
    assert len(run_measurement(psi, m, 3, 67, generators=g).records_sample) == 3


def traced_peak(psi, m, g, samples):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run_measurement(psi, m, samples, 71, generators=g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s,samples", ((0.5, 2_000_000), (3.5, 200_000), (7.5, 200_000),
                                       (15.5, 100_000), (31.5, 50_000)))
def test_sampler_memory_is_bounded(s, samples):
    # one bound for every N, since windows shrink as N grows: 1.1-1.3 MB
    # traced at N >= 8, and 1.65-1.72 MB if a window's arrays outlive it
    m, g = spin_simplex(s)
    psi = random_density(m.dim_n, np.random.default_rng(73))
    assert traced_peak(psi, m, g, samples) < 1.5e6


def test_sampler_memory_is_flat_in_the_sample_count():
    m, g = spin_simplex(0.5)
    psi = pure_state_from_direction(0.9, 0.3)
    small = traced_peak(psi, m, g, 200_000)
    large = traced_peak(psi, m, g, 2_000_000)
    assert large <= 1.5 * small


def zero_weight_state(m, rng):
    """A state on the eigenstates of a random half of the vertices, so the
    other half have weight zero."""
    support = rng.permutation(m.dim_n)[:max(1, m.dim_n // 2)]
    return DensityState(m.projectors[support].sum(axis=0) / len(support))


def split_cases():
    rng = np.random.default_rng(301)
    for n in (2, 5, 16):
        g = build_generators(n)
        m = simplex_from_observable(random_observable_frame(n, rng), g)
        yield f"N={n}", m, g, random_density(n, rng)
        yield f"N={n} zero weights", m, g, zero_weight_state(m, rng)
    m, g = coupled_half_half()
    yield "1/2x1/2 coupled", m, g, random_density(4, rng)


@pytest.mark.parametrize("chunk,samples", ((1, 300), (7, 1000), (8192, 40_000)))
@pytest.mark.parametrize("case", list(split_cases()), ids=lambda case: case[0])
def test_counts_do_not_depend_on_the_worker_count(case, chunk, samples, monkeypatch):
    _, m, g, psi = case
    monkeypatch.setattr(measurement, "_CHUNK_SAMPLES", chunk)
    runs = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(measurement, "_allowed_cores", lambda workers=workers: workers)
        runs.append(run_measurement(psi, m, samples, 83, generators=g))
    for stats in runs:
        assert np.array_equal(stats.counts, stream_counts(stats, 83))


def test_a_worker_reads_its_claimed_windows_at_their_counters():
    n, samples, draws = 5, 1003, 100
    weights = np.random.default_rng(89).dirichlet(np.ones(n))
    positive = np.flatnonzero(weights > 0.0)
    # two workers whose claims interleave; the last claim of each is past the end
    tallies = [[], []]
    for claims, tally in zip(([1, 4, 5, 9, 10, 11], [0, 2, 3, 6, 7, 8, 12]), tallies):
        measurement._count_windows(iter(claims), 89, samples, draws, 8, positive,
                                   weights[positive][:, None], tally)
    assert all(len(tally) == 1 for tally in tallies)
    lam = barycentric_stream(n, 89, 0, samples)
    expected = np.bincount(measurement._winning_vertices(lam, weights), minlength=n)
    assert np.array_equal(tallies[0][0] + tallies[1][0], expected[positive])


def count_helpers(monkeypatch):
    """Patch the sampler's Thread so that each thread started on the window
    counter is recorded; other threads start as usual."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            if self._target is measurement._count_windows:
                started.append(self)
            super().start()

    monkeypatch.setattr(measurement.threading, "Thread", Recorded)
    return started


@pytest.mark.parametrize("s,samples,split", ((0.5, 1_000, False), (0.5, 40_000, True),
                                             (7.5, 40_000, True), (15.5, 100_000, False)))
def test_helpers_start_only_for_a_split_worth_making(s, samples, split, monkeypatch):
    # below four windows, or under 2048 draws a split window (N >= 32), one thread counts
    started = count_helpers(monkeypatch)
    monkeypatch.setattr(measurement, "_allowed_cores", lambda: 4)
    m, g = spin_simplex(s)
    run_measurement(random_density(m.dim_n, np.random.default_rng(97)), m, samples, 97,
                    generators=g)
    assert (len(started) > 0) == split


def test_a_failing_helper_fails_the_call(monkeypatch):
    monkeypatch.setattr(measurement, "_allowed_cores", lambda: 2)
    calls = []
    real = measurement._window_wins

    def fail_off_the_calling_thread(*args):
        calls.append(threading.current_thread())
        if calls[-1] is not threading.main_thread():
            raise MemoryError("window")
        time.sleep(0.01)  # leave windows for the helper
        return real(*args)

    monkeypatch.setattr(measurement, "_window_wins", fail_off_the_calling_thread)
    m, g = spin_simplex(0.5)
    psi = random_density(2, np.random.default_rng(101))
    try:
        stats = run_measurement(psi, m, 200_000, 101, generators=g)
    except MemoryError:
        # the calling thread stopped claiming once the helper failed, long before
        # it could count all 25 windows
        assert sum(t is threading.main_thread() for t in calls) < 12
        return
    # the helper got no window before the calling thread had counted them all
    assert all(t is threading.main_thread() for t in calls)
    assert np.array_equal(stats.counts, stream_counts(stats, 101))


def test_more_workers_than_cores_lose_no_window(monkeypatch):
    # four workers on tiny windows, with a thread switch as often as the
    # interpreter allows: a lost tally or a window counted twice changes the counts
    started = count_helpers(monkeypatch)
    monkeypatch.setattr(measurement, "_allowed_cores", lambda: 4)
    monkeypatch.setattr(measurement, "_CHUNK_SAMPLES", 7)
    m, g = spin_simplex(1.5)
    psi = random_density(4, np.random.default_rng(107))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: results.extend(
            run_measurement(psi, m, 20_000 + seed, seed, generators=g) for seed in range(5)))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(results) == 5
    assert len(started) == 3 * 5  # three helpers for each call
    for seed, stats in enumerate(results):
        assert np.array_equal(stats.counts, stream_counts(stats, seed))


@pytest.mark.parametrize("cores", (2, 4))
def test_no_sampler_thread_outlives_its_call(cores):
    # in a fresh process, so that no thread an earlier test left can hide one
    code = f"""if True:
        import threading, numpy as np
        from blochx import bloch, measurement
        from blochx.generators import build_generators
        from blochx.spin import X3, build_spin_system, spin_along
        measurement._allowed_cores = lambda: {cores}
        started = []
        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()
        measurement.threading.Thread = Recorded
        g = build_generators(2)
        psi = bloch.random_density(2, np.random.default_rng(109))
        before = threading.active_count()
        measurement.run_measurement(psi, spin_along(build_spin_system(0.5), X3), 200_000,
                                    109, generators=g)
        print(len(started), before, threading.active_count())
    """
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC_ROOT)}, timeout=120)
    assert result.returncode == 0, result.stderr
    helpers, before, after = map(int, result.stdout.split())
    assert helpers == cores - 1 and after == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_counts_without_its_parents_helpers(monkeypatch):
    monkeypatch.setattr(measurement, "_allowed_cores", lambda: 2)
    m, g = spin_simplex(0.5)
    psi = random_density(2, np.random.default_rng(103))
    parent = run_measurement(psi, m, 40_000, 103, generators=g).counts
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            counts = run_measurement(psi, m, 40_000, 103, generators=g).counts
            os.write(write, b"ok" if np.array_equal(counts, parent) else b"no")
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as pipe:
        assert pipe.read() == b"ok"


def test_cli_start_up_does_not_import_concurrent_futures():
    code = "import sys, blochx.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC_ROOT)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
