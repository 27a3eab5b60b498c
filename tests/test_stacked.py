"""The stacked eigenbasis pass against the one-state-at-a-time path.

``DensityState._rank1_rows`` and ``bloch._bloch_rows`` build a whole
eigenbasis's projectors and coordinate rows in blocks.  Reports carry their
last bits, so every comparison here is bitwise: the per-vertex
``DensityState._rank1`` and ``state_to_bloch`` are the oracle.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx import bloch, composite
from blochx.bloch import DensityState, PureState, _bloch_rows, projector_to_ket, state_to_bloch
from blochx.composite import build_composite, coupled_basis, product_basis
from blochx.correspondence import (direction_scale_composite, direction_scale_single,
                                   space_vector_composite, space_vector_single)
from blochx.generators import build_generators
from blochx.linalg import eigh
from blochx.measurement import simplex_from_observable
from blochx.spin import X3, Direction3, build_spin_system, spin_along
from conftest import random_hermitian

# tracemalloc peaks of one call at N=64 along X3 before the stacked pass,
# when every vertex kept its own complex coordinate array until np.stack
PER_VERTEX_PEAK_BYTES = {"single": 10_598_942, "coupled": 10_535_652, "product": 10_544_129}


def _frame(n, rng, degenerate):
    """Kets of a random orthonormal frame as the strided rows spin_along
    reads; with ``degenerate`` the observable has repeated eigenvalues."""
    h = random_hermitian(n, rng)
    if degenerate:
        _, u = np.linalg.eigh(h)
        h = (u * rng.integers(0, max(1, n // 3), n)) @ u.conj().T
        h = (h + h.conj().T) / 2.0
    return eigh(h).eigenvectors.T


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _assert_rows_match_per_vertex(states, g):
    rows = _bloch_rows([p.matrix for p in states], g)
    assert rows.flags.c_contiguous
    assert _bits(rows) == _bits(np.stack([state_to_bloch(p, g).coords for p in states]))


def _direction(seed):
    return Direction3.normalized(np.random.default_rng(seed).standard_normal(3))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), degenerate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_frames_match_the_per_vertex_path(n, degenerate, seed):
    kets = _frame(n, np.random.default_rng(seed), degenerate)
    states = DensityState._rank1_rows(kets)
    for state, ket in zip(states, kets):
        assert _bits(state.matrix) == _bits(DensityState._rank1(ket).matrix)
    _assert_rows_match_per_vertex(states, build_generators(n))
    # a (k, N, N) stack gives the same rows as a list of matrices
    assert _bits(_bloch_rows(np.stack([p.matrix for p in states]), build_generators(n))) \
        == _bits(_bloch_rows([p.matrix for p in states], build_generators(n)))


@settings(max_examples=30, deadline=None)
@given(two_s=st.integers(1, 63), seed=st.integers(0, 2 ** 32 - 1))
def test_spin_eigenbases_match_the_per_vertex_path(two_s, seed):
    sys_ = build_spin_system(two_s / 2)
    g = build_generators(sys_.dim)
    d = _direction(seed)
    obs = spin_along(sys_, d)
    es = eigh(sys_.component_along(d))
    for i, state in enumerate(obs.eigenstates):
        assert _bits(state.matrix) == _bits(DensityState._rank1(es.column(i)).matrix)
    _assert_rows_match_per_vertex(obs.eigenstates, g)
    per_vertex = np.stack([state_to_bloch(p, g).coords for p in obs.eigenstates])
    v = space_vector_single(sys_, d, g)
    assert _bits(v.coords) == _bits(direction_scale_single(sys_.dim) * (obs.eigenvalues @ per_vertex))
    m = simplex_from_observable(obs, g)
    # the layout too: products with the vertices depend on it
    assert m.vertices.flags.c_contiguous and _bits(m.vertices) == _bits(per_vertex)


@settings(max_examples=25, deadline=None)
@given(two_s1=st.integers(1, 7), two_s2=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_composite_bases_match_the_per_vertex_path(two_s1, two_s2, seed):
    c = build_composite(two_s1 / 2, two_s2 / 2)
    g = build_generators(c.dim)
    d = _direction(seed)
    kets = [[projector_to_ket(p) for p in spin_along(sys_, d).eigenstates]
            for sys_ in (c.system1, c.system2)]
    product = product_basis(c, d)
    for e, (a, b) in zip(product.entries, ((a, b) for a in kets[0] for b in kets[1])):
        assert _bits(e.state.amplitudes) == _bits(PureState(np.kron(a.amplitudes, b.amplitudes)).amplitudes)
    scale = direction_scale_composite(c.system1.dim, c.system2.dim)
    for name, basis in (("coupled", coupled_basis(c, d)), ("product", product)):
        states, weights = basis.eigensystem()
        per_entry = [e.state.projector() for e in basis.entries]
        for state, expected in zip(states, per_entry):
            assert _bits(state.matrix) == _bits(expected.matrix)
        _assert_rows_match_per_vertex(states, g)
        per_vertex = np.stack([state_to_bloch(p, g).coords for p in per_entry])
        v = space_vector_composite(c, d, name, g)
        assert _bits(v.coords) == _bits(scale * (weights @ per_vertex))


@pytest.mark.parametrize("s", (1.5, 7.5, 17.5, 31.5))
def test_outputs_do_not_depend_on_the_block_size(s, monkeypatch):
    sys_ = build_spin_system(s)
    n = sys_.dim
    g = build_generators(n)
    pair = build_composite(1.5, 1.0)
    g_pair = build_generators(pair.dim)
    d = _direction(int(2 * s))
    runs = []
    for block_bytes in (16 * n * n, bloch._BLOCK_BYTES, 16 * n ** 3):
        monkeypatch.setattr(bloch, "_BLOCK_BYTES", block_bytes)
        m = simplex_from_observable(spin_along(sys_, d), g)
        runs.append([space_vector_single(sys_, d, g).coords, m.vertices, m.projectors]
                    + [space_vector_composite(pair, d, basis, g_pair).coords
                       for basis in ("coupled", "product")])
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            assert _bits(a) == _bits(b)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 64), factor=st.sampled_from([0.5, 0.999, 1.001, 2.0, np.nan]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rank1_rows_rejects_a_non_unit_ket_as_rank1_does(n, factor, seed):
    rng = np.random.default_rng(seed)
    kets = np.array(_frame(n, rng, False))
    i = int(rng.integers(n))
    kets[i] *= factor
    # a NaN ket fails the Hermiticity check first
    with pytest.raises(ValueError, match="trace .* is not 1|not Hermitian") as one:
        DensityState._rank1(kets[i])
    with pytest.raises(ValueError) as stacked:
        DensityState._rank1_rows(kets)
    assert str(stacked.value) == str(one.value)


@pytest.mark.parametrize("bad,error", (
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "imaginary residue"),  # not Hermitian
    (np.diag([1.5, -0.5]), "coordinate norm"),  # Hermitian, unit trace, not a state
))
@pytest.mark.parametrize("position", (0, 4, 8))
def test_bloch_rows_fail_as_state_to_bloch_does(bad, error, position, monkeypatch):
    g = build_generators(2)
    good = [p.matrix for p in spin_along(build_spin_system(0.5), X3).eigenstates] * 4
    # states that skipped validation, as a caller bypassing DensityState makes them
    d = DensityState._wrap(bad.astype(complex))
    with pytest.raises(ValueError, match=error) as one:
        state_to_bloch(d, g)
    monkeypatch.setattr(bloch, "_BLOCK_BYTES", 16 * 2 * 2 * 3)  # blocks of three
    matrices = good[:position] + [d.matrix] + good[position:]
    with pytest.raises(type(one.value)) as stacked:
        _bloch_rows(matrices, g)
    assert str(stacked.value) == str(one.value)


def test_bloch_rows_checks_the_dimension():
    with pytest.raises(ValueError, match="dimension mismatch: state is 3, generators are 2"):
        _bloch_rows([np.eye(3) / 3], build_generators(2))


def test_casimir_is_diagonalized_once_per_composite(monkeypatch):
    calls = []

    def spy(a):
        calls.append(a)
        return eigh(a)

    monkeypatch.setattr(composite, "eigh", spy)
    pairs = [build_composite(1.5, 1.0), build_composite(2.5, 0.5)]
    for c in pairs:
        g = build_generators(c.dim)
        for seed in range(4):
            coupled_basis(c, _direction(seed))
            space_vector_composite(c, _direction(seed), "coupled", g)
    for c in pairs:
        assert sum(a is c.total_s_squared for a in calls) == 1
    assert len(calls) > len(pairs)  # the per-direction blocks are still diagonalized


def _traced_peak(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_n64_direction_vectors_stay_within_the_per_vertex_peak():
    g = build_generators(64)
    g._layout  # built once per generator set, outside the measurement
    single = build_spin_system(31.5)
    assert _traced_peak(lambda: space_vector_single(single, X3, g)) <= PER_VERTEX_PEAK_BYTES["single"]
    for basis in ("coupled", "product"):
        pair = build_composite(3.5, 3.5)
        peak = _traced_peak(lambda: space_vector_composite(pair, X3, basis, g))
        assert peak <= PER_VERTEX_PEAK_BYTES[basis]
