"""The stacked eigenbasis pass against its oracles.

``bloch._bloch_rows`` builds a whole eigenbasis's coordinate rows in blocks,
from products of its kets' own entries or from matrices, and a single state is
its one-row case.  Reports carry their last bits, so every comparison here is
bitwise: ``DensityState(np.outer(v, v.conj()))`` is the oracle for the
projectors ``bloch._projectors`` forms, the rows of kets must equal the rows of
those projectors, which the ket pass never forms, and each coordinate row must
equal its own one-row pass and, up to the sign of a zero, the einsum over the
dense stack ``g.matrices`` (built up to N=24).
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx import bloch, composite
from blochx.bloch import DensityState, PureState, _bloch_rows, _projectors, projector_to_ket, state_to_bloch
from blochx.composite import build_composite, coupled_basis, product_basis
from blochx.correspondence import (direction_scale_composite, direction_scale_single,
                                   space_vector_composite, space_vector_single)
from blochx.generators import build_generators
from blochx.linalg import degeneracy_groups, eigh
from blochx.measurement import simplex_from_observable
from blochx.spin import X1, X2, X3, Direction3, build_spin_system, spin_along
from conftest import fix_phase, ket_state, random_hermitian

DENSE_MAX_N = 24  # the dense stack holds 16 N^2 (N^2 - 1) bytes: 5.3 MB at N=24

# tracemalloc peaks of one call at N=64 along X3: from kets, about 3.0 MB per direction
# vector and 3.1 MB per simplex (one block of projectors at a time; 8.6 MB while the
# simplex kept its N projectors), against 7.1 and 12.7 MB when each eigenstate was a
# DensityState projector
N64_PEAK_BYTES = {"single": 4_000_000, "coupled": 4_000_000, "product": 4_000_000,
                  "simplex": 4_000_000}
# tracemalloc peak of one _bloch_rows call on the 5/2 x 5/2 coupled kets (N=36): 372,960 B
# of rows and at most a block and a half of entries, about 0.57 MB (1.11 MB while each block
# became projectors through buffered broadcasts).  glibc trims the heap once its free top
# passes twice the largest chunk it has unmapped, here the rows, so from about 0.75 MB on
# every call handed its pages back and the next faulted them in again (126-173 minor faults
# per direction_sweep operation)
N36_PEAK_BYTES = 800_000


def _frame(n, rng, degenerate):
    """Kets of a random orthonormal frame, eigh's kets as the strided rows of an
    F-ordered array; with ``degenerate`` the observable has repeated eigenvalues."""
    h = random_hermitian(n, rng)
    if degenerate:
        _, u = np.linalg.eigh(h)
        h = (u * rng.integers(0, max(1, n // 3), n)) @ u.conj().T
        h = (h + h.conj().T) / 2.0
    return np.asfortranarray(eigh(h)[1])


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _assert_rows_match_per_vertex(kets, g):
    rows = _bloch_rows(kets, g)
    states = [ket_state(ket) for ket in kets]
    assert rows.flags.c_contiguous
    assert _bits(rows) == _bits(np.stack([state_to_bloch(p, g).coords for p in states]))
    if g.dim <= DENSE_MAX_N:
        dense = [np.einsum("kij,ji->k", g.matrices, p.matrix) * (g.dim / (2.0 * g.c)) for p in states]
        # equal values: a zero may carry the other sign in the einsum
        assert np.array_equal(rows, np.stack(dense).real)


def _direction(seed):
    return Direction3.normalized(np.random.default_rng(seed).standard_normal(3))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), degenerate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_frames_match_the_per_vertex_path(n, degenerate, seed):
    kets = _frame(n, np.random.default_rng(seed), degenerate)
    projectors = _projectors(kets)
    for p, ket in zip(projectors, kets):
        assert _bits(p) == _bits(ket_state(ket).matrix)
    _assert_rows_match_per_vertex(kets, build_generators(n))
    # a (k, N, N) stack gives the same rows as a list of matrices
    assert _bits(_bloch_rows(projectors, build_generators(n))) \
        == _bits(_bloch_rows(list(projectors), build_generators(n)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), degenerate=st.booleans(), strided=st.booleans(),
       basis=st.sampled_from(("frame", "axis", "coupled", "product")), seed=st.integers(0, 2 ** 32 - 1))
def test_kets_give_the_rows_of_their_projectors(n, degenerate, strided, basis, seed):
    if basis == "frame":
        kets = _frame(n, np.random.default_rng(seed), degenerate)
    elif basis == "axis":  # kets of exact zeros, whose products carry zero signs
        kets = spin_along(build_spin_system((n - 1) / 2), (X1, X2, X3)[seed % 3]).kets
    else:  # the N=36 and N=64 composites
        pair = build_composite(*((2.5, 2.5), (3.5, 3.5))[seed % 2])
        kets = (coupled_basis if basis == "coupled" else product_basis)(pair, _direction(seed)).kets
        n = pair.dim
    kets = np.asfortranarray(kets) if strided else np.ascontiguousarray(kets)
    assert kets.flags.c_contiguous != strided
    g = build_generators(n)
    assert _bits(_bloch_rows(kets, g)) == _bits(_bloch_rows(_projectors(kets), g))


def test_the_ket_pass_forms_no_projectors(monkeypatch):
    calls = []

    def spy(kets):
        calls.append(len(kets))
        return _projectors(kets)

    monkeypatch.setattr(bloch, "_projectors", spy)
    for s in (0.5, 7.5, 17.5, 31.5):
        system = build_spin_system(s)
        g = build_generators(system.dim)
        _bloch_rows(spin_along(system, _direction(int(2 * s))).kets, g)
        space_vector_single(system, X1, g)
    pair = build_composite(2.5, 2.5)
    g = build_generators(pair.dim)
    for basis in ("coupled", "product"):
        space_vector_composite(pair, _direction(1), basis, g)
    assert not calls
    PureState(np.array([0.6, 0.8j])).projector()  # the spy sees what bloch forms
    assert calls == [1]


@settings(max_examples=30, deadline=None)
@given(two_s=st.integers(1, 63), seed=st.integers(0, 2 ** 32 - 1))
def test_spin_eigenbases_match_the_per_vertex_path(two_s, seed):
    sys_ = build_spin_system(two_s / 2)
    g = build_generators(sys_.dim)
    d = _direction(seed)
    obs = spin_along(sys_, d)
    values, kets = eigh(sys_.component_along(d))
    assert obs.kets.flags.c_contiguous and _bits(obs.kets) == _bits(kets)
    for p, ket in zip(_projectors(obs.kets), kets):
        assert _bits(p) == _bits(ket_state(ket).matrix)
    _assert_rows_match_per_vertex(obs.kets, g)
    per_vertex = np.stack([state_to_bloch(ket_state(k), g).coords for k in obs.kets])
    v = space_vector_single(sys_, d, g)
    assert _bits(v.coords) == _bits(direction_scale_single(sys_.dim) * (obs.eigenvalues @ per_vertex))
    m = simplex_from_observable(obs, g)
    # the layout too: products with the vertices depend on it
    assert m.vertices.flags.c_contiguous and _bits(m.vertices) == _bits(per_vertex)


def _snap_half_integer(x, bound):
    """The scalar snap of one eigenvalue onto the half-integer grid, as the coupled
    basis labeled its entries one at a time: the oracle for its vectorized snap."""
    snapped = round(2.0 * x) / 2.0
    if abs(x - snapped) > 1e-9 or abs(snapped) > bound + 1e-9:
        raise ValueError(f"eigenvalue {x} is not on the expected half-integer grid")
    return snapped


def _coupled_per_entry(c, d):
    """The coupled basis one entry at a time, as it was built before it was an
    array: eigenvectors as the F-ordered columns of each S^2 block, and each
    entry ``PureState(fix_phase(B @ column))``, sorted by (s, mu)."""
    def columns(a):
        w, v = np.linalg.eigh(a)
        return w, np.column_stack([fix_phase(v[:, i]) for i in range(len(w))])

    w, casimir = columns(c.total_s_squared)
    total = c.total_along(d)
    entries = []
    for group in degeneracy_groups(w):
        s = composite._spin_from_casimir(float(w[group[0]]))
        block = casimir[:, group]
        sub = block.conj().T @ total @ block
        sub_w, sub_v = columns((sub + sub.conj().T) / 2.0)
        entries += [(s, _snap_half_integer(float(sub_w[j]), s),
                     PureState(fix_phase(block @ sub_v[:, j])).amplitudes)
                    for j in range(len(group))]
    entries.sort(key=lambda e: e[:2])
    return entries


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.tuples(st.integers(-9, 9), st.sampled_from((0.0, -1e-12, 1e-12, -5e-10, 5e-10))),
                       min_size=1, max_size=12),
       faults=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(("off grid", "past bound"))), max_size=2))
def test_snap_equals_the_scalar_snap(values, faults):
    """The vectorized snap against the scalar one: the same labels bit for bit (no
    -0.0 from the eigenvalues just below 0), and the first value off the grid or
    past its bound raises with the scalar's text."""
    x = np.array([k / 2.0 + off for k, off in values])
    bound = np.array([abs(k) / 2.0 for k, _ in values])
    for at, fault in faults:
        if at < len(x):
            if fault == "off grid":
                x[at] += 0.25
            else:
                bound[at] -= 0.5
    try:
        expected = np.array([_snap_half_integer(float(v), float(b)) for v, b in zip(x, bound)])
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            composite._snap_half_integers(x, bound)
        assert str(raised.value) == str(error)
    else:
        assert _bits(composite._snap_half_integers(x, bound)) == _bits(expected)


def _product_per_entry(c, d):
    """The product basis one entry at a time: each factor ket recovered from its
    validated projector, and each entry ``PureState(np.kron(a, b))``."""
    factors = [[(mu, projector_to_ket(ket_state(k)).amplitudes) for mu, k in zip(obs.eigenvalues, obs.kets)]
               for obs in (spin_along(c.system1, d), spin_along(c.system2, d))]
    return [(mu1, mu2, PureState(np.kron(a, b)).amplitudes) for mu1, a in factors[0] for mu2, b in factors[1]]


def _assert_bases_match_the_per_entry_path(c, d):
    coupled, product = coupled_basis(c, d), product_basis(c, d)
    for basis, labels, per_entry in ((coupled, (coupled.s, coupled.eigenvalues), _coupled_per_entry(c, d)),
                                     (product, (product.mu1, product.mu2), _product_per_entry(c, d))):
        assert basis.kets.flags.c_contiguous
        assert _bits(basis.kets) == _bits(np.stack([e[2] for e in per_entry]))
        assert [tuple(map(float, pair)) for pair in zip(*labels)] == [e[:2] for e in per_entry]
    return coupled, product


@pytest.mark.parametrize("s1,s2,d", ((2.5, 2.5, X1), (0.5, 15.5, Direction3.normalized([0.1, 0.9, -0.2]))))
def test_composite_kets_match_the_per_entry_path(s1, s2, d):
    _assert_bases_match_the_per_entry_path(build_composite(s1, s2), d)


@settings(max_examples=25, deadline=None)
@given(two_s1=st.integers(1, 7), two_s2=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_composite_bases_match_the_per_vertex_path(two_s1, two_s2, seed):
    c = build_composite(two_s1 / 2, two_s2 / 2)
    g = build_generators(c.dim)
    d = _direction(seed)
    coupled, product = _assert_bases_match_the_per_entry_path(c, d)
    scale = direction_scale_composite(c.system1.dim, c.system2.dim)
    for name, basis in (("coupled", coupled), ("product", product)):
        kets, weights = basis.kets, basis.eigenvalues
        per_entry = [ket_state(k) for k in kets]
        for p, expected in zip(_projectors(kets), per_entry):
            assert _bits(p) == _bits(expected.matrix)
        _assert_rows_match_per_vertex(kets, g)
        per_vertex = np.stack([state_to_bloch(p, g).coords for p in per_entry])
        v = space_vector_composite(c, d, name, g)
        assert _bits(v.coords) == _bits(scale * (weights @ per_vertex))


def _assert_same_simplex(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert (_bits(x) == _bits(y)) if isinstance(x, np.ndarray) else (x == y), field.name


@settings(max_examples=25, deadline=None)
@given(two_s=st.integers(1, 63),
       pair=st.integers(1, 31).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, 64 // (a + 1) - 1))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_eigenbasis_is_its_kets_and_eigenvalues(two_s, pair, seed):
    # one shape: a basis gives the simplex of its (kets, eigenvalues) pair, bit for bit
    d = _direction(seed)
    system, c = build_spin_system(two_s / 2), build_composite(pair[0] / 2, pair[1] / 2)
    g, gc = build_generators(system.dim), build_generators(c.dim)
    observable, product = spin_along(system, d), product_basis(c, d)
    assert _bits(product.eigenvalues) == _bits(product.mu1 + product.mu2)
    for basis, gen in ((observable, g), (simplex_from_observable(observable, g), g),
                       (coupled_basis(c, d), gc), (product, gc)):
        _assert_same_simplex(simplex_from_observable(basis, gen),
                             simplex_from_observable((basis.kets, basis.eigenvalues), gen))


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
        obs = spin_along(sys_, d)
        m = simplex_from_observable(obs, g)
        runs.append([space_vector_single(sys_, d, g).coords, m.vertices, m.projectors,
                     _bloch_rows(obs.kets, g)]
                    + [space_vector_composite(pair, d, basis, g_pair).coords
                       for basis in ("coupled", "product")])
    for run in runs[1:]:
        for a, b in zip(run, runs[0]):
            assert _bits(a) == _bits(b)


@pytest.mark.parametrize("bad,error", (
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "imaginary residue"),  # not Hermitian
    (np.diag([1.5, -0.5]), "coordinate norm"),  # Hermitian, unit trace, not a state
))
@pytest.mark.parametrize("position", (0, 4, 8))
def test_bloch_rows_fail_as_state_to_bloch_does(bad, error, position, monkeypatch):
    g = build_generators(2)
    good = list(_projectors(spin_along(build_spin_system(0.5), X3).kets)) * 4
    # states that skipped validation, as a caller bypassing DensityState makes them
    d = DensityState._wrap(bad.astype(complex))
    with pytest.raises(ValueError, match=error) as one:
        state_to_bloch(d, g)
    monkeypatch.setattr(bloch, "_BLOCK_BYTES", 16 * 2 * 2 * 3)  # blocks of three
    matrices = good[:position] + [d.matrix] + good[position:]
    with pytest.raises(type(one.value)) as stacked:
        _bloch_rows(matrices, g)
    assert str(stacked.value) == str(one.value)


RESIDUE_BAD = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
NORM_BAD = np.diag([1.5, -0.5]).astype(complex)


@pytest.mark.parametrize("first,second,error", (
    (NORM_BAD, RESIDUE_BAD, "coordinate norm"),
    (RESIDUE_BAD, NORM_BAD, "imaginary residue"),
    # one row failing both checks reports its residue
    (np.array([[1.5, 0.1], [0.0, -0.5]], dtype=complex), NORM_BAD, "imaginary residue"),
))
def test_bloch_rows_report_the_first_failing_row_of_a_block(first, second, error, monkeypatch):
    g = build_generators(2)
    good = _projectors(spin_along(build_spin_system(0.5), X3).kets)[0]
    monkeypatch.setattr(bloch, "_BLOCK_BYTES", 16 * 2 * 2 * 3)  # blocks of three
    with pytest.raises(ValueError, match=error):
        _bloch_rows([good, good, good, good, first, second], g)


def test_bloch_rows_checks_the_dimension():
    with pytest.raises(ValueError, match="dimension mismatch: state is 3, generators are 2"):
        _bloch_rows([np.eye(3) / 3], build_generators(2))
    with pytest.raises(ValueError, match="dimension mismatch: state is 3, generators are 2"):
        _bloch_rows(np.ones((2, 3)) / np.sqrt(3), build_generators(2))


def test_casimir_is_diagonalized_once_per_composite(monkeypatch):
    calls, splits = [], []

    def spy(a):
        calls.append(a)
        return eigh(a)

    def split_spy(values):
        splits.append(values)
        return degeneracy_groups(values)

    monkeypatch.setattr(composite, "eigh", spy)
    monkeypatch.setattr(composite, "degeneracy_groups", split_spy)
    pairs = [build_composite(1.5, 1.0), build_composite(2.5, 0.5)]
    assert not calls and not splits  # building a composite splits nothing yet
    for c in pairs:
        g = build_generators(c.dim)
        for seed in range(4):
            coupled_basis(c, _direction(seed))
            space_vector_composite(c, _direction(seed), "coupled", g)
    for c in pairs:
        assert sum(a is c.total_s_squared for a in calls) == 1
    assert len(splits) == len(pairs)  # the eigenspace split too, once per composite
    assert len(calls) > len(pairs)  # the per-direction blocks are still diagonalized


@pytest.mark.parametrize("s1,s2", ((1.5, 1.0), (2.5, 2.5), (0.5, 15.5)))
def test_a_warm_composite_gives_a_fresh_ones_bits(s1, s2):
    warm = build_composite(s1, s2)
    for seed in range(5):
        coupled_basis(warm, _direction(seed))
    for d in (X3, _direction(5), _direction(0)):
        fresh, kept = coupled_basis(build_composite(s1, s2), d), coupled_basis(warm, d)
        for a, b in ((fresh.kets, kept.kets), (fresh.s, kept.s), (fresh.eigenvalues, kept.eigenvalues)):
            assert _bits(a) == _bits(b)


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
    assert _traced_peak(lambda: space_vector_single(single, X3, g)) <= N64_PEAK_BYTES["single"]
    for basis in ("coupled", "product"):
        pair = build_composite(3.5, 3.5)
        peak = _traced_peak(lambda: space_vector_composite(pair, X3, basis, g))
        assert peak <= N64_PEAK_BYTES[basis]


def test_n36_rows_stay_within_their_peak():
    pair = build_composite(2.5, 2.5)
    g = build_generators(pair.dim)
    g._reads  # built once per generator set, outside the measurement
    kets = coupled_basis(pair, _direction(7)).kets
    assert _traced_peak(lambda: _bloch_rows(kets, g)) <= N36_PEAK_BYTES


def test_n64_simplex_stays_within_its_peak():
    g = build_generators(64)
    g._layout  # built once per generator set, outside the measurement
    single = build_spin_system(31.5)
    peak = _traced_peak(lambda: simplex_from_observable(spin_along(single, X3), g))
    assert peak <= N64_PEAK_BYTES["simplex"]
