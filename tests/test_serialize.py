import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochx.bloch import _projectors
from blochx.generators import build_generators
from blochx.serialize import _complex_text, dumps, write
from blochx.spin import Direction3, build_spin_system, spin_along
from conftest import nested_lists

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1e-310, -5e-324,
           2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300]
FLOATS = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
SHAPES = st.one_of(st.tuples(st.integers(0, 5)),
                   st.integers(0, 5).map(lambda n: (n, n)),
                   st.tuples(st.integers(0, 3), st.integers(0, 4))
                   .map(lambda kn: (kn[0], kn[1], kn[1])),
                   st.tuples(st.integers(0, 5), st.integers(0, 5)),
                   st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)))
# tracemalloc peak of _complex_text on one N=64 projector at a report's nesting: its
# text is 241 kB, and its template and its 8,192 floats bring the peak to about 0.61 MB.
# Formatting each distinct float once, through np.unique and an object array of
# cells, peaked at 1.78 MB
N64_PROJECTOR_TEXT_PEAK_BYTES = 800_000


@st.composite
def complex_arrays(draw, shape=SHAPES):
    shape = draw(shape)
    size = int(np.prod(shape))
    parts = draw(st.lists(FLOATS, min_size=2 * size, max_size=2 * size))
    a = np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)
    if a.ndim > 1 and draw(st.booleans()):
        a = np.swapaxes(a, -1, -2)  # not C-contiguous
    return a


@st.composite
def wrappers(draw):
    """A function putting its argument inside dicts and lists, several deep."""
    kinds = draw(st.lists(st.sampled_from(["dict", "list", "mixed"]), max_size=4))

    def wrap(x):
        for kind in kinds:
            if kind == "dict":
                x = {"before": 1.5, "value": x, "after": [1, -0.0]}
            elif kind == "list":
                x = [x]
            else:
                x = ["text", x, None, {"flag": True}, x]
        return x
    return wrap


@settings(max_examples=300, deadline=None)
@given(a=complex_arrays(), wrap=wrappers())
def test_arrays_write_what_their_nested_lists_write(a, wrap):
    assert dumps(wrap(a)) == dumps(wrap(nested_lists(a)))


@settings(max_examples=100, deadline=None)
@given(a=complex_arrays(SHAPES.filter(lambda s: np.prod(s) > 0)),
       bad=st.lists(st.tuples(st.integers(0),
                              st.sampled_from([np.nan, np.inf, -np.inf])),
                    min_size=1, max_size=3),
       wrap=wrappers())
def test_non_finite_entries_raise_as_nested_lists_do(a, bad, wrap):
    a = np.ascontiguousarray(a)
    parts = a.view(np.float64).reshape(-1)
    for where, value in bad:
        parts[where % parts.size] = value
    with pytest.raises(ValueError) as from_lists:
        dumps(wrap(nested_lists(a)))
    with pytest.raises(ValueError) as from_array:
        dumps(wrap(a))
    assert str(from_array.value) == str(from_lists.value)
    assert str(from_array.value).startswith("non-finite number")


def test_a_projector_is_formatted_within_its_peak():
    d = Direction3.normalized([0.6313762241158432, 0.12798629680985413, 0.7648421872844885])
    projector = _projectors(spin_along(build_spin_system(31.5), d).kets[:1])[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = _complex_text(projector, 2)  # as spin's report nests its eigenstates
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 240_000
    assert peak <= N64_PROJECTOR_TEXT_PEAK_BYTES


def test_generator_stack_writes_its_nested_lists():
    g = build_generators(6).matrices
    assert dumps({"generators": g}) == dumps({"generators": nested_lists(g)})


@pytest.mark.parametrize("n", range(2, 25))
def test_generator_set_writes_its_stack(n):
    g = build_generators(n)
    streamed = dumps({"generators": g})  # before the stack exists
    assert "matrices" not in g.__dict__
    assert streamed == dumps({"generators": g.matrices})


@settings(max_examples=200, deadline=None)
@given(a=complex_arrays(), wrap=wrappers(), n=st.integers(2, 5))
def test_write_sends_what_dumps_returns(a, wrap, n):
    obj = wrap({"array": a, "generators": build_generators(n), "nested": {"stack": [a]}})
    fp = io.StringIO()
    write(obj, fp)
    assert fp.getvalue() == dumps(obj)


def test_real_arrays_and_complex_scalars_are_unchanged():
    real = [[1.0, -0.0], [0.5, 2.0]]
    assert dumps(np.array(real)) == dumps(real)
    with pytest.raises(TypeError):
        dumps(np.complex128(1 + 2j))
    with pytest.raises(TypeError):
        dumps(np.array(1 + 2j))
