import numpy as np

from blochx.bloch import DensityState
from blochx.generators import GeneratorSet
from blochx.linalg import eigh

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def ket_state(ket) -> DensityState:
    """The validated operator-state of a ket: the oracle for its projector."""
    return DensityState(np.outer(ket, ket.conj()))


def fix_phase(v) -> np.ndarray:
    """The scalar phase fix, one component at a time: the oracle for
    ``linalg.fix_phases``, whose rows must equal it bit for bit."""
    v = np.asarray(v, dtype=complex)
    for x in v:
        if abs(x) > 1e-9:
            return v * (x.conjugate() / abs(x))
    return v.copy()


def bertlmann_krammer_stack(n: int) -> np.ndarray:
    """The (N^2-1, N, N) generalized Gell-Mann stack built as Bertlmann and
    Krammer write it, from outer products of the canonical basis kets: the
    oracle for ``GeneratorSet.matrices``, which must equal it bit for bit,
    zero signs included."""
    b = np.eye(n, dtype=complex)
    cols = [b[:, i] for i in range(n)]
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            mats.append(np.outer(cols[j], cols[k].conj()) + np.outer(cols[k], cols[j].conj()))
    for j in range(n):
        for k in range(j + 1, n):
            mats.append(-1j * (np.outer(cols[j], cols[k].conj()) - np.outer(cols[k], cols[j].conj())))
    for l in range(1, n):
        diag_sum = sum(np.outer(cols[j], cols[j].conj()) for j in range(l))
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * (diag_sum - l * np.outer(cols[l], cols[l].conj())))
    return np.stack(mats)


def traces_by_cumsum(a, g: GeneratorSet) -> np.ndarray:
    """Tr(a L_i) as the three parts of ``generators._generator_traces`` joined by
    np.concatenate, each diagonal member's head the diagonal of a running sum over
    the scaled diagonal entries: the oracle for the kernel's masked reduction and
    preallocated output, which must equal it bit for bit, zero signs included."""
    upper, lower, norm, l_norm, _ = g._layout
    flat = a.reshape(a.shape[:-2] + (-1,))
    a_jk, a_kj = flat[..., upper], flat[..., lower]
    d = a.diagonal(axis1=-2, axis2=-1)
    head = np.cumsum(norm[:, None] * d[..., None, :], axis=-1).diagonal(axis1=-2, axis2=-1)
    return np.concatenate([a_jk + a_kj, -1j * (a_kj - a_jk), head - l_norm * d[..., 1:]], -1)


def random_observable_frame(n: int, rng: np.random.Generator):
    """A random non-degenerate observable: the eigenstate kets of a random
    Hermitian matrix as rows, eigenvalues 0..n-1."""
    return eigh(random_hermitian(n, rng))[1], np.arange(n, dtype=float)


def winning_vertices(lam, weights) -> np.ndarray:
    """The paper's sub-simplex rule, the oracle for the sampler's kernel: the
    vertex index per row of ``lam``, the minimizer of lambda_j / w_j (with
    lambda_j / 0 = +inf).

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


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> list:
    """A complex matrix as rows of [re, im] cells of Python floats, one cell
    at a time: the oracle for the serializer's ``_complex_text``, which fills one
    template of the array's shape."""
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def nested_lists(x):
    """``x`` with every complex ndarray (vector, matrix or stack of
    matrices) and every generator set's stack in the nested [re, im] form
    that matrix_to_json builds."""
    if isinstance(x, GeneratorSet):
        x = x.matrices
    if isinstance(x, np.ndarray):
        if x.ndim == 1:
            return matrix_to_json(x[np.newaxis])[0]
        if x.ndim == 3:
            return [matrix_to_json(m) for m in x]
        return matrix_to_json(x)
    if isinstance(x, dict):
        return {k: nested_lists(v) for k, v in x.items()}
    if isinstance(x, list):
        return [nested_lists(v) for v in x]
    return x
