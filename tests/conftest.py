import numpy as np

from blochx.bloch import DensityState
from blochx.linalg import eigh
from blochx.serialize import matrix_to_json

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvectors of a random Hermitian matrix: a generic unitary basis."""
    return eigh(random_hermitian(n, rng)).eigenvectors


def random_observable_frame(n: int, rng: np.random.Generator):
    """A random non-degenerate observable: eigenstates from a random
    Hermitian matrix, eigenvalues 0..n-1."""
    es = eigh(random_hermitian(n, rng))
    states = [DensityState(np.outer(es.column(i), es.column(i).conj())) for i in range(n)]
    return states, np.arange(n, dtype=float)


def nested_lists(x):
    """``x`` with every complex ndarray (vector, matrix or stack of
    matrices) in the nested [re, im] form that matrix_to_json builds."""
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
