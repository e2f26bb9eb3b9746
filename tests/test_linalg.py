import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmcausal.linalg import (
    ComplexMatrix,
    _embed_operator,
    _eye_kron,
    _kron_eye,
    matrix_from_json,
    matrix_to_json,
    max_abs_diff,
    partial_trace,
    permute_factors,
    swap_operator,
)

RNG = np.random.default_rng(20240817)


def random_matrix(d, rng=RNG):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_complex_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix(np.eye(4), (2, 3))
    m = ComplexMatrix(np.eye(4), (2, 2))
    assert m.dim == 4 and m.factors == (2, 2)


def test_partial_trace_product_states():
    a = random_matrix(2)
    b = random_matrix(3)
    m = ComplexMatrix(np.kron(a, b), (2, 3))
    left = partial_trace(m, {0})
    assert left.factors == (2,)
    assert max_abs_diff(left.data, a * np.trace(b)) < 1e-12


def test_partial_trace_swap_half():
    s = swap_operator(2)
    reduced = partial_trace(ComplexMatrix(0.5 * s.data, (2, 2)), {0})
    assert max_abs_diff(reduced.data, np.eye(2) / 2) < 1e-15


def test_partial_trace_preserves_trace_and_composes():
    dims = (2, 3, 2)
    m = ComplexMatrix(random_matrix(12), dims)
    assert abs(np.trace(partial_trace(m, {1}).data) - np.trace(m.data)) < 1e-12
    two_step = partial_trace(partial_trace(m, {0, 2}), {0})
    one_step = partial_trace(m, {0})
    assert max_abs_diff(two_step.data, one_step.data) < 1e-12


def test_partial_trace_bad_index():
    m = ComplexMatrix(np.eye(4), (2, 2))
    with pytest.raises(ValueError):
        partial_trace(m, {2})


def test_swap_operator():
    s = swap_operator(2)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
    )
    assert max_abs_diff(s.data, expected) == 0
    s4 = swap_operator(4)
    assert max_abs_diff(s4.data @ s4.data, np.eye(16)) == 0
    a, b = random_matrix(2), random_matrix(2)
    conj = s.data @ np.kron(a, b) @ s.data.conj().T
    assert max_abs_diff(conj, np.kron(b, a)) < 1e-12


def test_permute_and_embed():
    a, b, c = random_matrix(2), random_matrix(3), random_matrix(2)
    m = ComplexMatrix(np.kron(np.kron(a, b), c), (2, 3, 2))
    p = permute_factors(m, (2, 0, 1))
    assert p.factors == (2, 2, 3)
    assert max_abs_diff(p.data, np.kron(np.kron(c, a), b)) < 1e-12
    emb = _embed_operator(np.kron(a, c), (2, 3, 2), (0, 2))
    expected = np.kron(np.kron(a, np.eye(3)), c)
    assert max_abs_diff(emb, expected) < 1e-12


def test_matrix_json_round_trip():
    m = ComplexMatrix(random_matrix(4), (2, 2))
    back = matrix_from_json(matrix_to_json(m))
    assert back.factors == m.factors
    assert max_abs_diff(back.data, m.data) <= 1e-12 * np.abs(m.data).max()
    with pytest.raises(ValueError):
        matrix_from_json({"re": [[1]]})


@st.composite
def blocks(draw):
    """A complex block with exact zeros and signed parts, plus an identity size."""
    r, c, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    a[rng.random((r, c)) < 0.3] = 0.0
    return a, n


@settings(max_examples=80, deadline=None)
@given(blocks())
def test_kron_free_helpers_equal_np_kron(case):
    a, n = case
    eye = np.eye(n)
    assert np.array_equal(_kron_eye(a, n), np.kron(a, eye))
    assert np.array_equal(_eye_kron(n, a), np.kron(eye, a))
    # selecting the rows of ancilla index e, as semicausal does, is the
    # product with I tensor <e|
    stacked = np.vstack([a * (k + 1) for k in range(n)])
    for e in range(n):
        bra = np.zeros((1, n))
        bra[0, e] = 1.0
        assert np.array_equal(stacked[e::n], np.kron(np.eye(a.shape[0]), bra) @ stacked)
    if a.shape[0] == a.shape[1]:
        # an operator on factors (0, 2) of (d, n, d) gets I_n in the middle
        emb = _embed_operator(np.kron(a, a), (a.shape[0], n, a.shape[0]), (0, 2))
        assert np.array_equal(emb, np.kron(np.kron(a, eye), a))
