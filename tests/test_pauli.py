import numpy as np
import pytest

from pdmcausal.linalg import max_abs_diff
from pdmcausal.pauli import pauli_basis


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_orthogonality(n):
    basis = pauli_basis(n)
    gram = np.einsum("aij,bji->ab", basis, basis)
    assert max_abs_diff(gram, 2**n * np.eye(4**n)) < 1e-12


def test_pauli_basis_word_order():
    # word i1*4 + i2 is SIGMA[i1] on qubit 0 (the left factor) times SIGMA[i2]
    basis = pauli_basis(2)
    assert max_abs_diff(basis[3], np.diag([1, -1, 1, -1])) == 0
    assert max_abs_diff(basis[12], np.diag([1, 1, -1, -1])) == 0
    assert max_abs_diff(basis[5], np.fliplr(np.eye(4))) == 0
    assert not basis.flags.writeable
