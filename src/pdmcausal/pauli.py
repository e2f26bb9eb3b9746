"""Multi-qubit Pauli observables.

A Pauli word on n qubits is indexed by a base-4 string; digit k picks the
single-qubit Pauli acting on qubit k, with qubit 0 the leftmost (most
significant) tensor factor.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


@lru_cache(maxsize=None)
def pauli_basis(n: int) -> np.ndarray:
    """All 4**n Pauli words as a read-only array of shape (4**n, 2**n, 2**n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        out = np.array(SIGMA)
    else:
        sub = pauli_basis(n - 1)
        out = np.array([np.kron(SIGMA[d], s) for d in range(4) for s in sub])
    out.setflags(write=False)
    return out
