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


@lru_cache(maxsize=None)
def pauli_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of the 4**n words as a gather: read-only ``(col, phase)`` of shape
    (4**n, 2**n), where row ``r`` of word ``w`` holds its one nonzero entry
    ``phase[w, r]`` in column ``col[w, r]``."""
    paulis = pauli_basis(n)
    col = np.abs(paulis).argmax(axis=-1)
    phase = np.take_along_axis(paulis, col[..., None], -1)[..., 0]
    col.setflags(write=False)
    phase.setflags(write=False)
    return col, phase
