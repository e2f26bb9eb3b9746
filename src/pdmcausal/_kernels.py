"""Hot numeric kernels for the definitional (measurement-simulation) builder.

The builder enumerates every tuple of Pauli words across the time slots and
propagates coarse-grained post-measurement ensembles through the channels.
That enumeration is the hot inner loop of the package.  It runs breadth
first: after ``s`` measured slots every Pauli-prefix state sits in one
``(4**(s*n), d, d)`` stack, so each slot costs one broadcast measurement and
one channel ``einsum`` over the whole stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def expectation_tensor(
    rho: np.ndarray, kraus_steps: Sequence[np.ndarray], paulis: np.ndarray
) -> np.ndarray:
    """E[i1,...,im]: joint expectations of sequential coarse-grained measurements.

    ``rho`` is the initial state, ``kraus_steps`` one stacked Kraus array per
    channel between consecutive slots, ``paulis`` the observable table of
    shape (4**n, 2**n, 2**n).  Row ``i1*p**(s-1) + ... + is`` of the state
    stack holds the signed ensemble after measuring words ``i1..is`` and
    applying the ``s``-th channel.
    """
    p, d, _ = paulis.shape
    eye = np.eye(d, dtype=np.complex128)
    proj_plus = 0.5 * (eye[None, :, :] + paulis)
    proj_minus = 0.5 * (eye[None, :, :] - paulis)
    states = rho.astype(np.complex128)[None]
    for kraus in kraus_steps:
        stack = states[:, None]
        signed = (
            proj_plus @ stack @ proj_plus - proj_minus @ stack @ proj_minus
        ).reshape(-1, d, d)
        states = np.einsum("aij,pjl,aml->pim", kraus, signed, kraus.conj(), optimize=True)
    expectations = np.einsum("nij,kji->nk", states, paulis).real
    return expectations.reshape((p,) * (len(kraus_steps) + 1))


def assemble_from_expectations(expectations: np.ndarray, paulis: np.ndarray) -> np.ndarray:
    """Contract E[i1,...,im] against the Pauli words into the slot-ordered matrix."""
    d = paulis.shape[1]
    m = expectations.ndim
    t = expectations
    for _ in range(m):
        t = np.tensordot(t, paulis, axes=([0], [0]))
    perm = [2 * k for k in range(m)] + [2 * k + 1 for k in range(m)]
    dim = d**m
    return t.transpose(perm).reshape(dim, dim) / dim
