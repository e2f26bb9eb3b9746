"""Hot numeric kernels for the definitional (measurement-simulation) builder.

The builder enumerates every tuple of Pauli words across the time slots and
propagates coarse-grained post-measurement ensembles through the channels.
That enumeration is the hot inner loop of the package.  It runs breadth
first: after ``s`` measured slots every Pauli-prefix state sits in one
``(4**(s*n), d, d)`` stack, so each slot costs one measurement of the whole
stack and one GEMM of the flattened stack with the channel's ``d²×d²``
superoperator.  The superoperator is built from the Kraus operators, never
from the Choi matrix that the builders under test use.

Measuring a Pauli word ``P`` with projectors ``P± = (I ± P)/2`` leaves the
signed ensemble ``P+ X P+ - P- X P-``, which is the Jordan product
``(P X + X P)/2``.  Each row and column of ``P`` holds one entry from
{±1, ±i}, so ``P X`` and ``X P`` are gathers of the rows and columns of
``X`` times those phases, read from the cached table ``pauli_gather(n)``.
Each entry is one entry of ``X`` times a phase, so both products are exact;
the one rounding is in their sum.  That is why the measurement is not folded
into the channel GEMM, where every entry would be a sum of rounded products.
The channel step, the readout and the assembly stay GEMMs or contractions
against the dense table ``pauli_basis(n)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .pauli import pauli_gather


def expectation_tensor(
    rho: np.ndarray, kraus_steps: Sequence[np.ndarray], paulis: np.ndarray
) -> np.ndarray:
    """E[i1,...,im]: joint expectations of sequential coarse-grained measurements.

    ``rho`` is the initial state, ``kraus_steps`` one stacked Kraus array per
    channel between consecutive slots, ``paulis`` the observable table
    ``pauli_basis(n)`` of shape (4**n, 2**n, 2**n).  Row
    ``i1*p**(s-1) + ... + is`` of the state stack holds the signed ensemble
    after measuring words ``i1..is``, each word ``P`` on a state ``X`` as
    ``(P X + X P)/2`` by a phased gather of the rows and columns of ``X``
    (``_measure``), and applying the ``s``-th channel.  A channel with Kraus
    operators ``K`` acts on the row-major ``vec(X)`` as ``vec(X) @ S`` with
    ``S[(j,l),(i,m)] = sum_a K[a,i,j] conj(K[a,m,l])``; the expectations are
    one GEMM of the flattened states with the transposed Pauli table.
    """
    p, d, _ = paulis.shape
    states = rho.astype(np.complex128)[None]
    for kraus in kraus_steps:
        signed = _measure(states, *pauli_gather(d.bit_length() - 1)).reshape(-1, d * d)
        superop = np.einsum("aij,aml->jlim", kraus, kraus.conj()).reshape(d * d, d * d)
        states = (signed @ superop).reshape(-1, d, d)
    readout = paulis.swapaxes(-2, -1).reshape(p, d * d).T
    expectations = (states.reshape(-1, d * d) @ readout).real
    return expectations.reshape((p,) * (len(kraus_steps) + 1))


def _measure(states: np.ndarray, col: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``(P X + X P)/2`` for each state ``X`` of the stack and word ``P`` of the
    gather table, stacked as ``[state, word]``.

    Row ``r`` of ``P X`` is ``phase[r] * X[col[r]]``; ``P`` is Hermitian, so
    column ``c`` of ``X P`` is ``X[:, col[c]] * conj(phase[c])``.  The sum is
    formed in place, and ``X P`` is freed on return, before the channel GEMM.
    """
    signed = np.take(states, col, axis=1)
    signed *= phase[:, :, None]
    right = np.take(states, col, axis=2)  # [s, r, w, c] = X_s[r, col[w, c]]
    right *= phase.conj()
    signed += right.swapaxes(1, 2)
    signed *= 0.5
    return signed


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
