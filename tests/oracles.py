"""Independent reference implementations shared by the test modules.

None of these is on the package's pipeline: they are brute-force or
definitional forms the tests check the package against.
"""

from typing import NamedTuple

import numpy as np

from pdmcausal.channels import QuantumChannel, QuantumState, input_transpose
from pdmcausal.inference import extract_choi
from pdmcausal.linalg import ComplexMatrix, is_hermitian, matrix_to_json, partial_trace
from pdmcausal.pauli import pauli_basis
from pdmcausal.pdm import marginal_state


def kraus_action(ch: QuantumChannel, a: np.ndarray) -> np.ndarray:
    """Linear action of the channel on an arbitrary operator (not only states)."""
    return sum(k @ a @ k.conj().T for k in ch.kraus_operators)


def apply(ch: QuantumChannel, state: QuantumState) -> QuantumState:
    if state.dim != ch.dim_in:
        raise ValueError(f"state dim {state.dim} != channel input dim {ch.dim_in}")
    return QuantumState(ComplexMatrix(kraus_action(ch, state.mat.data)))


def choi_pauli_form(ch: QuantumChannel) -> ComplexMatrix:
    """The Choi matrix computed as 2**-n sum_i sigma_i tensor Ch(sigma_i)."""
    if ch.dim_in != ch.dim_out:
        raise ValueError("Pauli form needs equal input and output dimensions")
    n = ch.dim_in.bit_length() - 1
    if 2**n != ch.dim_in:
        raise ValueError("Pauli form needs a power-of-two dimension")
    acc = sum(np.kron(sigma, kraus_action(ch, sigma)) for sigma in pauli_basis(n))
    return ComplexMatrix(acc / ch.dim_in, (ch.dim_in, ch.dim_out))


class CpCheck(NamedTuple):
    ok: bool
    min_eig: float


def is_cp(choi: ComplexMatrix, eps: float = 1e-8) -> CpCheck:
    """Complete positivity of the map behind an input-transposed Choi matrix."""
    if not is_hermitian(choi.data):
        raise ValueError("Choi matrix is not Hermitian")
    w = np.linalg.eigvalsh(input_transpose(choi).data)
    return CpCheck(bool(w.min() >= -eps), float(w.min()))


def effective_channel(
    ch: QuantumChannel,
    dims: tuple[int, int],
    pin: int,
    pin_state: QuantumState,
    keep: int,
) -> QuantumChannel:
    """One-sided reduction of a bipartite channel.

    The input factor ``pin`` is fixed to ``pin_state``; everything except
    output factor ``keep`` is traced out.  Returns the induced channel from
    the free input factor to the kept output factor.  For a channel that
    cannot signal from the pinned party to the kept one, the result does not
    depend on ``pin_state`` (Fitzsimons, Jones & Vedral, Sci. Rep. 5, 18281,
    2015).
    """
    da, db = dims
    if ch.dim_in != da * db or ch.dim_out != da * db:
        raise ValueError("channel dimensions do not match the factor split")
    if pin_state.dim != dims[pin]:
        raise ValueError("pinned state dimension mismatch")
    free = 1 - pin
    d_free = dims[free]
    d_keep = dims[keep]
    blocks = np.zeros((d_free, d_free, d_keep, d_keep), dtype=np.complex128)
    for i in range(d_free):
        for j in range(d_free):
            unit = np.zeros((d_free, d_free), dtype=np.complex128)
            unit[i, j] = 1.0
            parts = [None, None]
            parts[free] = unit
            parts[pin] = pin_state.mat.data
            x = np.kron(parts[0], parts[1])
            y = ComplexMatrix(kraus_action(ch, x), dims)
            blocks[i, j] = partial_trace(y, {keep}).data
    m = np.einsum("ijab->jaib", blocks).reshape(d_free * d_keep, d_free * d_keep)
    return QuantumChannel.from_choi(ComplexMatrix(m, (d_free, d_keep)))


def channel_to_json(ch: QuantumChannel) -> dict:
    """Writer for the channel file format that ``channel_from_json`` reads."""
    if ch.rep == "kraus":
        mats = [matrix_to_json(ComplexMatrix(k)) for k in ch.payload]
    else:
        mats = [matrix_to_json(ch.payload[0])]
    return {"rep": ch.rep, "dim_in": ch.dim_in, "dim_out": ch.dim_out, "matrices": mats}


def grid_oracle_objective(pdm, points=9):
    """Brute-force the free block of a rank-one-marginal extraction family.

    For a single-qubit first slot of rank one, the feasible completions are
    exactly  base + |k><k| tensor [[a, b], [conj(b), 1-a]]  with the kernel
    vector k; sweep (a, Re b, Im b) on a coarse grid and return the best
    trace-of-negative-part of the input-transposed candidate.
    """
    marg = marginal_state(pdm, 0).mat.data
    w, v = np.linalg.eigh(marg)
    assert w[0] < 1e-9, "grid oracle expects a rank-deficient first marginal"
    kernel = v[:, 0]
    base = extract_choi(pdm).choi.data
    proj = np.outer(kernel, kernel.conj())
    best = np.inf
    for a in np.linspace(-0.5, 1.5, points):
        for br in np.linspace(-1, 1, points):
            for bi in np.linspace(-1, 1, points):
                block = np.array([[a, br + 1j * bi], [br - 1j * bi, 1 - a]])
                member = base + np.kron(proj, block)
                mt = input_transpose(ComplexMatrix(member, (2, 2))).data
                eigs = np.linalg.eigvalsh(mt)
                best = min(best, -eigs[eigs < 0].sum())
    return best
