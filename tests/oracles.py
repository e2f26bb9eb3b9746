"""Independent reference implementations shared by the test modules.

None of these is on the package's pipeline: they are brute-force or
definitional forms the tests check the package against.
"""

from typing import NamedTuple

import numpy as np

from pdmcausal.channels import (
    QuantumChannel,
    QuantumState,
    haar_unitary,
    input_transpose,
    partial_swap,
    random_pure_state,
    semicausal,
    swap_channel,
)
from pdmcausal.harness import DEG
from pdmcausal.inference import (
    PINV_RCOND,
    _jordan_product,
    _rank_deficient,
    extract_choi,
)
from pdmcausal.linalg import (
    ComplexMatrix,
    _partial_trace,
    is_hermitian,
    matrix_to_json,
    partial_trace,
)
from pdmcausal.pauli import pauli_basis
from pdmcausal.pdm import marginal_state, negativity, pdm_closed_form, reduce, time_reverse
from pdmcausal.rng import generator, sample_stream


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


def pauli_sandwich(paulis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The signed ensemble P+ X P+ - P- X P- of each Pauli word P, with the
    projectors P± = (I ± P)/2 formed; ``x`` broadcasts against ``paulis``."""
    eye = np.eye(paulis.shape[-1])
    plus, minus = 0.5 * (eye + paulis), 0.5 * (eye - paulis)
    return plus @ x @ plus - minus @ x @ minus


def sandwich_expectation_tensor(rho: np.ndarray, kraus_steps, paulis: np.ndarray) -> np.ndarray:
    """``_kernels.expectation_tensor`` measuring by the projector sandwich:
    breadth first, state prefix outer and Pauli word inner in each stack."""
    p, d, _ = paulis.shape
    states = rho.astype(np.complex128)[None]
    for kraus in kraus_steps:
        signed = pauli_sandwich(paulis, states[:, None]).reshape(-1, d, d)
        states = np.einsum("aij,pjl,aml->pim", kraus, signed, kraus.conj(), optimize=True)
    expectations = np.einsum("nij,kji->nk", states, paulis).real
    return expectations.reshape((p,) * (len(kraus_steps) + 1))


def matmul_expectation_tensor(rho: np.ndarray, kraus_steps, paulis: np.ndarray) -> np.ndarray:
    """``_kernels.expectation_tensor`` measuring each word by two batched
    matmuls, ``(P X + X P)/2``, instead of a phased row and column gather."""
    p, d, _ = paulis.shape
    states = rho.astype(np.complex128)[None]
    for kraus in kraus_steps:
        stack = states[:, None]
        signed = (0.5 * (paulis @ stack + stack @ paulis)).reshape(-1, d * d)
        superop = np.einsum("aij,aml->jlim", kraus, kraus.conj()).reshape(d * d, d * d)
        states = (signed @ superop).reshape(-1, d, d)
    readout = paulis.swapaxes(-2, -1).reshape(p, d * d).T
    expectations = (states.reshape(-1, d * d) @ readout).real
    return expectations.reshape((p,) * (len(kraus_steps) + 1))


def kron_anticommutator_step(data: np.ndarray, choi: np.ndarray, dim_in: int, dim_out: int):
    """One anticommutator step on single matrices with each lift an explicit
    np.kron: ``data`` tensor I_out, and I on the slots before the channel's
    input tensor its Choi matrix; the result is half their anticommutator.
    """
    extended = np.kron(data, np.eye(dim_out))
    lifted = np.kron(np.eye(data.shape[-1] // dim_in), choi)
    return 0.5 * (extended @ lifted + lifted @ extended)


def pdm_kron_chain(rho1: QuantumState, channels) -> np.ndarray:
    """Anticommutator PDM of a channel chain, one ``kron_anticommutator_step``
    per channel."""
    data = rho1.mat.data
    for ch in channels:
        data = kron_anticommutator_step(data, ch.choi.data, ch.dim_in, ch.dim_out)
    return data


def slot_marginals_by_traces(data: np.ndarray, slots) -> list:
    """Each slot's reduction of ``data`` (any leading stack axes) by tracing
    out the other qubit factors one at a time, last factor first."""
    factors = (2,) * sum(s.qubits for s in slots)
    out = []
    start = 0
    for slot in slots:
        out.append(_partial_trace(data, factors, range(start, start + slot.qubits)))
        start += slot.qubits
    return out


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


def check_not_cp_certificate(pdm, result, thresholds, seed=0, draws=5):
    """Check a ``certified_not_cp`` extraction against the PDM on its own.

    The certificate W' must be PSD, and c = <W', T(N)> must take one value on
    the reported member and on random members of the trace-preserving
    solution family (its free ker(marginal) tensor out block moved by a
    random Hermitian matrix with no output trace), each checked to reproduce
    the PDM.  Then lambda_min(T(N)) Tr W' <= c for every member, so the
    reported bound must be c / Tr W' and lie below -eps_pos, and the
    reported member's witness must not exceed it.
    """
    assert result.route == "certified_not_cp"
    din, dout = result.choi.factors
    cert = result.certificate.data
    assert is_hermitian(cert)
    w_cert = np.linalg.eigvalsh(cert)
    assert w_cert.min() >= -1e-12 * max(1.0, w_cert.max())

    marg = marginal_state(pdm, 0).mat.data
    w, v = np.linalg.eigh(marg)
    kernel = v[:, w <= thresholds.rank_tol]
    k = kernel.shape[1]
    assert k > 0, "a singleton family needs no certificate"
    lift = np.kron(kernel, np.eye(dout))
    rho = np.kron(marg, np.eye(dout))
    rng = generator(seed)
    values = []
    for i in range(draws + 1):
        member = result.choi.data
        if i:
            h = rng.standard_normal((k * dout,) * 2) + 1j * rng.standard_normal((k * dout,) * 2)
            h = h + h.conj().T
            h -= np.kron(np.trace(h.reshape(k, dout, k, dout), axis1=1, axis2=3), np.eye(dout)) / dout
            member = member + lift @ h @ lift.conj().T
        assert np.abs(0.5 * (rho @ member + member @ rho) - pdm.mat.data).max() <= 1e-6
        tr_out = np.trace(member.reshape(din, dout, din, dout), axis1=1, axis2=3)
        assert np.abs(tr_out - np.eye(din)).max() <= 1e-7
        transposed = input_transpose(ComplexMatrix(member, (din, dout))).data
        values.append(float(np.vdot(cert, transposed).real))
    c = values[0]
    assert max(values) - min(values) <= 1e-12
    bound = c / np.trace(cert).real
    assert abs(bound - result.min_eig_transposed) <= 1e-12
    assert bound < -thresholds.eps_pos
    witness = np.linalg.eigvalsh(input_transpose(result.choi).data).min()
    assert witness <= bound + 1e-12


def unstacked_extraction(pdm, thresholds):
    """``extract_choi`` on one PDM with 2-D numpy calls only.

    Returns (choi data, residual, unique, min_eig_transposed); the stacked
    extraction must reproduce each bit for bit.  The marginal is the one the
    PDM stored (``marginal_state``); ``test_slot_marginals_agree_with_nested_traces``
    checks that reduction against nested partial traces.
    """
    din, dout = (2**s.qubits for s in pdm.slots)
    marg = marginal_state(pdm, 0).mat.data
    jmat = _jordan_product(marg, dout)
    rvec = pdm.mat.data.reshape(-1)
    mvec = np.linalg.pinv(jmat, rcond=PINV_RCOND) @ rvec
    residual = float(np.linalg.norm(jmat @ mvec - rvec))
    m = mvec.reshape(din * dout, din * dout)
    m = 0.5 * (m + m.conj().T)
    unique = not _rank_deficient(np.linalg.eigvalsh(marg), thresholds).any()
    witness = input_transpose(ComplexMatrix(m, (din, dout))).data
    return m, residual, unique, float(np.linalg.eigvalsh(witness).min())


def pdm_row(pdm, sample_id: int, extra: dict) -> dict:
    """One sweep row from one two-slot PDM through the public per-PDM calls."""
    f = negativity(pdm)
    fwd = extract_choi(pdm)
    rev = extract_choi(time_reverse(pdm))
    row = {"sample_id": sample_id}
    row.update(extra)
    row.update(
        {
            "f": f,
            "min_eig_fwd": fwd.min_eig_transposed,
            "min_eig_rev": rev.min_eig_transposed,
        }
    )
    return row


def reference_sweep_rows(scenario: str, n: int, seed: int, thetas_deg=(30, 60)) -> list:
    """``harness.run_haar_sweep``'s rows, one validated PDM at a time.

    Each sample draws from the same per-sample stream, builds each PDM with
    ``pdm_closed_form``, reduces it with ``reduce`` and reads it with
    ``pdm_row``: the unstacked path the sweep's stacks must match bit for bit.
    """
    ancilla = QuantumState.from_ket([1, 0])
    cache_first = swap_channel(2)
    keep = [(0, (0,)), (1, (1,))]
    rows = []
    for i in range(n):
        rng = sample_stream(seed, i)
        if scenario == "fig3":
            unitary = haar_unitary(4, rng)
            channel = semicausal(cache_first, QuantumChannel.from_unitary(unitary.data), ancilla)
            cases = [
                ({"input_id": "zero_zero"}, QuantumState.from_ket([1, 0, 0, 0], (2, 2)), channel),
                ({"input_id": "bell"}, QuantumState.from_ket([1, 0, 0, 1], (2, 2)), channel),
            ]
        else:
            state = random_pure_state(4, rng, (2, 2))
            cases = [
                (
                    {"theta_deg": deg},
                    state,
                    semicausal(cache_first, partial_swap(-deg * DEG), ancilla),
                )
                for deg in thetas_deg
            ]
        for extra, state, channel in cases:
            r = reduce(pdm_closed_form(state, channel), keep)
            rows.append(pdm_row(r, i, extra))
    return rows
