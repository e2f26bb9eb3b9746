"""Pseudo-density matrices over ordered time slots.

A PDM generalizes a density matrix to sequential measurement statistics: it
is Hermitian with unit trace, every single-slot reduction is a genuine
state, but the full matrix may have negative eigenvalues.  The amount of
negativity, trace norm minus one, is the causality monotone used by the
inference module.

Two constructions are provided: the definitional one that simulates every
coarse-grained measurement tuple (the oracle, exponential in slots*qubits),
and ``pdm_iterative``, one half-anticommutator step with a Choi matrix per
channel, whose one-channel case is the closed form ``pdm_closed_form``.

``PDM(...)`` is the one validation point: every public builder and loader
goes through it, and it computes each slot's reduction and eigenvalues once,
which ``marginal_state`` and ``classify`` reuse.  Its checks are one routine,
``_validate``, over a stack of matrices; ``PDM(...)`` runs it on a stack of
one, the sweeps on each chunk's stack.  PDMs derived from a valid one by
``reduce`` and ``time_reverse`` come from ``PDM._trusted``, which neither
re-checks nor copies.  The anticommutator step and the negativity likewise
run on stacks (``_anticommutator_step``, ``_negativity``).

Neither hot step forms a large operator: the anticommutator step multiplies
by the Choi matrix block by block instead of lifting it with identities, and
each slot reduction is one contraction, with one ``eigvalsh`` per group of
equal-size slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._kernels import assemble_from_expectations, expectation_tensor
from .channels import QuantumChannel, QuantumState, _check_hermitian_unit_trace
from .linalg import (
    ComplexMatrix,
    _json_int,
    _kron_eye,
    _partial_trace,
    _permute_factors,
    matrix_from_json,
    matrix_to_json,
)
from .pauli import pauli_basis

MARGINAL_EIG_ATOL = 1e-9
MAX_SLOT_QUBITS = 6  # cap on slots*qubits for the definitional builder


@dataclass(frozen=True)
class Slot:
    label: str
    qubits: int


@dataclass(frozen=True, eq=False)
class PDM:
    """Hermitian unit-trace matrix over ordered time slots (earlier = leftmost).

    ``mat`` carries one factor of dimension 2 per qubit, slot-major, so
    reductions can address single parties inside a slot.
    """

    mat: ComplexMatrix
    slots: tuple[Slot, ...]

    def __post_init__(self):
        slots = tuple(self.slots)
        object.__setattr__(self, "slots", slots)
        for slot in slots:
            if slot.qubits < 1:
                raise ValueError(f"slot {slot.label} has {slot.qubits} qubits, need at least 1")
        total = sum(s.qubits for s in slots)
        if self.mat.factors != (2,) * total:
            raise ValueError(
                f"matrix factors {self.mat.factors} do not match {total} qubits"
            )
        marginals = _validate(self.mat.data[None], slots)
        self.__dict__["_marginals"] = tuple((m[0], w[0]) for m, w in marginals)

    @classmethod
    def _trusted(cls, data: np.ndarray, slots: tuple[Slot, ...], marginals=None) -> "PDM":
        """PDM derived from a valid one: no check, no copy.

        ``marginals`` passes known slot reductions through; otherwise they
        are computed on first use.
        """
        pdm = object.__new__(cls)
        factors = (2,) * sum(s.qubits for s in slots)
        object.__setattr__(pdm, "mat", ComplexMatrix._trusted(data, factors))
        object.__setattr__(pdm, "slots", slots)
        if marginals is not None:
            pdm.__dict__["_marginals"] = marginals
        return pdm

    @cached_property
    def _marginals(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each slot's reduction with its ascending eigenvalues."""
        return _slot_marginals(self.mat.data, self.slots)

    @property
    def dim(self) -> int:
        return self.mat.dim


def _slot_marginals(data: np.ndarray, slots: tuple[Slot, ...]):
    """Each slot's reduction of ``data`` with its ascending eigenvalues, over
    any leading stack axes of ``data``.

    A slot of dimension ``s`` between factors of dimension ``A`` before it
    and ``B`` after it is reduced by one contraction of the ``(A, s, B, A,
    s, B)`` view; the eigenvalues come from one ``eigvalsh`` per group of
    slots of equal dimension.
    """
    lead = data.shape[:-2]
    dims = [2**slot.qubits for slot in slots]
    before, after = 1, data.shape[-1]
    reductions = []
    for s in dims:
        after //= s
        view = data.reshape(lead + (before, s, after) * 2)
        m = np.einsum("...aibajb->...ij", view)
        m.setflags(write=False)
        reductions.append(m)
        before *= s
    eigenvalues = [None] * len(dims)
    for s in set(dims):
        group = [k for k, d in enumerate(dims) if d == s]
        w = np.linalg.eigvalsh(np.stack([reductions[k] for k in group], axis=-3))
        for j, k in enumerate(group):
            eigenvalues[k] = w[..., j, :]
    return tuple(zip(reductions, eigenvalues))


def _validate(data: np.ndarray, slots: tuple[Slot, ...]):
    """The PDM checks on an (s, d, d) stack whose factors match ``slots``.

    Each matrix must be Hermitian against its own largest entry, have unit
    trace and PSD slot reductions; the first failure raises ValueError.
    Returns the slot reductions as ``_slot_marginals`` does.
    """
    _check_hermitian_unit_trace(data, "PDM")
    marginals = _slot_marginals(data, slots)
    for slot, (_, w) in zip(slots, marginals):
        if w.min() < -MARGINAL_EIG_ATOL:
            lowest = w.min(axis=-1)
            first = lowest[(lowest < -MARGINAL_EIG_ATOL).argmax()]
            raise ValueError(f"slot {slot.label} reduction has negative eigenvalue {first:.3e}")
    return marginals


def _qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _wrap(data: np.ndarray, qubit_counts: Sequence[int]) -> PDM:
    """Validated PDM with slots labelled t1, t2, ... in time order."""
    slots = tuple(Slot(f"t{i + 1}", q) for i, q in enumerate(qubit_counts))
    return PDM(ComplexMatrix(data, (2,) * sum(qubit_counts)), slots)


def marginal_state(pdm: PDM, slot: int) -> QuantumState:
    """Single-slot reduction, PSD to ``MARGINAL_EIG_ATOL`` as the PDM checked."""
    reduced = pdm._marginals[slot][0]
    factors = (2,) * pdm.slots[slot].qubits
    return QuantumState._trusted(ComplexMatrix._trusted(reduced, factors))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _check_chain(rho1: QuantumState, channels: Sequence[QuantumChannel]) -> list[int]:
    dims = [rho1.dim]
    for i, ch in enumerate(channels):
        if ch.dim_in != dims[-1]:
            raise ValueError(
                f"channel {i} input dim {ch.dim_in} != previous output dim {dims[-1]}"
            )
        dims.append(ch.dim_out)
    return dims


def pdm_from_measurements(rho1: QuantumState, channels: Sequence[QuantumChannel]) -> PDM:
    """Definitional construction by simulating every measurement tuple.

    For each tuple of Pauli words, the signed post-measurement ensemble
    (P X + X P)/2, which is P+ X P+ - P- X P-, is propagated through the
    channel chain and the final expectation read off; the matrix is then
    assembled from all 4**(m*n) joint expectations.  Exponential by design;
    this is the oracle the fast constructions are checked against.
    """
    dims = _check_chain(rho1, channels)
    if len(set(dims)) != 1:
        raise ValueError("the definitional builder needs equal slot dimensions")
    n = _qubits(rho1.dim)
    m = len(channels) + 1
    if m * n > MAX_SLOT_QUBITS:
        raise ValueError(
            f"slots*qubits = {m}*{n} exceeds the cap {MAX_SLOT_QUBITS}; "
            "use the closed-form or iterative builder for larger systems"
        )
    paulis = np.asarray(pauli_basis(n))
    kraus_steps = [np.asarray(ch.kraus_operators) for ch in channels]
    expectations = expectation_tensor(rho1.mat.data, kraus_steps, paulis)
    data = assemble_from_expectations(expectations, paulis)
    return _wrap(data, [n] * m)


def pdm_closed_form(rho1: QuantumState, ch: QuantumChannel) -> PDM:
    """Two-slot PDM as half the anticommutator of the Choi matrix with rho1 x I."""
    return pdm_iterative(rho1, [ch])


def pdm_iterative(rho1: QuantumState, channels: Sequence[QuantumChannel]) -> PDM:
    """Multi-slot PDM by one half-anticommutator step per channel.

    Step j takes the PDM so far, extended by the identity on the new slot,
    and the j-th Choi matrix, lifted by the identity on every slot before
    its input slot.  With no channel it is the one-slot PDM of ``rho1``.
    """
    dims = _check_chain(rho1, channels)
    data = rho1.mat.data
    for ch, dim_out in zip(channels, dims[1:]):
        data = _anticommutator_step(data, ch.choi.data, ch.dim_in, dim_out)
    return _wrap(data, [_qubits(d) for d in dims])


def _anticommutator_step(
    data: np.ndarray, choi: np.ndarray, dim_in: int, dim_out: int
) -> np.ndarray:
    """Half the anticommutator of ``ext``, ``data`` tensor I_out, with the
    Choi matrix ``C`` lifted by the identity on every slot before its input
    slot.

    The lift ``L = I_P`` tensor ``C`` (``n`` the new dimension, ``b =
    dim_in * dim_out``, ``P = n / b``) is block-diagonal, so it is never
    formed: ``ext L`` is one ``(n * P, b) @ (b, b)`` product on the column
    blocks of ``ext``, and ``L ext`` one ``(b, b) @ (b, n)`` product per row
    block.  The tests check that this is bit for bit the two dense products
    with the zero-filled lift.

    ``data`` and ``choi`` may carry leading stack axes, which broadcast.
    """
    ext = _kron_eye(data, dim_out)
    *lead, n, _ = ext.shape
    b = dim_in * dim_out
    p = n // b
    right = ext.reshape(*lead, n * p, b) @ choi
    left = choi[..., None, :, :] @ ext.reshape(*lead, p, b, n)
    shape = right.shape[:-2] + (n, n)
    return 0.5 * (right.reshape(shape) + left.reshape(shape))


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def _normalize_keep(pdm: PDM, keep) -> list[tuple[int, tuple[int, ...]]]:
    out = []
    for item in keep:
        if isinstance(item, int):
            slot, qubits = item, None
        else:
            slot, qubits = item
            qubits = tuple(sorted(int(q) for q in qubits))
        if not 0 <= slot < len(pdm.slots):
            raise ValueError(f"slot index {slot} out of range")
        if qubits is None:
            qubits = tuple(range(pdm.slots[slot].qubits))
        if not qubits:
            raise ValueError("empty qubit selection inside a slot")
        if any(q < 0 or q >= pdm.slots[slot].qubits for q in qubits):
            raise ValueError(f"qubit selection {qubits} out of range for slot {slot}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"qubit selection {qubits} repeats a qubit")
        out.append((slot, qubits))
    if not out:
        raise ValueError("keep set must be nonempty")
    if [s for s, _ in out] != sorted({s for s, _ in out}):
        raise ValueError("keep slots must be distinct and in increasing order")
    return out


def reduce(pdm: PDM, keep) -> PDM:
    """Trace down to a subset of slots, optionally a subset of qubits per slot.

    ``keep`` lists either slot indices or (slot index, qubit indices) pairs,
    in increasing slot order, e.g. ``[(0, (1,)), (1, (0,))]`` keeps the
    second qubit of the first slot and the first qubit of the second.
    """
    selections = _normalize_keep(pdm, keep)
    global_keep = []
    new_slots = []
    for slot, qubits in selections:
        start = sum(s.qubits for s in pdm.slots[:slot])
        global_keep.extend(start + q for q in qubits)
        new_slots.append(Slot(pdm.slots[slot].label, len(qubits)))
    reduced = _partial_trace(pdm.mat.data, pdm.mat.factors, global_keep)
    return PDM._trusted(reduced, tuple(new_slots))


def negativity(pdm: PDM) -> float:
    """Causality monotone: trace norm minus one; zero iff the PDM is PSD."""
    return float(_negativity(pdm.mat.data))


def _negativity(data: np.ndarray) -> np.ndarray:
    """``negativity`` of each matrix in a stack of Hermitian matrices."""
    return np.abs(np.linalg.eigvalsh(data)).sum(axis=-1) - 1.0


def time_reverse(pdm: PDM) -> PDM:
    """Swap the two time slots (conjugation by the swap unitary); involutive."""
    if len(pdm.slots) != 2:
        raise ValueError("time reversal is defined for exactly two slots")
    q0, q1 = pdm.slots[0].qubits, pdm.slots[1].qubits
    if q0 != q1:
        raise ValueError("time reversal needs equal slot dimensions")
    order = tuple(range(q0, q0 + q1)) + tuple(range(q0))
    flipped = _permute_factors(pdm.mat.data, pdm.mat.factors, order)
    # on qubit factors each swapped reduction is summed in the same order
    return PDM._trusted(flipped, (pdm.slots[1], pdm.slots[0]), pdm._marginals[::-1])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def pdm_to_json(pdm: PDM) -> dict:
    obj = matrix_to_json(pdm.mat)
    obj["slots"] = [{"label": s.label, "qubits": s.qubits} for s in pdm.slots]
    return obj


def pdm_from_json(obj: dict) -> PDM:
    mat = matrix_from_json(obj)
    try:
        slots = tuple(
            Slot(str(s["label"]), _json_int(s["qubits"], "malformed PDM JSON: slot qubits"))
            for s in obj["slots"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed PDM JSON: {exc}") from exc
    return PDM(mat, slots)
