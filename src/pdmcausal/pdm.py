"""Pseudo-density matrices over ordered time slots.

A PDM generalizes a density matrix to sequential measurement statistics: it
is Hermitian with unit trace, every single-slot reduction is a genuine
state, but the full matrix may have negative eigenvalues.  The amount of
negativity, trace norm minus one, is the causality monotone used by the
inference module.

Three constructions are provided: the definitional one that simulates every
coarse-grained measurement tuple (the oracle, exponential in slots*qubits),
the anticommutator closed form through the channel's Choi matrix, and the
iterative multi-slot extension of the closed form.

``PDM(...)`` is the one validation point: every public builder and loader
goes through it, and it computes each slot's reduction and eigenvalues once,
which ``marginal_state`` and the extraction reuse.  PDMs derived from a valid
one by ``reduce`` and ``time_reverse`` come from ``PDM._trusted``, which
neither re-checks nor copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._kernels import assemble_from_expectations, expectation_tensor
from .channels import TRACE_ATOL, QuantumChannel, QuantumState, choi_of
from .linalg import (
    ComplexMatrix,
    _kron_eye,
    _partial_trace,
    _permute_factors,
    is_hermitian,
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
        total = sum(s.qubits for s in slots)
        if self.mat.factors != (2,) * total:
            raise ValueError(
                f"matrix factors {self.mat.factors} do not match {total} qubits"
            )
        a = self.mat.data
        if not is_hermitian(a):
            raise ValueError("PDM is not Hermitian")
        tr = np.trace(a).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"PDM trace {tr} != 1")
        for slot, (_, w) in zip(slots, self._marginals):
            if w.min() < -MARGINAL_EIG_ATOL:
                raise ValueError(
                    f"slot {slot.label} reduction has negative eigenvalue {w.min():.3e}"
                )

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
        out = []
        for i in range(len(self.slots)):
            m = _partial_trace(self.mat.data, self.mat.factors, self._slot_range(i))
            m.setflags(write=False)
            out.append((m, np.linalg.eigvalsh(m)))
        return tuple(out)

    def _slot_range(self, index: int) -> range:
        start = sum(s.qubits for s in self.slots[:index])
        return range(start, start + self.slots[index].qubits)

    @property
    def dim(self) -> int:
        return self.mat.dim


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
    P+ X P+ - P- X P- is propagated through the channel chain and the final
    expectation read off; the matrix is then assembled from all 4**(m*n)
    joint expectations.  Exponential by design; this is the oracle the fast
    constructions are checked against.
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
    _check_chain(rho1, [ch])
    data = _closed_form(rho1.mat.data, ch)
    return _wrap(data, [_qubits(ch.dim_in), _qubits(ch.dim_out)])


def _closed_form(rho1: np.ndarray, ch: QuantumChannel) -> np.ndarray:
    """Raw half-anticommutator of the Choi matrix with rho1 x I; no validation."""
    m = choi_of(ch).data
    rho = _kron_eye(rho1, ch.dim_out)
    return 0.5 * (m @ rho + rho @ m)


def pdm_iterative(rho1: QuantumState, channels: Sequence[QuantumChannel]) -> PDM:
    """Multi-slot PDM by repeatedly taking half-anticommutators with each Choi matrix."""
    if not channels:
        raise ValueError("need at least one channel")
    dims = _check_chain(rho1, channels)
    data = _closed_form(rho1.mat.data, channels[0])
    prefix_dim = dims[0] * dims[1]
    for ch, dim_out in zip(channels[1:], dims[2:]):
        extended = np.kron(data, np.eye(dim_out))
        lifted = np.kron(np.eye(prefix_dim // ch.dim_in), choi_of(ch).data)
        data = 0.5 * (extended @ lifted + lifted @ extended)
        prefix_dim *= dim_out
    return _wrap(data, [_qubits(d) for d in dims])


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
        start = pdm._slot_range(slot).start
        global_keep.extend(start + q for q in qubits)
        new_slots.append(Slot(pdm.slots[slot].label, len(qubits)))
    reduced = _partial_trace(pdm.mat.data, pdm.mat.factors, global_keep)
    return PDM._trusted(reduced, tuple(new_slots))


def negativity(pdm: PDM) -> float:
    """Causality monotone: trace norm minus one; zero iff the PDM is PSD."""
    w = np.linalg.eigvalsh(pdm.mat.data)
    return float(np.abs(w).sum() - 1.0)


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
        slots = tuple(Slot(str(s["label"]), int(s["qubits"])) for s in obj["slots"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed PDM JSON: {exc}") from exc
    return PDM(mat, slots)
