"""Quantum states and channels: Kraus and Choi representations, the
input-transposed Choi matrix, one-sided (semicausal) compositions and
Haar-random sampling.

The Choi matrix convention used throughout is

    M = sum_ij (|i><j|)^T tensor Ch(|i><j|),

with the input factor first, so that trace-preservation reads
``Tr_out M = I`` and the channel action is ``Ch(rho) = Tr_in[M (rho tensor I)]``.
Complete positivity is equivalent to positivity of the partial transpose of
M on its input factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    ComplexMatrix,
    _as_array,
    _embed_operator,
    _eye_kron,
    _json_int,
    is_hermitian,
    matrix_from_json,
    partial_trace,
    swap_operator,
)
from .rng import generator

TRACE_ATOL = 1e-10
STATE_EIG_ATOL = 1e-10
CHANNEL_ATOL = 1e-9
KRAUS_KEEP_EPS = 1e-12


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuantumState:
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    mat: ComplexMatrix

    def __post_init__(self):
        _check_states(self.mat.data[None])

    @classmethod
    def _trusted(cls, mat: ComplexMatrix) -> "QuantumState":
        """State derived from validated data: no check."""
        state = object.__new__(cls)
        object.__setattr__(state, "mat", mat)
        return state

    @property
    def dim(self) -> int:
        return self.mat.dim

    @classmethod
    def of(cls, data, factors: Sequence[int] | None = None) -> "QuantumState":
        return cls(ComplexMatrix(data, factors))

    @classmethod
    def from_ket(cls, amplitudes, factors: Sequence[int] | None = None) -> "QuantumState":
        v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        return cls(ComplexMatrix(_pure_states([v])[0], factors))

    @classmethod
    def maximally_mixed(cls, dim: int, factors: Sequence[int] | None = None) -> "QuantumState":
        return cls(ComplexMatrix(np.eye(dim) / dim, factors))


def _check_states(a: np.ndarray):
    """``QuantumState``'s checks on an (s, d, d) stack: each matrix must be
    Hermitian, have unit trace and no eigenvalue below ``-STATE_EIG_ATOL``;
    the first failure raises ValueError."""
    if not is_hermitian(a):
        raise ValueError("state is not Hermitian")
    tr = np.trace(a, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0)
    if off.max() > TRACE_ATOL:
        raise ValueError(f"state trace {tr[(off > TRACE_ATOL).argmax()]} != 1")
    lowest = np.linalg.eigvalsh(a)[..., 0]
    if lowest.min() < -STATE_EIG_ATOL:
        first = lowest[(lowest < -STATE_EIG_ATOL).argmax()]
        raise ValueError(f"state has negative eigenvalue {first:.3e}")


def _pure_states(kets: Sequence[np.ndarray]) -> np.ndarray:
    """The (s, d, d) stack of |v><v| for each ket v scaled to unit norm.

    Each ket is scaled by its own ``np.linalg.norm``: one norm over a
    stacked axis rounds differently.
    """
    v = np.stack([k / np.linalg.norm(k) for k in kets])
    return v[:, :, None] * v.conj()[:, None, :]


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def _kraus_to_choi(kraus, dim_in: int, dim_out: int) -> np.ndarray:
    """Choi matrices of Kraus sets given as an (..., k, dim_out, dim_in) stack."""
    ks = np.asarray(kraus, dtype=np.complex128)
    d = dim_in * dim_out
    return np.einsum("...kai,...kbj->...jaib", ks, ks.conj()).reshape(ks.shape[:-3] + (d, d))


def _check_trace_preserving(kraus: np.ndarray):
    """Raise ValueError unless each Kraus set of an (..., k, d_out, d_in)
    stack sums to the identity to ``CHANNEL_ATOL``; NaN entries fail."""
    total = (kraus.conj().swapaxes(-2, -1) @ kraus).sum(axis=-3)
    if not np.abs(total - np.eye(kraus.shape[-1])).max() <= CHANNEL_ATOL:
        raise ValueError("Kraus operators are not trace preserving")


def _check_unitary(u: np.ndarray):
    """Raise ValueError unless each matrix of an (..., d, d) stack is unitary
    to ``CHANNEL_ATOL``; NaN entries fail."""
    if not np.abs(u.conj().swapaxes(-2, -1) @ u - np.eye(u.shape[-2])).max() <= CHANNEL_ATOL:
        raise ValueError("matrix is not unitary")


def _choi_to_kraus(choi: ComplexMatrix) -> tuple[np.ndarray, ...]:
    dim_in, dim_out = choi.factors
    standard = input_transpose(choi).data
    w, v = np.linalg.eigh(standard)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > KRAUS_KEEP_EPS:
            ops.append(np.sqrt(lam) * vec.reshape(dim_in, dim_out).T)
    return tuple(ops)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """CPTP map stored as Kraus operators or a Choi matrix."""

    rep: str
    dim_in: int
    dim_out: int
    payload: tuple

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "QuantumChannel":
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in kraus)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        dim_out, dim_in = ops[0].shape
        if any(k.shape != (dim_out, dim_in) for k in ops):
            raise ValueError("Kraus operators must share one shape")
        _check_trace_preserving(np.stack(ops))
        return cls("kraus", dim_in, dim_out, ops)

    @classmethod
    def from_unitary(cls, u) -> "QuantumChannel":
        """Unitary conjugation, stored as a one-operator Kraus channel."""
        a = _as_array(u)
        _check_unitary(a)
        return cls("kraus", a.shape[0], a.shape[0], (a,))

    @classmethod
    def from_choi(cls, choi: ComplexMatrix) -> "QuantumChannel":
        if choi.nfactors != 2:
            raise ValueError("a Choi matrix needs exactly two factors (in, out)")
        dim_in, dim_out = choi.factors
        tr_out = partial_trace(choi, {0}).data
        if not np.abs(tr_out - np.eye(dim_in)).max() <= CHANNEL_ATOL:
            raise ValueError("Choi matrix is not trace preserving (Tr_out != I)")
        if not is_hermitian(choi.data):
            raise ValueError("Choi matrix is not Hermitian")
        w_min = np.linalg.eigvalsh(_input_transpose(choi.data, dim_in, dim_out))[0]
        if w_min < -CHANNEL_ATOL:
            raise ValueError(
                "Choi matrix is not completely positive "
                f"(its input transpose has eigenvalue {w_min:.3e})"
            )
        return cls("choi", dim_in, dim_out, (choi,))

    @classmethod
    def identity(cls, dim: int = 2) -> "QuantumChannel":
        return cls.from_unitary(np.eye(dim))

    @cached_property
    def kraus_operators(self) -> tuple[np.ndarray, ...]:
        if self.rep == "kraus":
            return self.payload
        return _choi_to_kraus(self.payload[0])

    @cached_property
    def choi(self) -> ComplexMatrix:
        """Input-transposed Choi matrix with Tr_out = I, factors (dim_in, dim_out)."""
        if self.rep == "choi":
            return self.payload[0]
        m = _kraus_to_choi(self.kraus_operators, self.dim_in, self.dim_out)
        return ComplexMatrix._trusted(m, (self.dim_in, self.dim_out))

    def __repr__(self) -> str:
        return f"QuantumChannel(rep={self.rep!r}, dim_in={self.dim_in}, dim_out={self.dim_out})"


def input_transpose(m: ComplexMatrix) -> ComplexMatrix:
    """Partial transpose on the first (input) factor; involutive."""
    if m.nfactors != 2:
        raise ValueError(f"need exactly two factors, got {m.factors}")
    return ComplexMatrix._trusted(_input_transpose(m.data, *m.factors), m.factors)


def _input_transpose(x: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """``input_transpose`` on raw (d1*d2)-square arrays with any leading stack axes."""
    lead = x.shape[:-2]
    t = x.reshape(lead + (d1, d2, d1, d2)).swapaxes(-4, -2)
    return t.reshape(x.shape)


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------

def semicausal(
    n_ac: QuantumChannel, m_bc: QuantumChannel, rho_c: QuantumState
) -> QuantumChannel:
    """Bipartite channel Tr_C [ M_BC ( N_AC (rho_AB tensor rho_C) ) ].

    By construction the second party cannot signal the first: the first
    party's output marginal depends only on its own input.
    """
    if m_bc.dim_in != m_bc.dim_out:
        raise ValueError("component channels must preserve dimension")
    assemble = _semicausal_assembly(n_ac, rho_c, m_bc.dim_in)
    return QuantumChannel.from_kraus(assemble(np.asarray(m_bc.kraus_operators)))


def _semicausal_assembly(n_ac: QuantumChannel, rho_c: QuantumState, dim_bc: int):
    """``semicausal``'s Kraus assembly with N_AC and rho_C fixed.

    The first party's Kraus operators are embedded and the ancilla is
    diagonalised here, once.  Returns the function from the second party's
    Kraus sets, an (..., k, dim_bc, dim_bc) stack, to the composed
    channels' Kraus sets, an (..., k', d_ab, d_ab) stack.
    """
    dim_c = rho_c.dim
    if n_ac.dim_in != n_ac.dim_out:
        raise ValueError("component channels must preserve dimension")
    if n_ac.dim_in % dim_c or dim_bc % dim_c:
        raise ValueError("component dimensions are not divisible by the ancilla dimension")
    dim_a = n_ac.dim_in // dim_c
    dim_b = dim_bc // dim_c
    factors = (dim_a, dim_b, dim_c)
    n_ops = [_embed_operator(k, factors, (0, 2)) for k in n_ac.kraus_operators]
    w, v = np.linalg.eigh(rho_c.mat.data)
    # I_AB tensor sqrt(p)|phi>: append the ancilla in the state phi
    injects = [
        _eye_kron(dim_a * dim_b, phi.reshape(dim_c, 1)) * np.sqrt(p)
        for p, phi in zip(w, v.T)
        if p > KRAUS_KEEP_EPS
    ]

    def assemble(m_kraus: np.ndarray) -> np.ndarray:
        m_ops = _embed_operator(m_kraus, factors, (1, 2))
        kraus = []
        for inject in injects:
            for j in range(m_ops.shape[-3]):
                for n_op in n_ops:
                    stage = m_ops[..., j, :, :] @ n_op @ inject
                    # I_AB tensor <e|: the rows of stage with ancilla index e
                    kraus.extend(stage[..., e::dim_c, :] for e in range(dim_c))
        return np.stack(kraus, axis=-3)

    return assemble


def partial_swap(theta: float) -> QuantumChannel:
    """Two-qubit unitary exp(i theta S) = cos(theta) I + i sin(theta) S."""
    s = swap_operator(2).data
    u = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * s
    return QuantumChannel.from_unitary(u)


def swap_channel(d: int = 2) -> QuantumChannel:
    return QuantumChannel.from_unitary(swap_operator(d).data)


def measure_prepare_z() -> QuantumChannel:
    """Measure one qubit in the computational basis, prepare the outcome."""
    zero = np.diag([1.0, 0.0]).astype(np.complex128)
    one = np.diag([0.0, 1.0]).astype(np.complex128)
    return QuantumChannel.from_kraus([zero, one])


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

def haar_unitary(d: int, seed_or_rng) -> ComplexMatrix:
    """Haar-distributed d x d unitary, deterministic for a given seed.

    Ginibre matrix + QR, with the R diagonal's phases absorbed so the
    distribution is exactly Haar.
    """
    return ComplexMatrix(_haar_unitaries(_ginibre(d, generator(seed_or_rng))))


def _ginibre(d: int, rng: np.random.Generator) -> np.ndarray:
    """One d x d Ginibre draw: i.i.d. standard complex normal entries."""
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """``haar_unitary`` of each Ginibre draw in an (..., d, d) stack."""
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def _gaussian_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One unnormalised ket with i.i.d. complex normal amplitudes."""
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_pure_state(dim: int, seed_or_rng, factors=None) -> QuantumState:
    return QuantumState.from_ket(_gaussian_ket(dim, generator(seed_or_rng)), factors)


def random_state(dim: int, seed_or_rng, rank: int | None = None, factors=None) -> QuantumState:
    """Random density matrix from a Ginibre factor of the given rank."""
    rng = generator(seed_or_rng)
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return QuantumState.of(rho / np.trace(rho).real, factors)


def random_channel(dim: int, seed_or_rng, kraus_count: int | None = None) -> QuantumChannel:
    """Random CPTP map: Ginibre Kraus operators renormalized to trace preservation."""
    rng = generator(seed_or_rng)
    k = dim * dim if kraus_count is None else kraus_count
    ops = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        for _ in range(k)
    ]
    total = sum(op.conj().T @ op for op in ops)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return QuantumChannel.from_kraus([op @ inv_sqrt for op in ops])


def random_semicausal(
    dim_a: int, dim_b: int, dim_c: int, seed_or_rng
) -> QuantumChannel:
    """Random one-way-signalling bipartite channel with Haar unitary components."""
    rng = generator(seed_or_rng)
    n_ac = QuantumChannel.from_unitary(haar_unitary(dim_a * dim_c, rng).data)
    m_bc = QuantumChannel.from_unitary(haar_unitary(dim_b * dim_c, rng).data)
    rho_c = random_pure_state(dim_c, rng)
    return semicausal(n_ac, m_bc, rho_c)


# ---------------------------------------------------------------------------
# Named channels and serialization
# ---------------------------------------------------------------------------

def channel_from_id(name: str) -> QuantumChannel:
    """Resolve a channel id: identity, measure_prepare_z, partial_swap:<theta>, swap."""
    if name == "identity":
        return QuantumChannel.identity(2)
    if name == "measure_prepare_z":
        return measure_prepare_z()
    if name == "swap":
        return swap_channel(2)
    if name.startswith("partial_swap:"):
        try:
            theta = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad partial_swap angle in {name!r}") from exc
        return partial_swap(theta)
    raise ValueError(f"unknown channel id {name!r}")


def _declared_dims(obj: dict) -> tuple[int | None, int | None]:
    """The optional ``dim_in``/``dim_out`` of a channel file, None where absent."""
    dims = [
        _json_int(obj[key], f"malformed channel JSON: bad {key}:") if key in obj else None
        for key in ("dim_in", "dim_out")
    ]
    return dims[0], dims[1]


def channel_from_json(obj: dict) -> QuantumChannel:
    try:
        rep = obj["rep"]
        mats = [matrix_from_json(m) for m in obj["matrices"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc
    if not mats:
        raise ValueError("malformed channel JSON: empty matrix list")
    dim_in, dim_out = _declared_dims(obj)
    if rep in ("unitary", "choi") and len(mats) != 1:
        raise ValueError(
            f"malformed channel JSON: a {rep} rep takes one matrix, got {len(mats)}"
        )
    if rep == "kraus":
        ch = QuantumChannel.from_kraus([m.data for m in mats])
    elif rep == "unitary":
        ch = QuantumChannel.from_unitary(mats[0].data)
    elif rep == "choi":
        m = mats[0]
        if m.nfactors != 2:
            if dim_in is None or dim_out is None:
                raise ValueError(
                    "malformed channel JSON: choi rep needs dim_in and dim_out"
                )
            m = ComplexMatrix(m.data, (dim_in, dim_out))
        ch = QuantumChannel.from_choi(m)
    else:
        raise ValueError(f"unknown channel rep {rep!r}")
    for key, declared, actual in (
        ("dim_in", dim_in, ch.dim_in),
        ("dim_out", dim_out, ch.dim_out),
    ):
        if declared is not None and declared != actual:
            raise ValueError(
                f"malformed channel JSON: declared {key} {declared}, matrices give {actual}"
            )
    return ch
