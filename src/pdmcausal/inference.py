"""Choi-matrix extraction from two-slot PDMs and causal-structure classification.

Vectorizing the anticommutator closed form turns Choi extraction into the
linear system  J vec(M) = vec(R)  with  J = (rho tensor I + I tensor rho^T)/2
and rho the first-slot marginal padded with the output identity.  When the
marginal is full rank the solution is unique; otherwise the pseudo-inverse
gives the minimum-norm member of an affine solution family, which is free
only in the ker(marginal) tensor out block.  A small splitting solver
searches that block, with a closed-form projection onto the trace-preserving
members, for the one whose input-transposed matrix is least negative.

Classification compares the negativity of the PDM with the positivity of
the forward and time-reversed extracted matrices:

    no negativity                -> compatible with a common cause only;
    forward PSD, reverse not     -> first slot causes the second;
    reverse PSD, forward not     -> second slot causes the first;
    both PSD                     -> either direction;
    neither PSD                  -> causation plus initial correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .channels import QuantumState, input_transpose
from .linalg import ComplexMatrix, NumericalInconsistencyError, max_abs_diff
from .pdm import PDM, marginal_state, negativity, reduce, time_reverse

RESIDUAL_LIMIT = 1e-6
PINV_RCOND = 1e-10
# Douglas-Rachford step, iteration cap and objective stall tolerance
SDP_STEP = 1.0
SDP_MAX_ITERATIONS = 50_000
SDP_OBJECTIVE_TOL = 1e-6


class CausalStructure(IntEnum):
    A_TO_B = 1
    B_TO_A = 2
    COMMON_CAUSE = 3
    A_TO_B_WITH_COMMON_CAUSE = 4
    B_TO_A_WITH_COMMON_CAUSE = 5


_MIRROR = {1: 2, 2: 1, 3: 3, 4: 5, 5: 4}


@dataclass(frozen=True)
class Thresholds:
    eps_neg: float = 1e-8
    eps_pos: float = 1e-8
    rank_tol: float = 1e-9
    product_tol: float = 1e-9

    def to_json(self) -> dict:
        return {
            "eps_neg": self.eps_neg,
            "eps_pos": self.eps_pos,
            "rank_tol": self.rank_tol,
            "product_tol": self.product_tol,
        }


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Extracted Choi matrix with input factor first.

    ``residual`` is the 2-norm defect of the linear system; ``unique`` is
    whether the marginal was full rank; ``min_eig_transposed`` the smallest
    eigenvalue of the input-transposed matrix (the CP witness).  The SDP
    path also fills ``objective`` (trace of the negative part attained),
    ``iterations`` and ``converged``.
    """

    choi: ComplexMatrix
    residual: float
    unique: bool
    min_eig_transposed: float
    objective: float | None = None
    iterations: int | None = None
    converged: bool | None = None


def jordan_product_matrix(first_marginal, out_dim: int) -> ComplexMatrix:
    """Matrix of X -> (rho X + X rho)/2 on row-major flattened operators.

    ``rho`` is the first-slot marginal padded with the identity on the
    output slot.  Hermitian PSD; its eigenvalues are the pairwise means of
    rho's eigenvalues.
    """
    marg = first_marginal.mat if isinstance(first_marginal, QuantumState) else first_marginal
    rho = np.kron(marg.data if isinstance(marg, ComplexMatrix) else marg, np.eye(out_dim))
    d = rho.shape[0]
    eye = np.eye(d)
    j = 0.5 * (np.kron(rho, eye) + np.kron(eye, rho.T))
    return ComplexMatrix(j, (d, d))


def _rank_deficient(w: np.ndarray, thresholds: Thresholds) -> np.ndarray:
    """Marginal eigenvalues treated as zero; the one rank rule of this module."""
    return w <= thresholds.rank_tol


def _two_slot_dims(pdm: PDM) -> tuple[int, int]:
    if len(pdm.slots) != 2:
        raise ValueError("extraction is defined for exactly two slots")
    return 2 ** pdm.slots[0].qubits, 2 ** pdm.slots[1].qubits


def extract_choi(pdm: PDM, thresholds: Thresholds = Thresholds()) -> ExtractionResult:
    """Solve J vec(M) = vec(R) for the forward Choi matrix.

    Raises NumericalInconsistencyError when no member of the closed-form
    family reproduces the PDM (residual above the limit).
    """
    din, dout = _two_slot_dims(pdm)
    marg = marginal_state(pdm, 0)
    jmat = jordan_product_matrix(marg, dout).data
    rvec = pdm.mat.data.reshape(-1)
    mvec = np.linalg.pinv(jmat, rcond=PINV_RCOND) @ rvec
    residual = float(np.linalg.norm(jmat @ mvec - rvec))
    if residual > RESIDUAL_LIMIT:
        raise NumericalInconsistencyError(
            f"PDM is inconsistent with the anticommutator family (residual {residual:.3e})"
        )
    m = mvec.reshape(din * dout, din * dout)
    m = 0.5 * (m + m.conj().T)
    choi = ComplexMatrix(m, (din, dout))
    unique = not _rank_deficient(np.linalg.eigvalsh(marg.mat.data), thresholds).any()
    min_eig = float(np.linalg.eigvalsh(input_transpose(choi).data).min())
    return ExtractionResult(choi, residual, unique, min_eig)


def extract_reverse_choi(pdm: PDM, thresholds: Thresholds = Thresholds()) -> ExtractionResult:
    """Extraction applied to the time-reversed PDM.

    The returned matrix has the later slot as its input factor; conjugate
    with the swap to express it in the original slot order.
    """
    return extract_choi(time_reverse(pdm), thresholds)


# ---------------------------------------------------------------------------
# Least-negative completion (small dense SDP via operator splitting)
# ---------------------------------------------------------------------------

def _input_transpose_raw(x: np.ndarray, din: int, dout: int) -> np.ndarray:
    d = din * dout
    return x.reshape(din, dout, din, dout).transpose(2, 1, 0, 3).reshape(d, d)


def _trace_out(x: np.ndarray, din: int, dout: int) -> np.ndarray:
    return np.trace(x.reshape(din, dout, din, dout), axis1=1, axis2=3)


def _neg_part_trace(x: np.ndarray) -> float:
    w = np.linalg.eigvalsh(x)
    return float(-w[w < 0].sum() + 0.0)


def _prox_neg_part(x: np.ndarray, t: float, din: int, dout: int) -> np.ndarray:
    """Prox of t * trace-of-negative-part composed with the input transpose."""
    xt = _input_transpose_raw(x, din, dout)
    w, v = np.linalg.eigh(xt)
    shifted = np.where(w > 0, w, np.where(w < -t, w + t, 0.0))
    yt = (v * shifted) @ v.conj().T
    return _input_transpose_raw(yt, din, dout)


def sdp_least_negative(
    pdm: PDM, direction: str = "forward", thresholds: Thresholds = Thresholds()
) -> ExtractionResult:
    """Least-negative member of the affine Choi solution family.

    Minimizes the trace of the negative part of the input-transposed matrix
    over Hermitian, trace-preserving solutions of J vec(N) = vec(R), by
    Douglas-Rachford splitting: alternate exact projection onto the affine
    set with the eigenvalue-clipping prox of the objective.

    The solutions are the minimum-norm extraction M0 with its Q = Pk tensor I
    block replaced, where Pk projects onto the marginal eigenvectors with
    eigenvalue at most rank_tol.  The projection is closed form: keep M0
    outside that block, keep the Hermitian part of the argument inside it,
    and shift by (Pk Tr_out(.) Pk - Pk) tensor I / dout to restore Tr_out = I.
    """
    if direction == "reverse":
        pdm = time_reverse(pdm)
    elif direction != "forward":
        raise ValueError("direction must be 'forward' or 'reverse'")
    din, dout = _two_slot_dims(pdm)
    base = extract_choi(pdm, thresholds)
    m0 = base.choi.data
    marg = marginal_state(pdm, 0).mat.data
    w, v = np.linalg.eigh(marg)
    kernel = v[:, _rank_deficient(w, thresholds)]
    pk = kernel @ kernel.conj().T
    q = np.kron(pk, np.eye(dout))
    fixed = m0 - q @ m0 @ q

    def project(x: np.ndarray) -> np.ndarray:
        x = q @ (0.5 * (x + x.conj().T)) @ q
        return fixed + x - np.kron(_trace_out(x, din, dout) - pk, np.eye(dout)) / dout

    x0 = project(np.zeros_like(m0))
    floor = float(np.linalg.norm(_trace_out(x0, din, dout) - np.eye(din)))
    if floor > RESIDUAL_LIMIT:
        raise NumericalInconsistencyError(
            f"no Hermitian trace-preserving solution reproduces the PDM (floor {floor:.3e})"
        )

    z = x0.copy()
    y_prev = None
    obj_prev = np.inf
    best_obj = np.inf
    best = x0
    converged = False
    iterations = 0
    stall = 0
    for iterations in range(1, SDP_MAX_ITERATIONS + 1):
        y = project(z)
        obj = _neg_part_trace(_input_transpose_raw(y, din, dout))
        if obj < best_obj:
            best_obj = obj
            best = y
        stalled = (
            y_prev is not None
            and np.linalg.norm(y - y_prev) <= 1e-10 * max(1.0, np.linalg.norm(y))
            and abs(obj - obj_prev) <= SDP_OBJECTIVE_TOL
        )
        if stalled:
            stall += 1
            if stall >= 5:
                converged = True
                break
        else:
            stall = 0
        y_prev = y
        obj_prev = obj
        z = z + _prox_neg_part(2.0 * y - z, SDP_STEP, din, dout) - y

    n_best = project(best)
    n_best = 0.5 * (n_best + n_best.conj().T)
    choi = ComplexMatrix(n_best, (din, dout))
    rho = np.kron(marg, np.eye(dout))
    residual = float(np.linalg.norm(0.5 * (rho @ n_best + n_best @ rho) - pdm.mat.data))
    min_eig = float(np.linalg.eigvalsh(input_transpose(choi).data).min())
    objective = _neg_part_trace(_input_transpose_raw(n_best, din, dout))
    return ExtractionResult(
        choi, residual, base.unique, min_eig, objective, iterations, converged
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CausalVerdict:
    """Compatibility subset of the five causal structures plus the evidence."""

    compatible: frozenset
    f: float
    min_eig_forward: float
    min_eig_reverse: float
    unique_forward: bool
    unique_reverse: bool
    correlated: bool
    thresholds: Thresholds

    @property
    def compatible_reversed(self) -> frozenset:
        """Verdict for the same data with the two slots relabeled."""
        return frozenset(CausalStructure(_MIRROR[int(c)]) for c in self.compatible)

    def to_json(self) -> dict:
        return {
            "compatible": sorted(int(c) for c in self.compatible),
            "f": self.f,
            "min_eig_forward": self.min_eig_forward,
            "min_eig_reverse": self.min_eig_reverse,
            "unique_forward": self.unique_forward,
            "unique_reverse": self.unique_reverse,
            "correlated": self.correlated,
            "compatible_reversed": sorted(int(c) for c in self.compatible_reversed),
            "thresholds": self.thresholds.to_json(),
        }


def _evidence(pdm: PDM, direction: str, thresholds: Thresholds) -> ExtractionResult:
    """Unique extraction, or the least-negative completion when the oriented
    first marginal is rank deficient; either way the PDM is extracted once."""
    oriented = pdm if direction == "forward" else time_reverse(pdm)
    w = np.linalg.eigvalsh(marginal_state(oriented, 0).mat.data)
    if _rank_deficient(w, thresholds).any():
        return sdp_least_negative(pdm, direction, thresholds)
    return extract_choi(oriented, thresholds)


def classify(pdm: PDM, thresholds: Thresholds = Thresholds()) -> CausalVerdict:
    """Run the three-step compatibility protocol on a two-slot PDM.

    Negativity below eps_neg keeps only the common-cause structure; with
    negativity, the signs of the extracted forward/reverse matrices decide
    between directed causation and a mixed structure.  Rank-deficient
    marginals fall back to the least-negative completion.
    """
    if len(pdm.slots) != 2:
        raise ValueError("classification is defined for exactly two slots")
    f = negativity(pdm)
    r_a = reduce(pdm, [0])
    r_b = reduce(pdm, [1])
    product = np.kron(r_a.mat.data, r_b.mat.data)
    correlated = bool(max_abs_diff(pdm.mat.data, product) > thresholds.product_tol)

    fwd = _evidence(pdm, "forward", thresholds)
    rev = _evidence(pdm, "reverse", thresholds)

    if not correlated:
        compatible = frozenset(CausalStructure)
    elif f <= thresholds.eps_neg:
        compatible = frozenset({CausalStructure.COMMON_CAUSE})
    else:
        fwd_ok = fwd.min_eig_transposed >= -thresholds.eps_pos
        rev_ok = rev.min_eig_transposed >= -thresholds.eps_pos
        if fwd_ok and not rev_ok:
            compatible = frozenset({CausalStructure.A_TO_B})
        elif rev_ok and not fwd_ok:
            compatible = frozenset({CausalStructure.B_TO_A})
        elif fwd_ok and rev_ok:
            compatible = frozenset({CausalStructure.A_TO_B, CausalStructure.B_TO_A})
        else:
            compatible = frozenset(
                {
                    CausalStructure.A_TO_B_WITH_COMMON_CAUSE,
                    CausalStructure.B_TO_A_WITH_COMMON_CAUSE,
                }
            )
    return CausalVerdict(
        compatible=compatible,
        f=f,
        min_eig_forward=fwd.min_eig_transposed,
        min_eig_reverse=rev.min_eig_transposed,
        unique_forward=fwd.unique,
        unique_reverse=rev.unique,
        correlated=correlated,
        thresholds=thresholds,
    )
