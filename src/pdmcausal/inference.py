"""Choi-matrix extraction from two-slot PDMs and causal-structure classification.

Vectorizing the anticommutator closed form turns Choi extraction into the
linear system  J vec(M) = vec(R)  with  J = (rho tensor I + I tensor rho^T)/2
and rho the first-slot marginal padded with the output identity.  When the
marginal is full rank the solution is unique; otherwise the pseudo-inverse
gives the minimum-norm member of an affine solution family, which is free
only in the ker(marginal) tensor out block.  A small splitting solver
searches that block for the member whose input-transposed matrix is least
negative.  It works in the eigenbasis of rho, where the family is explicit
entry by entry (each fixed entry is 2 R_ab / (lam_a + lam_b)), so it needs
neither the Jordan matrix nor its pseudo-inverse, and projects onto the
trace-preserving members in closed form.

Classification compares the negativity of the PDM with the positivity of
the forward and time-reversed extracted matrices:

    no negativity                -> compatible with a common cause only;
    forward PSD, reverse not     -> first slot causes the second;
    reverse PSD, forward not     -> second slot causes the first;
    both PSD                     -> either direction;
    neither PSD                  -> causation plus initial correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .channels import _input_transpose
from .linalg import (
    ComplexMatrix,
    NumericalInconsistencyError,
    _eye_kron,
    _kron_eye,
    max_abs_diff,
)
from .pdm import PDM, negativity, time_reverse

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

    def __post_init__(self):
        for name, value in self.to_json().items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"threshold {name} must be finite and >= 0, got {value}")

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


def _jordan_product(marg: np.ndarray, out_dim: int) -> np.ndarray:
    """Matrix of X -> (rho X + X rho)/2 on row-major flattened operators.

    ``rho`` is the first-slot marginal padded with the identity on the
    output slot.  Hermitian PSD; its eigenvalues are the pairwise means of
    rho's eigenvalues.
    """
    rho = _kron_eye(marg, out_dim)
    d = rho.shape[0]
    j = _kron_eye(rho, d)
    j += _eye_kron(d, rho.T)
    j *= 0.5
    return j


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
    marg, w = pdm._marginals[0]
    jmat = _jordan_product(marg, dout)
    rvec = pdm.mat.data.reshape(-1)
    mvec = np.linalg.pinv(jmat, rcond=PINV_RCOND) @ rvec
    residual = float(np.linalg.norm(jmat @ mvec - rvec))
    if residual > RESIDUAL_LIMIT:
        raise NumericalInconsistencyError(
            f"PDM is inconsistent with the anticommutator family (residual {residual:.3e})"
        )
    m = mvec.reshape(din * dout, din * dout)
    m = 0.5 * (m + m.conj().T)
    unique = not _rank_deficient(w, thresholds).any()
    min_eig = float(np.linalg.eigvalsh(_input_transpose(m, din, dout)).min())
    return ExtractionResult(ComplexMatrix._trusted(m, (din, dout)), residual, unique, min_eig)


def extract_reverse_choi(pdm: PDM, thresholds: Thresholds = Thresholds()) -> ExtractionResult:
    """Extraction applied to the time-reversed PDM.

    The returned matrix has the later slot as its input factor; conjugate
    with the swap to express it in the original slot order.
    """
    return extract_choi(time_reverse(pdm), thresholds)


# ---------------------------------------------------------------------------
# Least-negative completion (small dense SDP via operator splitting)
# ---------------------------------------------------------------------------

def _trace_out(x: np.ndarray, din: int, dout: int) -> np.ndarray:
    return np.trace(x.reshape(din, dout, din, dout), axis1=1, axis2=3)


def _neg_part_trace(w: np.ndarray) -> float:
    """Trace of the negative part of a Hermitian matrix with eigenvalues ``w``."""
    return float(-w[w < 0].sum() + 0.0)


def _prox_neg_part(x: np.ndarray, t: float, din: int, dout: int) -> np.ndarray:
    """Prox of t * trace-of-negative-part composed with the input transpose."""
    xt = _input_transpose(x, din, dout)
    w, v = np.linalg.eigh(xt)
    shifted = np.where(w > 0, w, np.where(w < -t, w + t, 0.0))
    yt = (v * shifted) @ v.conj().T
    return _input_transpose(yt, din, dout)


def _jordan_solve(r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve (diag(lam) M + M diag(lam))/2 = r entrywise, as the Jordan pinv does.

    ``r`` and ``M`` are written in the eigenbasis of rho, whose eigenvalues
    are ``lam``.  Entry (a, b) is 2 r_ab / (lam_a + lam_b); entries whose
    mean |lam_a + lam_b| / 2 is at most PINV_RCOND times the largest mean
    are cut to zero, the cut the pseudo-inverse makes on the Jordan matrix's
    eigenvalues.  The norm of ``r`` on the cut entries is the residual the
    pinv solution leaves; above RESIDUAL_LIMIT no member of the family
    reproduces the PDM and NumericalInconsistencyError is raised, so this
    accepts exactly the PDMs ``extract_choi`` accepts.
    """
    mean = 0.5 * (lam[:, None] + lam[None, :])
    size = np.abs(mean)
    cut = size <= PINV_RCOND * size.max()
    residual = float(np.linalg.norm(r[cut]))
    if residual > RESIDUAL_LIMIT:
        raise NumericalInconsistencyError(
            f"PDM is inconsistent with the anticommutator family (residual {residual:.3e})"
        )
    return np.where(cut, 0.0, r / np.where(cut, 1.0, mean))


def sdp_least_negative(
    pdm: PDM, direction: str = "forward", thresholds: Thresholds = Thresholds()
) -> ExtractionResult:
    """Least-negative member of the affine Choi solution family.

    Minimizes the trace of the negative part of the input-transposed matrix
    over Hermitian, trace-preserving solutions of J vec(N) = vec(R), by
    Douglas-Rachford splitting: alternate exact projection onto the affine
    set with the eigenvalue-clipping prox of the objective.

    The search runs in the eigenbasis U = v tensor I of rho = marginal tensor
    I, where the family is explicit entry by entry: outside the block of
    marginal eigenvalues at most rank_tol (tensor out) every entry is fixed
    at 2 R~_ab / (lam_a + lam_b) (``_jordan_solve``, which also rejects an
    inconsistent PDM); the block is free.  The projection keeps the fixed
    entries, keeps the Hermitian part of the argument inside the block, and
    shifts it by (Tr_out(block) - I) tensor I / dout to restore Tr_out = I.
    Conjugation by U turns into conjugation by conj(v) tensor I under the
    input transpose, so the objective and the prox, which depend only on
    eigenvalues, run unchanged on the rotated iterate; the result is rotated
    back once and its residual measured against the PDM.
    """
    if direction == "reverse":
        pdm = time_reverse(pdm)
    elif direction != "forward":
        raise ValueError("direction must be 'forward' or 'reverse'")
    din, dout = _two_slot_dims(pdm)
    marg, w_stored = pdm._marginals[0]
    w, v = np.linalg.eigh(marg)
    # eigh sorts ascending, so the rank-deficient eigenvectors come first and
    # the free block is the leading k*dout rows and columns
    k = int(_rank_deficient(w, thresholds).sum())
    kd = k * dout
    u = _kron_eye(v, dout)
    r = u.conj().T @ pdm.mat.data @ u
    fixed = _jordan_solve(0.5 * (r + r.conj().T), np.repeat(w, dout))
    eye_k = np.eye(k)

    def project(x: np.ndarray) -> np.ndarray:
        block = 0.5 * (x[:kd, :kd] + x[:kd, :kd].conj().T)
        y = fixed.copy()
        y[:kd, :kd] = block - _kron_eye(_trace_out(block, k, dout) - eye_k, dout) / dout
        return y

    x0 = project(np.zeros_like(fixed))
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
        obj = _neg_part_trace(np.linalg.eigvalsh(_input_transpose(y, din, dout)))
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

    n_best = u @ project(best) @ u.conj().T
    n_best = 0.5 * (n_best + n_best.conj().T)
    rho = _kron_eye(marg, dout)
    residual = float(np.linalg.norm(0.5 * (rho @ n_best + n_best @ rho) - pdm.mat.data))
    eigs = np.linalg.eigvalsh(_input_transpose(n_best, din, dout))
    objective = _neg_part_trace(eigs)
    unique = not _rank_deficient(w_stored, thresholds).any()
    choi = ComplexMatrix._trusted(n_best, (din, dout))
    return ExtractionResult(
        choi, residual, unique, float(eigs.min()), objective, iterations, converged
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
    first marginal is rank deficient; either way the PDM is extracted once.

    The route comes from the stored eigenvalues of the slot that comes first
    in ``direction``, so a reversed direction is time-reversed only once."""
    first = 0 if direction == "forward" else 1
    if _rank_deficient(pdm._marginals[first][1], thresholds).any():
        return sdp_least_negative(pdm, direction, thresholds)
    return extract_choi(pdm if first == 0 else time_reverse(pdm), thresholds)


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
    (r_a, _), (r_b, _) = pdm._marginals
    product = np.kron(r_a, r_b)
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
