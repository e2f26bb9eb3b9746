"""Choi-matrix extraction from two-slot PDMs and causal-structure classification.

Vectorizing the anticommutator closed form turns Choi extraction into the
linear system  J vec(M) = vec(R)  with  J = (rho tensor I + I tensor rho^T)/2
and rho the first-slot marginal padded with the output identity.  When the
marginal is full rank the solution is unique; otherwise it is an affine
family, free only in the ker(marginal) tensor out block.  ``extract_choi``
solves the system through the pseudo-inverse of J (the minimum-norm member),
for one PDM or a stack of them, and ranks the marginal eigenvalues the PDMs
store, as ``sdp_least_negative`` does.  In the eigenbasis of rho the system
solves entry by entry instead (each fixed entry is 2 R_ab / (lam_a + lam_b)),
with neither J nor a pseudo-inverse.  ``sdp_least_negative`` works there on
the input-transposed family, whose eigenvalues are the CP witness: a full-rank
family is its one member; otherwise it searches the free block for the
least-negative member by operator splitting or, asked to decide, settles by a
Schur complement whether some member is CP within eps_pos (a member proves a
yes, a dual (Farkas) certificate a no).  ``classify`` asks it both ways.

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
from typing import NamedTuple

import numpy as np

from .channels import _input_transpose
from .linalg import (
    ComplexMatrix,
    NumericalInconsistencyError,
    _eye_kron,
    _kron_eye,
    _partial_trace,
    max_abs_diff,
)
from .pdm import PDM, _slot_marginals, negativity, time_reverse

RESIDUAL_LIMIT = 1e-6
PINV_RCOND = 1e-10
# Douglas-Rachford step, iteration cap and objective stall tolerance
SDP_STEP = 1.0
SDP_MAX_ITERATIONS = 50_000
SDP_OBJECTIVE_TOL = 1e-6
# Anderson acceleration of the Douglas-Rachford step: differences kept
SDP_ANDERSON_MEMORY = 10


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

    ``residual`` is the 2-norm defect of the linear system for this PDM
    alone, also when it was extracted as part of a sequence; ``unique`` is
    whether the marginal was full rank; ``min_eig_transposed`` the smallest
    eigenvalue of the input-transposed matrix (the CP witness).
    ``sdp_least_negative`` also fills ``objective`` (trace of the negative
    part attained), ``iterations`` (0 without a search) and ``converged``.

    ``route`` says how ``sdp_least_negative`` obtained the evidence:
    ``unique`` (the one member of a full-rank family), ``certified_cp`` (a
    member whose witness is at least -eps_pos) or ``certified_not_cp`` (a dual
    certificate, kept in ``certificate``: then ``min_eig_transposed`` is its
    bound, which every member's witness lies at or below).  ``extract_choi``
    and the search to the optimum leave it None.
    """

    choi: ComplexMatrix
    residual: float
    unique: bool
    min_eig_transposed: float
    objective: float | None = None
    iterations: int | None = None
    converged: bool | None = None
    route: str | None = None
    certificate: ComplexMatrix | None = None


def _jordan_product(marg: np.ndarray, out_dim: int) -> np.ndarray:
    """Matrix of X -> (rho X + X rho)/2 on row-major flattened operators.

    ``rho`` is the first-slot marginal padded with the identity on the
    output slot; ``marg`` may carry leading stack axes.  Hermitian PSD; its
    eigenvalues are the pairwise means of rho's eigenvalues.
    """
    rho = _kron_eye(marg, out_dim)
    d = rho.shape[-1]
    j = _kron_eye(rho, d)
    j += _eye_kron(d, rho.swapaxes(-2, -1))
    j *= 0.5
    return j


def _rank_deficient(w: np.ndarray, thresholds: Thresholds) -> np.ndarray:
    """Marginal eigenvalues treated as zero; the one rank rule of this module."""
    return w <= thresholds.rank_tol


def _check_residual(residual: float) -> float:
    """Pass ``residual`` through; raise when no family member reproduces the PDM."""
    if residual > RESIDUAL_LIMIT:
        raise NumericalInconsistencyError(
            f"PDM is inconsistent with the anticommutator family (residual {residual:.3e})"
        )
    return residual


def _two_slot_dims(pdm: PDM) -> tuple[int, int]:
    if len(pdm.slots) != 2:
        raise ValueError("extraction is defined for exactly two slots")
    return 2 ** pdm.slots[0].qubits, 2 ** pdm.slots[1].qubits


def extract_choi(
    pdms, thresholds: Thresholds = Thresholds()
) -> ExtractionResult | tuple[ExtractionResult, ...]:
    """Solve J vec(M) = vec(R) for the forward Choi matrix.

    ``pdms`` is one two-slot PDM, which gives one ExtractionResult, or a
    sequence of them with equal slot sizes, which gives a tuple of them in
    order.  A sequence runs as one stack: its first-slot marginals with their
    eigenvalues (``_slot_marginals``, each PDM's stored ones bit for bit),
    Jordan matrices, pseudo-inverses and witnesses are computed in one call
    each, with the results of extracting each PDM alone, bit for bit.

    Raises NumericalInconsistencyError when no member of the closed-form
    family reproduces a PDM (``_check_residual``).
    """
    single = isinstance(pdms, PDM)
    seq = (pdms,) if single else tuple(pdms)
    if not seq:
        raise ValueError("need at least one PDM to extract from")
    din, dout = _two_slot_dims(seq[0])
    if any(_two_slot_dims(p) != (din, dout) for p in seq[1:]):
        raise ValueError("extraction from a sequence needs equal slot sizes")
    data = np.stack([p.mat.data for p in seq])
    marg, w = _slot_marginals(data, seq[0].slots)[0]
    jmat = _jordan_product(marg, dout)
    rvec = data.reshape(len(seq), -1, 1)
    mvec = np.linalg.pinv(jmat, rcond=PINV_RCOND) @ rvec
    defect = jmat @ mvec - rvec
    # one norm per PDM: a norm over the stack's last axis rounds differently
    residuals = [_check_residual(float(np.linalg.norm(x[:, 0]))) for x in defect]
    m = mvec.reshape(len(seq), din * dout, din * dout)
    m = 0.5 * (m + m.conj().swapaxes(-2, -1))
    unique = ~_rank_deficient(w, thresholds).any(axis=-1)
    min_eig = np.linalg.eigvalsh(_input_transpose(m, din, dout)).min(axis=-1)
    results = tuple(
        ExtractionResult(
            ComplexMatrix._trusted(m[k], (din, dout)),
            residuals[k],
            bool(unique[k]),
            float(min_eig[k]),
        )
        for k in range(len(seq))
    )
    return results[0] if single else results


# ---------------------------------------------------------------------------
# Least-negative completion (small dense SDP via operator splitting)
# ---------------------------------------------------------------------------

def _neg_part_trace(w: np.ndarray) -> float:
    """Trace of the negative part of a Hermitian matrix with eigenvalues ``w``."""
    return float(-w[w < 0].sum() + 0.0)


def _jordan_solve(r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve (diag(lam) M + M diag(lam))/2 = r entrywise, as the Jordan pinv does.

    ``r`` and ``M`` are written in the eigenbasis of rho, whose eigenvalues
    are ``lam``.  Entry (a, b) is 2 r_ab / (lam_a + lam_b); entries whose
    mean |lam_a + lam_b| / 2 is at most PINV_RCOND times the largest mean
    are cut to zero, the cut the pseudo-inverse makes on the Jordan matrix's
    eigenvalues.  The norm of ``r`` on the cut entries is the residual the
    pinv solution leaves, so ``_check_residual`` rejects what ``extract_choi`` does.
    """
    mean = 0.5 * (lam[:, None] + lam[None, :])
    size = np.abs(mean)
    cut = size <= PINV_RCOND * size.max()
    _check_residual(float(np.linalg.norm(r[cut])))
    return np.where(cut, 0.0, r / np.where(cut, 1.0, mean))


class _Eigenbasis(NamedTuple):
    """A two-slot PDM written in the eigenbasis U = v tensor I of rho = marginal tensor I.

    ``fixed`` is the input transpose of the entrywise solution of the Jordan
    equation there (``_jordan_solve``, which rejects an inconsistent PDM),
    so its eigenvalues are the CP witness; ``k`` is the number of the PDM's
    stored marginal eigenvalues at most rank_tol, the count ``classify``
    routes on (``eigh`` may round them differently in the last bits).  Both
    sort ascending, so these come first and the free block of the family is
    the leading k*dout rows and columns of ``fixed``; the input transpose
    maps that block to itself.
    """

    din: int
    dout: int
    u: np.ndarray
    fixed: np.ndarray
    k: int


def _eigenbasis(pdm: PDM, thresholds: Thresholds) -> _Eigenbasis:
    din, dout = _two_slot_dims(pdm)
    w, v = np.linalg.eigh(pdm._marginals[0][0])
    u = _kron_eye(v, dout)
    r = u.conj().T @ pdm.mat.data @ u
    fixed = _jordan_solve(0.5 * (r + r.conj().T), np.repeat(w, dout))
    k = int(_rank_deficient(pdm._marginals[0][1], thresholds).sum())
    return _Eigenbasis(din, dout, u, _input_transpose(fixed, din, dout), k)


def _in_pdm_basis(pdm: PDM, basis: _Eigenbasis, x: np.ndarray):
    """Rotate an input-transposed member back to the PDM's basis.

    Returns it with its residual against the PDM and the eigenvalues of its
    input transpose, which are those of ``x``: the input transpose of
    U N U^H is conj(U) T(N) conj(U)^H.
    """
    din, dout = basis.din, basis.dout
    eigs = np.linalg.eigvalsh(x)
    n = basis.u @ _input_transpose(x, din, dout) @ basis.u.conj().T
    n = 0.5 * (n + n.conj().T)
    rho = _kron_eye(pdm._marginals[0][0], dout)
    residual = float(np.linalg.norm(0.5 * (rho @ n + n @ rho) - pdm.mat.data))
    return ComplexMatrix._trusted(n, (din, dout)), residual, eigs


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point iteration z <- z + g(z).

    Keeps the last ``memory`` differences of residuals g and of the plain
    steps z + g, and replaces the plain step by the mix whose residual
    differences best cancel g: its weights solve the m x m Gram system,
    kept up to date one row per step.  Complex matrices are handled as real
    vectors, so the weights are real and Hermitian iterates stay Hermitian.
    The history is cleared whenever |g| grows, and the next step is then a
    plain one (Fu, Zhang & Boyd, SIAM J. Sci. Comput. 42, 2020).
    """

    def __init__(self, memory: int, shape: tuple):
        size = 2 * math.prod(shape)
        self.memory = memory
        self.dg = np.empty((memory, size))
        self.df = np.empty((memory, size))
        self.gram = np.empty((memory, memory))
        self.count = 0
        self.last = None  # (z, g, |g|^2) of the previous step, as real vectors

    def step(self, z: np.ndarray, g: np.ndarray) -> np.ndarray:
        shape = z.shape
        z, g = z.reshape(-1).view(np.float64), g.reshape(-1).view(np.float64)
        size = g @ g
        if self.last is not None:
            z_last, g_last, size_last = self.last
            if size > size_last:
                self.count = 0
            else:
                j = self.count % self.memory
                self.dg[j] = g - g_last
                self.df[j] = z - z_last + self.dg[j]
                self.count += 1
                m = min(self.count, self.memory)
                row = self.dg[:m] @ self.dg[j]
                self.gram[j, :m] = row
                self.gram[:m, j] = row
        self.last = (z, g, size)
        m = min(self.count, self.memory)
        if m == 0:
            step = z + g
        else:
            gram = self.gram[:m, :m].copy()
            scale = gram.trace()
            if not scale > 0:  # the residual did not move
                step = z + g
            else:
                gram.flat[:: m + 1] += 1e-12 * scale
                weights = np.linalg.solve(gram, self.dg[:m] @ g)
                step = z + g - weights @ self.df[:m]
        return step.view(np.complex128).reshape(shape)


def _schur_decision(basis: _Eigenbasis, t: float, rank_tol: float):
    """Decide whether some member T(N) of ``basis``'s family has T(N) >= t I.

    Members are [[A, B], [B^H, C]] with B, C fixed and Tr_out A = I_k.  P is
    the pseudo-inverse of C - tI that cuts its kernel K (eigenvalues at most
    rank_tol) and Q = (1 - t dout) I - Tr_out(B P B^H).  A yes is (True, the
    member A = tI + B P B^H + Q tensor I / dout, None): the Schur complement
    of C - tI in it is PSD (Boyd & Vandenberghe, App. A.5.5).  A no is
    (False, W, bound), W = sum_o z_o z_o^H with free block M tensor I, so
    c = <W, T(N)> is one value on the family and bound = c / Tr W < t caps
    every witness.  No when C has an eigenvalue below t (z its eigenvector);
    when B reaches K: z_o = [a y_o; -P_K B^H y_o], y_o = u tensor e_o, u the
    top eigenvector of Tr_out(B P_K B^H); or when Q is not PSD: z_o = [y_o;
    -P B^H y_o], u the eigenvector of Q's least eigenvalue, u^H Q u, which is
    <W, T(N) - tI>.  The bound is t plus this negative excess over Tr W.
    """
    k, dout, fixed = basis.k, basis.dout, basis.fixed
    kd = k * dout
    lam, v = np.linalg.eigh(fixed[kd:, kd:])
    shifted = lam - t

    def no(top, bottom, excess):  # excess: <W, T(N) - tI>, negative
        z = np.vstack([top, -bottom])
        return False, z @ z.conj().T, float(t + excess / np.vdot(z, z).real)

    if (shifted < 0).any():  # C is empty when every marginal eigenvalue is free
        return no(np.zeros((kd, 1)), v[:, :1], shifted[0])
    kernel = shifted <= rank_tol
    g = v.conj().T @ fixed[:kd, kd:].conj().T  # B^H in the eigenbasis of C
    scale = 1 - t * dout
    if k and kernel.any():
        gk = g * kernel[:, None]
        reach, vecs = np.linalg.eigh(_partial_trace(gk.conj().T @ gk, (k, dout), (0,)))
        y = _kron_eye(vecs[:, -1:], dout)
        # <W, T(N) - tI> = a^2 scale - 2 a s + e, least at a = s / scale
        s, e = reach[-1], np.linalg.norm(np.sqrt(shifted)[:, None] * (gk @ y)) ** 2
        if s * s > scale * e:
            return no(y * (s / scale), v @ (gk @ y), e - s * s / scale)
    pb = v @ (np.divide(1.0, shifted, out=np.zeros_like(shifted), where=~kernel)[:, None] * g)
    bpb = fixed[:kd, kd:] @ pb
    q = scale * np.eye(k) - _partial_trace(bpb, (k, dout), (0,))
    wq, uq = np.linalg.eigh(q)
    if (wq >= 0).all():
        member = fixed.copy()
        member[:kd, :kd] = t * np.eye(kd) + bpb + _kron_eye(q, dout) / dout
        return True, member, None
    y = _kron_eye(uq[:, :1], dout)
    return no(y, pb @ y, wq[0])


def sdp_least_negative(
    pdm: PDM, thresholds: Thresholds = Thresholds(), *, decide: bool = False
) -> ExtractionResult:
    """Least-negative member of the affine Choi solution family.

    The family is the forward one, from the first slot to the second; the
    reverse family is that of ``time_reverse(pdm)``.  A full-rank family (no
    stored marginal eigenvalue at most rank_tol) is its one member, returned
    at once with route ``unique`` and 0 iterations.

    Minimizes the trace of the negative part of the input-transposed matrix
    over Hermitian, trace-preserving solutions of J vec(N) = vec(R), by
    Douglas-Rachford splitting: alternate exact projection onto the affine
    set with the eigenvalue-clipping prox of the objective; the step is
    Anderson accelerated (``_Anderson``).

    The search runs on the input transpose of the family in the marginal's
    eigenbasis (``_eigenbasis``), where every entry outside the free block is
    fixed.  The input transpose maps the block to itself and A tensor I to
    A^T tensor I, so the projection keeps the fixed entries and the Hermitian
    part of the block, shifted by (Tr_out(block) - I) tensor I / dout to
    restore Tr_out = I; the witness is the iterate's eigenvalues and the prox
    a plain eigenvalue clip.  The result is rotated back once and its
    residual measured against the PDM.

    Raises NumericalInconsistencyError when no member is trace preserving
    (the floor), as when a marginal eigenvalue lies above rank_tol but under
    ``_jordan_solve``'s cut, so that it is neither free nor solved for.

    With ``decide``, ``_schur_decision`` first decides whether a member is CP
    within eps_pos.  A no returns at once (``certified_not_cp``: the member
    x0 whose free block is I tensor I / dout, the bound c / Tr W as witness).
    A yes runs the loop up to the first iterate whose witness is at least
    -eps_pos (``certified_cp``); if the loop stops first, the Schur member is
    returned with witness -eps_pos, the bound its Schur complement certifies.
    The run to the optimum has route None.
    """
    basis = _eigenbasis(pdm, thresholds)
    din, dout, fixed, k = basis.din, basis.dout, basis.fixed, basis.k
    kd = k * dout
    eye_k = np.eye(k)

    def project(x: np.ndarray) -> np.ndarray:
        block = 0.5 * (x[:kd, :kd] + x[:kd, :kd].conj().T)
        y = fixed.copy()
        shift = _partial_trace(block, (k, dout), (0,)) - eye_k
        y[:kd, :kd] = block - _kron_eye(shift, dout) / dout
        return y

    x0 = project(np.zeros_like(fixed)) if k else fixed
    floor = float(np.linalg.norm(_partial_trace(x0, (din, dout), (0,)) - np.eye(din)))
    if floor > RESIDUAL_LIMIT:
        raise NumericalInconsistencyError(
            f"no trace-preserving member (floor {floor:.3e}, rank_tol {thresholds.rank_tol:g})"
        )
    if not k:
        choi, residual, eigs = _in_pdm_basis(pdm, basis, fixed)
        min_eig, objective = float(eigs.min()), _neg_part_trace(eigs)
        return ExtractionResult(choi, residual, True, min_eig, objective, 0, True, "unique")
    t = -thresholds.eps_pos + 0.0  # no -0.0 at eps_pos = 0
    if decide:
        cp, decision, bound = _schur_decision(basis, t, thresholds.rank_tol)
        if not cp:
            choi, residual, eigs = _in_pdm_basis(pdm, basis, x0)
            cert = ComplexMatrix._trusted(basis.u.conj() @ decision @ basis.u.T, (din, dout))
            objective = _neg_part_trace(eigs)
            return ExtractionResult(
                choi, residual, False, bound, objective, 0, True, "certified_not_cp", cert
            )

    accel = _Anderson(SDP_ANDERSON_MEMORY, fixed.shape)
    z = x0
    y_prev, obj_prev = None, np.inf
    best, best_obj = x0, np.inf
    converged, route = False, None
    iterations = stall = 0
    for iterations in range(1, SDP_MAX_ITERATIONS + 1):
        y = project(z)
        eigs = np.linalg.eigvalsh(y)
        if decide and eigs[0] >= t:
            route = "certified_cp"
            break
        obj = _neg_part_trace(eigs)
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
        # prox: each negative eigenvalue moves toward 0 by its dual weight
        w, v = np.linalg.eigh(2.0 * y - z)
        weights = np.clip(-w, 0.0, SDP_STEP)
        x = (v * (w + weights)) @ v.conj().T
        z = accel.step(z, x - y)

    if route:
        member, converged, min_eig = y, True, float(eigs[0])
    elif decide:  # stopped before a certified iterate: the Schur member
        member, converged, min_eig, route = decision, True, t, "certified_cp"
    else:
        member, min_eig = best, None
    choi, residual, member_eigs = _in_pdm_basis(pdm, basis, project(member))
    if min_eig is None:
        min_eig = float(member_eigs.min())
    return ExtractionResult(
        choi, residual, False, min_eig, _neg_part_trace(member_eigs), iterations, converged, route
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CausalVerdict:
    """Compatibility subset of the five causal structures plus the evidence.

    Per direction: ``route_*`` is ``unique``, ``certified_cp`` or
    ``certified_not_cp``, ``min_eig_*`` the CP witness (a plain float; see
    ``ExtractionResult.route`` for what it is on each route) and
    ``residual_*`` the defect of the reported member against the PDM.
    """

    compatible: frozenset
    f: float
    min_eig_forward: float
    min_eig_reverse: float
    unique_forward: bool
    unique_reverse: bool
    route_forward: str
    route_reverse: str
    residual_forward: float
    residual_reverse: float
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
            "route_forward": self.route_forward,
            "route_reverse": self.route_reverse,
            "residual_forward": self.residual_forward,
            "residual_reverse": self.residual_reverse,
            "correlated": self.correlated,
            "compatible_reversed": sorted(int(c) for c in self.compatible_reversed),
            "thresholds": self.thresholds.to_json(),
        }


def classify(pdm: PDM, thresholds: Thresholds = Thresholds()) -> CausalVerdict:
    """Run the three-step compatibility protocol on a two-slot PDM.

    Negativity below eps_neg keeps only the common-cause structure; with
    negativity, the signs of the extracted forward/reverse matrices decide
    between directed causation and a mixed structure.  The reverse test is
    the forward test on the time-reversed PDM (``sdp_least_negative``).  A
    full-rank first marginal fixes the extracted matrix; a rank-deficient one
    leaves a family, and the least-negative completion decides whether it has
    a CP member.
    """
    if len(pdm.slots) != 2:
        raise ValueError("classification is defined for exactly two slots")
    reversed_ = time_reverse(pdm)
    f = negativity(pdm)
    (r_a, _), (r_b, _) = pdm._marginals
    product = np.kron(r_a, r_b)
    correlated = bool(max_abs_diff(pdm.mat.data, product) > thresholds.product_tol)

    fwd = sdp_least_negative(pdm, thresholds, decide=True)
    rev = sdp_least_negative(reversed_, thresholds, decide=True)

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
        route_forward=fwd.route,
        route_reverse=rev.route,
        residual_forward=fwd.residual,
        residual_reverse=rev.residual,
        correlated=correlated,
        thresholds=thresholds,
    )
