import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmcausal.channels import (
    QuantumChannel,
    QuantumState,
    haar_unitary,
    input_transpose,
    measure_prepare_z,
    random_channel,
    random_pure_state,
    random_semicausal,
    random_state,
)
from pdmcausal import inference
from pdmcausal.inference import (
    RESIDUAL_LIMIT,
    CausalStructure,
    Thresholds,
    _jordan_product,
    classify,
    extract_choi,
    sdp_least_negative,
)
from pdmcausal.linalg import (
    ComplexMatrix,
    NumericalInconsistencyError,
    max_abs_diff,
    partial_trace,
    swap_operator,
)
from pdmcausal.pauli import SIGMA
from pdmcausal.pdm import PDM, Slot, marginal_state, pdm_closed_form, reduce, time_reverse
from pdmcausal.rng import generator

from oracles import check_not_cp_certificate, grid_oracle_objective, unstacked_extraction


def full_rank_state(dim, rng):
    raw = random_state(dim, rng).mat.data
    mixed = 0.8 * raw + 0.2 * np.eye(dim) / dim
    factors = (2,) * (dim.bit_length() - 1)
    return QuantumState.of(mixed, factors)


# ---------------------------------------------------------------------------
# Jordan-product matrix
# ---------------------------------------------------------------------------

def test_jordan_matrix_maximally_mixed_is_scalar():
    j = _jordan_product(QuantumState.maximally_mixed(2).mat.data, 2)
    assert max_abs_diff(j, np.eye(16) / 2) == 0


def test_jordan_matrix_rank_and_eigenvalues():
    j = _jordan_product(QuantumState.from_ket([1, 0]).mat.data, 2)
    w = np.sort(np.linalg.eigvalsh(j))
    expected = np.sort([1.0] * 4 + [0.5] * 8 + [0.0] * 4)
    assert np.abs(w - expected).max() < 1e-12
    assert np.linalg.matrix_rank(j, tol=1e-10) == 12


def test_jordan_matrix_maps_choi_to_pdm():
    rng = generator(17)
    for _ in range(5):
        rho = full_rank_state(2, rng)
        ch = random_channel(2, rng)
        r = pdm_closed_form(rho, ch)
        j = _jordan_product(rho.mat.data, 2)
        lhs = j @ ch.choi.data.reshape(-1)
        assert np.abs(lhs - r.mat.data.reshape(-1)).max() < 1e-12


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extract_measure_prepare():
    lam = 0.5
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    rho = QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * plus)
    r = pdm_closed_form(rho, measure_prepare_z())
    res = extract_choi(r)
    assert res.unique
    assert res.residual < 1e-10
    assert max_abs_diff(res.choi.data, np.diag([1.0, 0, 0, 1.0])) < 1e-10
    assert res.min_eig_transposed > -1e-12


def test_extract_round_trip_random():
    rng = generator(18)
    for dim in (2, 4):
        for _ in range(10):
            rho = full_rank_state(dim, rng)
            ch = random_channel(dim, rng)
            r = pdm_closed_form(rho, ch)
            res = extract_choi(r)
            assert res.unique
            assert max_abs_diff(res.choi.data, ch.choi.data) < 1e-8
            tr_out = partial_trace(res.choi, {0}).data
            assert max_abs_diff(tr_out, np.eye(dim)) < 1e-8


def test_extract_rank_deficient_family():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    res = extract_choi(r)
    assert not res.unique
    assert res.residual < 1e-12
    expected_min_norm = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=complex
    )
    assert max_abs_diff(res.choi.data, expected_min_norm) < 1e-10
    # any completion of the lower-right block stays a solution
    j = _jordan_product(QuantumState.from_ket([1, 0]).mat.data, 2)
    rng = generator(4)
    for _ in range(5):
        block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        member = res.choi.data.copy()
        member[2:, 2:] = block
        assert np.abs(j @ member.reshape(-1) - r.mat.data.reshape(-1)).max() < 1e-12


def test_extract_reverse_known_forms():
    # flat input through the identity: time symmetric, reverse matrix is the swap
    r = pdm_closed_form(QuantumState.maximally_mixed(2), QuantumChannel.identity(2))
    rev = extract_choi(time_reverse(r))
    assert max_abs_diff(rev.choi.data, swap_operator(2).data) < 1e-10

    lam = 0.5
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    rho = QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * plus)
    r = pdm_closed_form(rho, measure_prepare_z())
    rev = extract_choi(time_reverse(r))
    s = swap_operator(2).data
    in_original_order = s @ input_transpose(rev.choi).data @ s
    expected = 0.5 * np.kron(np.array([[2, lam], [lam, 0]]), np.diag([1.0, 0])) + 0.5 * np.kron(
        np.array([[0, lam], [lam, 2]]), np.diag([0.0, 1])
    )
    assert max_abs_diff(in_original_order, expected) < 1e-10
    assert rev.min_eig_transposed == pytest.approx((1 - np.sqrt(1 + lam**2)) / 2, abs=1e-12)


def test_extract_inconsistent_pdm_rejected():
    rho = QuantumState.from_ket([1, 0])
    depol = QuantumChannel.from_kraus([s / 2 for s in SIGMA])
    r = pdm_closed_form(rho, depol)
    # perturb inside the kernel of the extraction map: still a valid PDM,
    # but no longer reachable from any Choi matrix
    bad = r.mat.data + 0.01 * np.kron(np.diag([0.0, 1.0]), SIGMA[1])
    pdm = PDM(ComplexMatrix(bad, (2, 2)), r.slots)
    with pytest.raises(NumericalInconsistencyError):
        extract_choi(pdm)


@st.composite
def extraction_sequences(draw):
    """One to three two-slot PDMs with equal one- or two-qubit slots; each
    first state is full rank or rank deficient, each channel random or
    semicausal, and some PDMs are time-reversed."""
    qubits = draw(st.integers(1, 2))
    dim = 2**qubits
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    pdms = []
    for _ in range(draw(st.integers(1, 3))):
        rank = draw(st.integers(1, dim))
        rho = random_state(dim, rng, rank=rank, factors=(2,) * qubits)
        if qubits == 2 and draw(st.booleans()):
            ch = random_semicausal(2, 2, 2, rng)
        else:
            ch = random_channel(dim, rng)
        r = pdm_closed_form(rho, ch)
        pdms.append(time_reverse(r) if draw(st.booleans()) else r)
    return pdms


def _extraction_bits(res):
    return res.choi.data.tobytes(), res.residual, res.unique, res.min_eig_transposed


@settings(max_examples=40, deadline=None)
@given(extraction_sequences())
def test_extracting_a_sequence_equals_extracting_each_pdm(pdms):
    stacked = extract_choi(pdms)
    assert isinstance(stacked, tuple) and len(stacked) == len(pdms)
    for r, res in zip(pdms, stacked):
        alone = extract_choi(r)
        assert _extraction_bits(res) == _extraction_bits(alone)
        m, residual, unique, min_eig = unstacked_extraction(r, Thresholds())
        assert (m.tobytes(), residual, unique, min_eig) == _extraction_bits(alone)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(0)
@example(1)
@example(12)
def test_extraction_and_classify_rank_the_same_eigenvalues(seed):
    """With rank_tol at the stored smallest first-marginal eigenvalue,
    ``extract_choi``'s ``unique`` is ``classify``'s in both orientations
    (seeds 1 and 12 forward, 0 and 12 reversed, disagreed while
    ``extract_choi`` ranked its own ``eigvalsh``)."""
    rng = generator(seed)
    r = pdm_closed_form(random_state(4, rng, rank=4, factors=(2, 2)), random_channel(4, rng))
    for p in (r, time_reverse(r)):
        th = Thresholds(rank_tol=float(p._marginals[0][1][0]))
        assert extract_choi(p, th).unique == classify(p, th).unique_forward


def test_sequence_with_one_inconsistent_pdm_is_rejected():
    rho = QuantumState.from_ket([1, 0])
    depol = QuantumChannel.from_kraus([s / 2 for s in SIGMA])
    r = pdm_closed_form(rho, depol)
    bad = PDM(ComplexMatrix(r.mat.data + 0.01 * np.kron(np.diag([0.0, 1.0]), SIGMA[1]), (2, 2)), r.slots)
    good = pdm_closed_form(QuantumState.maximally_mixed(2), depol)
    for seq in ([good, bad], [bad, good], [good, good, bad]):
        with pytest.raises(NumericalInconsistencyError, match="residual"):
            extract_choi(seq)
    assert len(extract_choi([good, r])) == 2


def test_sequence_needs_equal_two_slot_pdms():
    rng = generator(3)
    one = pdm_closed_form(random_state(2, rng), random_channel(2, rng))
    two = pdm_closed_form(random_state(4, rng, factors=(2, 2)), random_channel(4, rng))
    with pytest.raises(ValueError, match="equal slot sizes"):
        extract_choi([one, two])
    with pytest.raises(ValueError, match="equal slot sizes"):
        extract_choi([two, one])
    with pytest.raises(ValueError, match="at least one"):
        extract_choi([])
    three = reduce(two, [(0, (0,)), (1, (1,))])
    with pytest.raises(ValueError, match="exactly two slots"):
        extract_choi([three, reduce(two, [0])])


# ---------------------------------------------------------------------------
# Least-negative completion
# ---------------------------------------------------------------------------

def test_sdp_identity_instance_reaches_zero():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    res = sdp_least_negative(r)
    assert res.objective <= 1e-6
    assert res.residual <= 1e-7
    assert max_abs_diff(res.choi.data, res.choi.data.conj().T) <= 1e-7
    assert max_abs_diff(partial_trace(res.choi, {0}).data, np.eye(2)) <= 1e-7


def test_sdp_full_rank_equals_unique_extraction():
    rng = generator(21)
    rho = full_rank_state(2, rng)
    ch = random_channel(2, rng)
    r = pdm_closed_form(rho, ch)
    res = sdp_least_negative(r)
    assert res.unique
    assert max_abs_diff(res.choi.data, extract_choi(r).choi.data) < 1e-7


def test_sdp_measure_prepare_on_basis_state():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), measure_prepare_z())
    res = sdp_least_negative(r)
    assert res.objective <= 1e-6


def test_sdp_beats_grid_oracle():
    rng = generator(22)
    for _ in range(5):
        rho = random_pure_state(2, rng)
        ch = random_channel(2, rng)
        r = pdm_closed_form(rho, ch)
        res = sdp_least_negative(r)
        oracle = grid_oracle_objective(r)
        assert res.objective <= oracle + 1e-4


def test_sdp_positive_optimum_on_singleton_set():
    # full-rank marginals make the feasible set a single point whose
    # negative-part trace is cos(theta)^2 exactly
    from pdmcausal.harness import mixture_pdm

    theta = np.pi / 4
    res = sdp_least_negative(mixture_pdm(theta))
    assert res.unique and res.converged
    assert res.objective == pytest.approx(np.cos(theta) ** 2, abs=1e-8)


def test_sdp_rejects_infeasible_data():
    rho = QuantumState.from_ket([1, 0])
    depol = QuantumChannel.from_kraus([s / 2 for s in SIGMA])
    r = pdm_closed_form(rho, depol)
    bad = r.mat.data + 0.01 * np.kron(np.diag([0.0, 1.0]), SIGMA[1])
    pdm = PDM(ComplexMatrix(bad, (2, 2)), r.slots)
    with pytest.raises(NumericalInconsistencyError):
        sdp_least_negative(pdm)


@st.composite
def kernel_perturbed_pdms(draw, near_singular=False):
    """Rank-deficient one- or two-qubit-slot PDM plus a Hermitian perturbation
    of size 1e-8..1e-4 inside the ker(marginal) tensor out block, traceless on
    the output so the first marginal is unchanged.  With ``near_singular``
    the kernel gets a weight of 1e-14..1e-12 first: the marginal is full
    rank, but its block falls under the pseudo-inverse's cut."""
    qubits = draw(st.integers(1, 2))
    dim = 2**qubits
    rank = draw(st.integers(1, dim - 1))
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(dim, rng, rank=rank, factors=(2,) * qubits)
    k = dim - rank
    kernel = np.linalg.eigh(rho.mat.data)[1][:, :k]
    if near_singular:
        weight = 10.0 ** draw(st.floats(-14, -12))
        mixed = (1 - weight) * rho.mat.data + weight * kernel @ kernel.conj().T / k
        rho = QuantumState.of(mixed, (2,) * qubits)
    r = pdm_closed_form(rho, random_channel(dim, rng))
    lift = np.kron(kernel, np.eye(dim))
    h = rng.standard_normal((k * dim,) * 2) + 1j * rng.standard_normal((k * dim,) * 2)
    h = h + h.conj().T
    h -= np.kron(np.trace(h.reshape(k, dim, k, dim), axis1=1, axis2=3), np.eye(dim)) / dim
    size = 10.0 ** draw(st.floats(-8, -4))
    bad = r.mat.data + size * lift @ h @ lift.conj().T
    return PDM(ComplexMatrix(0.5 * (bad + bad.conj().T), r.mat.factors), r.slots)


@settings(max_examples=40, deadline=None)
@given(kernel_perturbed_pdms())
def test_sdp_consistency_check_matches_extraction(r):
    try:
        extract_choi(r)
    except NumericalInconsistencyError:
        with pytest.raises(NumericalInconsistencyError):
            sdp_least_negative(r)
    else:
        assert sdp_least_negative(r).residual <= 1e-6


@settings(max_examples=40, deadline=None)
@given(kernel_perturbed_pdms(near_singular=True))
def test_unique_route_rejects_a_marginal_eigenvalue_under_the_cut(r):
    # rank_tol = 0 counts the tiny eigenvalues as full rank, but the pinv cut
    # zeroes their block, so no solved member is trace preserving; the
    # minimum-norm extraction passes or fails on the perturbation alone
    exact = Thresholds(rank_tol=0.0)
    assert (r._marginals[0][1] > exact.rank_tol).all()
    with pytest.raises(NumericalInconsistencyError):
        sdp_least_negative(r, exact, decide=True)
    with pytest.raises(NumericalInconsistencyError):
        classify(r, exact)


def test_rank_tol_under_the_cut_raises_instead_of_dropping_the_cause():
    # a pure qubit's smallest marginal eigenvalue lies above rank_tol 0 but
    # under the pinv cut: the solved member misses trace preservation by 1,
    # and its witness of -0.160 used to give [4, 5]
    r = pdm_closed_form(random_pure_state(2, 0), random_channel(2, 1000))
    exact = Thresholds(rank_tol=0.0)
    assert 0 < r._marginals[0][1][0] <= inference.PINV_RCOND
    assert extract_choi(r, exact).unique  # the minimum-norm solve passes
    with pytest.raises(NumericalInconsistencyError, match=r"floor 1\.000e\+00, rank_tol 0\)"):
        classify(r, exact)
    assert classify(r).compatible == {CausalStructure.A_TO_B}


@st.composite
def full_rank_pdms(draw):
    """Full-rank one- or two-qubit first state through a random channel."""
    dim = 2 ** draw(st.integers(1, 2))
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rho = full_rank_state(dim, rng)
    return pdm_closed_form(rho, random_channel(dim, rng, kraus_count=draw(st.integers(1, dim * dim))))


@settings(max_examples=20, deadline=None)
@given(full_rank_pdms())
def test_sdp_returns_the_one_member_of_a_full_rank_family(r):
    # no projection and no search: the member classify reports from its
    # stacked unique route, bit for bit, with no decision call of its own
    res = sdp_least_negative(r)
    assert (res.route, res.iterations, res.converged, res.unique) == ("unique", 0, True, True)
    stacks, decided = [], []
    original_unique = inference._unique_members
    original_sdp = inference.sdp_least_negative

    def spy_unique(pdms, thresholds):
        stacks.append(original_unique(pdms, thresholds))
        return stacks[-1]

    def spy_sdp(pdm, *args, **kwargs):
        decided.append(pdm.slots[0].label)
        return original_sdp(pdm, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_unique_members", spy_unique)
        mp.setattr(inference, "sdp_least_negative", spy_sdp)
        verdict = classify(r)
    assert len(stacks) == 1 and "t1" not in decided
    forward = stacks[0][0]
    assert verdict.route_forward == forward.route == "unique"
    assert res.choi.data.tobytes() == forward.choi.data.tobytes()
    assert (res.residual, res.objective) == (forward.residual, forward.objective)
    assert res.min_eig_transposed == forward.min_eig_transposed == verdict.min_eig_forward


@st.composite
def rank_deficient_two_qubit_slots(draw):
    """PDM of a rank-1..3 two-qubit first state through a random or semicausal channel."""
    rank = draw(st.integers(1, 3))
    semicausal = draw(st.booleans())
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(4, rng, rank=rank, factors=(2, 2))
    ch = random_semicausal(2, 2, 2, rng) if semicausal else random_channel(4, rng)
    return pdm_closed_form(rho, ch)


@settings(max_examples=20, deadline=None)
@given(rank_deficient_two_qubit_slots())
def test_sdp_stays_in_family_on_two_qubit_slots(r):
    base = extract_choi(r)
    res = sdp_least_negative(r)
    n = res.choi.data
    assert not res.unique
    assert max_abs_diff(n, n.conj().T) == 0
    assert max_abs_diff(partial_trace(res.choi, {0}).data, np.eye(4)) <= 1e-7
    assert res.residual <= 1e-7
    # only the ker(marginal) tensor out block may differ from the extraction
    w, v = np.linalg.eigh(marginal_state(r, 0).mat.data)
    kernel = v[:, w <= Thresholds.rank_tol]
    q = np.kron(kernel @ kernel.conj().T, np.eye(4))
    moved = n - base.choi.data
    assert max_abs_diff(moved, q @ moved @ q) <= 1e-9
    eigs = np.linalg.eigvalsh(input_transpose(base.choi).data)
    assert res.objective <= -eigs[eigs < 0].sum()


@settings(max_examples=20, deadline=None)
@given(rank_deficient_two_qubit_slots(), st.integers(0, 2**32 - 1))
def test_sdp_decisions_are_certified_and_agree_with_the_optimum(r, seed):
    # forward always has a CP member (the generating channel); reverse from a
    # rank-deficient output often has none
    th = Thresholds()
    for oriented in (r, time_reverse(r)):
        if not (np.linalg.eigvalsh(marginal_state(oriented, 0).mat.data) <= th.rank_tol).any():
            continue
        decided = sdp_least_negative(oriented, th, decide=True)
        optimum = sdp_least_negative(oriented, th)
        cp = decided.min_eig_transposed >= -th.eps_pos
        assert cp == (optimum.min_eig_transposed >= -th.eps_pos)
        assert decided.iterations <= optimum.iterations
        if decided.route == "certified_not_cp":
            check_not_cp_certificate(oriented, decided, th, seed)
        elif decided.route == "certified_cp":
            assert max_abs_diff(partial_trace(decided.choi, {0}).data, np.eye(4)) <= 1e-7
            assert decided.residual <= 1e-7
            witness = np.linalg.eigvalsh(input_transpose(decided.choi).data).min()
            assert witness >= -th.eps_pos - 1e-12


def test_classify_certifies_both_directions_of_a_rank_one_semicausal_pdm():
    # the forward family holds the generating channel; the reverse family,
    # over the rank-deficient output, has no CP member
    rng = generator(32)
    r = pdm_closed_form(
        random_state(4, rng, rank=1, factors=(2, 2)), random_semicausal(2, 2, 2, rng)
    )
    verdict = classify(r)
    assert (verdict.route_forward, verdict.route_reverse) == ("certified_cp", "certified_not_cp")
    assert verdict.compatible == {CausalStructure.A_TO_B}
    rev = sdp_least_negative(time_reverse(r), Thresholds(), decide=True)
    assert rev.min_eig_transposed == verdict.min_eig_reverse
    check_not_cp_certificate(time_reverse(r), rev, Thresholds())


def test_sdp_input_transposes_do_not_grow_with_its_iterations(monkeypatch):
    # the search, its witness, its prox and its dual certificates all run in
    # the input-transposed frame; only the set-up and the rotation back
    # transpose
    rng = generator(32)
    r = pdm_closed_form(
        random_state(4, rng, rank=1, factors=(2, 2)), random_semicausal(2, 2, 2, rng)
    )
    calls = []
    original = inference._input_transpose

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(inference, "_input_transpose", spy)
    counts = []
    for cap in (1, inference.SDP_MAX_ITERATIONS):
        monkeypatch.setattr(inference, "SDP_MAX_ITERATIONS", cap)
        calls.clear()
        res = sdp_least_negative(r, Thresholds(), decide=True)
        counts.append((res.iterations, len(calls)))
    (short, short_calls), (long, long_calls) = counts
    assert short == 1 and long > 4
    assert long_calls == short_calls


def rank_one_semicausal_pdm():
    rng = generator(32)
    return pdm_closed_form(
        random_state(4, rng, rank=1, factors=(2, 2)), random_semicausal(2, 2, 2, rng)
    )


@settings(max_examples=20, deadline=None)
@given(rank_deficient_two_qubit_slots(), st.sampled_from([1e-10, 1e-12]), st.integers(0, 2**32 - 1))
def test_classify_certifies_the_generating_direction_at_small_eps_pos(r, eps_pos, seed):
    # the forward family holds the generating channel: its Schur complement
    # is PSD however small eps_pos is, so no search can drop that cause
    th = Thresholds(eps_pos=eps_pos)
    verdict = classify(r, th)
    assert verdict.route_forward == "certified_cp"
    assert verdict.route_reverse in ("unique", "certified_cp", "certified_not_cp")
    assert verdict.min_eig_forward >= -eps_pos
    if verdict.f > th.eps_neg:
        assert CausalStructure.A_TO_B in verdict.compatible
    if verdict.route_reverse == "certified_not_cp":
        rev = sdp_least_negative(time_reverse(r), th, decide=True)
        check_not_cp_certificate(time_reverse(r), rev, th, seed)


def test_classify_keeps_the_cause_of_a_rank_one_semicausal_pdm_at_tiny_eps_pos():
    verdict = classify(rank_one_semicausal_pdm(), Thresholds(eps_pos=1e-12))
    assert (verdict.route_forward, verdict.route_reverse) == ("certified_cp", "certified_not_cp")
    assert verdict.compatible == {CausalStructure.A_TO_B}


@settings(max_examples=20, deadline=None)
@given(rank_deficient_two_qubit_slots())
def test_sdp_stops_at_the_douglas_rachford_fixed_point(r):
    # once the prox moves the projected iterate by at most SDP_TOL, further
    # iterations barely lower the objective
    res = sdp_least_negative(r)
    assert res.converged
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "SDP_TOL", 0.0)
        mp.setattr(inference, "SDP_MAX_ITERATIONS", res.iterations + 200)
        longer = sdp_least_negative(r)
    assert 0 <= res.objective - longer.objective <= 1e-8


def test_anderson_step_mixes_the_stored_differences():
    rng = generator(35)
    shape = (3, 3)

    def draw(size):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return x * (size / np.linalg.norm(x))

    def real(x):
        return x.reshape(-1).view(np.float64)

    def least_squares_step(zs, gs):
        # z + g - w dF, w the least-squares fit of g by the last 4 differences
        plain = [real(z + g) for z, g in zip(zs[-5:], gs[-5:])]
        dg = np.diff([real(g) for g in gs[-5:]], axis=0)
        weights = np.linalg.lstsq(dg.T, real(gs[-1]), rcond=None)[0]
        return plain[-1] - weights @ np.diff(plain, axis=0)

    accel = inference._Anderson(4, shape)
    zs, gs = [], []
    # |g| shrinks for seven steps, so the history of 4 wraps; then it grows
    for size in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 2.0, 1.0):
        if gs and size > np.linalg.norm(gs[-1]):
            zs, gs = [], []  # a growing residual clears the history
        zs.append(draw(1.0))
        gs.append(draw(size))
        step = accel.step(zs[-1], gs[-1])
        if len(gs) == 1:  # no history: the plain step
            assert np.array_equal(step, zs[-1] + gs[-1])
        else:
            assert np.abs(real(step) - least_squares_step(zs, gs)).max() <= 1e-10


def test_sdp_run_to_the_optimum_has_no_route():
    res = sdp_least_negative(rank_one_semicausal_pdm())
    assert res.route is None and res.certificate is None
    assert res.converged and res.iterations > 1


def test_sdp_decision_falls_back_to_the_schur_member(monkeypatch):
    # a search stopped before a certified iterate reports the closed-form
    # member, whose Schur complement certifies witness -eps_pos
    monkeypatch.setattr(inference, "SDP_MAX_ITERATIONS", 1)
    th = Thresholds(eps_pos=1e-12)
    res = sdp_least_negative(rank_one_semicausal_pdm(), th, decide=True)
    assert res.route == "certified_cp" and res.iterations == 1
    assert res.min_eig_transposed == -1e-12
    assert max_abs_diff(partial_trace(res.choi, {0}).data, np.eye(4)) <= 1e-7
    assert res.residual <= 1e-7
    witness = np.linalg.eigvalsh(input_transpose(res.choi).data).min()
    assert witness >= -1e-12 - 1e-12


def _boundary_pdms():
    zero, plus = QuantumState.from_ket([1, 0]), QuantumState.from_ket([1, 1])
    return {
        "zero-measure_prepare_z": (pdm_closed_form(zero, measure_prepare_z()), [1, 2, 3, 4, 5]),
        "zero-identity": (pdm_closed_form(zero, QuantumChannel.identity(2)), [1, 2]),
        "plus-measure_prepare_z": (pdm_closed_form(plus, measure_prepare_z()), [1]),
    }


@pytest.mark.parametrize("eps_pos", [0.0, 1e-12, 1e-8])
@pytest.mark.parametrize("case", sorted(_boundary_pdms()))
def test_classify_boundary_families_at_any_eps_pos(case, eps_pos):
    # C, the fixed block of these families, is singular; at eps_pos = 0 a
    # member on the boundary is decided by rounding
    r, expected = _boundary_pdms()[case]
    verdict = classify(r, Thresholds(eps_pos=eps_pos))
    assert sorted(int(c) for c in verdict.compatible) == expected


@pytest.mark.parametrize("eps_pos", [0.0, 1e-12, 1e-8])
def test_classify_certifies_b_reaching_the_kernel_of_c(eps_pos):
    # R = [[|0><0|, X/2], [X/2, 0]] with X = |0><1|: in both directions B has
    # weight on the output the fixed block C = |0><0| leaves empty, so no
    # member is CP; while eps_pos <= rank_tol only the kernel condition of
    # C + eps_pos I shows it
    data = np.zeros((4, 4), dtype=complex)
    data[0, 0], data[0, 3], data[3, 0] = 1.0, 0.5, 0.5
    r = PDM(ComplexMatrix(data, (2, 2)), (Slot("t1", 1), Slot("t2", 1)))
    th = Thresholds(eps_pos=eps_pos)
    verdict = classify(r, th)
    assert (verdict.route_forward, verdict.route_reverse) == ("certified_not_cp",) * 2
    assert sorted(int(c) for c in verdict.compatible) == [4, 5]
    for oriented in (r, time_reverse(r)):
        res = sdp_least_negative(oriented, th, decide=True)
        check_not_cp_certificate(oriented, res, th)
        assert res.iterations == 0


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_rank_tol_selects_sdp_route(monkeypatch):
    # full-rank orientations share one stacked pass; only a rank-deficient
    # family is decided on its own, and only it reaches Schur
    r = pdm_closed_form(QuantumState.of(np.diag([0.999, 0.001])), measure_prepare_z())
    sdp_calls, schur_calls, stacks, reversals, inversions = [], [], [], [], []
    original_sdp = inference.sdp_least_negative
    original_schur = inference._schur_decision
    original_unique = inference._unique_members
    original_reverse = inference.time_reverse
    original_extract = inference.extract_choi
    original_pinv = np.linalg.pinv

    def spy_sdp(pdm, thresholds, **kwargs):
        sdp_calls.append((pdm.slots[0].label, kwargs))
        return original_sdp(pdm, thresholds, **kwargs)

    def spy_schur(fixed, k, dout, t, rank_tol):
        schur_calls.append(k)
        return original_schur(fixed, k, dout, t, rank_tol)

    def spy_unique(pdms, thresholds):
        stacks.append([p.slots[0].label for p in pdms])
        return original_unique(pdms, thresholds)

    def spy_reverse(pdm):
        reversals.append(1)
        return original_reverse(pdm)

    def spy_extract(*args, **kwargs):
        inversions.append("extract_choi")
        return original_extract(*args, **kwargs)

    def spy_pinv(*args, **kwargs):
        inversions.append("pinv")
        return original_pinv(*args, **kwargs)

    monkeypatch.setattr(inference, "extract_choi", spy_extract)
    monkeypatch.setattr(np.linalg, "pinv", spy_pinv)
    monkeypatch.setattr(inference, "sdp_least_negative", spy_sdp)
    monkeypatch.setattr(inference, "_schur_decision", spy_schur)
    monkeypatch.setattr(inference, "_unique_members", spy_unique)
    monkeypatch.setattr(inference, "time_reverse", spy_reverse)
    default = classify(r)
    assert default.unique_forward and default.unique_reverse
    assert stacks == [["t1", "t2"]] and sdp_calls == [] and schur_calls == []
    assert reversals == [1] and inversions == []
    stacks.clear()
    reversals.clear()
    loose = classify(r, Thresholds(rank_tol=1e-2))
    assert not loose.unique_forward and not loose.unique_reverse
    decided = [("t1", {"decide": True}), ("t2", {"decide": True})]
    assert stacks == [[]] and sdp_calls == decided and schur_calls == [1, 1]
    assert reversals == [1] and inversions == []


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
@example(seed=0, index=0)  # eigh rounds this eigenvalue above the stored one
@example(seed=0, index=3)  # every eigenvalue free: the fixed block C is empty
def test_free_block_counts_the_stored_marginal_eigenvalues(seed, index):
    # rank_tol on a stored first-slot marginal eigenvalue: the free block
    # counts the eigenvalues the route is chosen on, whatever eigh rounds to
    rng = generator(seed)
    r = pdm_closed_form(random_state(4, rng, rank=4, factors=(2, 2)), random_channel(4, rng))
    stored = r._marginals[0][1]
    th = Thresholds(rank_tol=float(stored[index]))
    k = inference._free_count(r, th)
    assert k == int((stored <= th.rank_tol).sum()) >= 1
    basis = inference._eigenbasis((r,))
    cp, _, _ = inference._schur_decision(basis.fixed[0], k, basis.dout, -th.eps_pos, th.rank_tol)
    if k == 4:
        assert cp  # the family holds I tensor I / dout
    assert sdp_least_negative(r, th, decide=True).route in ("certified_cp", "certified_not_cp")


def test_classify_with_every_marginal_eigenvalue_free():
    r = pdm_closed_form(QuantumState.maximally_mixed(2), QuantumChannel.identity(2))
    verdict = classify(r, Thresholds(rank_tol=1.0))
    assert (verdict.route_forward, verdict.route_reverse) == ("certified_cp",) * 2
    assert verdict.min_eig_forward >= -verdict.thresholds.eps_pos


def test_verdict_reports_the_residual_of_a_loose_rank_tol():
    # rank_tol above the marginal's 0.001 treats it as kernel; the member
    # found then misses the PDM by about 0.001 * |block|, and the verdict
    # says so instead of dropping it
    r = pdm_closed_form(QuantumState.of(np.diag([0.999, 0.001])), measure_prepare_z())
    verdict = classify(r, Thresholds(rank_tol=1e-2))
    assert verdict.route_forward != "unique"
    blob = verdict.to_json()
    assert blob["residual_forward"] == pytest.approx(7.071e-4, rel=1e-3)
    assert blob["residual_forward"] > RESIDUAL_LIMIT
    assert classify(r).to_json()["residual_forward"] <= 1e-12


def test_classify_neither_extracts_nor_inverts_the_jordan_matrix(monkeypatch):
    # rank-1 first state through a channel with a full-rank output: forward
    # is decided by Schur, reverse is its unique member
    rng = generator(31)
    r = pdm_closed_form(random_state(4, rng, rank=1, factors=(2, 2)), random_channel(4, rng))
    extractions, schur_calls, pinvs = [], [], []
    original_extract = inference.extract_choi
    original_schur = inference._schur_decision
    original_pinv = np.linalg.pinv

    def spy_extract(*args, **kwargs):
        extractions.append(1)
        return original_extract(*args, **kwargs)

    def spy_schur(fixed, k, dout, t, rank_tol):
        schur_calls.append(k)
        return original_schur(fixed, k, dout, t, rank_tol)

    def spy_pinv(*args, **kwargs):
        pinvs.append(1)
        return original_pinv(*args, **kwargs)

    monkeypatch.setattr(inference, "extract_choi", spy_extract)
    monkeypatch.setattr(inference, "_schur_decision", spy_schur)
    monkeypatch.setattr(np.linalg, "pinv", spy_pinv)
    verdict = classify(r)
    assert not verdict.unique_forward and verdict.unique_reverse
    assert verdict.route_reverse == "unique"
    assert schur_calls == [3]  # the forward family, over the rank-1 state's kernel
    assert extractions == []
    assert pinvs == []


# (unique_forward, unique_reverse) at the default thresholds
ROUTE_MIXES = {
    "both unique": (True, True),
    "forward family": (False, True),
    "reverse family": (True, False),
    "both families": (False, False),
}


@st.composite
def route_mix_cases(draw):
    """A two-qubit-slot PDM of each route mix, with the default thresholds or
    rank_tol at one of its stored first-marginal eigenvalues (either
    orientation's, above the pinv cut)."""
    mix = draw(st.sampled_from(sorted(ROUTE_MIXES)))
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rank = 4 if mix == "both unique" else draw(st.integers(1, 3))
    # a unitary keeps the output rank-deficient; 16 Ginibre Kraus operators fill it
    kraus_count = 1 if mix == "both families" else None
    r = pdm_closed_form(
        random_state(4, rng, rank=rank, factors=(2, 2)), random_channel(4, rng, kraus_count)
    )
    if mix == "reverse family":
        r = time_reverse(r)
    th = Thresholds()
    if draw(st.booleans()):
        stored = [float(x) for _, w in r._marginals for x in w if x > 1e-6]
        th = Thresholds(rank_tol=draw(st.sampled_from(stored)))
    return r, mix, th


@settings(max_examples=40, deadline=None)
@given(route_mix_cases())
def test_classify_evidence_is_each_orientations_decision_bitwise(case):
    # the stacked pass over both orientations reports what deciding each
    # orientation alone reports, to the last bit
    r, mix, th = case
    verdict = classify(r, th).to_json()
    if th == Thresholds():
        assert (verdict["unique_forward"], verdict["unique_reverse"]) == ROUTE_MIXES[mix]
    for oriented, side in ((r, "forward"), (time_reverse(r), "reverse")):
        alone = sdp_least_negative(oriented, th, decide=True)
        assert verdict[f"route_{side}"] == alone.route
        assert verdict[f"unique_{side}"] is alone.unique
        assert verdict[f"min_eig_{side}"].hex() == alone.min_eig_transposed.hex()
        assert verdict[f"residual_{side}"].hex() == alone.residual.hex()


def test_classify_time_reverses_each_reversed_direction_once(monkeypatch):
    calls = []
    original = inference.time_reverse

    def spy(pdm):
        calls.append(1)
        return original(pdm)

    monkeypatch.setattr(inference, "time_reverse", spy)
    full_rank = pdm_closed_form(full_rank_state(2, generator(5)), random_channel(2, 6))
    rank_one = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    for r in (full_rank, rank_one):
        calls.clear()
        classify(r)
        assert len(calls) == 1


def test_accepted_pdm_with_slightly_negative_marginal_classifies():
    # identity-channel PDM of diag(1 + 5e-10, -5e-10): its first marginal is
    # inside the PDM's tolerance but outside the state constructor's
    rho = np.kron(np.diag([1 + 5e-10, -5e-10]), np.eye(2))
    m = QuantumChannel.identity(2).choi.data
    data = 0.5 * (m @ rho + rho @ m)
    r = PDM(ComplexMatrix(data, (2, 2)), (Slot("t1", 1), Slot("t2", 1)))
    assert np.linalg.eigvalsh(marginal_state(r, 0).mat.data).min() < -1e-10
    assert not extract_choi(r).unique
    verdict = classify(r)
    assert sorted(int(c) for c in verdict.compatible) == [1, 2]


@pytest.mark.parametrize("field", ["eps_neg", "eps_pos", "rank_tol", "product_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_thresholds_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match=field):
        Thresholds(**{field: value})
    assert getattr(Thresholds(**{field: 0.0}), field) == 0.0


def test_classify_measure_prepare_is_forward():
    for lam in (0.1, 0.5, 0.9):
        plus = 0.5 * np.array([[1, 1], [1, 1]])
        rho = QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * plus)
        verdict = classify(pdm_closed_form(rho, measure_prepare_z()))
        assert verdict.compatible == {CausalStructure.A_TO_B}
        assert verdict.compatible_reversed == {CausalStructure.B_TO_A}
        assert verdict.correlated


def test_classify_separable_density_matrix_is_common_cause():
    data = 0.5 * np.diag([1.0, 0, 0, 1.0]).astype(complex)
    pdm = PDM(ComplexMatrix(data, (2, 2)), (Slot("t1", 1), Slot("t2", 1)))
    verdict = classify(pdm)
    assert verdict.compatible == {CausalStructure.COMMON_CAUSE}
    assert verdict.f <= 1e-12


def test_classify_product_pdm_is_uninformative():
    rng = generator(23)
    a, b = random_state(2, rng).mat.data, random_state(2, rng).mat.data
    pdm = PDM(ComplexMatrix(np.kron(a, b), (2, 2)), (Slot("t1", 1), Slot("t2", 1)))
    verdict = classify(pdm)
    assert not verdict.correlated
    assert verdict.compatible == frozenset(CausalStructure)


def test_classify_flat_identity_allows_both_directions():
    r = pdm_closed_form(QuantumState.maximally_mixed(2), QuantumChannel.identity(2))
    verdict = classify(r)
    assert verdict.compatible == {CausalStructure.A_TO_B, CausalStructure.B_TO_A}


def test_classify_forward_cp_for_product_semicausal():
    rng = generator(24)
    for _ in range(10):
        rho_a = full_rank_state(2, rng)
        rho_b = random_state(2, rng)
        joint = QuantumState.of(np.kron(rho_a.mat.data, rho_b.mat.data), (2, 2))
        ch = random_semicausal(2, 2, 2, rng)
        r = reduce(pdm_closed_form(joint, ch), [(0, (0,)), (1, (1,))])
        verdict = classify(r)
        assert verdict.min_eig_forward >= -Thresholds.eps_pos
        if verdict.f > Thresholds.eps_neg:
            assert CausalStructure.A_TO_B in verdict.compatible


def test_classify_invariant_under_local_basis_change():
    rng = generator(25)
    agreements = 0
    for trial in range(100):
        rho = full_rank_state(2, rng)
        ch = random_channel(2, rng)
        r = pdm_closed_form(rho, ch)
        base = classify(r)
        # common cause stays compatible exactly when there is no negativity
        assert (CausalStructure.COMMON_CAUSE in base.compatible) == (
            base.f <= base.thresholds.eps_neg
        )
        u_a = haar_unitary(2, rng).data
        u_b = haar_unitary(2, rng).data
        local = np.kron(u_a, u_b)
        rotated = PDM(
            ComplexMatrix(local @ r.mat.data @ local.conj().T, (2, 2)), r.slots
        )
        assert classify(rotated).compatible == base.compatible
        agreements += 1
    assert agreements == 100


@st.composite
def two_slot_pdms(draw):
    """Rank 1-2 one-qubit or rank 1-4 two-qubit first states through a random
    or semicausal channel; most draws send at least one direction to the SDP."""
    qubits = draw(st.integers(1, 2))
    dim = 2**qubits
    rank = draw(st.integers(1, dim))
    semicausal = qubits == 2 and draw(st.booleans())
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(dim, rng, rank=rank, factors=(2,) * qubits)
    if semicausal:
        ch = random_semicausal(2, 2, 2, rng)
    else:
        ch = random_channel(dim, rng, kraus_count=draw(st.integers(1, dim * dim)))
    return pdm_closed_form(rho, ch)


@settings(max_examples=20, deadline=None)
@given(two_slot_pdms())
def test_classify_mirrors_under_time_reversal(r):
    verdict = classify(r)
    mirrored = classify(time_reverse(r))
    assert mirrored.compatible == verdict.compatible_reversed
    assert mirrored.min_eig_forward == verdict.min_eig_reverse
    assert mirrored.min_eig_reverse == verdict.min_eig_forward
    assert mirrored.unique_forward == verdict.unique_reverse
    assert mirrored.unique_reverse == verdict.unique_forward
    assert mirrored.route_forward == verdict.route_reverse
    assert mirrored.route_reverse == verdict.route_forward
    assert mirrored.residual_forward == verdict.residual_reverse
    assert mirrored.residual_reverse == verdict.residual_forward
    assert mirrored.correlated == verdict.correlated
    assert abs(mirrored.f - verdict.f) <= 1e-12


def test_classify_three_qubit_slots_mirrors_and_finds_the_generating_direction():
    rng = generator(33)
    r = pdm_closed_form(full_rank_state(8, rng), random_channel(8, rng))
    verdict = classify(r)
    mirrored = classify(time_reverse(r))
    assert verdict.route_forward == verdict.route_reverse == "unique"
    assert verdict.min_eig_forward >= -Thresholds.eps_pos
    assert mirrored.compatible == verdict.compatible_reversed
    assert mirrored.min_eig_forward == verdict.min_eig_reverse
    assert mirrored.min_eig_reverse == verdict.min_eig_forward


# sha256 of the (compatible, route_forward, route_reverse) triples below
POOL_VERDICTS_SHA256 = "8b806df22910831c45b85fba12d99cd7cd5dc72c149e87a5a6781c0e9099695e"


def test_pinned_verdicts_and_routes_of_a_seeded_pool():
    # 64 two-qubit-slot PDMs: first-state ranks 1-4 through a random or
    # semicausal channel, every third time-reversed
    triples = []
    for k in range(64):
        rng = generator(0x5EED + k)
        rho = random_state(4, rng, rank=1 + k % 4, factors=(2, 2))
        ch = random_semicausal(2, 2, 2, rng) if k // 4 % 2 else random_channel(4, rng)
        r = pdm_closed_form(rho, ch)
        blob = classify(time_reverse(r) if k % 3 == 0 else r).to_json()
        triples.append([blob["compatible"], blob["route_forward"], blob["route_reverse"]])
    routes = {route for _, fwd, rev in triples for route in (fwd, rev)}
    assert routes == {"unique", "certified_cp", "certified_not_cp"}
    digest = hashlib.sha256(json.dumps(triples).encode()).hexdigest()
    assert digest == POOL_VERDICTS_SHA256, triples


def test_verdict_json_schema():
    r = pdm_closed_form(QuantumState.maximally_mixed(2), QuantumChannel.identity(2))
    blob = classify(r).to_json()
    assert set(blob) == {
        "compatible",
        "f",
        "min_eig_forward",
        "min_eig_reverse",
        "unique_forward",
        "unique_reverse",
        "route_forward",
        "route_reverse",
        "residual_forward",
        "residual_reverse",
        "correlated",
        "compatible_reversed",
        "thresholds",
    }
    assert blob["compatible"] == [1, 2]
    assert blob["route_forward"] == blob["route_reverse"] == "unique"
    assert 0 <= blob["residual_forward"] <= 1e-12
    assert blob["thresholds"]["eps_neg"] == 1e-8
    # both certified routes: every number is a built-in float
    certified = classify(rank_one_semicausal_pdm()).to_json()
    assert (certified["route_forward"], certified["route_reverse"]) == (
        "certified_cp",
        "certified_not_cp",
    )
    for verdict in (blob, certified):
        for key in ("f", "min_eig_forward", "min_eig_reverse", "residual_forward", "residual_reverse"):
            assert type(verdict[key]) is float, key


def test_classify_needs_equal_slot_dimensions():
    # the reverse test runs on the time-reversed PDM, which needs both slots
    # of one size
    rng = generator(34)
    a, b = random_state(2, rng).mat.data, random_state(4, rng).mat.data
    r = PDM(ComplexMatrix(np.kron(a, b), (2, 2, 2)), (Slot("t1", 1), Slot("t2", 2)))
    with pytest.raises(ValueError, match="time reversal needs equal slot dimensions"):
        classify(r)


def test_classify_requires_two_slots():
    from pdmcausal.pdm import pdm_from_measurements

    single = pdm_from_measurements(random_state(2, 9), [])
    with pytest.raises(ValueError):
        classify(single)
