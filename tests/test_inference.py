import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmcausal.channels import (
    QuantumChannel,
    QuantumState,
    choi_of,
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
    CausalStructure,
    Thresholds,
    classify,
    extract_choi,
    extract_reverse_choi,
    jordan_product_matrix,
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

from oracles import grid_oracle_objective


def full_rank_state(dim, rng):
    raw = random_state(dim, rng).mat.data
    mixed = 0.8 * raw + 0.2 * np.eye(dim) / dim
    factors = (2,) * (dim.bit_length() - 1)
    return QuantumState.of(mixed, factors)


# ---------------------------------------------------------------------------
# Jordan-product matrix
# ---------------------------------------------------------------------------

def test_jordan_matrix_maximally_mixed_is_scalar():
    j = jordan_product_matrix(QuantumState.maximally_mixed(2), 2)
    assert max_abs_diff(j.data, np.eye(16) / 2) == 0


def test_jordan_matrix_rank_and_eigenvalues():
    j = jordan_product_matrix(QuantumState.from_ket([1, 0]), 2)
    w = np.sort(np.linalg.eigvalsh(j.data))
    expected = np.sort([1.0] * 4 + [0.5] * 8 + [0.0] * 4)
    assert np.abs(w - expected).max() < 1e-12
    assert np.linalg.matrix_rank(j.data, tol=1e-10) == 12


def test_jordan_matrix_maps_choi_to_pdm():
    rng = generator(17)
    for _ in range(5):
        rho = full_rank_state(2, rng)
        ch = random_channel(2, rng)
        r = pdm_closed_form(rho, ch)
        j = jordan_product_matrix(rho, 2)
        lhs = j.data @ choi_of(ch).data.reshape(-1)
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
            assert max_abs_diff(res.choi.data, choi_of(ch).data) < 1e-8
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
    j = jordan_product_matrix(QuantumState.from_ket([1, 0]), 2).data
    rng = generator(4)
    for _ in range(5):
        block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        member = res.choi.data.copy()
        member[2:, 2:] = block
        assert np.abs(j @ member.reshape(-1) - r.mat.data.reshape(-1)).max() < 1e-12


def test_extract_reverse_known_forms():
    # flat input through the identity: time symmetric, reverse matrix is the swap
    r = pdm_closed_form(QuantumState.maximally_mixed(2), QuantumChannel.identity(2))
    rev = extract_reverse_choi(r)
    assert max_abs_diff(rev.choi.data, swap_operator(2).data) < 1e-10

    lam = 0.5
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    rho = QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * plus)
    r = pdm_closed_form(rho, measure_prepare_z())
    rev = extract_reverse_choi(r)
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


# ---------------------------------------------------------------------------
# Least-negative completion
# ---------------------------------------------------------------------------

def test_sdp_identity_instance_reaches_zero():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    res = sdp_least_negative(r, "forward")
    assert res.objective <= 1e-6
    assert res.residual <= 1e-7
    assert max_abs_diff(res.choi.data, res.choi.data.conj().T) <= 1e-7
    assert max_abs_diff(partial_trace(res.choi, {0}).data, np.eye(2)) <= 1e-7


def test_sdp_full_rank_equals_unique_extraction():
    rng = generator(21)
    rho = full_rank_state(2, rng)
    ch = random_channel(2, rng)
    r = pdm_closed_form(rho, ch)
    res = sdp_least_negative(r, "forward")
    assert res.unique
    assert max_abs_diff(res.choi.data, extract_choi(r).choi.data) < 1e-7


def test_sdp_measure_prepare_on_basis_state():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), measure_prepare_z())
    res = sdp_least_negative(r, "forward")
    assert res.objective <= 1e-6


def test_sdp_beats_grid_oracle():
    rng = generator(22)
    for _ in range(5):
        rho = random_pure_state(2, rng)
        ch = random_channel(2, rng)
        r = pdm_closed_form(rho, ch)
        res = sdp_least_negative(r, "forward")
        oracle = grid_oracle_objective(r)
        assert res.objective <= oracle + 1e-4


def test_sdp_positive_optimum_on_singleton_set():
    # full-rank marginals make the feasible set a single point whose
    # negative-part trace is cos(theta)^2 exactly
    from pdmcausal.harness import mixture_pdm

    theta = np.pi / 4
    res = sdp_least_negative(mixture_pdm(theta), "forward")
    assert res.unique and res.converged
    assert res.objective == pytest.approx(np.cos(theta) ** 2, abs=1e-8)


def test_sdp_rejects_infeasible_data():
    rho = QuantumState.from_ket([1, 0])
    depol = QuantumChannel.from_kraus([s / 2 for s in SIGMA])
    r = pdm_closed_form(rho, depol)
    bad = r.mat.data + 0.01 * np.kron(np.diag([0.0, 1.0]), SIGMA[1])
    pdm = PDM(ComplexMatrix(bad, (2, 2)), r.slots)
    with pytest.raises(NumericalInconsistencyError):
        sdp_least_negative(pdm, "forward")


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
    res = sdp_least_negative(r, "forward")
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


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_rank_tol_selects_sdp_route(monkeypatch):
    r = pdm_closed_form(QuantumState.of(np.diag([0.999, 0.001])), measure_prepare_z())
    calls = []
    original = inference.sdp_least_negative

    def spy(pdm, direction, thresholds):
        calls.append(direction)
        return original(pdm, direction, thresholds)

    monkeypatch.setattr(inference, "sdp_least_negative", spy)
    default = classify(r)
    assert default.unique_forward and default.unique_reverse
    assert calls == []
    loose = classify(r, Thresholds(rank_tol=1e-2))
    assert not loose.unique_forward and not loose.unique_reverse
    assert calls == ["forward", "reverse"]


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
    assert mirrored.correlated == verdict.correlated
    assert abs(mirrored.f - verdict.f) <= 1e-12


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
        "correlated",
        "compatible_reversed",
        "thresholds",
    }
    assert blob["compatible"] == [1, 2]
    assert blob["thresholds"]["eps_neg"] == 1e-8


def test_classify_requires_two_slots():
    from pdmcausal.pdm import pdm_from_measurements

    single = pdm_from_measurements(random_state(2, 9), [])
    with pytest.raises(ValueError):
        classify(single)
