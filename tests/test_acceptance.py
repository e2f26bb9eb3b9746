"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines; the suite is deterministic (fixed Philox seeds).
"""

import math
import time

import numpy as np
import pytest

from pdmcausal.channels import (
    QuantumChannel,
    QuantumState,
    input_transpose,
    measure_prepare_z,
    random_channel,
    random_pure_state,
    random_semicausal,
    random_state,
)
from pdmcausal.harness import expected_mixture_matrix, mixture_pdm, run_haar_sweep
from pdmcausal.inference import (
    CausalStructure,
    classify,
    extract_choi,
    sdp_least_negative,
)
from pdmcausal.linalg import (
    ComplexMatrix,
    max_abs_diff,
    partial_trace,
    swap_operator,
)
from pdmcausal.pauli import SIGMA
from pdmcausal.pdm import (
    PDM,
    Slot,
    marginal_state,
    negativity,
    pdm_closed_form,
    pdm_from_measurements,
    pdm_iterative,
    reduce,
    time_reverse,
)
from pdmcausal.rng import generator

from oracles import apply

IDENTITY_CHANNEL_PDM = np.array(
    [[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]], dtype=complex
)
LAMBDA_GRID = tuple(round(0.1 * k, 10) for k in range(1, 10))


def report(tag: str, detail: str):
    print(f"\n[acceptance] {tag}: PASS ({detail})")


def full_rank_state(dim, rng):
    raw = random_state(dim, rng).mat.data
    factors = (2,) * (dim.bit_length() - 1)
    return QuantumState.of(0.8 * raw + 0.2 * np.eye(dim) / dim, factors)


def measure_prepare_pdm(lam):
    plus = 0.5 * np.array([[1, 1], [1, 1]])
    rho = QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * plus)
    return pdm_closed_form(rho, measure_prepare_z())


@pytest.fixture(scope="module")
def two_time_corpus():
    rng = generator(0xA11CE)
    t0 = time.time()
    corpus = []
    for i in range(200):
        dim = 2 if i < 100 else 4
        rho = random_state(dim, rng, factors=(2,) * (dim // 2))
        ch = random_channel(dim, rng)
        closed = pdm_closed_form(rho, ch)
        oracle = pdm_from_measurements(rho, [ch])
        corpus.append((rho, ch, closed, oracle))
    return corpus, time.time() - t0


@pytest.fixture(scope="module")
def three_time_corpus():
    rng = generator(0xB0B)
    t0 = time.time()
    corpus = []
    for _ in range(50):
        rho = random_state(2, rng)
        chain = [random_channel(2, rng), random_channel(2, rng)]
        iterative = pdm_iterative(rho, chain)
        oracle = pdm_from_measurements(rho, chain)
        corpus.append((rho, chain, iterative, oracle))
    return corpus, time.time() - t0


def test_a1_oracle_equivalence(two_time_corpus, three_time_corpus):
    pairs, t_two = two_time_corpus
    triples, t_three = three_time_corpus
    worst2 = max(max_abs_diff(c.mat.data, o.mat.data) for _, _, c, o in pairs)
    worst3 = max(max_abs_diff(it.mat.data, o.mat.data) for _, _, it, o in triples)
    elapsed = t_two + t_three
    assert worst2 <= 1e-10, f"closed form deviates from oracle by {worst2:.3e}"
    assert worst3 <= 1e-10, f"iterative form deviates from oracle by {worst3:.3e}"
    assert elapsed <= 120.0, f"corpus took {elapsed:.1f}s > 2min"
    report(
        "A1 oracle equivalence",
        f"200 two-slot max dev {worst2:.2e}, 50 three-slot max dev {worst3:.2e}, {elapsed:.1f}s",
    )


def test_a2_marginal_laws(two_time_corpus):
    pairs, _ = two_time_corpus
    worst_first = worst_last = 0.0
    for rho, ch, closed, _ in pairs:
        worst_first = max(
            worst_first, max_abs_diff(marginal_state(closed, 0).mat.data, rho.mat.data)
        )
        worst_last = max(
            worst_last,
            max_abs_diff(marginal_state(closed, 1).mat.data, apply(ch, rho).mat.data),
        )
    assert worst_first <= 1e-10 and worst_last <= 1e-10
    report(
        "A2 marginal laws",
        f"first-slot dev {worst_first:.2e}, last-slot dev {worst_last:.2e}",
    )


def test_a3_no_signalling_fuzz():
    rng = generator(0x7EE3)
    worst = -np.inf
    hits = 0
    for _ in range(500):
        dim_c = 2 if rng.integers(0, 2) == 0 else 4
        channel = random_semicausal(2, 2, dim_c, rng)
        rank = int(rng.integers(1, 5))
        state = random_state(4, rng, rank=rank, factors=(2, 2))
        full = pdm_closed_form(state, channel)
        f = negativity(reduce(full, [(0, (1,)), (1, (0,))]))
        worst = max(worst, f)
        hits += f <= 1e-9
    assert hits == 500, f"only {hits}/500 cases stayed positive (worst f {worst:.3e})"
    report("A3 no-signalling fuzz", f"500/500 with f(R_B1A2) <= 1e-9, worst {worst:.2e}")


def test_a4_swap_influence_law():
    worst = 0.0
    for deg in range(0, 91, 5):
        theta = math.radians(deg)
        state = QuantumState.from_ket([1, 0, 0, 0], (2, 2))
        full = pdm_closed_form(state, QuantumChannel.from_unitary(
            math.cos(theta) * np.eye(4) + 1j * math.sin(theta) * swap_operator(2).data
        ))
        f = negativity(reduce(full, [(0, (0,)), (1, (0,))]))
        worst = max(worst, abs(f - abs(math.cos(theta))))
    assert worst <= 1e-9
    report("A4 swap influence law", f"max |f - |cos theta|| = {worst:.2e} over 0..90 deg")


def test_a5_choi_round_trip():
    rng = generator(0x5EED)
    worst = 0.0
    for i in range(200):
        dim = 2 if i < 100 else 4
        rho = full_rank_state(dim, rng)
        ch = random_channel(dim, rng)
        res = extract_choi(pdm_closed_form(rho, ch))
        assert res.unique
        worst = max(worst, max_abs_diff(res.choi.data, ch.choi.data))
    assert worst <= 1e-8, f"round trip deviates by {worst:.3e}"
    for lam in (0.25, 0.5, 0.75):
        res = extract_choi(measure_prepare_pdm(lam))
        expected = 0.5 * (np.kron(SIGMA[0], SIGMA[0]) + np.kron(SIGMA[3], SIGMA[3]))
        exact = max_abs_diff(res.choi.data, expected)
        assert exact <= 1e-10
    report("A5 Choi round trip", f"200 instances, max dev {worst:.2e}; named example exact")


def test_a6_reference_matrices():
    worst = 0.0
    # rank-deficient identity-channel instance
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    worst = max(worst, max_abs_diff(r.mat.data, IDENTITY_CHANNEL_PDM))
    worst = max(
        worst, max_abs_diff(QuantumChannel.identity(2).choi.data, swap_operator(2).data)
    )
    # reversed measure-prepare blocks across the weight grid
    s = swap_operator(2).data
    for lam in LAMBDA_GRID:
        rev = extract_choi(time_reverse(measure_prepare_pdm(lam)))
        in_original_order = s @ input_transpose(rev.choi).data @ s
        expected = 0.5 * np.kron(np.array([[2, lam], [lam, 0]]), np.diag([1.0, 0])) \
            + 0.5 * np.kron(np.array([[0, lam], [lam, 2]]), np.diag([0.0, 1]))
        worst = max(worst, max_abs_diff(in_original_order, expected))
    # entangled-input mixture: reduced PDM and both transposed matrices
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        r = mixture_pdm(theta)
        worst = max(worst, max_abs_diff(r.mat.data, expected_mixture_matrix(theta)))
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        expected_mt = np.array(
            [[1, 0, 0, s2], [0, 0, c2, 0], [0, c2, 0, 0], [s2, 0, 0, 1]], dtype=complex
        )
        fwd = extract_choi(r)
        rev = extract_choi(time_reverse(r))
        worst = max(worst, max_abs_diff(input_transpose(fwd.choi).data, expected_mt))
        worst = max(
            worst,
            max_abs_diff(s @ input_transpose(rev.choi).data @ s, expected_mt),
        )
    assert worst <= 1e-10, f"reference matrices deviate by {worst:.3e}"
    report("A6 reference matrices", f"all entrywise within {worst:.2e}")


def test_a7_protocol_verdicts():
    for lam in LAMBDA_GRID:
        verdict = classify(measure_prepare_pdm(lam))
        assert verdict.compatible == {CausalStructure.A_TO_B}, f"lambda={lam}"
    for deg in (20, 30, 45, 60, 80):
        verdict = classify(mixture_pdm(math.radians(deg)))
        assert verdict.compatible == {
            CausalStructure.A_TO_B_WITH_COMMON_CAUSE,
            CausalStructure.B_TO_A_WITH_COMMON_CAUSE,
        }, f"theta={deg}"
    slots = (Slot("t1", 1), Slot("t2", 1))
    candidates = [np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)]
    rng = generator(0xDA7A)
    candidates += [
        random_state(4, rng, rank=int(rng.integers(1, 5))).mat.data for _ in range(10)
    ]
    for data in candidates:
        verdict = classify(PDM(ComplexMatrix(data, (2, 2)), slots))
        assert CausalStructure.COMMON_CAUSE in verdict.compatible
        assert verdict.f <= 1e-8
    report("A7 protocol verdicts", "measure-prepare -> {1}; mixture -> {4,5}; PSD -> contains 3")


def test_a8_sdp():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    res = sdp_least_negative(r)
    assert res.objective <= 1e-6
    assert res.residual <= 1e-7
    assert max_abs_diff(res.choi.data, res.choi.data.conj().T) <= 1e-7
    assert max_abs_diff(partial_trace(res.choi, {0}).data, np.eye(2)) <= 1e-7

    from oracles import grid_oracle_objective

    rng = generator(0x5D9)
    gaps = []
    for _ in range(20):
        rho = random_pure_state(2, rng)
        ch = random_channel(2, rng)
        pdm = pdm_closed_form(rho, ch)
        solver = sdp_least_negative(pdm)
        oracle = grid_oracle_objective(pdm)
        assert solver.objective <= oracle + 1e-4
        gaps.append(oracle - solver.objective)
    report(
        "A8 SDP",
        f"rank-deficient optimum {res.objective:.2e}; solver beats grid oracle on 20/20 "
        f"(median margin {np.median(gaps):.2e})",
    )


def test_a9_monte_carlo():
    t0 = time.time()
    _, summary3 = run_haar_sweep("fig3", n=1000, seed=20240817)
    _, summary4 = run_haar_sweep("fig4", n=1000, seed=20240818)
    elapsed = time.time() - t0
    fractions = dict(summary3["fraction_negative"])
    fractions.update({f"theta{k}": v for k, v in summary4["fraction_negative"].items()})
    assert all(v >= 0.99 for v in fractions.values()), fractions
    assert elapsed <= 300.0, f"sweeps took {elapsed:.1f}s > 5min"
    report("A9 Monte-Carlo", f"fractions {fractions}, {elapsed:.1f}s")
