import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmcausal._kernels import assemble_from_expectations
from pdmcausal.channels import (
    QuantumChannel,
    QuantumState,
    measure_prepare_z,
    partial_swap,
    random_channel,
    random_semicausal,
    random_state,
)
from pdmcausal.linalg import ComplexMatrix, max_abs_diff, swap_operator
from pdmcausal.pauli import SIGMA, pauli_basis
from pdmcausal.pdm import (
    MAX_SLOT_QUBITS,
    PDM,
    Slot,
    marginal_state,
    negativity,
    pdm_closed_form,
    pdm_from_json,
    pdm_from_measurements,
    pdm_iterative,
    pdm_to_json,
    reduce,
    time_reverse,
)
from pdmcausal.rng import generator

from oracles import apply, effective_channel

IDENTITY_CHANNEL_PDM = np.array(
    [[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]], dtype=np.complex128
)


def test_oracle_identity_on_mixed():
    r = pdm_from_measurements(QuantumState.maximally_mixed(2), [QuantumChannel.identity(2)])
    assert max_abs_diff(r.mat.data, 0.5 * swap_operator(2).data) < 1e-14


def test_oracle_identity_on_zero():
    r = pdm_from_measurements(QuantumState.from_ket([1, 0]), [QuantumChannel.identity(2)])
    assert max_abs_diff(r.mat.data, IDENTITY_CHANNEL_PDM) < 1e-14


def test_oracle_single_slot_recovers_state():
    rho = random_state(4, 5, factors=(2, 2))
    r = pdm_from_measurements(rho, [])
    assert len(r.slots) == 1
    assert max_abs_diff(r.mat.data, rho.mat.data) < 1e-13


def test_oracle_dimension_cap():
    rho = QuantumState.maximally_mixed(16, (2, 2, 2, 2))
    idc = QuantumChannel.identity(16)
    with pytest.raises(ValueError, match="cap"):
        pdm_from_measurements(rho, [idc])


def test_closed_form_identity_on_zero():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    assert max_abs_diff(r.mat.data, IDENTITY_CHANNEL_PDM) == 0


def test_closed_form_measure_prepare_block_structure():
    rng = generator(9)
    for _ in range(5):
        rho = random_state(2, rng)
        z = np.trace(rho.mat.data @ SIGMA[3]).real
        r = pdm_closed_form(rho, measure_prepare_z())
        block0 = 0.5 * rho.mat.data + 0.25 * SIGMA[3] + (z / 4) * np.eye(2)
        block1 = 0.5 * rho.mat.data - 0.25 * SIGMA[3] - (z / 4) * np.eye(2)
        expected = np.kron(block0, np.diag([1.0, 0.0])) + np.kron(block1, np.diag([0.0, 1.0]))
        assert max_abs_diff(r.mat.data, expected) < 1e-12


def test_closed_form_depolarizing_has_no_negativity():
    rho = random_state(2, 13)
    depol = QuantumChannel.from_kraus([s / 2 for s in SIGMA])
    r = pdm_closed_form(rho, depol)
    assert max_abs_diff(r.mat.data, np.kron(rho.mat.data, np.eye(2) / 2)) < 1e-12
    assert negativity(r) < 1e-12


def test_closed_form_matches_oracle_random():
    rng = generator(101)
    for dim in (2, 4):
        for _ in range(5):
            rho = random_state(dim, rng, factors=(2,) * (dim // 2))
            ch = random_channel(dim, rng)
            a = pdm_from_measurements(rho, [ch])
            b = pdm_closed_form(rho, ch)
            assert max_abs_diff(a.mat.data, b.mat.data) < 1e-10


def test_closed_form_matches_oracle_three_qubit_slots():
    rng = generator(102)
    rho = random_state(8, rng, factors=(2, 2, 2))
    ch = random_channel(8, rng, kraus_count=4)
    a = pdm_from_measurements(rho, [ch])
    b = pdm_closed_form(rho, ch)
    assert max_abs_diff(a.mat.data, b.mat.data) < 1e-10


def test_iterative_base_case_and_three_slots():
    rng = generator(55)
    rho = random_state(2, rng)
    ch1, ch2 = random_channel(2, rng), random_channel(2, rng)
    assert max_abs_diff(
        pdm_iterative(rho, [ch1]).mat.data, pdm_closed_form(rho, ch1).mat.data
    ) == 0
    r3 = pdm_iterative(rho, [ch1, ch2])
    oracle = pdm_from_measurements(rho, [ch1, ch2])
    assert max_abs_diff(r3.mat.data, oracle.mat.data) < 1e-10
    # tracing all earlier slots leaves the composed output state
    final = marginal_state(r3, 2).mat.data
    composed = apply(ch2, apply(ch1, rho)).mat.data
    assert max_abs_diff(final, composed) < 1e-10


def test_iterative_four_slots_matches_oracle():
    rng = generator(56)
    rho = random_state(2, rng)
    chain = [random_channel(2, rng) for _ in range(3)]
    a = pdm_iterative(rho, chain)
    b = pdm_from_measurements(rho, chain)
    assert max_abs_diff(a.mat.data, b.mat.data) < 1e-10


def test_marginal_laws():
    rng = generator(77)
    for _ in range(10):
        rho = random_state(2, rng)
        ch = random_channel(2, rng)
        r = pdm_closed_form(rho, ch)
        assert max_abs_diff(marginal_state(r, 0).mat.data, rho.mat.data) < 1e-10
        assert max_abs_diff(marginal_state(r, 1).mat.data, apply(ch, rho).mat.data) < 1e-10


def test_reduce_keep_all_and_validation():
    r = pdm_closed_form(QuantumState.maximally_mixed(2), QuantumChannel.identity(2))
    same = reduce(r, [0, 1])
    assert max_abs_diff(same.mat.data, r.mat.data) == 0
    with pytest.raises(ValueError):
        reduce(r, [])
    with pytest.raises(ValueError):
        reduce(r, [(0, ())])
    with pytest.raises(ValueError):
        reduce(r, [1, 0])


def test_reduce_subslot_matches_oracle_and_effective_channel():
    rng = generator(88)
    for _ in range(3):
        rho_a = random_state(2, rng)
        rho_b = random_state(2, rng)
        joint = QuantumState.of(np.kron(rho_a.mat.data, rho_b.mat.data), (2, 2))
        ch = random_semicausal(2, 2, 2, rng)
        full_closed = pdm_closed_form(joint, ch)
        full_oracle = pdm_from_measurements(joint, [ch])
        keep = [(0, (0,)), (1, (1,))]
        r1 = reduce(full_closed, keep)
        r2 = reduce(full_oracle, keep)
        assert max_abs_diff(r1.mat.data, r2.mat.data) < 1e-10
        # product input + one-way channel: the sub-PDM is the effective
        # channel's own two-slot PDM
        eff = effective_channel(ch, (2, 2), pin=1, pin_state=rho_b, keep=1)
        direct = pdm_closed_form(rho_a, eff)
        assert max_abs_diff(r1.mat.data, direct.mat.data) < 1e-10


def test_reduce_first_slot_of_closed_form():
    rho = random_state(2, 123)
    r = pdm_closed_form(rho, random_channel(2, 124))
    first = reduce(r, [0])
    assert max_abs_diff(first.mat.data, rho.mat.data) < 1e-12


def test_negativity_values():
    rho = random_state(4, 14, factors=(2, 2))
    single = pdm_from_measurements(rho, [])
    assert abs(negativity(single)) < 1e-12

    theta = np.pi / 3
    state = QuantumState.from_ket([1, 0, 0, 0], (2, 2))
    full = pdm_closed_form(state, partial_swap(theta))
    r = reduce(full, [(0, (0,)), (1, (0,))])
    assert abs(negativity(r) - abs(np.cos(theta))) < 1e-12

    plus = QuantumState.from_ket([1, 1])
    r = pdm_closed_form(plus, measure_prepare_z())
    assert abs(negativity(r) - (np.sqrt(2) - 1)) < 1e-12
    w = np.linalg.eigvalsh(r.mat.data)
    expected = np.sort([(1 + np.sqrt(2)) / 4, (1 - np.sqrt(2)) / 4] * 2)
    assert np.abs(np.sort(w) - expected).max() < 1e-12


def test_time_reverse():
    r = pdm_closed_form(QuantumState.from_ket([1, 0]), QuantumChannel.identity(2))
    rev = time_reverse(r)
    assert max_abs_diff(rev.mat.data, r.mat.data) == 0  # swap-symmetric matrix
    rng = generator(31)
    for _ in range(5):
        rho = random_state(2, rng)
        ch = random_channel(2, rng)
        r = pdm_closed_form(rho, ch)
        rev = time_reverse(r)
        assert abs(negativity(rev) - negativity(r)) < 1e-12
        assert max_abs_diff(time_reverse(rev).mat.data, r.mat.data) < 1e-14
        s = swap_operator(2).data
        assert max_abs_diff(rev.mat.data, s @ r.mat.data @ s.conj().T) < 1e-14
    with pytest.raises(ValueError):
        time_reverse(pdm_from_measurements(random_state(2, 1), []))


def test_no_signalling_reductions_are_positive():
    rng = generator(404)
    for _ in range(20):
        dim_c = int(rng.integers(1, 3)) * 2
        ch = random_semicausal(2, 2, dim_c, rng)
        state = random_state(4, rng, factors=(2, 2))
        full = pdm_closed_form(state, ch)
        back_to_front = reduce(full, [(0, (1,)), (1, (0,))])
        assert negativity(back_to_front) <= 1e-9


def test_both_ways_no_signalling():
    # product of local channels signals in neither direction
    rng = generator(405)
    local = QuantumChannel.from_kraus(
        [np.kron(k1, k2) for k1 in random_channel(2, rng).kraus_operators
         for k2 in random_channel(2, rng).kraus_operators]
    )
    state = random_state(4, rng, factors=(2, 2))
    full = pdm_closed_form(state, local)
    assert negativity(reduce(full, [(0, (1,)), (1, (0,))])) <= 1e-9
    assert negativity(reduce(full, [(0, (0,)), (1, (1,))])) <= 1e-9


def test_intermediate_slot_trace_report(capsys):
    # whether tracing the middle slot of a three-slot PDM reproduces the
    # two-slot PDM of the composed channel is not a promised contract;
    # measure and report the deviation
    rng = generator(3030)
    worst = 0.0
    for _ in range(10):
        rho = random_state(2, rng)
        ch1, ch2 = random_channel(2, rng), random_channel(2, rng)
        r3 = pdm_iterative(rho, [ch1, ch2])
        traced = reduce(r3, [0, 2])
        composed = QuantumChannel.from_kraus(
            [k2 @ k1 for k2 in ch2.kraus_operators for k1 in ch1.kraus_operators]
        )
        direct = pdm_closed_form(rho, composed)
        worst = max(worst, max_abs_diff(traced.mat.data, direct.mat.data))
    print(f"\n[report] middle-slot trace vs composed-channel PDM: max dev {worst:.3e}")


def test_pdm_validation():
    bad = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        PDM(ComplexMatrix(bad, (2, 2)), (Slot("t1", 1), Slot("t2", 1)))
    with pytest.raises(ValueError):
        PDM(ComplexMatrix(np.eye(4) / 2, (2, 2)), (Slot("t1", 1), Slot("t2", 1)))
    with pytest.raises(ValueError):  # per-qubit factor structure required
        PDM(ComplexMatrix(np.eye(4) / 4, (4,)), (Slot("t1", 2),))


def test_pdm_json_round_trip():
    r = pdm_closed_form(random_state(2, 2), random_channel(2, 3))
    back = pdm_from_json(pdm_to_json(r))
    assert back.slots == r.slots
    assert max_abs_diff(back.mat.data, r.mat.data) < 1e-15
    blob = pdm_to_json(r)
    del blob["slots"]
    with pytest.raises(ValueError):
        pdm_from_json(blob)


def test_assembler_matches_direct_sum():
    rng = generator(66)
    paulis = np.asarray(pauli_basis(1))
    e = rng.standard_normal((4, 4))
    direct = sum(
        e[i, j] * np.kron(paulis[i], paulis[j]) for i in range(4) for j in range(4)
    ) / 4
    assert max_abs_diff(assemble_from_expectations(e, paulis), direct) < 1e-13


@st.composite
def measured_chains(draw):
    """A random state and channel chain within the definitional builder's cap.

    Each step draws its Kraus count from 1 (a unitary step) to d**2.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, MAX_SLOT_QUBITS // n))
    d = 2**n
    counts = draw(st.lists(st.integers(1, d * d), min_size=m - 1, max_size=m - 1))
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(d, rng, factors=(2,) * n)
    return rho, [random_channel(d, rng, kraus_count=k) for k in counts]


@settings(max_examples=60, deadline=None)
@given(measured_chains())
def test_oracle_matches_iterative_on_drawn_chains(chain):
    rho, channels = chain
    oracle = pdm_from_measurements(rho, channels)
    assert max_abs_diff(oracle.mat.data, pdm_iterative(rho, channels).mat.data) < 1e-10
