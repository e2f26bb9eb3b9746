import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmcausal._kernels import assemble_from_expectations, expectation_tensor
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
    _anticommutator_step,
    _slot_marginals,
    _validate,
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

from oracles import (
    apply,
    effective_channel,
    kron_anticommutator_step,
    pauli_sandwich,
    pdm_kron_chain,
    sandwich_expectation_tensor,
    slot_marginals_by_traces,
)

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


def test_iterative_with_no_channel_is_the_state():
    for n in (1, 2, 3):
        rho = random_state(2**n, 40 + n, factors=(2,) * n)
        r = pdm_iterative(rho, [])
        assert r.slots == (Slot("t1", n),)
        assert np.array_equal(r.mat.data, rho.mat.data)


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


def test_reduce_rejects_a_repeated_qubit():
    r = pdm_closed_form(QuantumState.maximally_mixed(4, (2, 2)), QuantumChannel.identity(4))
    with pytest.raises(ValueError, match="repeats"):
        reduce(r, [(0, (1, 1)), 1])


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


SLOTS_1_1 = (Slot("t1", 1), Slot("t2", 1))


def _spoiled(kind):
    """A valid two-slot one-qubit PDM matrix and one failing one PDM check."""
    good = pdm_closed_form(random_state(2, 7), random_channel(2, 8)).mat.data
    if kind == "hermitian":
        bad = good.copy()
        bad[0, 1] += 1e-3
    elif kind == "trace":
        bad = 1.5 * good
    else:  # unit trace, first-slot reduction diag(1.2, -0.2)
        bad = np.kron(np.diag([1.2, -0.2]), np.eye(2) / 2).astype(complex)
    return good, bad


@pytest.mark.parametrize("kind", ["hermitian", "trace", "marginal"])
def test_stack_validation_fails_on_its_second_matrix_as_the_pdm_does(kind):
    good, bad = _spoiled(kind)
    with pytest.raises(ValueError) as alone:
        PDM(ComplexMatrix(bad, (2, 2)), SLOTS_1_1)
    with pytest.raises(ValueError) as stacked:
        _validate(np.stack([good, bad]), SLOTS_1_1)
    assert str(stacked.value) == str(alone.value)


def test_stack_validation_returns_the_marginals_of_each_matrix():
    good, _ = _spoiled("trace")
    other = pdm_closed_form(random_state(2, 9), random_channel(2, 10)).mat.data
    marginals = _validate(np.stack([other, good]), SLOTS_1_1)
    alone = PDM(ComplexMatrix(good, (2, 2)), SLOTS_1_1)._marginals
    for (m, w), (m1, w1) in zip(marginals, alone):
        assert m.shape == (2, 2, 2) and w.shape == (2, 2)
        assert m[1].tobytes() == m1.tobytes() and w[1].tobytes() == w1.tobytes()


def test_stack_validation_scales_each_matrix_by_its_own_entries():
    good, _ = _spoiled("trace")
    small = good.copy()
    small[0, 1] += 1e-9  # above 1e-10 of entries of order 1, below 1e-10 of 10x them
    with pytest.raises(ValueError, match="not Hermitian"):
        PDM(ComplexMatrix(small, (2, 2)), SLOTS_1_1)
    with pytest.raises(ValueError, match="not Hermitian"):
        _validate(np.stack([100.0 * good, small]), SLOTS_1_1)


@pytest.mark.parametrize("counts", [(0, 2), (-1, 3)], ids=["zero", "negative"])
def test_pdm_loader_rejects_a_slot_without_qubits(counts):
    blob = pdm_to_json(pdm_closed_form(random_state(2, 2), random_channel(2, 3)))
    blob["slots"] = [{"label": f"t{i + 1}", "qubits": q} for i, q in enumerate(counts)]
    with pytest.raises(ValueError, match="need at least 1"):
        pdm_from_json(blob)


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


@st.composite
def anticommutator_chains(draw):
    """A random state and 1-3 random or semicausal channels on 1- or 2-qubit slots."""
    n = draw(st.integers(1, 2))
    d = 2**n
    kinds = draw(st.lists(st.sampled_from(["random", "semicausal"]), min_size=1, max_size=3))
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(d, rng, rank=draw(st.integers(1, d)), factors=(2,) * n)
    chain = [
        random_channel(d, rng) if kind == "random" else random_semicausal(d // 2, 2, 2, rng)
        for kind in kinds
    ]
    return rho, chain


@settings(max_examples=60, deadline=None)
@given(anticommutator_chains())
def test_iterative_equals_the_kron_chain_bitwise(chain):
    rho, channels = chain
    assert np.array_equal(pdm_iterative(rho, channels).mat.data, pdm_kron_chain(rho, channels))


def _ginibre(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(measured_chains())
def test_expectation_tensor_matches_the_projector_sandwich(chain):
    rho, channels = chain
    paulis = np.asarray(pauli_basis(len(rho.mat.factors)))
    kraus_steps = [np.asarray(ch.kraus_operators) for ch in channels]
    fast = expectation_tensor(rho.mat.data, kraus_steps, paulis)
    reference = sandwich_expectation_tensor(rho.mat.data, kraus_steps, paulis)
    assert np.abs(fast - reference).max() < 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_jordan_product_is_the_projector_sandwich(n, seed):
    paulis = np.asarray(pauli_basis(n))
    x = _ginibre(generator(seed), 2**n, 2**n)
    # each row and each column of a word holds one entry from {±1, ±i}, so
    # P X and X P are a permutation times a phase: exact
    col = np.abs(paulis).argmax(axis=-1)
    row_phase = np.take_along_axis(paulis, col[..., None], -1)[..., 0]
    assert np.array_equal(paulis @ x, row_phase[..., None] * x[col])
    row = np.abs(paulis).argmax(axis=-2)
    col_phase = np.take_along_axis(paulis, row[..., None, :], -2)[..., 0, :]
    assert np.array_equal(x @ paulis, np.moveaxis(x[:, row], 1, 0) * col_phase[:, None, :])
    jordan = 0.5 * (paulis @ x + x @ paulis)
    assert np.abs(jordan - pauli_sandwich(paulis, x)).max() < 1e-13


@st.composite
def step_stacks(draw):
    """Broadcast stacks of the two sweep shapes, or single matrices of any
    dimension a slot chain reaches.

    The entries are not Hermitian: on exactly Hermitian inputs the shortcut
    ``X + X^H`` for the left product is bit-identical too, and the matrices
    a sweep builds are Hermitian only to rounding.
    """
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 20))
    shape = draw(st.sampled_from(["fig3", "fig4", "single"]))
    if shape == "fig3":  # two input states under each sample's channel
        return _ginibre(rng, 2, 4, 4), _ginibre(rng, k, 1, 16, 16), 4, 4
    if shape == "fig4":  # each sample's state under two angles' channels
        return _ginibre(rng, k, 1, 4, 4), _ginibre(rng, 2, 16, 16), 4, 4
    dim_in, dim_out = draw(st.sampled_from([2, 4])), draw(st.sampled_from([2, 4]))
    d = dim_in * draw(st.sampled_from([1, 2, 4, 8, 16]))
    b = dim_in * dim_out
    return _ginibre(rng, d, d), _ginibre(rng, b, b), dim_in, dim_out


@settings(max_examples=60, deadline=None)
@given(step_stacks())
def test_stacked_step_equals_the_dense_step_per_member_bitwise(case):
    data, choi, dim_in, dim_out = case
    out = _anticommutator_step(data, choi, dim_in, dim_out)
    lead = np.broadcast_shapes(data.shape[:-2], choi.shape[:-2])
    assert out.shape == lead + (data.shape[-1] * dim_out,) * 2
    data = np.broadcast_to(data, lead + data.shape[-2:])
    choi = np.broadcast_to(choi, lead + choi.shape[-2:])
    for idx in np.ndindex(lead):
        dense = kron_anticommutator_step(data[idx], choi[idx], dim_in, dim_out)
        assert out[idx].tobytes() == dense.tobytes()


SLOT_LAYOUTS = [(1,) * k for k in range(1, 7)] + [(2, 2), (1, 2), (2, 1), (3, 3)]


@st.composite
def marginal_stacks(draw):
    """A slot layout and a stack of random density matrices over its qubits."""
    layout = draw(st.sampled_from(SLOT_LAYOUTS))
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    d = 2 ** sum(layout)
    states = [
        random_state(d, rng, rank=int(rng.integers(1, d + 1))).mat.data
        for _ in range(int(np.prod(lead)))
    ]
    slots = tuple(Slot(f"t{i + 1}", q) for i, q in enumerate(layout))
    return np.reshape(states, lead + (d, d)), slots


@settings(max_examples=60, deadline=None)
@given(marginal_stacks())
def test_slot_marginals_agree_with_nested_traces(case):
    """The one-contraction reductions round differently from tracing factor by
    factor: they agree to 1e-15 of the reduction's largest entry (a 32-term
    sum of a density matrix's diagonal differs by up to about 7e-16).  The
    grouped eigenvalues equal each reduction's own eigvalsh bit for bit."""
    data, slots = case
    marginals = _slot_marginals(data, slots)
    for (m, w), oracle in zip(marginals, slot_marginals_by_traces(data, slots)):
        assert m.shape == w.shape + w.shape[-1:] == oracle.shape
        scale = np.abs(oracle).max(axis=(-2, -1))
        assert (np.abs(m - oracle).max(axis=(-2, -1)) <= 1e-15 * scale).all()
        for idx in np.ndindex(data.shape[:-2]):
            assert w[idx].tobytes() == np.linalg.eigvalsh(m[idx]).tobytes()


@settings(max_examples=60, deadline=None)
@given(marginal_stacks())
def test_slot_marginals_of_a_stack_are_each_pdms_own(case):
    """A stack's reductions and eigenvalues are bit for bit those of each
    member alone, as ``PDM(...)`` stores them and as a trusted PDM computes
    them on first use, so a stacked extraction ranks the numbers ``classify``
    routes on."""
    data, slots = case
    factors = (2,) * sum(s.qubits for s in slots)
    marginals = _slot_marginals(data, slots)
    for idx in np.ndindex(data.shape[:-2]):
        for pdm in (PDM(ComplexMatrix(data[idx], factors), slots), PDM._trusted(data[idx], slots)):
            for (m, w), (own_m, own_w) in zip(marginals, pdm._marginals):
                assert m[idx].tobytes() == own_m.tobytes()
                assert w[idx].tobytes() == own_w.tobytes()


@st.composite
def derived_pdms(draw):
    """A closed-form PDM with 1- or 2-qubit slots and a reduction of it."""
    n = draw(st.integers(1, 2))
    d = 2**n
    rng = generator(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(d, rng, rank=draw(st.integers(1, d)), factors=(2,) * n)
    r = pdm_closed_form(rho, random_channel(d, rng, kraus_count=draw(st.integers(1, d * d))))
    slots = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2, unique=True))
    keep = [
        (s, tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))))
        for s in sorted(slots)
    ]
    return r, keep


@settings(max_examples=40, deadline=None)
@given(derived_pdms())
def test_derived_pdms_and_marginals_pass_the_public_validators(case):
    """reduce and time_reverse skip validation; their results must not need it."""
    r, keep = case
    reduced = reduce(r, keep)
    derived = [reduced, time_reverse(r)]
    if len(reduced.slots) == 2 and reduced.slots[0].qubits == reduced.slots[1].qubits:
        derived.append(time_reverse(reduced))
    for p in derived:
        checked = PDM(ComplexMatrix(p.mat.data, p.mat.factors), p.slots)
        for i in range(len(p.slots)):
            m = marginal_state(p, i)
            QuantumState(ComplexMatrix(m.mat.data, m.mat.factors))
            # time_reverse passes the swapped reductions through unchanged
            assert np.array_equal(m.mat.data, marginal_state(checked, i).mat.data)
