import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmcausal.channels import (
    QuantumChannel,
    QuantumState,
    _check_states,
    _check_trace_preserving,
    _check_unitary,
    _ginibre,
    _haar_unitaries,
    _kraus_to_choi,
    _semicausal_assembly,
    channel_from_id,
    channel_from_json,
    haar_unitary,
    input_transpose,
    measure_prepare_z,
    partial_swap,
    random_channel,
    random_semicausal,
    random_state,
    semicausal,
    swap_channel,
)
from pdmcausal.linalg import ComplexMatrix, max_abs_diff, partial_trace, swap_operator
from pdmcausal.pauli import SIGMA
from pdmcausal.rng import generator, sample_stream

from oracles import CpCheck, apply, channel_to_json, choi_pauli_form, effective_channel, is_cp


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState.of(np.array([[1, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState.of(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        QuantumState.of(np.diag([1.5, -0.5]))  # negative eigenvalue
    s = QuantumState.from_ket([3, 4])
    assert abs(s.mat.data[0, 0] - 9 / 25) < 1e-15


def test_apply_identity_and_measure_prepare():
    rho = random_state(2, 11)
    assert max_abs_diff(apply(QuantumChannel.identity(2), rho).mat.data, rho.mat.data) == 0
    out = apply(measure_prepare_z(), rho).mat.data
    expected = np.diag([rho.mat.data[0, 0], rho.mat.data[1, 1]])
    assert max_abs_diff(out, expected) < 1e-14


def test_partial_swap_fixes_aligned_product():
    # S|00> = |00>, so the rotation acts as a pure phase there
    ch = partial_swap(0.7)
    state = QuantumState.from_ket([1, 0, 0, 0], (2, 2))
    assert max_abs_diff(apply(ch, state).mat.data, state.mat.data) < 1e-14


def test_choi_identity_is_swap():
    assert max_abs_diff(QuantumChannel.identity(2).choi.data, swap_operator(2).data) == 0


def test_choi_measure_prepare():
    m = measure_prepare_z().choi
    expected = 0.5 * (np.kron(SIGMA[0], SIGMA[0]) + np.kron(SIGMA[3], SIGMA[3]))
    assert max_abs_diff(m.data, expected) == 0


def test_choi_depolarizing():
    ch = QuantumChannel.from_kraus([s / 2 for s in SIGMA])
    m = ch.choi
    assert max_abs_diff(m.data, np.eye(4) / 2) < 1e-14
    assert max_abs_diff(partial_trace(m, {0}).data, np.eye(2)) < 1e-14


def test_choi_pauli_form_agreement():
    for seed in range(5):
        ch = random_channel(4, seed)
        assert max_abs_diff(ch.choi.data, choi_pauli_form(ch).data) < 1e-10


def test_choi_trace_preservation_random():
    for seed in range(5):
        ch = random_channel(2, 100 + seed)
        tr_out = partial_trace(ch.choi, {0}).data
        assert max_abs_diff(tr_out, np.eye(2)) < 1e-9


def test_representations_agree():
    rng = generator(42)
    for dim in (2, 4):
        for _ in range(5):
            ch = random_channel(dim, rng)
            rho = random_state(dim, rng)
            via_kraus = apply(ch, rho).mat.data
            back = QuantumChannel.from_choi(ch.choi)
            via_choi = apply(back, rho).mat.data
            assert max_abs_diff(via_kraus, via_choi) < 1e-10
    u = haar_unitary(4, rng)
    ch = QuantumChannel.from_unitary(u.data)
    rho = random_state(4, rng)
    direct = u.data @ rho.mat.data @ u.data.conj().T
    assert max_abs_diff(apply(ch, rho).mat.data, direct) < 1e-12


def test_input_transpose():
    s = ComplexMatrix(swap_operator(2).data, (2, 2))
    st = input_transpose(s)
    w = np.linalg.eigvalsh(st.data)
    assert np.allclose(sorted(w), [0, 0, 0, 2], atol=1e-12)
    assert max_abs_diff(input_transpose(st).data, s.data) == 0
    sym = ComplexMatrix(np.kron(SIGMA[1], SIGMA[2]), (2, 2))  # sigma_x symmetric
    assert max_abs_diff(input_transpose(sym).data, sym.data) == 0
    mp = measure_prepare_z().choi
    assert max_abs_diff(input_transpose(mp).data, mp.data) == 0
    with pytest.raises(ValueError):
        input_transpose(ComplexMatrix(np.eye(4)))


def test_is_cp():
    assert is_cp(QuantumChannel.identity(2).choi) == CpCheck(True, pytest.approx(0.0, abs=1e-12))
    assert is_cp(measure_prepare_z().choi).ok
    lam = 0.5
    reverse = 0.5 * np.kron(np.array([[2, lam], [lam, 0]]), np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.array([[0, lam], [lam, 2]]), np.diag([0.0, 1.0])
    )
    check = is_cp(ComplexMatrix(reverse, (2, 2)))
    assert not check.ok
    assert check.min_eig == pytest.approx((1 - np.sqrt(1 + lam**2)) / 2, abs=1e-12)


def test_unitary_channels_always_cp():
    for seed in range(5):
        u = haar_unitary(4, seed)
        assert is_cp(QuantumChannel.from_unitary(u.data).choi).ok


def test_semicausal_replaces_first_party():
    # caching swap + identity: the first party's output is the ancilla state
    ancilla = random_state(2, 5)
    ch = semicausal(swap_channel(2), QuantumChannel.identity(4), ancilla)
    rng = generator(6)
    for _ in range(3):
        rho = random_state(4, rng, factors=(2, 2))
        out = apply(ch, rho)
        out_a = partial_trace(ComplexMatrix(out.mat.data, (2, 2)), {0}).data
        assert max_abs_diff(out_a, ancilla.mat.data) < 1e-10


def test_semicausal_no_signalling_marginal():
    # the first party's output marginal must depend only on its own input:
    # a correlated state and a product state with the same first marginal
    # (and fresh second parties) give identical reduced outputs
    rng = generator(77)
    for _ in range(5):
        ch = random_semicausal(2, 2, 2, rng)
        correlated = random_state(4, rng, factors=(2, 2))
        rho_a = partial_trace(correlated.mat, {0}).data
        out_corr = apply(ch, correlated)
        marginals = [partial_trace(ComplexMatrix(out_corr.mat.data, (2, 2)), {0}).data]
        for _ in range(2):
            rho_b = random_state(2, rng)
            joint = QuantumState.of(np.kron(rho_a, rho_b.mat.data), (2, 2))
            out = apply(ch, joint)
            marginals.append(partial_trace(ComplexMatrix(out.mat.data, (2, 2)), {0}).data)
        assert max_abs_diff(marginals[0], marginals[1]) < 1e-9
        assert max_abs_diff(marginals[1], marginals[2]) < 1e-9


def test_measure_prepare_as_semicausal():
    # copy the basis value into the ancilla, swap it into the second party
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    )
    ch = semicausal(
        QuantumChannel.from_unitary(cnot),
        swap_channel(2),
        QuantumState.from_ket([1, 0]),
    )
    eff = effective_channel(ch, (2, 2), pin=1, pin_state=QuantumState.from_ket([1, 0]), keep=1)
    assert max_abs_diff(eff.choi.data, measure_prepare_z().choi.data) < 1e-10


def test_partial_swap_unitary_and_kraus_pair():
    assert max_abs_diff(partial_swap(0.0).kraus_operators[0], np.eye(4)) == 0
    assert max_abs_diff(partial_swap(np.pi / 2).kraus_operators[0], 1j * swap_operator(2).data) < 1e-15
    theta = 0.6
    expm = scipy.linalg.expm(1j * theta * swap_operator(2).data)
    assert max_abs_diff(partial_swap(theta).kraus_operators[0], expm) < 1e-12
    # induced channel on the first qubit with the second fixed to |0>
    c, s = np.cos(theta), np.sin(theta)
    k1 = c * np.eye(2) + 1j * s * np.diag([1.0, 0.0])
    k2 = 1j * s * np.array([[0, 1], [0, 0]])
    pair = QuantumChannel.from_kraus([k1, k2])
    eff = effective_channel(
        partial_swap(theta), (2, 2), pin=1, pin_state=QuantumState.from_ket([1, 0]), keep=0
    )
    assert max_abs_diff(eff.choi.data, pair.choi.data) < 1e-12


def test_haar_unitary_contracts():
    u1 = haar_unitary(4, 123)
    u2 = haar_unitary(4, 123)
    assert max_abs_diff(u1.data, u2.data) == 0
    assert max_abs_diff(u1.data.conj().T @ u1.data, np.eye(4)) < 1e-12
    scalar = haar_unitary(1, 5)
    assert abs(abs(scalar.data[0, 0]) - 1) < 1e-14


def test_haar_first_moment_and_left_invariance():
    rng = generator(2024)
    n = 10_000
    samples = np.empty(n)
    fixed = haar_unitary(4, 999).data
    rotated = np.empty(n)
    for i in range(n):
        u = haar_unitary(4, rng).data
        samples[i] = abs(u[0, 0]) ** 2
        rotated[i] = abs((fixed @ u)[0, 0]) ** 2
    # E|U_00|^2 = 1/d; Var of Beta(1, d-1) gives the 3-sigma band
    sigma = np.sqrt((3 / (16 * 5)) / n)
    assert abs(samples.mean() - 0.25) < 3 * sigma
    assert abs(rotated.mean() - 0.25) < 3 * sigma


def test_random_channel_is_tp():
    ch = random_channel(2, 31)
    total = sum(k.conj().T @ k for k in ch.kraus_operators)
    assert max_abs_diff(total, np.eye(2)) < 1e-12


def test_named_channels_and_json():
    for name in ("identity", "measure_prepare_z", "swap", "partial_swap:0.5"):
        ch = channel_from_id(name)
        back = channel_from_json(channel_to_json(ch))
        rho = random_state(ch.dim_in, 1, factors=None)
        assert max_abs_diff(apply(ch, rho).mat.data, apply(back, rho).mat.data) < 1e-12
    with pytest.raises(ValueError):
        channel_from_id("nope")
    with pytest.raises(ValueError):
        channel_from_id("partial_swap:abc")
    # choi-rep serialization keeps the factor split
    ch = QuantumChannel.from_choi(measure_prepare_z().choi)
    back = channel_from_json(channel_to_json(ch))
    assert back.rep == "choi" and back.dim_in == 2 and back.dim_out == 2


@pytest.mark.parametrize("angle", ["inf", "-inf"])
def test_partial_swap_rejects_an_infinite_angle(angle):
    # before np.cos, which warns on it; test_channel_checks_reject_nan has nan
    with pytest.raises(ValueError, match=f"partial_swap angle must be finite, got {angle}"):
        channel_from_id(f"partial_swap:{angle}")


def test_kraus_completeness_rejected():
    with pytest.raises(ValueError):
        QuantumChannel.from_kraus([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        QuantumChannel.from_unitary(np.ones((2, 2)))


def test_channel_checks_reject_nan():
    """A NaN entry fails the unitarity and trace-preservation checks rather
    than passing them and surfacing later as a non-Hermitian PDM."""
    nan = np.full((2, 2), np.nan)
    with pytest.raises(ValueError, match="not unitary"):
        QuantumChannel.from_unitary(nan)
    with pytest.raises(ValueError, match="partial_swap angle must be finite"):
        channel_from_id("partial_swap:nan")
    with pytest.raises(ValueError, match="not trace preserving"):
        QuantumChannel.from_kraus([nan])
    obj = channel_to_json(QuantumChannel.from_kraus([SIGMA[1] / np.sqrt(2), SIGMA[3] / np.sqrt(2)]))
    obj["matrices"][1]["im"][0][1] = float("nan")
    with pytest.raises(ValueError, match="not trace preserving"):
        channel_from_json(json.loads(json.dumps(obj)))
    choi = ComplexMatrix(np.where(np.eye(4) > 0, np.nan, measure_prepare_z().choi.data), (2, 2))
    with pytest.raises(ValueError, match="not trace preserving"):
        QuantumChannel.from_choi(choi)
    unitaries = _haar_unitaries(np.stack([_ginibre(2, generator(i)) for i in range(3)]))
    unitaries[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        _check_unitary(unitaries)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_stacked_haar_and_semicausal_equal_the_per_sample_path(seed, count):
    """A chunk's Haar draws and semicausal Choi matrices, built as stacks,
    equal ``haar_unitary`` and ``semicausal(...).choi`` bit for bit."""
    ancilla = QuantumState.from_ket([1, 0])
    cache_first = swap_channel(2)
    unitaries = _haar_unitaries(
        np.stack([_ginibre(4, sample_stream(seed, i)) for i in range(count)])
    )
    kraus = _semicausal_assembly(cache_first, ancilla, 4)(unitaries[:, None])
    chois = _kraus_to_choi(kraus, 4, 4)
    for i in range(count):
        u = haar_unitary(4, sample_stream(seed, i))
        choi = semicausal(cache_first, QuantumChannel.from_unitary(u.data), ancilla).choi
        assert unitaries[i].tobytes() == u.data.tobytes()
        assert chois[i].tobytes() == choi.data.tobytes()


def test_stack_checks_reject_one_bad_member():
    rng = generator(8)
    unitaries = _haar_unitaries(np.stack([_ginibre(4, rng) for _ in range(5)]))
    _check_unitary(unitaries)
    unitaries[3] *= 1.001
    with pytest.raises(ValueError, match="not unitary"):
        _check_unitary(unitaries)

    kraus = np.stack([np.stack(random_channel(2, rng).kraus_operators) for _ in range(5)])
    _check_trace_preserving(kraus)
    kraus[2, 1] *= 1.001
    with pytest.raises(ValueError, match="not trace preserving"):
        _check_trace_preserving(kraus)

    states = np.stack([random_state(4, rng).mat.data for _ in range(5)])
    _check_states(states)
    bad = states.copy()
    bad[4, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        _check_states(bad)
    bad = states.copy()
    bad[1] *= 1.001
    with pytest.raises(ValueError, match="trace"):
        _check_states(bad)
    bad = states.copy()
    bad[2] = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative eigenvalue -1.000e-01"):
        _check_states(bad)
