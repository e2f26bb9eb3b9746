import json

import numpy as np
import pytest

from pdmcausal.channels import (
    QuantumChannel,
    QuantumState,
    channel_from_json,
    measure_prepare_z,
    random_channel,
    random_pure_state,
    random_semicausal,
    random_state,
)
from pdmcausal.cli import main
from pdmcausal.linalg import ComplexMatrix, matrix_from_json, matrix_to_json
from pdmcausal.pdm import pdm_closed_form, pdm_from_json, pdm_to_json
from pdmcausal.rng import generator


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_build_and_negativity(tmp_path, capsys):
    out = tmp_path / "R.json"
    code, _, _ = run(
        ["pdm", "build", "--state", "plus", "--channel", "measure_prepare_z", "--out", str(out)],
        capsys,
    )
    assert code == 0
    code, text, _ = run(["pdm", "negativity", "--in", str(out)], capsys)
    assert code == 0
    assert json.loads(text)["f"] == pytest.approx(np.sqrt(2) - 1, abs=1e-12)


def test_negativity_of_density_matrix_is_zero(tmp_path, capsys):
    blob = matrix_to_json(
        ComplexMatrix(0.5 * np.diag([1.0, 0, 0, 1.0]), (2, 2))
    )
    blob["slots"] = [{"label": "t1", "qubits": 1}, {"label": "t2", "qubits": 1}]
    path = tmp_path / "sep.json"
    path.write_text(json.dumps(blob))
    code, text, _ = run(["pdm", "negativity", "--in", str(path)], capsys)
    assert code == 0
    assert abs(json.loads(text)["f"]) < 1e-12
    code, text, _ = run(["infer", "classify", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(text)["compatible"] == [3]


def test_slot_without_qubits_is_an_input_error(tmp_path, capsys):
    blob = matrix_to_json(ComplexMatrix(0.25 * np.eye(4), (2, 2)))
    blob["slots"] = [{"label": "t1", "qubits": 0}, {"label": "t2", "qubits": 2}]
    path = tmp_path / "empty-slot.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(["pdm", "negativity", "--in", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "t1 has 0 qubits" in err


def test_reverse_round_trip(tmp_path, capsys):
    first = tmp_path / "R.json"
    second = tmp_path / "Rbar.json"
    third = tmp_path / "Rback.json"
    run(["pdm", "build", "--state", "zero", "--channel", "identity", "--out", str(first)], capsys)
    assert run(["pdm", "reverse", "--in", str(first), "--out", str(second)], capsys)[0] == 0
    assert run(["pdm", "reverse", "--in", str(second), "--out", str(third)], capsys)[0] == 0
    a = json.loads(first.read_text())
    b = json.loads(third.read_text())
    assert a["re"] == b["re"] and a["im"] == b["im"]
    assert json.loads(second.read_text())["slots"][0]["label"] == "t2"


def test_build_methods_agree(tmp_path, capsys):
    closed = tmp_path / "closed.json"
    oracle = tmp_path / "oracle.json"
    base = ["pdm", "build", "--state", "mixed", "--channel", "partial_swap:0.4"]
    # a 1-qubit state cannot go through a 2-qubit channel
    code, _, err = run(base + ["--out", str(closed)], capsys)
    assert code == 1 and "dim" in err

    base = ["pdm", "build", "--state", "bell", "--channel", "partial_swap:0.4"]
    assert run(base + ["--out", str(closed)], capsys)[0] == 0
    assert run(base + ["--method", "measurements", "--out", str(oracle)], capsys)[0] == 0
    a = np.asarray(json.loads(closed.read_text())["re"])
    b = np.asarray(json.loads(oracle.read_text())["re"])
    assert np.abs(a - b).max() < 1e-10


def test_pdm_build_without_a_channel_prints_the_state_exactly(tmp_path, capsys):
    state = random_state(4, 12, factors=(2, 2))
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(matrix_to_json(state.mat)))
    code, text, _ = run(["pdm", "build", "--state", str(path)], capsys)
    assert code == 0
    built = pdm_from_json(json.loads(text))
    assert len(built.slots) == 1
    assert np.array_equal(built.mat.data, state.mat.data)


def test_classify_verdict(tmp_path, capsys):
    out = tmp_path / "R.json"
    run(["pdm", "build", "--state", "plus", "--channel", "measure_prepare_z", "--out", str(out)], capsys)
    code, text, _ = run(["infer", "classify", "--in", str(out)], capsys)
    assert code == 0
    verdict = json.loads(text)
    assert verdict["compatible"] == [1]
    assert verdict["compatible_reversed"] == [2]


def test_classify_tiny_eps_pos_keeps_the_generating_cause(tmp_path, capsys):
    # rank-1 first state through a semicausal channel: the forward family is
    # decided CP in closed form, however small --eps-pos is
    rng = generator(32)
    r = pdm_closed_form(
        random_state(4, rng, rank=1, factors=(2, 2)), random_semicausal(2, 2, 2, rng)
    )
    path = tmp_path / "R.json"
    path.write_text(json.dumps(pdm_to_json(r)))
    code, text, err = run(["infer", "classify", "--in", str(path), "--eps-pos", "1e-12"], capsys)
    assert code == 0, err
    verdict = json.loads(text)
    assert verdict["compatible"] == [1]
    assert (verdict["route_forward"], verdict["route_reverse"]) == ("certified_cp", "certified_not_cp")
    assert verdict["thresholds"]["eps_pos"] == 1e-12


def test_classify_rank_tol_flag(tmp_path, capsys):
    rho = QuantumState.of(np.diag([0.999, 0.001]))
    path = tmp_path / "R.json"
    path.write_text(json.dumps(pdm_to_json(pdm_closed_form(rho, measure_prepare_z()))))
    code, text, _ = run(["infer", "classify", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(text)["unique_forward"] is True
    code, text, _ = run(["infer", "classify", "--in", str(path), "--rank-tol", "1e-2"], capsys)
    assert code == 0
    verdict = json.loads(text)
    assert verdict["unique_forward"] is False
    assert verdict["thresholds"]["rank_tol"] == 1e-2


def test_classify_rank_tol_under_the_pinv_cut_exits_2(tmp_path, capsys):
    # a pure qubit's marginal eigenvalue of about 1e-17 lies above rank_tol 0
    # but under the pinv cut, so no solved member is trace preserving
    r = pdm_closed_form(random_pure_state(2, 0), random_channel(2, 1000))
    path = tmp_path / "R.json"
    path.write_text(json.dumps(pdm_to_json(r)))
    code, out, err = run(["infer", "classify", "--in", str(path), "--rank-tol", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("numerical inconsistency: no trace-preserving member (floor")
    assert "rank_tol 0)" in err
    assert run(["infer", "classify", "--in", str(path)], capsys)[0] == 0


@pytest.mark.parametrize(
    "flag", [["--rank-tol", "nan"], ["--rank-tol", "-1"], ["--eps-pos", "nan"], ["--eps-neg", "inf"]]
)
def test_classify_rejects_bad_thresholds(tmp_path, capsys, flag):
    path = tmp_path / "R.json"
    run(["pdm", "build", "--state", "plus", "--channel", "measure_prepare_z", "--out", str(path)], capsys)
    code, text, err = run(["infer", "classify", "--in", str(path)] + flag, capsys)
    assert code == 1
    assert text == ""
    assert "threshold" in err


def test_classify_accepts_slightly_negative_marginal(tmp_path, capsys):
    rho = np.kron(np.diag([1 + 5e-10, -5e-10]), np.eye(2))
    m = QuantumChannel.identity(2).choi.data
    blob = matrix_to_json(ComplexMatrix(0.5 * (m @ rho + rho @ m), (2, 2)))
    blob["slots"] = [{"label": "t1", "qubits": 1}, {"label": "t2", "qubits": 1}]
    path = tmp_path / "R.json"
    path.write_text(json.dumps(blob))
    code, text, err = run(["infer", "classify", "--in", str(path)], capsys)
    assert code == 0, err
    assert json.loads(text)["compatible"] == [1, 2]


def test_reproduce_measure_prepare(capsys):
    code, text, _ = run(["reproduce", "measure-prepare", "--lambda", "0.5"], capsys)
    assert code == 0
    rows = json.loads(text)
    assert [r["lambda"] for r in rows] == [0.5]
    assert rows[0]["verdict"] == "1"


def test_reproduce_csv_format(capsys):
    code, text, _ = run(
        ["reproduce", "swap-influence", "--theta", "0", "--theta", "60", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "theta_deg,f,abs_cos,deviation"
    assert len(lines) == 3


def test_sweep_haar_csv(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    args = ["sweep", "haar", "--scenario", "fig3", "--n", "4", "--seed", "7", "--out", str(out)]
    code, text, _ = run(args, capsys)
    assert code == 0
    summary = json.loads(text)
    assert summary["scenario"] == "fig3" and summary["n"] == 4
    first = out.read_text()
    assert len(first.strip().splitlines()) == 9  # header + 2 inputs x 4 samples
    run(args, capsys)
    assert out.read_text() == first  # bit-identical rerun


@pytest.mark.parametrize(
    ("theta_args", "angles"),
    [([], {"30.0", "60.0"}), (["--theta", "45"], {"45.0"})],
    ids=["default", "explicit"],
)
def test_sweep_haar_angles_print_as_floats(theta_args, angles, capsys):
    args = ["sweep", "haar", "--scenario", "fig4", "--n", "2", "--seed", "3"]
    code, text, err = run(args + theta_args, capsys)
    assert code == 0
    assert {line.split(",")[1] for line in text.splitlines()[1:]} == angles
    assert set(json.loads(err)["fraction_negative"]) == angles


def test_sweep_haar_rejects_a_repeated_angle(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    args = ["sweep", "haar", "--scenario", "fig4", "--n", "3", "--seed", "1"]
    code, text, err = run(args + ["--theta", "30", "--theta", "30", "--out", str(out)], capsys)
    assert code == 1 and text == ""
    assert err.startswith("error: ") and "distinct" in err
    assert not out.exists()


def test_sweep_haar_rejects_a_seed_outside_the_philox_key_range(capsys):
    for seed in ("-1", str(2**128)):
        args = ["sweep", "haar", "--scenario", "fig3", "--n", "2", "--seed", seed]
        code, text, err = run(args, capsys)
        assert code == 1 and text == ""
        assert err.startswith("error: ") and f"seed {seed} outside [0, 2**128)" in err
    args = ["sweep", "haar", "--scenario", "fig3", "--n", "1", "--seed", str(2**128 - 1)]
    code, text, _ = run(args, capsys)
    assert code == 0 and text.count("\n") == 3


def test_sweep_haar_needs_a_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "haar", "--scenario", "fig3", "--n", "2"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("scenario", "count"),
    [("measure-prepare", 9), ("common-cause-mixture", 17), ("swap-influence", 19)],
)
def test_reproduce_default_grids(scenario, count, capsys):
    code, text, _ = run(["reproduce", scenario], capsys)
    assert code == 0
    assert len(json.loads(text)) == count


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "swap-influence", "--lambda", "0.5"],
        ["reproduce", "common-cause-mixture", "--lambda", "0.5"],
        ["reproduce", "measure-prepare", "--theta", "30"],
        ["sweep", "haar", "--scenario", "fig3", "--n", "2", "--seed", "1", "--theta", "15"],
    ],
    ids=["swap-influence-lambda", "common-cause-mixture-lambda", "measure-prepare-theta",
         "fig3-theta"],
)
def test_grid_flag_the_scenario_ignores_is_an_input_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and ("--theta" in err or "--lambda" in err)


@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "haar", "--scenario", "fig4", "--n", "2", "--seed", "1", "--theta={}"],
        ["reproduce", "swap-influence", "--theta={}"],
    ],
    ids=["sweep-fig4", "swap-influence"],
)
def test_a_partial_swap_angle_that_is_not_finite_is_an_input_error(argv, angle, capsys):
    # rejected before np.cos warns, which the suite's filterwarnings turns
    # into an error
    code, out, err = run([a.format(angle) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: partial_swap angle must be finite")


@pytest.mark.parametrize(
    "angle, message",
    [("inf", "partial_swap angle must be finite"), ("abc", "bad partial_swap angle")],
)
def test_pdm_build_reports_a_bad_partial_swap_angle(angle, message, capsys):
    # a channel id with a bad angle is reported as such, not retried as a path
    argv = ["pdm", "build", "--state", "bell", "--channel", f"partial_swap:{angle}"]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and "cannot read JSON" not in err


def test_pdm_build_loads_a_channel_json_file(tmp_path, capsys):
    path = tmp_path / "swap.json"
    swap = matrix_to_json(ComplexMatrix(np.eye(4)[[0, 2, 1, 3]], (2, 2)))
    path.write_text(json.dumps({"rep": "unitary", "dim_in": 4, "dim_out": 4, "matrices": [swap]}))
    code, from_file, err = run(["pdm", "build", "--state", "bell", "--channel", str(path)], capsys)
    assert code == 0 and err == ""
    assert from_file == run(["pdm", "build", "--state", "bell", "--channel", "swap"], capsys)[1]


CHOI_OF_MEASURE_PREPARE = matrix_to_json(ComplexMatrix(np.diag([1.0, 0, 0, 1.0])))
# the transpose map: trace preserving and Hermitian, but its input transpose
# is the swap, with eigenvalue -1
OMEGA = np.array([1.0, 0, 0, 1])
CHOI_OF_TRANSPOSE = matrix_to_json(ComplexMatrix(np.outer(OMEGA, OMEGA), (2, 2)))


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"rep": "choi", "dim_out": 2, "matrices": [CHOI_OF_MEASURE_PREPARE]},
         "malformed channel JSON"),
        ({"rep": "unitary", "dim_in": 2, "dim_out": 2, "matrices": []}, "malformed channel JSON"),
        ({"rep": "choi", "dim_in": 2, "dim_out": 2, "matrices": []}, "malformed channel JSON"),
        ({"rep": "choi", "matrices": [CHOI_OF_TRANSPOSE]}, "not completely positive"),
    ],
    ids=["choi-without-dim-in", "unitary-no-matrices", "choi-no-matrices", "choi-not-cp"],
)
def test_malformed_channel_json_is_an_input_error(tmp_path, capsys, blob, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(blob))
    for method in ("closed", "measurements"):
        code, out, err = run(
            ["pdm", "build", "--state", "zero", "--channel", str(path), "--method", method],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


CHOI_OF_MEASURE_PREPARE_SPLIT = matrix_to_json(ComplexMatrix(np.diag([1.0, 0, 0, 1.0]), (2, 2)))
I2 = matrix_to_json(ComplexMatrix(np.eye(2)))
X = matrix_to_json(ComplexMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))


@pytest.mark.parametrize(
    "blob",
    [
        {"rep": "unitary", "dim_in": 4, "dim_out": 4, "matrices": [I2, X]},
        {"rep": "unitary", "dim_in": 2, "dim_out": 2, "matrices": [I2, X]},
        {"rep": "unitary", "dim_in": 4, "dim_out": 4, "matrices": [X]},
        {"rep": "kraus", "dim_in": 4, "dim_out": 4, "matrices": [I2]},
        {"rep": "kraus", "dim_in": 2, "dim_out": 3, "matrices": [I2]},
        {"rep": "choi", "dim_in": 1, "dim_out": 4, "matrices": [CHOI_OF_MEASURE_PREPARE_SPLIT]},
        {"rep": "choi", "dim_in": 2, "dim_out": 2, "matrices": [CHOI_OF_MEASURE_PREPARE] * 2},
        {"rep": "kraus", "dim_in": "two", "matrices": [I2]},
    ],
    ids=[
        "unitary-dims-and-extra-matrix",
        "unitary-extra-matrix",
        "unitary-dims",
        "kraus-dims",
        "kraus-dim-out",
        "choi-split",
        "choi-extra-matrix",
        "dim-not-an-integer",
    ],
)
def test_channel_json_must_agree_with_its_declared_shape(tmp_path, capsys, blob):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(["pdm", "build", "--state", "zero", "--channel", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "malformed channel JSON" in err


def _pdm_blob_with_qubits(value):
    blob = pdm_to_json(pdm_closed_form(QuantumState.from_ket([1, 0]), measure_prepare_z()))
    blob["slots"][0]["qubits"] = value
    return pdm_from_json, blob


def _matrix_blob_with_factor(value):
    blob = matrix_to_json(ComplexMatrix(np.eye(4) / 4, (2, 2)))
    blob["factors"][0] = value
    return matrix_from_json, blob


def _channel_blob_with_dim(key):
    def make(value):
        blob = {"rep": "kraus", "dim_in": 2, "dim_out": 2, "matrices": [I2]}
        blob[key] = value
        return channel_from_json, blob

    return make


@pytest.mark.parametrize("value", [1.9, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize(
    "make",
    [
        _pdm_blob_with_qubits,
        _matrix_blob_with_factor,
        _channel_blob_with_dim("dim_in"),
        _channel_blob_with_dim("dim_out"),
    ],
    ids=["pdm-qubits", "matrix-factor", "channel-dim-in", "channel-dim-out"],
)
def test_json_loaders_reject_a_count_that_is_not_an_int(make, value):
    loader, blob = make(value)
    with pytest.raises(ValueError, match="is not an integer"):
        loader(blob)


def test_pdm_file_with_a_fractional_slot_is_an_input_error(tmp_path, capsys):
    _, blob = _pdm_blob_with_qubits(1.9)
    path = tmp_path / "R.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(["infer", "classify", "--in", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "slot qubits 1.9 is not an integer" in err


SENTINEL = "__non_finite__"


def _pdm_file_with():
    blob = pdm_to_json(pdm_closed_form(QuantumState.from_ket([1, 0]), measure_prepare_z()))
    blob["im"][1][2] = SENTINEL
    return ["infer", "classify", "--in", "{}"], blob, "im[1][2]"


def _state_file_with():
    blob = matrix_to_json(ComplexMatrix(np.eye(2) / 2))
    blob["re"][0][1] = SENTINEL
    return ["pdm", "build", "--state", "{}", "--channel", "swap"], blob, "re[0][1]"


def _channel_file_with():
    x = matrix_to_json(ComplexMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    x["re"][1][0] = SENTINEL
    blob = {"rep": "kraus", "dim_in": 2, "dim_out": 2, "matrices": [x]}
    return ["pdm", "build", "--state", "zero", "--channel", "{}"], blob, "re[1][0]"


@pytest.mark.parametrize(
    "literal, value",
    [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e309", "inf")],
)
@pytest.mark.parametrize(
    "make", [_pdm_file_with, _state_file_with, _channel_file_with], ids=["pdm", "state", "channel"]
)
def test_a_matrix_file_with_a_non_finite_entry_is_an_input_error(
    tmp_path, capsys, make, literal, value
):
    # json.load reads NaN and Infinity, and 1e309 overflows to inf; the matrix
    # reader names the entry instead of a later "not Hermitian" check
    argv, blob, entry = make()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(blob).replace(f'"{SENTINEL}"', literal))
    code, out, err = run([a.format(path) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: matrix JSON entry {entry} is not finite: {value}")


@pytest.mark.parametrize(
    "literal, value",
    [('"0.5"', "'0.5'"), ("false", "False"), ("true", "True"), ("null", "None")],
)
@pytest.mark.parametrize(
    "make", [_pdm_file_with, _state_file_with, _channel_file_with], ids=["pdm", "state", "channel"]
)
def test_a_matrix_file_with_an_entry_that_is_not_a_number_is_an_input_error(
    tmp_path, capsys, make, literal, value
):
    # numpy would read "0.5" as 0.5, false as 0 and null as nan
    argv, blob, entry = make()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(blob).replace(f'"{SENTINEL}"', literal))
    code, out, err = run([a.format(path) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: matrix JSON entry {entry} is not a number: {value}")


def test_build_method_iterative_is_a_usage_error(capsys):
    # closed is the anticommutator construction; iterative was a second name for it
    with pytest.raises(SystemExit) as exc:
        main(["pdm", "build", "--state", "plus", "--method", "iterative"])
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert "invalid choice: 'iterative'" in err


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
    capsys.readouterr()

    code, _, err = run(["pdm", "negativity", "--in", str(tmp_path / "missing.json")], capsys)
    assert code == 1 and "error" in err

    # valid PDM that no Choi matrix reproduces -> numerical inconsistency
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    data = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2) + 0.01 * np.kron(
        np.diag([0.0, 1.0]), sigma_x
    )
    blob = matrix_to_json(ComplexMatrix(data, (2, 2)))
    blob["slots"] = [{"label": "t1", "qubits": 1}, {"label": "t2", "qubits": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, _, err = run(["infer", "classify", "--in", str(path)], capsys)
    assert code == 2 and "inconsistency" in err
