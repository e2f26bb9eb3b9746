import json

import numpy as np
import pytest

from pdmcausal.channels import QuantumChannel, QuantumState, choi_of, measure_prepare_z
from pdmcausal.cli import main
from pdmcausal.linalg import ComplexMatrix, matrix_to_json
from pdmcausal.pdm import pdm_closed_form, pdm_to_json


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


def test_classify_verdict(tmp_path, capsys):
    out = tmp_path / "R.json"
    run(["pdm", "build", "--state", "plus", "--channel", "measure_prepare_z", "--out", str(out)], capsys)
    code, text, _ = run(["infer", "classify", "--in", str(out)], capsys)
    assert code == 0
    verdict = json.loads(text)
    assert verdict["compatible"] == [1]
    assert verdict["compatible_reversed"] == [2]


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
    m = choi_of(QuantumChannel.identity(2)).data
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


CHOI_OF_MEASURE_PREPARE = matrix_to_json(ComplexMatrix(np.diag([1.0, 0, 0, 1.0])))


@pytest.mark.parametrize(
    "blob",
    [
        {"rep": "choi", "dim_out": 2, "matrices": [CHOI_OF_MEASURE_PREPARE]},
        {"rep": "unitary", "dim_in": 2, "dim_out": 2, "matrices": []},
        {"rep": "choi", "dim_in": 2, "dim_out": 2, "matrices": []},
    ],
    ids=["choi-without-dim-in", "unitary-no-matrices", "choi-no-matrices"],
)
def test_malformed_channel_json_is_an_input_error(tmp_path, capsys, blob):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(["pdm", "build", "--state", "zero", "--channel", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "malformed channel JSON" in err
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
