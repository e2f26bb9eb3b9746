import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from pdmcausal import harness
from pdmcausal.channels import QuantumChannel, QuantumState, measure_prepare_z
from pdmcausal.inference import classify
from pdmcausal.linalg import NumericalInconsistencyError, max_abs_diff
from pdmcausal.pdm import pdm_closed_form

from oracles import reference_sweep_rows


def test_measure_prepare_rows():
    rows = harness.run_measure_prepare()
    assert len(rows) == 9
    for row in rows:
        assert row["verdict"] == "1"
        assert row["min_eig_forward"] >= -1e-8
        assert row["min_eig_reverse"] < -1e-8
        expected = math.sqrt(1 + row["lambda"] ** 2) - 1
        assert abs(row["f"] - expected) <= 1e-10


def test_measure_prepare_rejects_bad_weight():
    with pytest.raises(ValueError):
        harness.run_measure_prepare([0.0])


def test_common_cause_mixture_rows():
    rows = harness.run_common_cause_mixture([30, 45, 60])
    assert [r["verdict"] for r in rows] == ["4+5"] * 3
    for row in rows:
        theta = math.radians(row["theta_deg"])
        assert abs(row["f"] - math.sin(theta) ** 2) < 1e-10
        assert abs(row["min_eig_forward"] + math.cos(theta) ** 2) < 1e-10
        assert abs(row["min_eig_reverse"] + math.cos(theta) ** 2) < 1e-10


@pytest.mark.parametrize(
    "deg, verdict",
    [(0, "3"), (1e-7, "3"), (180, "3"), (90 - 1e-7, "1+2"), (90, "1+2"), (-90, "1+2"),
     (270, "1+2"), (45, "4+5")],
)
def test_common_cause_mixture_checks_the_closed_form_verdict_at_every_angle(deg, verdict):
    # sin^2 <= eps_neg leaves only the Bell pair's correlation; cos^2 <= eps_pos
    # is a full swap, an identity channel on the maximally mixed input
    (row,) = harness.run_common_cause_mixture([deg])
    assert row["verdict"] == verdict


def test_mixture_pdm_matches_closed_form_on_grid():
    for deg in range(5, 90, 10):
        theta = math.radians(deg)
        r = harness.mixture_pdm(theta)
        assert max_abs_diff(r.mat.data, harness.expected_mixture_matrix(theta)) <= 1e-10


def test_swap_influence_rows():
    rows = harness.run_swap_influence()
    assert len(rows) == len(harness.DEFAULT_THETAS_DEG)
    by_theta = {r["theta_deg"]: r for r in rows}
    assert abs(by_theta[0]["f"] - 1.0) < 1e-12
    assert abs(by_theta[90]["f"]) < 1e-9
    assert abs(by_theta[60]["f"] - 0.5) < 1e-12
    assert all(abs(r["deviation"]) <= 1e-9 for r in rows)


def test_haar_sweep_fig3_shape_and_determinism():
    rows1, summary1 = harness.run_haar_sweep("fig3", n=12, seed=99)
    rows2, summary2 = harness.run_haar_sweep("fig3", n=12, seed=99)
    assert rows1 == rows2
    assert summary1 == summary2
    assert len(rows1) == 24
    assert {r["input_id"] for r in rows1} == {"zero_zero", "bell"}
    assert list(rows1[0]) == ["sample_id", "input_id", "f", "min_eig_fwd", "min_eig_rev"]
    rows3, _ = harness.run_haar_sweep("fig3", n=12, seed=100)
    assert rows3 != rows1


def test_haar_sweep_fig4_groups():
    rows, summary = harness.run_haar_sweep("fig4", n=10, seed=5, thetas_deg=(30, 60))
    assert len(rows) == 20
    assert set(summary["fraction_negative"]) == {"30", "60"}
    with pytest.raises(ValueError):
        harness.run_haar_sweep("fig5", n=2, seed=1)
    with pytest.raises(ValueError):
        harness.run_haar_sweep("fig3", n=0, seed=1)


def test_csv_output_deterministic():
    rows, _ = harness.run_haar_sweep("fig3", n=6, seed=11)
    text1 = harness.write_rows(rows, "csv")
    text2 = harness.write_rows(rows, "csv")
    assert text1 == text2
    assert text1.splitlines()[0] == "sample_id,input_id,f,min_eig_fwd,min_eig_rev"


def test_json_output():
    rows = harness.run_swap_influence([0, 45])
    text = harness.write_rows(rows, "json")
    assert text.startswith("[") and text.endswith("\n")


def test_self_check_failure_raises(monkeypatch):
    # the identity channel lets either time slot cause the other, so the
    # measure-and-prepare example's verdict check must fail
    monkeypatch.setattr(harness, "measure_prepare_z", QuantumChannel.identity)
    with pytest.raises(NumericalInconsistencyError, match="measure-prepare verdict"):
        harness.run_measure_prepare([0.5])


@pytest.mark.parametrize(
    "run, build",
    [
        (
            harness.run_measure_prepare,
            lambda lam: pdm_closed_form(
                QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * np.full((2, 2), 0.5)),
                measure_prepare_z(),
            ),
        ),
        (harness.run_common_cause_mixture, lambda deg: harness.mixture_pdm(deg * harness.DEG)),
    ],
    ids=["measure-prepare", "common-cause-mixture"],
)
def test_worked_example_rows_carry_the_default_verdict(run, build):
    # each default-grid row is classify's evidence on the same PDM at the
    # default thresholds, bit for bit
    for row in run():
        key, value = next(iter(row.items()))
        verdict = classify(build(value))
        assert list(row) == [key, "f", "min_eig_forward", "min_eig_reverse", "verdict"]
        for name in ("f", "min_eig_forward", "min_eig_reverse"):
            assert row[name].hex() == getattr(verdict, name).hex(), (key, value, name)
        assert row["verdict"] == "+".join(str(int(c)) for c in sorted(verdict.compatible))


CHUNK = harness.SWEEP_CHUNK


# n = 1 and 7 fit in one chunk; the others end just short of, at and just past
# a chunk boundary, and two chunks in
@pytest.mark.parametrize("n", [1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("scenario", ["fig3", "fig4"])
def test_sweep_rows_equal_the_per_pdm_reference(scenario, seed, n):
    thetas = (0, 45, 90)
    rows, _ = harness.run_haar_sweep(scenario, n=n, seed=seed, thetas_deg=thetas)
    expected = reference_sweep_rows(scenario, n, seed, thetas)
    assert rows == expected
    # == on floats would let -0.0 pass for 0.0; the CSV must not change either
    assert harness.write_rows(rows, "csv") == harness.write_rows(expected, "csv")


def test_fig4_needs_an_angle():
    with pytest.raises(ValueError, match="angle"):
        harness.run_haar_sweep("fig4", n=1, seed=1, thetas_deg=())


@pytest.mark.parametrize("thetas", [(30, 30.0, 60), (45, 45)])
def test_fig4_rejects_a_repeated_angle(thetas):
    # the angles key the groups, so a repeat would merge into one group
    with pytest.raises(ValueError, match="distinct"):
        harness.run_haar_sweep("fig4", n=3, seed=1, thetas_deg=thetas)


def test_haar_sweep_needs_a_seed():
    with pytest.raises(TypeError):
        harness.run_haar_sweep("fig3", n=2)


@pytest.mark.parametrize("seed", [1.5, True, 1.0, "1"])
def test_haar_sweep_rejects_a_seed_that_is_not_an_integer(seed):
    # int(seed) would key the streams, so 1.5 and True ran seed 1's samples
    # while the summary echoed the seed as given
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        harness.run_haar_sweep("fig3", n=2, seed=seed)


def test_haar_sweep_accepts_a_numpy_integer_seed():
    assert harness.run_haar_sweep("fig3", n=2, seed=np.uint64(7))[0] == (
        harness.run_haar_sweep("fig3", n=2, seed=7)[0]
    )


def test_write_rows_rejects_unknown_format():
    rows = harness.run_swap_influence([0])
    with pytest.raises(ValueError, match="xml"):
        harness.write_rows(rows, "xml")


# sha256 of the CSV at n=200 for the A9 seeds; the sweeps promise
# byte-identical CSVs for a given seed, so any change to these bytes must be
# deliberate and re-recorded.
SWEEP_CSV_SHA256 = {
    ("fig3", 20240817): "97a11684674c1bc4e465258de29070337a2af47bb2af43d697cd8ebbbd1392f0",
    ("fig4", 20240818): "09ef7c6e559aa1078da604c869ad23d579e56973d0828e98ef5f2e10da65a25c",
}


@pytest.mark.parametrize(("scenario", "seed"), list(SWEEP_CSV_SHA256))
def test_sweep_csv_bytes_are_pinned(scenario, seed):
    rows, _ = harness.run_haar_sweep(scenario, n=200, seed=seed)
    digest = hashlib.sha256(harness.write_rows(rows, "csv").encode()).hexdigest()
    assert digest == SWEEP_CSV_SHA256[(scenario, seed)]


# A sweep holds one chunk of SWEEP_CHUNK samples at a time, so its working set
# is a fixed part plus a part per sample of the chunk.  Measured with Python
# 3.11 and numpy 2.4 at n = 200 and n = 800 alike: 76-85 KiB at a chunk of 1,
# 975-1039 KiB at 16 (fig4-fig3) and 1928-2067 KiB at 32, about 60-65 KiB per
# sample.  At the chunk of 16 the cap below is 1184 KiB.
SWEEP_WORKING_SET_FIXED = 32 * 1024  # bytes
SWEEP_WORKING_SET_PER_SAMPLE = 72 * 1024  # bytes
SWEEP_WORKING_SET_GROWTH = 16 * 1024  # bytes, from n = 200 to n = 800


def _sweep_working_set(scenario: str, n: int) -> int:
    tracemalloc.start()
    try:
        rows, _ = harness.run_haar_sweep(scenario, n=n, seed=1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == n * 2
    return peak - retained


@pytest.mark.parametrize("scenario", ["fig3", "fig4"])
def test_sweep_working_set_stays_per_chunk(scenario):
    """Memory a sweep holds beyond its result is one chunk's, not n samples'."""
    harness.run_haar_sweep(scenario, n=2, seed=1)  # warm the lazy caches
    small = _sweep_working_set(scenario, 200)
    large = _sweep_working_set(scenario, 800)
    assert abs(large - small) <= SWEEP_WORKING_SET_GROWTH
    cap = SWEEP_WORKING_SET_FIXED + harness.SWEEP_CHUNK * SWEEP_WORKING_SET_PER_SAMPLE
    assert max(small, large) <= cap


def test_sweep_checks_each_member_of_a_chunk(monkeypatch):
    """A bad draw anywhere in a chunk fails the sweep as it fails alone."""
    stacked_haar = harness._haar_unitaries

    def one_not_unitary(draws):
        u = stacked_haar(draws)
        u[-1] *= 1.001
        return u

    monkeypatch.setattr(harness, "_haar_unitaries", one_not_unitary)
    with pytest.raises(ValueError, match="not unitary"):
        harness.run_haar_sweep("fig3", n=harness.SWEEP_CHUNK + 2, seed=3)

    stacked_states = harness._pure_states

    def one_off_trace(kets):
        rho = stacked_states(kets)
        rho[len(rho) // 2] *= 1.001
        return rho

    monkeypatch.setattr(harness, "_pure_states", one_off_trace)
    with pytest.raises(ValueError, match="state trace"):
        harness.run_haar_sweep("fig4", n=harness.SWEEP_CHUNK, seed=3)
