"""Tests of the benchmark itself: each output check fires on a corrupted output,
tracing leaves outputs unchanged, and BENCHMARK.json matches what run.py prints.

Run from the root of the checkout:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path and caps BLAS threads)
import tracing  # noqa: E402
import workloads  # noqa: E402
from pdmcausal import cli, harness, inference, linalg, pdm  # noqa: E402
from workloads import CheckFailed  # noqa: E402


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@pytest.fixture
def sweep(tmp_path):
    return workloads.Sweep(workloads.DEFAULT_SEED, tmp_path)


def test_sweep_reference_digests_hold(sweep):
    sweep.reference()
    assert sweep.check(0, sweep.request(0)[1]) == workloads.SWEEP_REFERENCE[0]


def test_sweep_reference_fires_on_changed_csv_byte(sweep, monkeypatch):
    original = cli.main

    def corrupting_main(argv):
        status = original(argv)
        path = Path(argv[argv.index("--out") + 1])
        data = bytearray(path.read_bytes())
        last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
        data[last_digit] = ord("0") if data[last_digit] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
        return status

    monkeypatch.setattr(cli, "main", corrupting_main)
    with pytest.raises(CheckFailed, match="digest"):
        sweep.reference()


def test_sweep_check_fires_on_missing_row(sweep):
    output = sweep.request(1)[1]
    lines = sweep.out.read_bytes().splitlines(keepends=True)
    sweep.out.write_bytes(b"".join(lines[:-1]))
    with pytest.raises(CheckFailed, match="rows"):
        sweep.check(1, output)


def test_sweep_check_fires_on_nonzero_exit(sweep):
    summary = sweep.request(0)[1][1]
    with pytest.raises(CheckFailed, match="status"):
        sweep.check(0, (2, summary))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def classify():
    return workloads.Classify(workloads.DEFAULT_SEED)


def _index(classify, rank_full: bool, reversed_: bool) -> int:
    for i, (_, rank, rev) in enumerate(classify.entries):
        if (rank == 4) == rank_full and rev == reversed_:
            return i
    raise LookupError


@pytest.mark.parametrize("reversed_", [False, True])
def test_classify_check_fires_on_flipped_verdict(classify, reversed_):
    i = _index(classify, True, reversed_)
    verdict = classify.request(i)[1]
    classify.check(i, verdict)
    assert verdict.f > verdict.thresholds.eps_neg
    wrong = inference.CausalStructure.A_TO_B if reversed_ else inference.CausalStructure.B_TO_A
    flipped = dataclasses.replace(verdict, compatible=frozenset({wrong}))
    with pytest.raises(CheckFailed, match="verdict"):
        classify.check(i, flipped)


def test_classify_check_fires_on_negative_generating_direction(classify):
    i = _index(classify, True, False)
    verdict = classify.request(i)[1]
    with pytest.raises(CheckFailed, match="not CP"):
        classify.check(i, dataclasses.replace(verdict, min_eig_forward=-1e-6))


def test_classify_check_fires_on_wrong_route(classify):
    i = _index(classify, False, False)
    verdict = classify.request(i)[1]
    classify.check(i, verdict)
    forced = dataclasses.replace(verdict, unique_forward=True, unique_reverse=True)
    with pytest.raises(CheckFailed, match="route"):
        classify.check(i, forced)


def test_classify_pool_mixes_routes_and_directions(classify):
    ranks = [rank for _, rank, _ in classify.entries]
    reversed_ = [rev for _, _, rev in classify.entries]
    assert ranks.count(4) / len(ranks) == 10 / 16
    assert set(ranks) == {1, 2, 3, 4}
    assert sum(reversed_) / len(reversed_) == 1 / 4


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_builders_agree_and_check_fires_on_perturbed_pdm():
    build = workloads.Build(workloads.DEFAULT_SEED)
    for i in range(build.count_block):
        build.check(i, build.request(i)[1])
    built = build.request(1)[1]
    data = np.array(built.mat.data)
    data[0, 1] += 1e-8
    data[1, 0] += 1e-8
    perturbed = pdm.PDM(linalg.ComplexMatrix(data, built.mat.factors), built.slots)
    with pytest.raises(CheckFailed, match="differ"):
        build.check(1, perturbed)


def test_build_cases():
    build = workloads.Build(workloads.DEFAULT_SEED)
    shapes = {(len(chs) + 1, state.mat.nfactors) for state, chs in build.chains}
    assert shapes == {(6, 1), (3, 2), (2, 2)}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracing_leaves_outputs_unchanged_and_restores_names(classify):
    plain = [classify.check(i, classify.request(i)[1]) for i in (0, 1)]
    originals = (inference.extract_choi, harness.extract_choi, inference.classify)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.extract_choi is inference.extract_choi is not originals[0]
        traced = [
            classify.check(i, tracer.request_span(i, classify.request, i)[1]) for i in (0, 1)
        ]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (inference.extract_choi, harness.extract_choi, inference.classify) == originals
    counts = tracer.mark()
    assert counts["inference.classify"] == 2
    assert counts["inference.sdp_least_negative"] >= 1
    assert counts["linalg.ComplexMatrix"] > 0


def test_self_time_subtracts_direct_children():
    spans = {
        "names": np.array(["request", "a", "b"]),
        # request [0, 10] > a [1, 7] > b [2, 5]; request > b [8, 9]
        "start": np.array([0.0, 1.0, 2.0, 8.0]),
        "end": np.array([10.0, 7.0, 5.0, 9.0]),
        "name": np.array([0, 1, 2, 2]),
        "parent": np.array([-1, 0, 1, 0]),
        "request": np.array([0, 0, 0, 0]),
        "raised": np.array([0, 0, 1, 0], dtype=np.int8),
    }
    out = tracing.self_times(spans)
    assert out["request"] == (1, 3.0, 0)
    assert out["a"] == (1, 3.0, 0)
    assert out["b"] == (2, 4.0, 1)


def test_loop_spreads_pauses_and_leaves_them_out_of_loop_time():
    class Idle:
        def request(self, i):
            return 1, i

        def check(self, i, output):
            return output

    paused = []
    phase = run.Runner(Idle()).loop(0.2, lambda: paused.append(time.sleep(0.1)), 4)
    assert len(paused) == 4
    assert phase["fingerprints"] == list(range(len(phase["fingerprints"])))
    assert float(phase["latencies"].sum()) < 0.2


def test_tail_is_highest_percentile_with_ten_beyond():
    t = run.timing({"latencies": np.arange(1, 101) * 1e-3, "items": 100})
    assert t["latency_tail_ms"] == pytest.approx(90.0)
    assert t["tail_percentile"] == pytest.approx(90.0)
    assert t["latency_p50_ms"] == pytest.approx(50.5)


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
