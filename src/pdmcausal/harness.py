"""Scenario runners: worked examples and Monte-Carlo sweeps with CSV/JSON output.

Every reproduction scenario asserts its own expected outcomes and raises
NumericalInconsistencyError on mismatch, so a clean exit certifies the run.
Sweeps derive one Philox stream per sample as ``seed ^ index``, making the
output a deterministic function of (scenario, parameters, seed).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .channels import (
    QuantumChannel,
    QuantumState,
    haar_unitary,
    measure_prepare_z,
    partial_swap,
    random_pure_state,
    semicausal,
    swap_channel,
)
from .inference import (
    CausalStructure,
    Thresholds,
    classify,
    extract_choi,
    extract_reverse_choi,
)
from .linalg import NumericalInconsistencyError, max_abs_diff
from .pdm import pdm_closed_form, negativity, reduce
from .rng import sample_stream

DEG = math.pi / 180.0
DEFAULT_LAMBDAS = tuple(round(0.1 * k, 10) for k in range(1, 10))
DEFAULT_THETAS_DEG = tuple(range(0, 91, 5))
DEFAULT_MIXTURE_THETAS_DEG = tuple(range(5, 90, 5))
DEFAULT_SWEEP_THETAS_DEG = (30, 60)
SWEEP_NEG_THRESHOLD = 1e-6  # looser than classification, absorbs eigensolver noise


def _check(condition: bool, message: str):
    if not condition:
        raise NumericalInconsistencyError(message)


def _verdict_str(verdict) -> str:
    return "+".join(str(int(c)) for c in sorted(verdict.compatible))


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def run_measure_prepare(lambdas=DEFAULT_LAMBDAS, thresholds: Thresholds = Thresholds()):
    """Coherent input through the measure-and-prepare channel, one row per mixing weight.

    Self-checks: verdict is exactly {1}, the forward matrix is PSD, the
    reversed one is not, and the negativity matches sqrt(1 + w^2) - 1.
    """
    ch = measure_prepare_z()
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=np.complex128)
    rows = []
    for lam in lambdas:
        if not 0.0 < lam < 1.0:
            raise ValueError(f"mixing weight {lam} outside (0, 1)")
        rho = QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * plus)
        r = pdm_closed_form(rho, ch)
        verdict = classify(r, thresholds)
        _check(
            verdict.compatible == {CausalStructure.A_TO_B},
            f"measure-prepare verdict {_verdict_str(verdict)} != 1 at lambda={lam}",
        )
        _check(
            verdict.min_eig_forward >= -thresholds.eps_pos,
            f"forward matrix unexpectedly negative at lambda={lam}",
        )
        _check(
            verdict.min_eig_reverse < -thresholds.eps_pos,
            f"reversed matrix unexpectedly positive at lambda={lam}",
        )
        expected_f = math.sqrt(1 + lam * lam) - 1
        _check(
            abs(verdict.f - expected_f) <= 1e-10,
            f"negativity {verdict.f} != {expected_f} at lambda={lam}",
        )
        rows.append(
            {
                "lambda": lam,
                "f": verdict.f,
                "min_eig_forward": verdict.min_eig_forward,
                "min_eig_reverse": verdict.min_eig_reverse,
                "verdict": _verdict_str(verdict),
            }
        )
    return rows


def mixture_pdm(theta: float):
    """Two-slot PDM of a maximally entangled pair whose first party is cached
    into the ancilla and partially swapped into the second party."""
    bell = QuantumState.from_ket([1, 0, 0, 1], (2, 2))
    ancilla = QuantumState.from_ket([1, 0])
    channel = semicausal(swap_channel(2), partial_swap(theta), ancilla)
    full = pdm_closed_form(bell, channel)
    return reduce(full, [(0, (0,)), (1, (1,))])


def expected_mixture_matrix(theta: float) -> np.ndarray:
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    return 0.5 * np.array(
        [[1, 0, 0, c2], [0, 0, s2, 0], [0, s2, 0, 0], [c2, 0, 0, 1]],
        dtype=np.complex128,
    )


def run_common_cause_mixture(
    thetas_deg=DEFAULT_MIXTURE_THETAS_DEG, thresholds: Thresholds = Thresholds()
):
    """Entangled input plus partial-swap influence: negativity with neither
    direction completely positive.  Angles with no influence (cos = 0) or a
    pure relabeling (sin = 1) are excluded from the verdict check."""
    rows = []
    for deg in thetas_deg:
        theta = deg * DEG
        r = mixture_pdm(theta)
        _check(
            max_abs_diff(r.mat.data, expected_mixture_matrix(theta)) <= 1e-10,
            f"mixture PDM deviates from its closed form at theta={deg} deg",
        )
        verdict = classify(r, thresholds)
        mixed = frozenset(
            {
                CausalStructure.A_TO_B_WITH_COMMON_CAUSE,
                CausalStructure.B_TO_A_WITH_COMMON_CAUSE,
            }
        )
        if abs(math.cos(theta)) > 1e-12 and abs(math.sin(theta)) < 1.0 - 1e-12:
            _check(
                verdict.compatible == mixed,
                f"mixture verdict {_verdict_str(verdict)} != 4+5 at theta={deg} deg",
            )
        rows.append(
            {
                "theta_deg": deg,
                "f": verdict.f,
                "min_eig_forward": verdict.min_eig_forward,
                "min_eig_reverse": verdict.min_eig_reverse,
                "verdict": _verdict_str(verdict),
            }
        )
    return rows


def run_swap_influence(thetas_deg=DEFAULT_THETAS_DEG):
    """Partial swap on a product pair: negativity of the single-party PDM
    equals |cos theta| exactly."""
    rows = []
    for deg in thetas_deg:
        theta = deg * DEG
        state = QuantumState.from_ket([1, 0, 0, 0], (2, 2))
        full = pdm_closed_form(state, partial_swap(theta))
        r = reduce(full, [(0, (0,)), (1, (0,))])
        f = negativity(r)
        expected = abs(math.cos(theta))
        _check(
            abs(f - expected) <= 1e-9,
            f"influence law broken at theta={deg} deg: f={f}, |cos|={expected}",
        )
        rows.append({"theta_deg": deg, "f": f, "abs_cos": expected, "deviation": f - expected})
    return rows


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps
# ---------------------------------------------------------------------------

def _pdm_row(pdm, sample_id: int, extra: dict) -> dict:
    f = negativity(pdm)
    fwd = extract_choi(pdm)
    rev = extract_reverse_choi(pdm)
    row = {"sample_id": sample_id}
    row.update(extra)
    row.update(
        {
            "f": f,
            "min_eig_fwd": fwd.min_eig_transposed,
            "min_eig_rev": rev.min_eig_transposed,
        }
    )
    return row


def run_haar_sweep(scenario: str, n: int, seed: int, thetas_deg=DEFAULT_SWEEP_THETAS_DEG):
    """Monte-Carlo negativity sweeps over one-way-signalling circuits.

    ``fig3``: ancilla caching (swap) followed by a Haar-random two-qubit
    unitary, fixed inputs |00> and the maximally entangled pair.
    ``fig4``: same caching followed by exp(-i theta S) at fixed angles,
    Haar-random pure two-qubit inputs.

    ``n`` (samples) and ``seed`` are required: the output is a function of
    both.  ``thetas_deg`` is used by ``fig4`` only and is echoed as given in
    the ``theta_deg`` column and the summary keys.

    Returns (rows, summary); summary gives the fraction of samples with
    negativity above 1e-6 per group.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    ancilla = QuantumState.from_ket([1, 0])
    cache_first = swap_channel(2)

    if scenario == "fig3":
        inputs = {
            "zero_zero": QuantumState.from_ket([1, 0, 0, 0], (2, 2)),
            "bell": QuantumState.from_ket([1, 0, 0, 1], (2, 2)),
        }

        def work(i: int):
            rng = sample_stream(seed, i)
            unitary = haar_unitary(4, rng)
            channel = semicausal(cache_first, QuantumChannel.from_unitary(unitary.data), ancilla)
            out = []
            for input_id, state in inputs.items():
                full = pdm_closed_form(state, channel)
                r = reduce(full, [(0, (0,)), (1, (1,))])
                out.append(_pdm_row(r, i, {"input_id": input_id}))
            return out

        group_key = "input_id"
    elif scenario == "fig4":
        channels = {
            deg: semicausal(cache_first, partial_swap(-deg * DEG), ancilla)
            for deg in thetas_deg
        }

        def work(i: int):
            rng = sample_stream(seed, i)
            state = random_pure_state(4, rng, (2, 2))
            out = []
            for deg, channel in channels.items():
                full = pdm_closed_form(state, channel)
                r = reduce(full, [(0, (0,)), (1, (1,))])
                out.append(_pdm_row(r, i, {"theta_deg": deg}))
            return out

        group_key = "theta_deg"
    else:
        raise ValueError(f"unknown sweep scenario {scenario!r}")

    rows = [row for i in range(n) for row in work(i)]
    counts: dict = {}
    for row in rows:
        key = row[group_key]
        hit, total = counts.get(key, (0, 0))
        counts[key] = (hit + (row["f"] > SWEEP_NEG_THRESHOLD), total + 1)
    summary = {
        "scenario": scenario,
        "n": n,
        "seed": seed,
        "negativity_threshold": SWEEP_NEG_THRESHOLD,
        "fraction_negative": {str(k): hit / total for k, (hit, total) in counts.items()},
    }
    return rows, summary


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = list(rows[0].keys())
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_value(row[k]) for k in fields])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    return json.dumps(rows, indent=2) + "\n"


def write_rows(rows, fmt: str, path: str | None) -> str | None:
    """Serialize rows as ``csv`` or ``json``; write to ``path`` if given, else return the text."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return None
