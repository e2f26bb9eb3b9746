"""Scenario runners: worked examples and Monte-Carlo sweeps as rows, and their CSV/JSON text.

Every reproduction scenario asserts its own expected outcomes and raises
NumericalInconsistencyError on mismatch, so a clean exit certifies the run.
Sweeps derive one Philox stream per sample as ``seed ^ index``, making the
output a deterministic function of (scenario, parameters, seed).  Only the
draws run per sample: a sweep runs its samples in chunks of ``SWEEP_CHUNK``,
and each chunk makes one channel or state build, one PDM build, one
validation, one reduction and one ``extract_choi`` call per direction on
stacks over its samples.  The rows equal those of building and extracting
each PDM alone, bit for bit, at any chunk size.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .channels import (
    QuantumState,
    _check_states,
    _check_trace_preserving,
    _check_unitary,
    _gaussian_ket,
    _ginibre,
    _haar_unitaries,
    _kraus_to_choi,
    _pure_states,
    _semicausal_assembly,
    measure_prepare_z,
    partial_swap,
    semicausal,
    swap_channel,
)
from .inference import CausalStructure, classify, extract_choi
from .linalg import (
    NumericalInconsistencyError,
    _partial_trace,
    _permute_factors,
    max_abs_diff,
)
from .pdm import (
    PDM,
    Slot,
    _anticommutator_step,
    _negativity,
    _validate,
    negativity,
    pdm_closed_form,
    reduce,
)
from .rng import sample_stream

DEG = math.pi / 180.0
DEFAULT_LAMBDAS = tuple(round(0.1 * k, 10) for k in range(1, 10))
DEFAULT_THETAS_DEG = tuple(range(0, 91, 5))
DEFAULT_MIXTURE_THETAS_DEG = tuple(range(5, 90, 5))
DEFAULT_SWEEP_THETAS_DEG = (30, 60)
SWEEP_NEG_THRESHOLD = 1e-6  # looser than classification, absorbs eigensolver noise
# a sweep PDM has two 2-qubit slots; its rows read the first qubit of the
# first slot and the second qubit of the second
FULL_SLOTS = (Slot("t1", 2), Slot("t2", 2))
REDUCED_SLOTS = (Slot("t1", 1), Slot("t2", 1))
# samples per stacked chunk of a sweep; see run_haar_sweep
SWEEP_CHUNK = 16


def _check(condition: bool, message: str):
    if not condition:
        raise NumericalInconsistencyError(message)


def _verdict_str(verdict) -> str:
    return "+".join(str(int(c)) for c in sorted(verdict.compatible))


def _verdict_row(key: str, value, verdict) -> dict:
    """A worked example's row: its grid value under ``key`` and the verdict's evidence."""
    return {
        key: value,
        "f": verdict.f,
        "min_eig_forward": verdict.min_eig_forward,
        "min_eig_reverse": verdict.min_eig_reverse,
        "verdict": _verdict_str(verdict),
    }


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def run_measure_prepare(lambdas=DEFAULT_LAMBDAS):
    """Coherent input through the measure-and-prepare channel, one row per mixing weight.

    Self-checks, at the default thresholds: the verdict is exactly {1} and
    the negativity matches sqrt(1 + w^2) - 1.  A verdict of {1} already
    says the forward matrix is PSD and the reversed one is not.
    """
    ch = measure_prepare_z()
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=np.complex128)
    rows = []
    for lam in lambdas:
        if not 0.0 < lam < 1.0:
            raise ValueError(f"mixing weight {lam} outside (0, 1)")
        rho = QuantumState.of((1 - lam) * np.eye(2) / 2 + lam * plus)
        verdict = classify(pdm_closed_form(rho, ch))
        _check(
            verdict.compatible == {CausalStructure.A_TO_B},
            f"measure-prepare verdict {_verdict_str(verdict)} != 1 at lambda={lam}",
        )
        expected_f = math.sqrt(1 + lam * lam) - 1
        _check(
            abs(verdict.f - expected_f) <= 1e-10,
            f"negativity {verdict.f} != {expected_f} at lambda={lam}",
        )
        rows.append(_verdict_row("lambda", lam, verdict))
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


def run_common_cause_mixture(thetas_deg=DEFAULT_MIXTURE_THETAS_DEG):
    """Entangled input plus partial-swap influence, checked against the
    closed form's verdict at the default thresholds: {3} where
    sin^2 <= eps_neg (no influence, only the Bell pair's correlation),
    {1, 2} where cos^2 <= eps_pos (a full swap, an identity channel on the
    maximally mixed input), else {4, 5}: negativity with neither direction
    completely positive."""
    rows = []
    for deg in thetas_deg:
        theta = deg * DEG
        r = mixture_pdm(theta)
        _check(
            max_abs_diff(r.mat.data, expected_mixture_matrix(theta)) <= 1e-10,
            f"mixture PDM deviates from its closed form at theta={deg} deg",
        )
        verdict = classify(r)
        if math.sin(theta) ** 2 <= verdict.thresholds.eps_neg:
            expected = "3"
        elif math.cos(theta) ** 2 <= verdict.thresholds.eps_pos:
            expected = "1+2"
        else:
            expected = "4+5"
        _check(
            _verdict_str(verdict) == expected,
            f"mixture verdict {_verdict_str(verdict)} != {expected} at theta={deg} deg",
        )
        rows.append(_verdict_row("theta_deg", deg, verdict))
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

def _chunk_rows(full: np.ndarray, sample_ids, group_key: str, groups) -> list[dict]:
    """Rows of a chunk of samples from its (samples, groups, 16, 16) stack of
    two-slot PDMs, sample by sample and within a sample one per group (input
    or angle).

    The stack is validated once and reduced to the first qubit of the first
    slot and the second of the second; the reduced PDMs are extracted
    forward as one stack and time-reversed as another.
    """
    full = full.reshape(-1, 16, 16)
    _validate(full, FULL_SLOTS)
    reduced = _partial_trace(full, (2,) * 4, (0, 3))
    f = _negativity(reduced)
    fwd = extract_choi([PDM._trusted(r, REDUCED_SLOTS) for r in reduced])
    flipped = _permute_factors(reduced, (2, 2), (1, 0))
    rev = extract_choi([PDM._trusted(r, REDUCED_SLOTS[::-1]) for r in flipped])
    keys = [(i, group) for i in sample_ids for group in groups]
    return [
        {
            "sample_id": i,
            group_key: group,
            "f": float(f[k]),
            "min_eig_fwd": fwd[k].min_eig_transposed,
            "min_eig_rev": rev[k].min_eig_transposed,
        }
        for k, (i, group) in enumerate(keys)
    ]


def run_haar_sweep(scenario: str, n: int, seed: int, thetas_deg=DEFAULT_SWEEP_THETAS_DEG):
    """Monte-Carlo negativity sweeps over one-way-signalling circuits.

    ``fig3``: ancilla caching (swap) followed by a Haar-random two-qubit
    unitary, fixed inputs |00> and the maximally entangled pair.
    ``fig4``: same caching followed by exp(-i theta S) at fixed angles,
    Haar-random pure two-qubit inputs.

    ``n`` (samples) and ``seed`` (an integer in [0, 2**128)) are required:
    the output is a function of both.  ``thetas_deg`` is used by ``fig4``
    only, must hold distinct angles (30 and 30.0 are one angle) and is echoed
    as given in the ``theta_deg`` column and the summary keys.

    Samples run in chunks of ``SWEEP_CHUNK``.  Each sample draws from its
    own stream; everything after the draws runs once per chunk, on stacks
    over the chunk's samples and groups: fig3 stacks the inputs under each
    sample's channel, fig4 the angles' channels on each sample's state.
    One chunk is held at a time.

    Returns (rows, summary); summary gives the fraction of samples with
    negativity above 1e-6 per group.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed {seed} outside [0, 2**128), the Philox key range")
    ancilla = QuantumState.from_ket([1, 0])
    cache_first = swap_channel(2)

    if scenario == "fig3":
        inputs = {
            "zero_zero": QuantumState.from_ket([1, 0, 0, 0], (2, 2)),
            "bell": QuantumState.from_ket([1, 0, 0, 1], (2, 2)),
        }
        states = np.stack([state.mat.data for state in inputs.values()])
        assemble = _semicausal_assembly(cache_first, ancilla, 4)

        def work(ids: range):
            draws = np.stack([_ginibre(4, sample_stream(seed, i)) for i in ids])
            unitaries = _haar_unitaries(draws)
            _check_unitary(unitaries)
            kraus = assemble(unitaries[:, None])
            _check_trace_preserving(kraus)
            chois = _kraus_to_choi(kraus, 4, 4)
            full = _anticommutator_step(states, chois[:, None], 4, 4)
            return _chunk_rows(full, ids, group_key, groups)

        group_key, groups = "input_id", inputs
    elif scenario == "fig4":
        if not thetas_deg:
            raise ValueError("fig4 needs at least one angle")
        if len(set(thetas_deg)) != len(thetas_deg):
            raise ValueError(f"fig4 angles must be distinct, got {list(thetas_deg)}")
        channels = {
            deg: semicausal(cache_first, partial_swap(-deg * DEG), ancilla)
            for deg in thetas_deg
        }
        chois = np.stack([channel.choi.data for channel in channels.values()])

        def work(ids: range):
            rho = _pure_states([_gaussian_ket(4, sample_stream(seed, i)) for i in ids])
            _check_states(rho)
            full = _anticommutator_step(rho[:, None], chois, 4, 4)
            return _chunk_rows(full, ids, group_key, groups)

        group_key, groups = "theta_deg", channels
    else:
        raise ValueError(f"unknown sweep scenario {scenario!r}")

    rows = [
        row
        for start in range(0, n, SWEEP_CHUNK)
        for row in work(range(start, min(start + SWEEP_CHUNK, n)))
    ]
    # rows run sample by sample, one per group within a sample, so every
    # group has n rows, every len(groups)-th from its first
    summary = {
        "scenario": scenario,
        "n": n,
        "seed": seed,
        "negativity_threshold": SWEEP_NEG_THRESHOLD,
        "fraction_negative": {
            str(g): sum(row["f"] > SWEEP_NEG_THRESHOLD for row in rows[k :: len(groups)]) / n
            for k, g in enumerate(groups)
        },
    }
    return rows, summary


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def write_rows(rows, fmt: str) -> str:
    """Return ``rows`` as text, ``csv`` (a header of the first row's keys,
    floats by their repr) or ``json``; the caller writes it."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown output format {fmt!r}")
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = list(rows[0])
    writer.writerow(fields)
    writer.writerows([row[k] for k in fields] for row in rows)
    return buf.getvalue()
