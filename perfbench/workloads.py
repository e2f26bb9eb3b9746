"""The three workloads: set-up from a seed, one request, and its output check.

Each workload builds all of its inputs from ``--seed`` in ``__init__`` (the
set-up that ``setup_s`` times) and then serves requests by index.  Request
``i`` depends only on the seed and ``i``, so an untraced and a traced pass
over the same indices must give identical outputs.  ``check`` runs outside
the timed region, raises ``CheckFailed`` on a wrong output and otherwise
returns a fingerprint of the output (a digest or the verdict's JSON).

Why these workloads and what each layer metric should move is written down
in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np

from pdmcausal import channels, cli, inference, pdm


class CheckFailed(Exception):
    """A request's output is wrong."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _sub_seed(seed: int, *index: int) -> int:
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# sweep: the paper's Monte-Carlo negativity sweeps through the CLI
# ---------------------------------------------------------------------------

SWEEP_N = 50
SWEEP_HEADER = {
    "fig3": b"sample_id,input_id,f,min_eig_fwd,min_eig_rev\n",
    "fig4": b"sample_id,theta_deg,f,min_eig_fwd,min_eig_rev\n",
}
# sha256 of the CSV of requests 0-3 under DEFAULT_SEED; the sweeps promise
# byte-identical CSVs for a given seed.
DEFAULT_SEED = 1
SWEEP_REFERENCE = {
    0: "da9de4348d9c9190ea2ba04ad8c64ce1da8c0b4f664ec1436d1aa744fd9e0774",
    1: "002cdd8e7f616144e6cf210a36be0e0e8ff16d7cf1fb2381bd94a27dc6e38fa6",
    2: "420b625c9924ef8f58b16c0aa92aa29dc82e3d1e0eed454867cd1613102221cd",
    3: "163c8e3b6ac7b6db757b4df0d37c2b6545a5f49b9c55bfc4f434e5bdee47c1f8",
}


class Sweep:
    name = "sweep"
    item = "Monte-Carlo sample"
    count_block = 2  # one fig3 and one fig4 call

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.out = workdir / "sweep.csv"

    def inputs_digest(self) -> str:
        return _digest(json.dumps([self._seed(self.seed, i) for i in range(64)]).encode())

    @staticmethod
    def _seed(seed: int, i: int) -> int:
        # sample j of a call uses the stream (call seed) ^ j, so the low 8 bits
        # are left free for j < 256 and no two calls share a sample
        return ((seed << 24) + i) << 8

    @staticmethod
    def scenario(i: int) -> str:
        return "fig3" if i % 2 == 0 else "fig4"

    def _argv(self, seed: int, i: int) -> list:
        return [
            "sweep", "haar", "--scenario", self.scenario(i), "--n", str(SWEEP_N),
            "--seed", str(seed), "--out", str(self.out),
        ]

    def _call(self, argv: list):
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            status = cli.main(argv)
        return status, summary.getvalue()

    def request(self, i: int):
        return SWEEP_N, self._call(self._argv(self._seed(self.seed, i), i))

    def check(self, i: int, output) -> str:
        status, summary = output
        _require(status == 0, f"sweep exited with status {status}")
        data = self.out.read_bytes()
        self.out.unlink()  # the next call must write its own CSV
        scenario = self.scenario(i)
        _require(data.startswith(SWEEP_HEADER[scenario]), "unexpected CSV header")
        rows = data.count(b"\n") - 1
        _require(rows == 2 * SWEEP_N, f"{rows} CSV rows, expected {2 * SWEEP_N}")
        fields = json.loads(summary)
        _require(fields["scenario"] == scenario and fields["n"] == SWEEP_N, "bad summary")
        return _digest(data)

    def reference(self) -> None:
        """Re-run the default seed's first requests against recorded digests."""
        for i, expected in SWEEP_REFERENCE.items():
            output = self._call(self._argv(self._seed(DEFAULT_SEED, i), i))
            digest = self.check(i, output)
            _require(digest == expected, f"sweep reference {i}: CSV digest {digest}")


# ---------------------------------------------------------------------------
# classify: the five-way causal verdict on stored two-qubit-slot PDMs
# ---------------------------------------------------------------------------

# One period of the input pool: (rank of the first state, channel kind,
# time-reversed).  10 of 16 full rank, so the median request takes the unique
# pinv route and the SDP route sets the tail; 4 of 16 time-reversed.
CLASSIFY_PERIOD = (
    (4, "random", False),
    (1, "semicausal", False),
    (4, "semicausal", False),
    (4, "random", True),
    (2, "random", False),
    (4, "semicausal", False),
    (4, "random", False),
    (1, "semicausal", True),
    (4, "semicausal", True),
    (3, "semicausal", False),
    (4, "random", False),
    (1, "random", False),
    (4, "semicausal", False),
    (4, "random", False),
    (2, "semicausal", True),
    (4, "semicausal", False),
)
CLASSIFY_POOL = 16 * len(CLASSIFY_PERIOD)


class Classify:
    name = "classify"
    item = "verdict"
    count_block = len(CLASSIFY_PERIOD)

    def __init__(self, seed: int, workdir=None):
        self.seed = seed
        self.entries = [self._entry(k) for k in range(CLASSIFY_POOL)]

    def _entry(self, k: int):
        rank, kind, reversed_ = CLASSIFY_PERIOD[k % len(CLASSIFY_PERIOD)]
        rng = np.random.Generator(np.random.Philox(key=_sub_seed(self.seed, k)))
        state = channels.random_state(4, rng, rank=rank, factors=(2, 2))
        if kind == "random":
            ch = channels.random_channel(4, rng)
        else:
            ch = channels.random_semicausal(2, 2, 2, rng)
        r = pdm.pdm_closed_form(state, ch)
        if reversed_:
            r = pdm.time_reverse(r)
        return json.dumps(pdm.pdm_to_json(r)), rank, reversed_

    def inputs_digest(self) -> str:
        return _digest("".join(text for text, _, _ in self.entries).encode())

    def request(self, i: int):
        text = self.entries[i % CLASSIFY_POOL][0]
        return 1, inference.classify(pdm.pdm_from_json(json.loads(text)))

    def check(self, i: int, verdict) -> str:
        _, rank, reversed_ = self.entries[i % CLASSIFY_POOL]
        th = verdict.thresholds
        if reversed_:
            min_eig, cause = verdict.min_eig_reverse, inference.CausalStructure.B_TO_A
        else:
            min_eig, cause = verdict.min_eig_forward, inference.CausalStructure.A_TO_B
        _require(min_eig >= -th.eps_pos, f"generating direction not CP: {min_eig:.3e}")
        if verdict.f > th.eps_neg:
            _require(cause in verdict.compatible, f"verdict {verdict.to_json()['compatible']}")
        unique = verdict.unique_forward and verdict.unique_reverse
        _require(unique == (rank == 4), f"rank {rank} input took the wrong route")
        return json.dumps(verdict.to_json(), sort_keys=True)

    def reference(self) -> None:
        """Warm the lazy caches on one request of each route."""
        for i in (0, 1):
            self.check(i, self.request(i)[1])


# ---------------------------------------------------------------------------
# build: multi-slot PDM construction by the oracle and the iterative builder
# ---------------------------------------------------------------------------

# (slots, qubits per slot) of each chain in one cycle; 6 x 1 appears twice so
# that the median request is the 6 x 1 iterative build rather than the gap
# between two cases.  Requests 2c and 2c + 1 build chain c with the oracle
# and the iterative builder.
BUILD_CYCLE = ((6, 1), (3, 2), (6, 1), (2, 2))
BUILD_POOL = 32 * len(BUILD_CYCLE)
BUILD_ATOL = 1e-10


class Build:
    name = "build"
    item = "PDM"
    count_block = 2 * len(BUILD_CYCLE)

    def __init__(self, seed: int, workdir=None):
        self.seed = seed
        self.chains = [self._chain(c) for c in range(BUILD_POOL)]
        self._last = None  # (request index, matrix) of the last checked build

    def _chain(self, c: int):
        slots, qubits = BUILD_CYCLE[c % len(BUILD_CYCLE)]
        d = 2**qubits
        rng = np.random.Generator(np.random.Philox(key=_sub_seed(self.seed, c)))
        state = channels.random_state(d, rng, factors=(2,) * qubits)
        return state, [channels.random_channel(d, rng) for _ in range(slots - 1)]

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for state, chs in self.chains:
            h.update(state.mat.data.tobytes())
            for ch in chs:
                h.update(ch.choi.data.tobytes())
        return h.hexdigest()

    def _build(self, i: int):
        state, chs = self.chains[(i // 2) % BUILD_POOL]
        if i % 2 == 0:
            return pdm.pdm_from_measurements(state, chs)
        return pdm.pdm_iterative(state, chs)

    def request(self, i: int):
        return 1, self._build(i)

    def check(self, i: int, built) -> str:
        chs = self.chains[(i // 2) % BUILD_POOL][1]
        _require(len(built.slots) == len(chs) + 1, "wrong slot count")
        data = built.mat.data
        if self._last is not None and self._last[0] == i ^ 1:
            other = self._last[1]
        else:  # the partner build has not run yet: make it here, untimed
            other = self._build(i ^ 1).mat.data
        self._last = (i, data)
        dev = float(np.abs(data - other).max())
        _require(dev <= BUILD_ATOL, f"oracle and iterative builds differ by {dev:.3e}")
        return _digest(data.tobytes())

    def reference(self) -> None:
        """Warm the Pauli tables on one full cycle."""
        for i in range(self.count_block):
            self.check(i, self.request(i)[1])


WORKLOADS = {w.name: w for w in (Sweep, Classify, Build)}
