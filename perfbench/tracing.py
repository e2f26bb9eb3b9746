"""Spans around calls into pdmcausal's public functions, set from outside.

The tracer replaces a function by a recording wrapper in every loaded
``pdmcausal`` module that holds a reference to it, because callers look
names up in their own module: ``extract_choi`` is reached both as
``inference.extract_choi`` (from ``classify``) and ``harness.extract_choi``
(from the sweeps).  Methods are replaced on their class.  The program's own
files are not touched; ``uninstall`` puts every original back.

A span is (name, start, end, parent span, request id).  Spans are kept in
typed arrays while the run goes on and turned into per-layer figures at the
end: a span's self time is its duration minus the durations of its direct
children, which cover disjoint parts of it in this single-threaded program.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" names a method.
SPANS = (
    ("linalg.partial_trace", "linalg", "partial_trace"),
    ("linalg.permute_factors", "linalg", "permute_factors"),
    ("pauli.pauli_basis", "pauli", "pauli_basis"),
    ("channels.haar_unitary", "channels", "haar_unitary"),
    ("channels.random_pure_state", "channels", "random_pure_state"),
    ("channels.semicausal", "channels", "semicausal"),
    ("channels.QuantumChannel.from_kraus", "channels", "QuantumChannel.from_kraus"),
    # metric names may not start with "_", so _kernels reports as "kernels"
    ("kernels.expectation_tensor", "_kernels", "expectation_tensor"),
    ("kernels.assemble_from_expectations", "_kernels", "assemble_from_expectations"),
    ("pdm.PDM", "pdm", "PDM.__post_init__"),
    ("pdm.pdm_from_measurements", "pdm", "pdm_from_measurements"),
    ("pdm.pdm_iterative", "pdm", "pdm_iterative"),
    ("pdm.pdm_closed_form", "pdm", "pdm_closed_form"),
    ("pdm.reduce", "pdm", "reduce"),
    ("pdm.negativity", "pdm", "negativity"),
    ("pdm.time_reverse", "pdm", "time_reverse"),
    ("pdm.pdm_from_json", "pdm", "pdm_from_json"),
    ("inference.extract_choi", "inference", "extract_choi"),
    ("inference.sdp_least_negative", "inference", "sdp_least_negative"),
    ("inference.classify", "inference", "classify"),
    ("harness.run_haar_sweep", "harness", "run_haar_sweep"),
    ("harness.write_rows", "harness", "write_rows"),
    ("cli.main", "cli", "main"),
)

# Constructions counted without a span: they are too frequent and too small
# for a span to say more than its own cost.
COUNTERS = (
    ("linalg.ComplexMatrix", "linalg", "ComplexMatrix.__post_init__"),
    ("channels.QuantumState", "channels", "QuantumState.__post_init__"),
)

PACKAGE = "pdmcausal"
ROOT = "request"
SDP = "inference.sdp_least_negative"


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.raised = array("b")
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.sdp = []  # (request id, iterations, converged) per SDP call
        self._stack = [-1]
        self._request_id = -1
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.raised.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int, raised: bool):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if raised:
            self.raised[idx] = 1

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        on_result = self._record_sdp if name == SDP else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_sdp(self, result):
        self.sdp.append((self._request_id, int(result.iterations), bool(result.converged)))

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._request_id >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def request_span(self, request_id: int, fn, *args):
        """Run one request under a root span carrying its id."""
        self._request_id = request_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx, False)
            self._request_id = -1

    # -- installing the wrappers -------------------------------------------

    @staticmethod
    def _modules():
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _replace(self, module: str, attr: str, make):
        owner = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self._restore.append((cls, meth, raw))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        replaced = 0
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._restore.append((m, key, original))
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"{module}.{attr} is not referenced by any module")

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module, attr in SPANS:
            self._replace(module, attr, lambda fn, name=name: self._wrap(name, fn))
        for name, module, attr in COUNTERS:
            self._replace(module, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- reading the spans -------------------------------------------------

    def mark(self) -> dict:
        """Counts made inside requests so far, to difference two points of a run."""
        out = dict(self.counts)
        inside = np.frombuffer(self.request, dtype=np.int64) >= 0
        names = np.frombuffer(self.name, dtype=np.int64)[inside]
        calls = np.bincount(names, minlength=len(self.names))
        for i, name in enumerate(self.names[1:], start=1):
            out[name] = int(calls[i])
        out[SDP + ".iterations"] = sum(it for req, it, _ in self.sdp if req >= 0)
        return out

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }


def self_times(spans: dict, first_span: int = 0) -> dict:
    """Per-name totals over the request spans from ``first_span`` on.

    Returns {name: (calls, self seconds, raised)}.  Spans made outside a
    request (output checks) are left out.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    keep = spans["request"] >= 0
    keep[:first_span] = False
    n = len(spans["names"])
    name = spans["name"][keep]
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=(dur - child)[keep], minlength=n)
    fails = np.bincount(name, weights=spans["raised"][keep], minlength=n)
    return {
        str(spans["names"][i]): (int(calls[i]), float(total[i]), int(fails[i]))
        for i in range(n)
    }
