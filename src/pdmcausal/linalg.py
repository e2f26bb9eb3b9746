"""Dense complex matrix algebra with explicit tensor-factor bookkeeping.

Every matrix in this package is square, complex and carries the ordered list
of tensor-factor dimensions it lives on.  Partial traces and factor
permutations key off that list, so the one global convention is fixed here:
the leftmost factor is the slowest (most significant) index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_RTOL = 1e-10


class NumericalInconsistencyError(RuntimeError):
    """Computed data violates a consistency bound that should hold by construction."""


def _as_array(m) -> np.ndarray:
    if isinstance(m, ComplexMatrix):
        return m.data
    return np.asarray(m, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Square complex matrix plus the ordered tensor-factor dimensions.

    The product of ``factors`` must equal the matrix dimension.  Instances
    are immutable; the wrapped array is marked read-only.
    """

    data: np.ndarray
    factors: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        factors = self.factors
        if factors is None:
            factors = (arr.shape[0],)
        factors = tuple(int(f) for f in factors)
        if any(f < 1 for f in factors):
            raise ValueError(f"factor dimensions must be positive, got {factors}")
        if math.prod(factors) != arr.shape[0]:
            raise ValueError(
                f"product of factors {factors} does not match dimension {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"ComplexMatrix(dim={self.dim}, factors={self.factors})"


def is_hermitian(m) -> bool:
    a = _as_array(m)
    scale = np.abs(a).max()
    if scale == 0.0:
        return True
    return np.abs(a - a.conj().T).max() <= HERMITICITY_RTOL * scale


def partial_trace(m: ComplexMatrix, keep: Iterable[int]) -> ComplexMatrix:
    """Trace out every tensor factor not listed in ``keep``.

    The kept factors retain their original order; the total trace is
    preserved.
    """
    dims = m.factors
    n = len(dims)
    keep_sorted = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep_sorted):
        raise ValueError(f"keep indices {keep_sorted} out of range for {n} factors")
    t = m.data.reshape(dims + dims)
    remaining = n
    for i in range(n - 1, -1, -1):
        if i in keep_sorted:
            continue
        t = np.trace(t, axis1=i, axis2=i + remaining)
        remaining -= 1
    new_factors = tuple(dims[i] for i in keep_sorted)
    d = math.prod(new_factors)
    return ComplexMatrix(t.reshape(d, d), new_factors)


def permute_factors(m: ComplexMatrix, order: Sequence[int]) -> ComplexMatrix:
    """Reorder tensor factors so that output slot j holds input factor order[j]."""
    dims = m.factors
    n = len(dims)
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} factors")
    t = m.data.reshape(dims + dims)
    axes = order + tuple(n + k for k in order)
    new_factors = tuple(dims[k] for k in order)
    d = math.prod(new_factors)
    return ComplexMatrix(t.transpose(axes).reshape(d, d), new_factors)


def embed_operator(
    op: ComplexMatrix, factors: Sequence[int], positions: Sequence[int]
) -> ComplexMatrix:
    """Extend ``op`` with identities so it acts on ``positions`` of a larger space."""
    factors = tuple(int(f) for f in factors)
    positions = tuple(int(p) for p in positions)
    if len(positions) != op.nfactors:
        raise ValueError("need one position per factor of op")
    if tuple(factors[p] for p in positions) != op.factors:
        raise ValueError("op factors do not match the target positions")
    rest = [i for i in range(len(factors)) if i not in positions]
    rest_dim = math.prod(factors[i] for i in rest) if rest else 1
    cur_order = list(positions) + rest
    full = ComplexMatrix(
        np.kron(op.data, np.eye(rest_dim, dtype=np.complex128)),
        tuple(factors[i] for i in cur_order),
    )
    return permute_factors(full, [cur_order.index(j) for j in range(len(factors))])


def swap_operator(d: int) -> ComplexMatrix:
    """Unitary S with S (x tensor y) = y tensor x on two d-dimensional factors."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    idx = np.arange(d * d)
    s[idx, (idx % d) * d + idx // d] = 1.0
    return ComplexMatrix(s, (d, d))


def max_abs_diff(a, b) -> float:
    return float(np.abs(_as_array(a) - _as_array(b)).max())


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def matrix_to_json(m: ComplexMatrix) -> dict:
    return {
        "factors": list(m.factors),
        "re": m.data.real.tolist(),
        "im": m.data.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> ComplexMatrix:
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        factors = tuple(int(f) for f in obj["factors"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    return ComplexMatrix(re + 1j * im, factors)
