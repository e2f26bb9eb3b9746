"""Dense complex matrix algebra with explicit tensor-factor bookkeeping.

Every matrix in this package is square, complex and carries the ordered list
of tensor-factor dimensions it lives on.  Partial traces and factor
permutations key off that list, so the one global convention is fixed here:
the leftmost factor is the slowest (most significant) index.

``ComplexMatrix(...)`` validates and copies its input; that is the boundary.
Internal code passes raw ``ndarray``s plus factor dims through the
underscore helpers and wraps derived results with ``ComplexMatrix._trusted``,
which does neither.
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

    @classmethod
    def _trusted(cls, data: np.ndarray, factors: tuple[int, ...]) -> "ComplexMatrix":
        """Wrap a complex array derived from validated data: no check, no copy."""
        m = object.__new__(cls)
        data.setflags(write=False)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "factors", factors)
        return m

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"ComplexMatrix(dim={self.dim}, factors={self.factors})"


def is_hermitian(m) -> bool:
    """Hermitian to HERMITICITY_RTOL times the largest entry; over a stack,
    every matrix against its own largest entry."""
    a = _as_array(m)
    flat = a.shape[:-2] + (-1,)
    scale = np.abs(a).reshape(flat).max(axis=-1)
    defect = np.abs(a - a.conj().swapaxes(-2, -1)).reshape(flat).max(axis=-1)
    return bool((defect <= HERMITICITY_RTOL * scale).all())


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
    new_factors = tuple(dims[i] for i in keep_sorted)
    return ComplexMatrix._trusted(_partial_trace(m.data, dims, keep_sorted), new_factors)


def _partial_trace(a: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """``partial_trace`` on a raw array with any leading stack axes; ``keep``
    holds valid factor indices."""
    n = len(dims)
    lead = a.shape[:-2]
    t = a.reshape(lead + dims + dims)
    offset = len(lead)
    remaining = n
    for i in range(n - 1, -1, -1):
        if i in keep:
            continue
        t = t.trace(axis1=offset + i, axis2=offset + i + remaining)
        remaining -= 1
    d = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (d, d))


def permute_factors(m: ComplexMatrix, order: Sequence[int]) -> ComplexMatrix:
    """Reorder tensor factors so that output slot j holds input factor order[j]."""
    dims = m.factors
    n = len(dims)
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} factors")
    new_factors = tuple(dims[k] for k in order)
    return ComplexMatrix._trusted(_permute_factors(m.data, dims, order), new_factors)


def _permute_factors(a: np.ndarray, dims: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """``permute_factors`` on a raw array with any leading stack axes;
    ``order`` is a valid permutation."""
    n = len(dims)
    lead = a.shape[:-2]
    offset = len(lead)
    axes = order + tuple(n + k for k in order)
    axes = tuple(range(offset)) + tuple(offset + k for k in axes)
    return a.reshape(lead + dims + dims).transpose(axes).reshape(a.shape)


def _kron_eye(a: np.ndarray, n: int) -> np.ndarray:
    """``np.kron(a, I_n)`` on the last two axes of ``a``, as a zero fill plus
    one block copy."""
    *lead, r, c = a.shape
    out = np.zeros((*lead, r, n, c, n), dtype=np.complex128)
    k = np.arange(n)
    out[..., :, k, :, k] = a
    return out.reshape(*lead, r * n, c * n)


def _eye_kron(n: int, a: np.ndarray) -> np.ndarray:
    """``np.kron(I_n, a)`` on the last two axes of ``a``, as a zero fill plus
    one block copy."""
    *lead, r, c = a.shape
    out = np.zeros((*lead, n, r, n, c), dtype=np.complex128)
    k = np.arange(n)
    out[..., k, :, k, :] = a
    return out.reshape(*lead, n * r, n * c)


def _embed_operator(
    op: np.ndarray, factors: tuple[int, ...], positions: tuple[int, ...]
) -> np.ndarray:
    """Extend ``op``, whose factors are ``factors[positions]``, with identities
    so it acts on ``positions`` of the larger space."""
    rest = [i for i in range(len(factors)) if i not in positions]
    rest_dim = math.prod(factors[i] for i in rest)
    cur_order = list(positions) + rest
    full = _kron_eye(op, rest_dim)
    order = tuple(cur_order.index(j) for j in range(len(factors)))
    return _permute_factors(full, tuple(factors[i] for i in cur_order), order)


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


def _json_int(value, what: str) -> int:
    """A count read from JSON: an ``int``, never a bool, a float or a string
    that ``int()`` would truncate or parse."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _entry(name: str, where: tuple) -> str:
    return name + "".join(f"[{k}]" for k in where)


def _json_part(part: np.ndarray, name: str) -> np.ndarray:
    """The float array of one part read as an object array, after naming its
    first entry that is not a number, then its first that is not finite."""
    if not set(map(type, part.flat)) <= {int, float}:
        where, value = next((w, v) for w, v in np.ndenumerate(part) if type(v) not in (int, float))
        raise ValueError(f"matrix JSON entry {_entry(name, where)} is not a number: {value!r}")
    try:
        part = part.astype(float)
    except OverflowError:  # json keeps integers exact; one past the float range is inf, like 1e309
        part = np.array([float(str(v)) for v in part.flat]).reshape(part.shape)
    finite = np.isfinite(part)
    if not finite.all():
        where = np.unravel_index(np.argmin(finite), part.shape)
        raise ValueError(f"matrix JSON entry {_entry(name, where)} is not finite: {part[where]}")
    return part


def matrix_from_json(obj: dict) -> ComplexMatrix:
    """The matrix ``matrix_to_json`` wrote; every entry must be a finite
    number, never a string, a bool or null."""
    try:
        re, im = (np.asarray(obj[name], dtype=object) for name in ("re", "im"))
        factors = tuple(_json_int(f, "malformed matrix JSON: factor") for f in obj["factors"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    return ComplexMatrix(_json_part(re, "re") + 1j * _json_part(im, "im"), factors)
