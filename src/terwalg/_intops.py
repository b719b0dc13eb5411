"""Guarded exact integer arithmetic on numpy arrays.

int64 arrays are the fast path.  A kernel states an exact bound, computed
with Python integers, on every value it forms, and hands it to guarded, the
one int64/object dispatch of the package: under INT64_SAFE the kernel runs
in int64; past it, or when an operand is already object, it runs on object
arrays holding Python ints and each result is demoted to int64 when it
fits.  Either way the computed values are exact.  Every exact-integer
kernel of the package goes through guarded, with two exceptions: the
in-place row operations of echelon, which keep their own bound checks, and
the count key of the closure's triple-label certificate (closure._step_key),
which sums and packs small step counts in place, each in the dtype that
narrow_dtype picks from its exact bound; where narrow_dtype finds no int64
dtype the certificate is given up and the closure runs its product loop.
Only this module and echelon read INT64_SAFE.  Nothing here ever touches
floating point.

Narrow arrays are storage only.  echelon holds each stored row in the
narrowest signed dtype that holds its largest entry (narrow, narrow_dtype):
int8 for the 0/1 basis rows of T(x), int16, int32, int64 below INT64_SAFE,
object past it.  numpy keeps the dtype of an array operand against a Python int (NEP
50), so 3 * row and row *= 3 on an int8 row wrap with no warning.  So one
rule, wide, turns a narrow array into int64 before any arithmetic whose
result could stay narrow: guarded applies it to every operand it hands to
the int64 path, and echelon to each stored row it scales.  Reads that are
exact on any dtype need no widening: indexing, comparisons, sums (numpy
sums small integers in int64), flatnonzero, and an operation against an
int64 operand, which numpy computes in int64.  A kernel that reads a
narrow array only so keeps it out of guarded's operands, and one that
scales only slices of it widens each slice it takes.
"""

from __future__ import annotations

import math

import numpy as np

# One bit of headroom under 2**63 so bounds can be compared with < instead
# of tracking off-by-one cases.
INT64_SAFE = 1 << 62


# The storage dtypes narrower than int64, narrowest first (narrow).
_NARROW = tuple((np.dtype(t), int(np.iinfo(t).max)) for t in (np.int8, np.int16, np.int32))


def max_abs(arr: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for empty arrays)."""
    if arr.size == 0:
        return 0
    if arr.itemsize < 8:
        # A narrow dtype cannot hold the absolute value of its minimum.
        return max(int(np.maximum.reduce(arr, None)), -int(np.minimum.reduce(arr, None)))
    # Safe for int64 input because entries are kept below INT64_SAFE.
    return int(np.abs(arr).max())


def narrow_dtype(amax: int) -> np.dtype | None:
    """The narrowest signed dtype that holds every integer in [-amax, amax]:
    int8, int16 or int32, else int64 below INT64_SAFE; None past it, where
    values are held as Python ints (module docstring)."""
    if amax >= INT64_SAFE:
        return None
    for dtype, top in _NARROW:
        if amax <= top:
            return dtype
    return np.dtype(np.int64)


def narrow(arr: np.ndarray, amax: int) -> np.ndarray:
    """arr held in narrow_dtype(amax), amax = max|arr|, as a new array when
    that dtype is narrower than int64; an array past INT64_SAFE stays
    object."""
    dtype = narrow_dtype(amax)
    if dtype is None:
        return arr
    return arr.astype(dtype, copy=dtype.itemsize < 8)


def wide(arr: np.ndarray) -> np.ndarray:
    """arr as int64 when it is held narrow; an int64 or object array as it
    is.  The one widening rule (module docstring)."""
    if arr.itemsize < 8 and arr.dtype.kind == "i":
        return arr.astype(np.int64)
    return arr


def to_object(arr: np.ndarray) -> np.ndarray:
    return arr if arr.dtype == object else arr.astype(object)


def python_ints(arr: np.ndarray) -> np.ndarray:
    """An object array with its numpy integer scalars made Python ints.

    A numpy scalar keeps its fixed width inside an object array, so
    arithmetic on it wraps or raises where a Python int grows.  Input
    that holds none is returned as it is.
    """
    if arr.dtype != object or not any(isinstance(v, np.integer) for v in arr.flat):
        return arr
    out = [int(v) if isinstance(v, np.integer) else v for v in arr.flat]
    return np.array(out, dtype=object).reshape(arr.shape)


def demote(arr: np.ndarray, known_max: int | None = None) -> np.ndarray:
    """Convert an object array back to int64 when all entries fit."""
    if arr.dtype != object:
        return arr
    m = max_abs(arr) if known_max is None else known_max
    if m < INT64_SAFE:
        return arr.astype(np.int64)
    return arr


def content(arr: np.ndarray) -> int:
    """gcd of all entries (nonnegative; 0 for the zero array)."""
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        g = 0
        for v in arr.flat:
            g = math.gcd(g, v)
            if g == 1:
                break
        return g
    return int(np.gcd.reduce(np.abs(arr.ravel())))


def guarded(bound: int, fn, *operands: np.ndarray, exact=None):
    """fn(*operands), exactly: the one int64/object dispatch of the package.

    The caller states bound, a bound on every value that fn forms from
    int64 operands.  When bound < INT64_SAFE and no operand is object, fn
    runs in int64, on the operands with every narrow one widened (wide).
    Otherwise exact, when given, runs on the operands as they are; by
    default fn runs on the operands made object (Python ints) and each
    result array is demoted, one by one when fn returns a tuple.  Outside
    the in-place row operations of echelon, this is the one place a
    kernel's bound meets INT64_SAFE.  A kernel that only reads a narrow
    array exactly (module docstring) leaves it out of operands.
    """
    if bound < INT64_SAFE:
        held_narrow = False
        for a in operands:
            if a.dtype.hasobject:
                break
            held_narrow |= a.itemsize < 8
        else:
            return fn(*map(wide, operands)) if held_narrow else fn(*operands)
    if exact is not None:
        return exact(*operands)
    out = fn(*(to_object(a) for a in operands))
    if isinstance(out, tuple):
        return tuple(demote(o) for o in out)
    return demote(out)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matrix product with int64/object dispatch: the dense
    product, bounded by w·max|a|·max|b| for the inner width w."""
    return guarded(a.shape[-1] * max_abs(a) * max_abs(b), np.matmul, a, b)


def exact_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return guarded(max_abs(a) + max_abs(b), np.add, a, b)


def exact_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return guarded(max_abs(a) + max_abs(b), np.subtract, a, b)


def exact_scale(a: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros(a.shape, dtype=np.int64)
    # k itself must fit: numpy cannot take a wider k even when a is zero.
    return guarded(abs(k) * max(max_abs(a), 1), lambda x: x * k, a)


def exact_mul_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Hadamard (entrywise) product; supports broadcasting."""
    return guarded(max_abs(a) * max_abs(b), np.multiply, a, b)
