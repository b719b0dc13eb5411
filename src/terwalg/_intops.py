"""Guarded exact integer arithmetic on numpy arrays.

int64 arrays are the fast path.  Every fast-path operation is preceded by an
exact bound check computed with Python integers; when the result could leave
the int64 range the operation is redone on object-dtype arrays holding Python
ints.  Either way the computed values are exact.  Nothing here ever touches
floating point.

exact_matmul dispatches on what its operands are: when a square operand has
no nonzero off its diagonal, the product is a row scaling (diagonal on the
left) or a column scaling (diagonal on the right) of the other operand, done
as a guarded entrywise product in O(n^2) instead of a dense O(n^3) product.
The dual idempotents E_i* and dual distance matrices A_i* are such operands.
"""

from __future__ import annotations

import math

import numpy as np

# One bit of headroom under 2**63 so bounds can be compared with < instead
# of tracking off-by-one cases.
INT64_SAFE = 1 << 62


def max_abs(arr: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for empty arrays)."""
    if arr.size == 0:
        return 0
    # Safe for int64 input because entries are kept below INT64_SAFE.
    return int(np.abs(arr).max())


def to_object(arr: np.ndarray) -> np.ndarray:
    return arr if arr.dtype == object else arr.astype(object)


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


def _diagonal_of(m: np.ndarray) -> np.ndarray | None:
    """Diagonal of a square matrix with no off-diagonal nonzero, else None."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return None
    diag = m.diagonal()
    if np.count_nonzero(m) != np.count_nonzero(diag):
        return None
    return diag


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matrix product with int64/object dispatch.

    A diagonal square factor turns the product into a row or column scaling
    of the other factor (see the module docstring).
    """
    if 1 <= a.ndim <= 2 and 1 <= b.ndim <= 2 and a.shape[-1] == b.shape[0]:
        diag = _diagonal_of(a)
        if diag is not None:
            return exact_mul_elementwise(diag[:, None] if b.ndim == 2 else diag, b)
        diag = _diagonal_of(b)
        if diag is not None:
            # Broadcasting scales the last axis, i.e. the columns of a.
            return exact_mul_elementwise(a, diag)
    inner = a.shape[-1]
    if a.dtype != object and b.dtype != object:
        bound = inner * max_abs(a) * max_abs(b)
        if bound < INT64_SAFE:
            return a @ b
    return np.dot(to_object(a), to_object(b))


def exact_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype != object and b.dtype != object:
        if max_abs(a) + max_abs(b) < INT64_SAFE:
            return a + b
    return demote(to_object(a) + to_object(b))


def exact_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype != object and b.dtype != object:
        if max_abs(a) + max_abs(b) < INT64_SAFE:
            return a - b
    return demote(to_object(a) - to_object(b))


def exact_scale(a: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros(a.shape, dtype=np.int64)
    if a.dtype != object and abs(k) * max_abs(a) < INT64_SAFE:
        return a * k
    return demote(to_object(a) * k)


def exact_mul_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Hadamard (entrywise) product; supports broadcasting."""
    if a.dtype != object and b.dtype != object:
        if max_abs(a) * max_abs(b) < INT64_SAFE:
            return a * b
    return demote(to_object(a) * to_object(b))
