"""Guarded exact integer arithmetic on numpy arrays.

int64 arrays are the fast path.  Every fast-path operation is preceded by an
exact bound check computed with Python integers; when the result could leave
the int64 range the operation is redone on object-dtype arrays holding Python
ints.  Either way the computed values are exact.  Nothing here ever touches
floating point.

exact_matmul has one structured path besides the dense product.  When a
square operand has at most r nonzeros in every row, and 4·r is at most its
side or r <= 1, the product is a sum of r gathered rows of the other
operand: row i of S @ B is the sum of S[i, c]·B[c, :] over the nonzeros
S[i, c] of row i, which costs O(r·n^2) instead of O(n^3).  A sparse right
factor goes through the transpose, A @ S = (Sᵀ @ Aᵀ)ᵀ, so there the count
is taken per column.  Each entry of the result is a sum of at most r
products, so the int64 bound is r·max|S|·max|B|, not n·max|S|·max|B|.  Past
that bound, or when an operand is already object, the same gather runs on
object buffers and the result is demoted to int64 if it fits.  The
adjacency matrix A (d ones per row), A - θI, the diagonal E_i* and A_i*
(r <= 1, so a diagonal factor is a row or column scaling) and the echelon
basis elements of T(x), whose rows sit on a few sphere blocks, are such
operands.
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


# A square factor with at most r nonzeros per row is applied by gathering
# when GATHER_RATIO·r <= its side.  Measured at n = 256 with numpy 2.4 on one
# core, where the dense int64 product (no BLAS behind integer matmul) takes
# 24.6 ms: at r = 64 the gather took 3.7 ms for a 0/1 factor and 8.1 ms for
# one with other entries; at r = 192 it took 8.5 and 20.1 ms.  The ratio 4
# leaves room for the cost of finding the nonzeros.
GATHER_RATIO = 4


def _row_structure(m: np.ndarray):
    """The nonzeros of each row of a square m, if few enough to gather.

    Returns None unless m is square with at most r nonzeros in every row,
    where GATHER_RATIO·r <= n or r <= 1.  Otherwise returns (cols, vals,
    unit): n x r arrays in which a row with fewer than r nonzeros is padded
    with column 0 and value 0, and unit, which is True when no row is padded
    and every value is 1.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        return None
    n = m.shape[0]
    mask = m != 0
    counts = mask.sum(axis=1)
    r = int(counts.max())
    if r > 1 and GATHER_RATIO * r > n:
        return None
    where = np.flatnonzero(mask)
    rows, nz_cols = np.divmod(where, n)
    nz_vals = m[rows, nz_cols]
    if where.size == n * r:
        cols = nz_cols.reshape(n, r)
        vals = nz_vals.reshape(n, r)
        return cols, vals, bool((vals == 1).all())
    slot = np.arange(where.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.zeros((n, r), dtype=np.intp)
    vals = np.zeros((n, r), dtype=m.dtype)
    cols[rows, slot] = nz_cols
    vals[rows, slot] = nz_vals
    return cols, vals, False


def _gather(cols, vals, unit: bool, other: np.ndarray, axis: int) -> np.ndarray:
    """Sum over s of vals[:, s] times the slices of other picked by cols[:, s].

    axis 0 gathers rows of other (a sparse left factor); axis -1 gathers its
    columns, which is the row gather of otherᵀ written back transposed (a
    sparse right factor).  Padded slots gather slice 0 and are zeroed by
    their value 0, so only a unit structure may skip the multiply.
    """
    shape = list(other.shape)
    shape[axis] = cols.shape[0]
    if cols.shape[1] == 0:
        return np.zeros(shape, dtype=other.dtype)
    weight = (-1,) + (1,) * (other.ndim - 1) if axis == 0 else (-1,)
    out = tmp = None
    for s in range(cols.shape[1]):
        # Every index is in range; mode="clip" only spares np.take the
        # buffered copy it makes for out= under the default mode="raise".
        part = np.take(other, cols[:, s], axis=axis, out=tmp, mode="clip")
        if not unit:
            part *= vals[:, s].reshape(weight)
        if out is None:
            out = part
        else:
            out += part
            tmp = part
    return out


def _gather_product(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """a @ b by gathering when a square factor is row-sparse, else None.

    A sparse left factor is read by its rows; a sparse right factor by its
    columns, the rows of bᵀ, since a @ b = (bᵀ @ aᵀ)ᵀ.  When both qualify
    the sparser one is taken; a left factor with r <= 1 cannot be beaten.
    """
    if not (1 <= a.ndim <= 2 and 1 <= b.ndim <= 2 and a.shape[-1] == b.shape[0]):
        return None
    left = _row_structure(a)
    right = None
    if left is None or left[0].shape[1] > 1:
        right = _row_structure(b.T)
    if right is not None and (left is None or right[0].shape[1] < left[0].shape[1]):
        (cols, vals, unit), other, axis = right, a, -1
    elif left is not None:
        (cols, vals, unit), other, axis = left, b, 0
    else:
        return None
    r = cols.shape[1]
    if (
        a.dtype != object
        and b.dtype != object
        and r * max_abs(vals) * max_abs(other) < INT64_SAFE
    ):
        return _gather(cols, vals, unit, other, axis)
    return demote(_gather(cols, to_object(vals), unit, to_object(other), axis))


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matrix product with int64/object dispatch.

    A row-sparse square factor takes the gather path (see the module
    docstring); every other product is dense.
    """
    out = _gather_product(a, b)
    if out is not None:
        return out
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
    # k itself must fit: numpy cannot take a wider k even when a is zero.
    if a.dtype != object and abs(k) < INT64_SAFE and abs(k) * max_abs(a) < INT64_SAFE:
        return a * k
    return demote(to_object(a) * k)


def exact_mul_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Hadamard (entrywise) product; supports broadcasting."""
    if a.dtype != object and b.dtype != object:
        if max_abs(a) * max_abs(b) < INT64_SAFE:
            return a * b
    return demote(to_object(a) * to_object(b))
