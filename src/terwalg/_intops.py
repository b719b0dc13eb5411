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

exact_matmul has one structured path besides the dense product.  When an
n x w operand has at most r nonzeros in every row, and 4·r is at most w (the
inner dimension of the product) or r <= 1, the product is a sum of r
gathered rows of the other operand: row i of S @ B is the sum of
S[i, c]·B[c, :] over the nonzeros S[i, c] of row i, which costs O(r) instead
of O(w) per entry of the result.  The factor need not be square.  A sparse
right factor goes through the transpose, A @ S = (Sᵀ @ Aᵀ)ᵀ, so there the
count is taken per column and w is the number of rows of S.  Each entry of
the result is a sum of at most r products, so the int64 bound is
r·max|S|·max|B|, not w·max|S|·max|B|.  On a d=8 sweep the gather fires on
the left-regular matrices L_p that split_center hands to min_poly and to
its Lagrange steps.  On the (d+1)-sized parameter tables of _krein_table
and the section identities it fires only at d <= 1, where a row has at
most one nonzero; every other exact_matmul product there is dense.

A left factor that multiplies many operands is prepared once:
prepare_left(m) keeps m with max|m| and its row structure, and
prepared_matmul(left, x, max|x|) then states its bound with no pass over m:
r·max|m|·max|x| for the gather when m is sparse, w·max|m|·max|x| for the
dense int64 product when it is not; past it the product goes to
exact_matmul.  The closure (closure.closure) multiplies every basis piece by
such prepared sphere blocks A[S_h', S_h] of its generators (at most d ones
per row, against a width of C(d, h)).
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


# A factor of inner width w with at most r nonzeros per row is applied by
# gathering when GATHER_RATIO·r <= w.  Measured with numpy 2.4 on one core
# (minimum of 7 runs; integer matmul has no BLAS behind it), dense against
# the gather of a 0/1 factor and of one with entries 1..4, in ms:
#   256 x 256 @ 256 x 256: dense 15.5; r = 64: 2.6, 5.7; r = 128: 4.2, 10.9
#   252 x 210 @ 210 x 120: dense 3.4;  r = 52: 0.85, 2.2; r = 105: 1.8, 4.5
#   56 x 28 @ 28 x 70:     dense 0.06; r = 7: 0.03, 0.06; r = 14: 0.06, 0.11
#   84 x 36 @ 36 x 36:     dense 0.06; r = 9: 0.03, 0.06; r = 18: 0.07, 0.13
# The gather pays a fixed cost per slot, so at the narrow sphere-block widths
# of the closure the signed gather breaks even at r = w/4; at wide factors
# the ratio 4 leaves room to spare.
GATHER_RATIO = 4


def _row_structure(m: np.ndarray):
    """The nonzeros of each row of an n x w m, if few enough to gather.

    Returns None unless m has rows and at most r nonzeros in every row,
    where GATHER_RATIO·r <= w or r <= 1.  Otherwise returns (cols, vals,
    unit): n x r arrays in which a row with fewer than r nonzeros is padded
    with column 0 and value 0, and unit, which is True when no row is padded
    and every value is 1.
    """
    if m.ndim != 2 or m.shape[0] == 0:
        return None
    n, w = m.shape
    mask = m != 0
    counts = mask.sum(axis=1)
    r = int(counts.max())
    if r > 1 and GATHER_RATIO * r > w:
        return None
    where = np.flatnonzero(mask)
    rows, nz_cols = np.divmod(where, w)
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
    """a @ b by gathering when a factor is row-sparse, else None.

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
    return guarded(
        cols.shape[1] * max_abs(vals) * max_abs(other),
        lambda v, o: _gather(cols, v, unit, o, axis),
        vals,
        other,
    )


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matrix product with int64/object dispatch.

    A row-sparse factor takes the gather path (see the module
    docstring); every other product is dense.
    """
    out = _gather_product(a, b)
    if out is not None:
        return out
    return guarded(a.shape[-1] * max_abs(a) * max_abs(b), np.matmul, a, b)


def prepare_left(m: np.ndarray) -> tuple:
    """(m, max|m|, row structure or None): m ready to be the left factor of
    many products (module docstring)."""
    return m, max_abs(m), _row_structure(m)


def prepared_matmul(left: tuple, x: np.ndarray, xmax: int) -> np.ndarray:
    """Exact m @ x for left = prepare_left(m) and xmax = max|x|; past the
    bound of the prepared path, exact_matmul."""
    m, mmax, structure = left
    if structure is None:
        return guarded(m.shape[1] * mmax * xmax, np.matmul, m, x, exact=exact_matmul)
    return guarded(
        structure[0].shape[1] * mmax * xmax,
        lambda _m, x: _gather(*structure, x, 0),
        m,
        x,
        exact=exact_matmul,
    )


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
