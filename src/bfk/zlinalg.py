"""Exact integer linear algebra: Hermite and Smith forms, kernels, lattices.

Lattice results are numpy arrays with dtype=object holding Python ints;
exact products and batched HNF coordinates come back in int64 when a
bound shows they fit.  Work runs in int64 only where a bound proves that
no product or sum can wrap (hnf and the kernel elimination check it
before every row operation); without such a bound it runs in Python ints,
so no result is ever computed modulo 2**64.
Vectors are rows; a lattice is the set of integer row combinations of its
basis.  Every lattice (IntegerLattice, lattice_from_rows) is built by
one call of hnf, whose form is canonical, which makes lattice equality a
plain array comparison.  hnf is also the one dense elimination behind
every Smith form: snf_diagonal alternates it on the rows and the columns.
"""

from __future__ import annotations

import bisect
import heapq
from math import gcd
from typing import Iterable, NamedTuple, Sequence

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with a*x + b*y == g == gcd(a, b), g >= 0."""
    x0, y0, r0 = 1, 0, a
    x1, y1, r1 = 0, 1, b
    while r1 != 0:
        q = r0 // r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
        r0, r1 = r1, r0 - q * r1
    if r0 < 0:
        x0, y0, r0 = -x0, -y0, -r0
    return x0, y0, r0


def obj_matrix(rows: Iterable[Sequence[int]], ncols: int | None = None) -> np.ndarray:
    """Build a 2-D dtype=object matrix from row sequences (may be empty)."""
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        if ncols is None:
            ncols = 0
        return np.empty((0, ncols), dtype=object)
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, r in enumerate(rows):
        if ncols is not None and len(r) != ncols:
            raise ValueError("ragged rows")
        out[i, :] = r
    return out


def obj_zeros(nrows: int, ncols: int) -> np.ndarray:
    out = np.empty((nrows, ncols), dtype=object)
    out[:, :] = 0
    return out


def obj_eye(n: int) -> np.ndarray:
    out = obj_zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def hnf_pivots(H: np.ndarray) -> list[int]:
    """Pivot column of each row of an HNF basis."""
    return [int(np.flatnonzero(r)[0]) for r in H]


# ---------------------------------------------------------------------------
# exact products and batched coordinates in HNF bases

_I64_BOUND = 1 << 55
# an int64 product is taken only when amax * bmax * k stays within this
_PRODUCT_BOUND = (1 << 62) - 1
# float64 holds every integer of at most this size exactly
_F64_EXACT = 1 << 53


def _i64_absmax(mat):
    """(mat as int64, its largest absolute entry), or (None, None) when an
    entry lies outside the int64 working range."""
    arr = np.asarray(mat)
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.int64), 0
    if arr.dtype != np.int64:
        try:
            arr = arr.astype(np.int64)
        except (OverflowError, TypeError):
            return None, None
    amax = int(np.abs(arr).max())
    # abs wraps only at -2**63, which it leaves negative
    return (arr, amax) if 0 <= amax <= _I64_BOUND else (None, None)


def _exact_matmul(A, B) -> np.ndarray:
    """A @ B over the integers, also for stacks, in the cheapest of three
    tiers that is exact by a bound.

    Each operand is read once for its largest entry, amax and bmax, with
    k the inner dimension.  When amax, bmax and amax * bmax * k are all at
    most 2**53, the product runs in float64 through BLAS: every product
    and every partial sum is then an integer of at most 2**53, which
    float64 holds exactly in any summation order.  The bound assumes
    classical GEMM, which numpy's bundled OpenBLAS uses; a fast algorithm
    of Strassen type would form other intermediate sums.  Otherwise int64
    needs every entry within 2**55 and amax * bmax * k below 2**62, and
    past that the product is taken in Python ints.  The first two tiers
    return int64.
    """
    A64, amax = _i64_absmax(A)
    B64, bmax = _i64_absmax(B)
    if A64 is not None and B64 is not None:
        reach = amax * bmax * max(1, A64.shape[-1])
        if reach <= _F64_EXACT and max(amax, bmax) <= _F64_EXACT:
            return (A64.astype(np.float64) @ B64.astype(np.float64)).astype(np.int64)
        if reach <= _PRODUCT_BOUND:
            return A64 @ B64
    return np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)


def coords_in_hnf(H: np.ndarray, V, piv: Sequence[int] | None = None):
    """(C, member): coordinates C of the columns of V over the HNF basis
    rows H, and a mask of the columns that lie in the lattice.

    H[:, piv] is upper triangular with positive diagonal, so C comes from
    forward substitution on the pivot rows of V alone; a column is kept at
    zero from the first step whose pivot does not divide it.  One exact
    product H.T @ C == V then certifies each column, and that check alone
    makes a column a member.  The substitution runs in int64 while every
    step stays under the bound of _exact_matmul, else in Python ints.
    piv is hnf_pivots(H); callers that keep it beside H pass it in.
    """
    V = np.asarray(V)
    piv = hnf_pivots(H) if piv is None else piv
    T, tmax = _i64_absmax(H[:, piv])
    W, wmax = _i64_absmax(V[piv])
    wide = T is None or W is None
    if wide:
        T, W = H[:, piv].astype(object), V[piv].astype(object)
    C = np.zeros(W.shape, dtype=W.dtype)
    ok = np.ones(W.shape[1], dtype=bool)
    cmax = 0
    for j in range(len(piv)):
        if not wide and wmax + j * tmax * cmax > _PRODUCT_BOUND:
            wide = True
            T, W, C = T.astype(object), W.astype(object), C.astype(object)
        r = W[j] - T[:j, j] @ C[:j]
        q = r // T[j, j]
        ok &= r == q * T[j, j]
        C[j] = np.where(ok, q, 0)
        if not wide:
            cmax = max(cmax, _absmax(C[j]))
    return C, (_exact_matmul(H.T, C) == V).all(axis=0)


# int64 entries of the stacked arrays of one batch, about half a MB
_BATCH_ENTRIES = 1 << 16
_OFF_KERNEL = "image left the mark kernel; upstream map is wrong"


def _batches(members: list, entries: int, shared: int = 0):
    """Consecutive slices of members, each about _BATCH_ENTRIES entries
    when one member holds `entries` and each slice `shared` once."""
    step = max(1, (_BATCH_ENTRIES - shared) // max(1, entries))
    return (members[lo:lo + step] for lo in range(0, len(members), step))


def _weighted_batches(members, entries):
    """Consecutive slices of members, each holding at most _BATCH_ENTRIES
    entries, or one member, when members[i] holds entries[i]."""
    ends = np.cumsum(entries)
    lo = 0
    while lo < len(members):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _BATCH_ENTRIES, "right")))
        yield members[lo:hi]
        lo = hi


def _stack_shared(arrs) -> np.ndarray:
    """np.stack(arrs), or one leading entry to broadcast when every item
    is the same object."""
    if all(a is arrs[0] for a in arrs):
        return np.asarray(arrs[0])[None]
    return np.stack([np.asarray(a) for a in arrs])


def _first_mismatch(quads) -> int | None:
    """Index of the first (A, B, C, D) with A @ B != C @ D, D None standing
    for C alone, or None when every item agrees.

    Items whose operands have the same shapes are stacked in batches of
    about _BATCH_ENTRIES entries, each checked by one exact product per
    side; a group's batches run in item order, so its first failing batch
    holds its first failure.
    """
    groups = {}
    for e, quad in enumerate(quads):
        groups.setdefault(tuple(x.shape for x in quad if x is not None), []).append(e)
    first = None
    for shapes, members in groups.items():
        size = sum(a * b for a, b in shapes) + 2 * shapes[0][0] * shapes[1][1]
        for chunk in _batches(members, size):
            A, B, C, *D = (np.stack([quads[e][k] for e in chunk])
                           for k in range(len(shapes)))
            rhs = _exact_matmul(C, D[0]) if D else C
            wrong = (_exact_matmul(A, B) != rhs).reshape(len(chunk), -1).any(axis=1)
            if wrong.any():
                e = chunk[int(np.argmax(wrong))]
                first = e if first is None else min(first, e)
                break
    return first


class KernelPlan(NamedTuple):
    """An HNF basis (rows) with what restricting maps into it reads: the
    pivot column of each row, whether the pivot columns form the
    identity, and the columns off the pivots, in order."""
    basis: np.ndarray
    piv: np.ndarray
    ident: bool
    rest: np.ndarray


def kernel_plan(H: np.ndarray, piv: Sequence[int] | None = None) -> KernelPlan:
    """The restriction plan of the HNF basis H; piv is hnf_pivots(H) when
    the caller keeps it."""
    piv = np.asarray(hnf_pivots(H) if piv is None else piv, dtype=np.intp)
    ident = bool((H[:, piv] == np.eye(len(piv), dtype=np.int64)).all())
    off = np.ones(H.shape[1], dtype=bool)
    off[piv] = False
    return KernelPlan(H, piv, ident, np.flatnonzero(off))


def _restrict_moves(moves, kernels) -> list:
    """Coordinates, in HNF bases, of the images of kernel bases under many
    integer maps.

    A move (B, s, d) maps Z^(kernels[s] columns) to Z^(kernels[d]
    columns), by a full matrix B or, for a selection move, by the row of
    the single 1 in each column; kernels holds a KernelPlan per index.
    The coordinates C of the images B @ H_s.T solve H_d.T @ C == images.
    Moves are batched by kind and by the shapes of both kernels.  Per
    batch the images are one scatter of kernel columns or one stacked
    product, C is their pivot rows where the target's plan says the pivot
    columns form the identity (else one coords_in_hnf solve per move), and
    C is accepted only after one exact check; where every target is of the
    first kind, the check holds on the pivot rows by construction and is
    taken on the others.  Returns the C of each move, in order, each in
    int64 or, past the bounds, in Python ints.
    """
    out = [None] * len(moves)
    groups = {}
    for m, (B, s, d) in enumerate(moves):
        groups.setdefault((kernels[s].basis.shape, kernels[d].basis.shape, B.ndim),
                          []).append(m)
    for ((ks, ds), (kd, dd), _), members in groups.items():
        for chunk in _batches(members, dd * (ks + ds) + kd * ks):
            if ks == 0:
                coords = np.zeros((len(chunk), kd, 0), dtype=np.int64)
            else:
                coords = _restrict_batch([moves[m] for m in chunk], kernels)
            for m, C in zip(chunk, coords):
                out[m] = C
    return out


def _restrict_batch(moves, kernels) -> np.ndarray:
    """Stacked coordinates (move, kd, ks) of one batch of _restrict_moves.

    A target kernel shared by the whole batch is read once and certified
    by one 2-D product over the columns of every move side by side."""
    n = len(moves)
    src = _stack_shared([kernels[s].basis for _, s, _ in moves]).transpose(0, 2, 1)
    plans = [kernels[d] for _, _, d in moves]
    if all(k is plans[0] for k in plans):
        plans = plans[:1]
    kd, dd = plans[0].basis.shape
    at = np.arange(n)[:, None]
    if moves[0][0].ndim == 2:
        images = _exact_matmul(np.stack([B for B, _, _ in moves]), src)
    else:
        # images[m, rows[m, j]] += column j of the source kernel
        rows = np.stack([B for B, _, _ in moves])
        src64, smax = _i64_absmax(src)
        wide = src64 is None or smax * rows.shape[1] > _PRODUCT_BOUND
        images = np.zeros((n, dd, src.shape[2]), dtype=object if wide else np.int64)
        np.add.at(images, (at, rows), src.astype(object) if wide else src64)
    coords = images[at, np.stack([k.piv for k in plans])]
    ident = all(k.ident for k in plans)
    if not ident:
        # the product check below certifies these coordinates too
        coords = coords.astype(object)
        for m in range(n):
            k = plans[m % len(plans)]
            if not k.ident:
                coords[m] = coords_in_hnf(k.basis, images[m], k.piv)[0]
    lhs = _stack_shared([k.basis for k in plans]).transpose(0, 2, 1)
    rhs = images
    if ident:
        # H.T @ C is C itself on the pivot rows; compare the other rows
        rest = np.stack([k.rest for k in plans])
        lhs, rhs = lhs[np.arange(len(plans))[:, None], rest], images[at, rest]
    if len(plans) == 1:
        ok = np.array_equal(_exact_matmul(lhs[0], np.hstack(coords)), np.hstack(rhs))
    else:
        ok = np.array_equal(_exact_matmul(lhs, coords), rhs)
    if not ok:
        raise AssertionError(_OFF_KERNEL)
    return coords


# ---------------------------------------------------------------------------
# Smith normal form

def _snf_diag_chain(diag: list[int]) -> list[int]:
    """Normalize a diagonal multiset into a divisibility chain d1 | d2 | ..."""
    d = [abs(x) for x in diag if x != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i] != 0:
                    g = gcd(d[i], d[j])
                    l = d[i] // g * d[j]
                    d[i], d[j] = g, l
                    changed = True
    return sorted(d)


def snf_diagonal(mat) -> list[int]:
    """Invariant factors (nonzero SNF diagonal, divisibility-chained).

    Row HNFs of the matrix and of its transpose alternate until the form
    is square and diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    Each pass is unimodular on one side and hnf keeps entries bounded by
    the pivots; the diagonal left is then made a divisibility chain.
    """
    A = hnf(mat)
    while A.shape[0] != A.shape[1] or np.count_nonzero(A) != A.shape[0]:
        A = hnf(A.T)
    return _snf_diag_chain([int(d) for d in np.diagonal(A)])


# ---------------------------------------------------------------------------
# Sparse variants for the large section-indexed systems

def unit_elimination(rows: list[dict[int, int]]
                     ) -> tuple[list[tuple[int, dict[int, int]]], list[dict[int, int]]]:
    """Eliminate the +-1 pivots of a sparse integer matrix in Markowitz order.

    Pivots come from a lazy heap holding at most one entry per row: the
    row's cheapest unit, costed (len(row)-1)*(len(col)-1) (Duff, Erisman
    and Reid, Direct Methods for Sparse Matrices, 1986).  A row with an
    entry that an elimination changes is only marked stale; it is scanned
    again once, when that entry is popped, and pushed back with its fresh
    cost if it still holds a unit.  A row without an entry is scanned
    when an elimination gives it a unit.  A popped entry of an unchanged
    row whose cost has risen, as its column filled in, is pushed back
    rescored.  Each step clears its column from every other row, so every
    step is unimodular.

    Returns (steps, core).  steps lists (column, pivot row) in elimination
    order, each pivot row as it stood when taken: a +-1 in its column and
    no column of an earlier step.  core holds the nonzero rows left, which
    contain no eliminated column.
    """
    work: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for ri, row in enumerate(rows):
        r = {c: int(v) for c, v in row.items() if v != 0}
        if not r:
            continue
        work[ri] = r
        for c in r:
            col_rows.setdefault(c, set()).add(ri)

    heap: list[tuple[int, int, int]] = []
    queued: set[int] = set()        # rows with an entry on the heap
    stale: set[int] = set()         # queued rows changed since their push

    def push(ri: int) -> None:
        r = work[ri]
        rlen = len(r) - 1
        best = None
        for c, v in r.items():
            if v == 1 or v == -1:
                cost = rlen * (len(col_rows[c]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, ri, c)
                    if cost == 0:
                        break
        if best is not None:
            heapq.heappush(heap, best)
            queued.add(ri)

    for ri in work:
        push(ri)
    steps = []
    while heap:
        cost, pri, pc = heapq.heappop(heap)
        queued.discard(pri)
        prow = work.get(pri)
        if prow is None:
            continue
        if pri in stale:
            stale.discard(pri)
            push(pri)
            continue
        # an unchanged row still holds its unit at pc
        if (len(prow) - 1) * (len(col_rows[pc]) - 1) > cost:
            push(pri)
            continue
        del work[pri]
        for c in prow:
            col_rows[c].discard(pri)
        # row r becomes r - (r[pc] / pval) * prow, and pval is +-1
        pval = prow[pc]
        rest = [(c, -v * pval) for c, v in prow.items() if c != pc]
        for ri in col_rows.pop(pc, ()):
            r = work[ri]
            factor = r.pop(pc)
            for c, v in rest:
                old = r.get(c)
                if old is None:
                    r[c] = factor * v
                    col_rows[c].add(ri)
                    continue
                nv = old + factor * v
                if nv:
                    r[c] = nv
                else:
                    del r[c]
                    col_rows[c].discard(ri)
            if not r:
                del work[ri]
                stale.discard(ri)
            elif ri in queued:
                stale.add(ri)
            elif any(r.get(c) in (1, -1) for c in prow):
                push(ri)
        steps.append((pc, prow))
    return steps, list(work.values())


def _dense_core(core: list[dict[int, int]]) -> tuple[list[int], np.ndarray]:
    """The sorted columns that core rows touch, and the rows on them densely."""
    live_cols = sorted({c for r in core for c in r})
    cmap = {c: i for i, c in enumerate(live_cols)}
    dense = obj_zeros(len(core), len(live_cols))
    for i, r in enumerate(core):
        for c, v in r.items():
            dense[i, cmap[c]] = v
    return live_cols, dense


def sparse_snf_invariants(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors of a sparse integer matrix; their number is its rank.

    Phase 1 is unit_elimination (cheap for the relation matrices built
    here, where almost every row carries a unit); each step contributes an
    invariant factor 1.  Phase 2 runs the dense routine on whatever core
    remains.  Invariant factors are canonical, so the pivot order changes
    only the work, never the result.
    """
    steps, core = unit_elimination(rows)
    return [1] * len(steps) + snf_diagonal(_dense_core(core)[1])


def sparse_kernel_basis(rows: list[dict[int, int]], ncols: int) -> np.ndarray:
    """Z-basis (columns, dtype=object) of {x in Z^ncols : A x = 0} for
    sparse rows A.

    unit_elimination writes each eliminated unknown as an integer
    combination of later ones; kernel_basis solves the dense core left
    over its live columns, and an unknown that is neither eliminated nor
    live is free.  Back-substituting in reverse elimination order extends
    those solutions to every unknown.  Every step is unimodular, so the
    columns are a basis of the kernel, not just of a sublattice.
    """
    steps, core = unit_elimination(rows)
    live, dense = _dense_core(core)
    K = kernel_basis(dense)
    taken = set(live).union(c for c, _ in steps)
    free = [c for c in range(ncols) if c not in taken]
    X = obj_zeros(ncols, len(free) + K.shape[0])
    X[free, np.arange(len(free))] = 1
    X[np.ix_(live, np.arange(len(free), X.shape[1]))] = K.T
    for pc, prow in reversed(steps):
        acc = 0
        for c, v in prow.items():
            if c != pc:
                acc = acc + v * X[c]
        X[pc] = -prow[pc] * acc
    return X


_WRAP = 1 << 62


def _absmax(a: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array)."""
    if not a.size:
        return 0
    return max(int(a.max()), -int(a.min()))


def _sub_multiples(W: np.ndarray, rows: np.ndarray, q: np.ndarray,
                   src: int) -> np.ndarray:
    """W[rows] -= q * W[src], returning W (switched to Python ints if needed).

    The step stays in int64 only when max|q| * max|W[src]| + max|W[rows]|
    is below 2**62, so no product or difference can wrap; otherwise the
    whole matrix moves to dtype=object and stays there.
    """
    if W.dtype == np.int64 and (_absmax(q) * _absmax(W[src])
                                + _absmax(W[rows]) >= _WRAP):
        W, q = W.astype(object), q.astype(object)
    W[rows] -= q[:, None] * W[src]
    return W


def _gcd_down(W: np.ndarray, top: int, j: int) -> tuple[np.ndarray, int]:
    """Euclid on column j over rows top.. until at most one entry is nonzero.

    Returns W and the row holding the surviving entry, or -1 if none does.
    """
    while True:
        nz = np.flatnonzero(W[top:, j])
        if nz.size <= 1:
            return W, (top + int(nz[0]) if nz.size else -1)
        col = W[top + nz, j]
        k = int(np.argmin(np.abs(col)))
        others = top + np.delete(nz, k)
        src = top + int(nz[k])
        W = _sub_multiples(W, others, W[others, j] // W[src, j], src)


def _int_matrix(mat) -> np.ndarray:
    """A 2-D copy of mat in int64 when every entry is below 2**62, else object."""
    A = np.asarray(mat)
    if A.ndim != 2:
        raise ValueError("need a 2-D matrix")
    try:
        W = A.astype(np.int64)
    except OverflowError:
        return A.astype(object)
    if _absmax(W) >= _WRAP:
        return A.astype(object)
    return W


def kernel_basis(mat) -> np.ndarray:
    """Saturated basis (rows, canonical HNF) of the right kernel of mat.

    Row-reduces [A^T | I_n] (Cohen, GTM 138, 2.4).  Euclid down each
    column of the A^T part leaves one pivot row for it, which is set
    aside.  Every step is unimodular, so the I_n parts of the rows left,
    whose A^T part is zero, are a basis of {x in Z^n : A x = 0}.  Those
    rows are then put in canonical row HNF (positive pivots, entries above
    each pivot in [0, pivot)), the form hnf gives, so the result is
    unique.  Work is in int64 under the bound of _sub_multiples, else in
    Python ints; the result is always dtype=object.
    """
    A = _int_matrix(mat)
    m, n = A.shape
    W = np.concatenate([A.T, np.eye(n, dtype=np.int64).astype(A.dtype)],
                       axis=1)
    top = 0
    for j in range(m):
        W, r = _gcd_down(W, top, j)
        if r >= 0:
            W[[top, r]] = W[[r, top]]
            top += 1
    K = W[top:, m:]
    row = 0
    for j in range(n):
        if row == K.shape[0]:
            break
        K, r = _gcd_down(K, row, j)
        if r < 0:
            continue
        if r != row:
            K[[row, r]] = K[[r, row]]
        if K[row, j] < 0:
            K[row] = -K[row]
        q = K[:row, j] // K[row, j]
        up = np.flatnonzero(q)
        if up.size:
            K = _sub_multiples(K, up, q[up], row)
        row += 1
    return K.astype(object)


# ---------------------------------------------------------------------------
# canonical Hermite normal form by row insertion

def hnf(mat) -> np.ndarray:
    """Canonical row HNF of the rows of mat, zero rows dropped, dtype=object:
    positive pivots, entries above each pivot in [0, pivot).

    Each row is inserted into a fully reduced HNF (Kannan and Bachem, SIAM
    J. Comput. 8, 1979; Storjohann, PhD thesis, ETH Zurich, 2000).  It is
    reduced by every basis row; a collision with the pivot of its leading
    column is folded with xgcd, which shrinks that pivot, and what is left
    is inserted in turn.  A new or changed basis row is reduced by the rows
    below it and the rows above it are reduced by it, so entries stay
    bounded by the pivots.  Rows are int64, each with a Python-int bound
    on its largest entry: a step a*u + b*w stays in int64 while
    |a|*bound(u) + |b|*bound(w) is below 2**62 (the rule of
    _sub_multiples).  Past that the exact maxima replace both bounds, and
    only if the rule still fails do all rows move to Python ints, for good.
    """
    A = _int_matrix(mat)
    rows: list[np.ndarray] = []     # the basis by pivot column, then the row
    bnd: list[int] = []             # being inserted; bnd[i] >= max|rows[i]|
    piv: list[int] = []
    pv: list[int] = []              # pv[i] = rows[i][piv[i]]
    wide = A.dtype == object

    def comb(i, a, b, k):
        """rows[i] = a*rows[i] + b*rows[k]."""
        nonlocal wide
        if not wide and abs(a) * bnd[i] + abs(b) * bnd[k] >= _WRAP:
            bnd[i], bnd[k] = _absmax(rows[i]), _absmax(rows[k])
            if abs(a) * bnd[i] + abs(b) * bnd[k] >= _WRAP:
                wide = True
                rows[:] = [r.astype(object) for r in rows]
        bnd[i] = abs(a) * bnd[i] + abs(b) * bnd[k]
        rows[i] = (rows[i] if a == 1 else a * rows[i]) + b * rows[k]

    def reduce(i, start):
        for k in range(start, len(piv)):
            q = int(rows[i][piv[k]]) // pv[k]
            if q:
                comb(i, 1, -q, k)

    def settle(k):
        """Reduce row k by the rows below it and the rows above by it."""
        reduce(k, k + 1)
        for i in range(k):
            q = int(rows[i][piv[k]]) // pv[k]
            if q:
                comb(i, 1, -q, k)
                reduce(i, k + 1)

    for v in A:
        r = len(piv)
        rows.append(v.astype(object) if wide else v)
        bnd.append(_absmax(v))
        while True:
            reduce(r, 0)
            nz = np.flatnonzero(rows[r])
            if not nz.size:
                del rows[r], bnd[r]
                break
            j = int(nz[0])
            k = bisect.bisect_left(piv, j)
            if k < r and piv[k] == j:
                # 0 < rows[r][j] < pivot: fold, leaving the gcd as the pivot
                # and 0 in the row being inserted; the old row k waits at r + 1
                a, b = pv[k], int(rows[r][j])
                x, y, g = xgcd(a, b)
                rows.append(rows[k])
                bnd.append(bnd[k])
                comb(k, x, y, r)
                comb(r, a // g, -(b // g), r + 1)
                del rows[r + 1], bnd[r + 1]
                pv[k] = g
                settle(k)
                continue
            if rows[r][j] < 0:
                rows[r] = -rows[r]
            rows.insert(k, rows.pop())
            bnd.insert(k, bnd.pop())
            piv.insert(k, j)
            pv.insert(k, int(rows[k][j]))
            settle(k)
            break
    if not rows:
        return np.empty((0, A.shape[1]), dtype=object)
    return np.vstack(rows).astype(object)


# ---------------------------------------------------------------------------

class IntegerLattice:
    """A sublattice of Z^ambient with a canonical HNF basis.

    _piv holds the pivot column of each basis row, so membership and
    coordinates never rescan the basis for them.
    """

    def __init__(self, ambient: int, basis_rows=None):
        self.ambient = ambient
        mat = (np.empty((0, ambient), dtype=object) if basis_rows is None
               else basis_rows if isinstance(basis_rows, np.ndarray)
               else obj_matrix(basis_rows, ambient))
        if mat.ndim != 2 or mat.shape[1] != ambient:
            raise ValueError(f"need a 2-D matrix with {ambient} columns")
        self.basis = hnf(mat)
        self._piv = hnf_pivots(self.basis)

    @classmethod
    def from_hnf(cls, basis: np.ndarray) -> "IntegerLattice":
        """Wrap a basis that is already in canonical HNF."""
        lat = cls(basis.shape[1])
        lat.basis, lat._piv = basis, hnf_pivots(basis)
        return lat

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def members(self, cols) -> np.ndarray:
        """Mask of the columns of cols that lie in the lattice."""
        return coords_in_hnf(self.basis, cols, self._piv)[1]

    def member(self, vec) -> bool:
        return bool(self.members(np.asarray(vec).reshape(-1, 1))[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerLattice):
            return NotImplemented
        return (self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and bool(np.all(self.basis == other.basis)))

    def __hash__(self):
        return hash((self.ambient, self.basis.shape))

    def __repr__(self):
        return f"IntegerLattice(ambient={self.ambient}, rank={self.rank})"


def lattice_from_rows(ambient: int, rows) -> IntegerLattice:
    return IntegerLattice(ambient, rows)
