"""Test-only fixture builders and reference checks.

The package builds bisets only along whole sections (`indinf_biset`,
`defres_biset`); the one-step builders here (induction, restriction,
inflation, deflation, isomorphisms, conjugation of a section) give
independent fixtures for the composition, orbit and action tests.
`LatticeBuilder`, a per-vector HNF cascade on Python-int rows, is the
reference `hnf` is checked against.  `sparse_kernel` and
`_direct_limit_basis`, a sparse xgcd fold over the raw constraint rows,
are the reference the sparse limit solver and `kernel_basis` are checked
against; `unit_elimination_by_rescans`, the former elimination that
rescanned every changed row, is the reference for the lazily re-scored
`zlinalg.unit_elimination`.  The per-subgroup walks at the end (conjugates one tuple at a
time, marks by walking the group, union-find slot classes, double-coset
defres) are the references for the reads off the conjugation table
`GroupAnalysis.conj_sub`.  The quotient-based section rule
(`classify_quotient`, `QUOTIENT_CLASSES`), `preimage` and
`indinf_class_matrix` work on built quotient groups; they are the
references for `section_shape`, `family_contains` and the slot-based
induced kernel sums.  `sections_by_loops`, `conj_edges_by_loops` and
`relation_rows_by_columns` are the former per-pair, per-generator and
per-column loops of `SectionFamily` and of the colimit relations, the
references for their whole-family array reads.  `DenseFamily`, the
former family with one (sections x subgroups) array of class positions,
a `SectionSlot` per section and tuple edges, is the reference for the
flat arrays of `SectionFamily`, and `slots_of` scatters those arrays
back into slots for the per-slot references; `counit_matrix`, the
former dense counit, with `spans_everything_dense` is the reference for
the sparse counit columns.  `counit_report_by_relations`, the former
counit probe, takes the Smith invariants of every relation row
(`colimit_relations`, `relation_rows`) and the span of every counit
column (`counit_columns`, `spans_everything`); it is the reference for
the forest elimination of `limits.counit_kernel_report`.  The per-point biset
references at the end (`left_transporter`, `right_transporter` and the
former `transfers` forms `transport_subgroup` and `left_transport`; the
coset, quotient and composition walks; and the three appendix engines
that called them one point at a time, with their set checks and the
former `_outcome`, which turned a first failure or a case count into a
row) are the
references for the whole-biset masks and array passes of `bisets` and
of the appendix engines.  `extraspecial_table_by_loops`, `table_checks_by_loops`,
`element_orders_by_loops`, `center_by_loops` and `cyclic_subs_by_loops`
are the former per-element loops of group construction, the references
for its whole-array forms, and `shapes_through_int64` is the former
shape table, the reference for its one-byte temporaries.  `coords_in_hnf_by_vector`, the former
one-vector subtraction down the basis rows, is the reference for the
batched echelon solve `zlinalg.coords_in_hnf`, and
`constraint_violation_by_edges`, the former edge-by-edge walk of the
main campaign's witness, the reference for the stacked `residual_check`.
"""

import bisect
import heapq
from typing import Iterable, Sequence

import numpy as np

from bfk.bisets import ConcreteBiset, compose, defres_biset, indinf_biset, opposite
from bfk.burnside import ring_data
from bfk.campaigns import (_census, _fail_row, _fingerprint, _ints,
                           _sample_indices, _signature_reps, _subquotient_fps)
from bfk.groups import (SHAPE_OTHER, SHAPE_XSP, _check_prime_power, _closure, analysis,
                        product_members)
from bfk.limits import CoefficientSystem, _admits, _upward_moves, family_contains
from bfk.zlinalg import (_batches, _exact_matmul, _stack_shared, hnf, hnf_pivots,
                         kernel_basis,
                         obj_matrix, obj_zeros, sparse_snf_invariants, xgcd)


def validate_biset(U: ConcreteBiset) -> ConcreteBiset:
    """Raise ValueError unless both actions are actions and they commute."""
    Q, P = U.left_group, U.right_group
    ident = np.arange(U.size, dtype=np.int32)
    if not np.array_equal(U.left[0], ident):
        raise ValueError("left identity must act trivially")
    if not np.array_equal(U.right[:, 0], ident):
        raise ValueError("right identity must act trivially")
    for q1 in range(Q.order):
        # rows[q2, x] = q2.(q1.x) against (q2 q1).x
        if not np.array_equal(U.left[:, U.left[q1]], U.left[Q.table[:, q1]]):
            raise ValueError("left action fails associativity")
        if not np.array_equal(U.right[U.left[q1], :], U.left[q1, U.right]):
            raise ValueError("actions fail to commute")
    for p1 in range(P.order):
        # cols[x, p2] = (x.p1).p2 against x.(p1 p2)
        if not np.array_equal(U.right[U.right[:, p1], :], U.right[:, P.table[p1]]):
            raise ValueError("right action fails associativity")
    return U


def all_sections(ana) -> list:
    """Every section (T, S) of the analysed group with its quotient built,
    in (top index, bottom index) order."""
    return [ana.section_at(ti, si) for ti in range(ana.n_sub)
            for si in np.flatnonzero(ana.normal[:, ti]).tolist()]


def classify_quotient(q) -> tuple:
    """Shape of a built quotient group by its table: ("elab", rank),
    ("xsp", None) or ("other", None)."""
    p = q.prime
    if q.is_abelian and q.exponent in (1, p):
        return ("elab", _check_prime_power(q.order, p))
    if q.order == p ** 3 and not q.is_abelian and q.exponent == p:
        return ("xsp", None)
    return ("other", None)


# each family label as a predicate on the shape of a built quotient
QUOTIENT_CLASSES = {
    "E":  lambda kind, rank: kind == "elab",
    "E2": lambda kind, rank: kind == "elab" and rank <= 2,
    "E3": lambda kind, rank: kind == "elab" and rank <= 3,
    "X":  lambda kind, rank: kind in ("elab", "xsp"),
    "X2": lambda kind, rank: (kind == "elab" and rank <= 2) or kind == "xsp",
    "X3": lambda kind, rank: (kind == "elab" and rank <= 3) or kind == "xsp",
}


def preimage(sec, quotient_members: Iterable[int]) -> tuple:
    """Members of the top of sec that project into the given cosets."""
    want = set(int(m) for m in quotient_members)
    return tuple(t for t in sec.top if int(sec.proj[t]) in want)


def indinf_class_matrix(ana, sec) -> np.ndarray:
    """Induce from the top after inflating from the built quotient: each
    quotient orbit goes to the orbit of its preimage subgroup."""
    dp = ring_data(ana.group)
    dq = ring_data(sec.group)
    out = obj_zeros(dp.n_classes, dq.n_classes)
    for j, wbar in enumerate(dq.reps_members):
        out[dp.class_position(preimage(sec, wbar)), j] = 1
    return out


def normalizer(ana, members) -> tuple:
    """Members of the normalizer of a subgroup given by its members."""
    return tuple(np.flatnonzero(ana.normalizes[ana.index_of(members)]).tolist())


def restriction_biset(ana, members) -> ConcreteBiset:
    return defres_biset(ana.section_at(ana.index_of(members), 0))


def induction_biset(ana, members) -> ConcreteBiset:
    return indinf_biset(ana.section_at(ana.index_of(members), 0))


def _top_and_lifts(ana, sec):
    tsec = ana.section_at(ana.index_of(sec.top), 0)
    lift = np.asarray(tsec.reps, dtype=np.int32)
    qreps = np.asarray([sec.reps[t] for t in range(sec.group.order)],
                       dtype=np.int32)
    return tsec.group, lift, qreps


def inflation_biset(ana, sec) -> ConcreteBiset:
    """(top-as-group, quotient)-biset: the quotient with the top acting
    through the projection on the left."""
    T, lift, qreps = _top_and_lifts(ana, sec)
    left = sec.proj[sec.parent.table[np.ix_(lift, qreps)]]
    return ConcreteBiset(T, sec.group, left, sec.group.table, name="inf")


def deflation_biset(ana, sec) -> ConcreteBiset:
    """(quotient, top-as-group)-biset: the quotient with the top acting
    through the projection on the right."""
    T, lift, qreps = _top_and_lifts(ana, sec)
    right = sec.proj[sec.parent.table[np.ix_(qreps, lift)]]
    return ConcreteBiset(sec.group, T, sec.group.table, right, name="def")


def iso_biset(src, dst, f) -> ConcreteBiset:
    """(dst, src)-biset carried by a group isomorphism f: src -> dst."""
    f = np.asarray(f, dtype=np.int32)
    return ConcreteBiset(dst, src, dst.table, dst.table[:, f], name="iso")


def section_transport(ana, sec, u: int):
    """Conjugate a section by u: the target section and the
    (target-quotient, source-quotient)-biset carried by conjugation."""
    G = ana.group
    target = ana.section_at(ana.index_of(conjugate_members(ana, u, sec.top)),
                            ana.index_of(conjugate_members(ana, u, sec.bottom)))
    ui = G.inv_of(u)
    f = [int(target.proj[G.mul(G.mul(u, sec.reps[t]), ui)])
         for t in range(sec.group.order)]
    return target, iso_biset(sec.group, target.group, f)


def _restrict_to_kernels(M: np.ndarray, src_kern: np.ndarray,
                         dst_kern: np.ndarray, dst_piv) -> np.ndarray:
    """Rewrite a transitive-basis matrix as a map between kernel bases, one
    move at a time; the reference for zlinalg._restrict_moves.

    The kernels are HNF bases (rows) and dst_piv holds the pivot column of
    each row of dst_kern.  The coordinates C of the images M @ src_kern.T
    solve dst_kern.T @ C == images.  When every pivot is 1 the pivot
    columns of dst_kern form the identity, so C is the pivot rows of the
    images; otherwise each column is solved by coords_in_hnf_by_vector.
    Either way C is accepted only after the exact product check.
    """
    images = _exact_matmul(M, src_kern.T)
    k = dst_kern.shape[0]
    piv = np.asarray(dst_piv, dtype=np.intp)
    if (dst_kern[np.arange(k), piv] == 1).all():
        C = images[piv, :]
    else:
        H = np.asarray(dst_kern, dtype=object)
        cols = [coords_in_hnf_by_vector(H, v, dst_piv) for v in images.T]
        C = None if None in cols else obj_matrix(cols, k).T
    if C is None or not np.array_equal(_exact_matmul(dst_kern.T, C), images):
        raise AssertionError("image left the mark kernel; upstream map is wrong")
    return C


def per_column_restrict(M, src_kern, dst_kern):
    """A transitive-basis matrix as a map between kernel bases (HNF rows),
    by object products and coords_in_hnf_by_vector one column at a time; the
    reference for _restrict_to_kernels."""
    H = np.asarray(dst_kern, dtype=object)
    images = np.asarray(M, dtype=object) @ np.asarray(src_kern, dtype=object).T
    out = obj_zeros(H.shape[0], images.shape[1])
    for i in range(images.shape[1]):
        c = coords_in_hnf_by_vector(H, images[:, i])
        if c is None:
            raise AssertionError("image left the mark kernel")
        out[:, i] = c
    return out


def _placed(rows_of_columns, n_rows: int) -> np.ndarray:
    M = np.zeros((n_rows, len(rows_of_columns)), dtype=np.int64)
    for j, r in enumerate(rows_of_columns):
        M[r, j] += 1
    return M


def maps_by_edges(system: CoefficientSystem) -> dict:
    """Every edge matrix and base map of a K or Kdual system, by one
    limits._restrict_to_kernels call per map on a transitive-basis matrix
    written column by column; the reference for the batched pass.

    Keys are those of the system's caches: (src, dst, tag) for edges,
    ("down", i) and, for K, ("up", i).
    """
    ana, slots = system.ana, slots_of(system.family)
    kern = [k.basis for k in system._kernels]
    piv = [k.piv for k in system._kernels]
    base, base_piv = system._base.basis, system._base.piv

    def restrict(M, s_kern, d_kern, d_piv):
        return np.asarray(_restrict_to_kernels(M, s_kern, d_kern, d_piv),
                          dtype=np.int64)

    def into(src, dst, u=0):
        # induction, inflation and conjugation by u keep or move the
        # representing subgroup of each class of src into dst
        return _placed([int(dst.class_pos[ana.conj_sub[u, w]]) for w in src.classes],
                       dst.dim)

    out = {}
    for s, d, tag in system.edges():
        a, b = slots[s], slots[d]
        if system.functor == "K":
            M = (system._b_defres_between(s, d) if tag[0] == "cover"
                 else into(a, b, tag[1]))
            out[(s, d, tag)] = restrict(M, kern[s], kern[d], piv[d])
        else:
            u_inv = 0 if tag[0] == "cover" else ana.group.inv_of(tag[1])
            out[(s, d, tag)] = restrict(into(b, a, u_inv), kern[d], kern[s],
                                        piv[s]).T
    for i, slot in enumerate(slots):
        up = restrict(_placed([int(ana.class_of_sub[w]) for w in slot.classes],
                              len(ana.class_reps)), kern[i], base, base_piv)
        if system.functor == "K":
            out[("up", i)] = up
            out[("down", i)] = restrict(system._b_defres_from_base(i), base,
                                        kern[i], piv[i])
        else:
            out[("down", i)] = up.T
    return out


def _first_nonzero(v: np.ndarray) -> int:
    for j, x in enumerate(v):
        if x != 0:
            return j
    return -1


class LatticeBuilder:
    """Incremental row-span accumulator kept in Hermite normal form.

    add() reduces the incoming vector against the stored rows before and
    during the pivot cascade, and re-reduces any row a cascade touches, so
    entries stay bounded by the pivots instead of swelling. Rank and
    membership are available at any point; hnf() is then just a copy.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[np.ndarray] = []     # sorted by pivot column
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce_vec(self, v, start: int = 0):
        """Full-divide v by each stored pivot from row position start on."""
        for k in range(start, len(self.rows)):
            q = int(v[self.pivot_cols[k]]) // int(self.rows[k][self.pivot_cols[k]])
            if q:
                v = v - q * self.rows[k]
        return v

    def _reduce_column(self, k: int) -> None:
        """Bring earlier rows' entries in row k's pivot column into range."""
        j = self.pivot_cols[k]
        piv = int(self.rows[k][j])
        for i in range(k):
            q = int(self.rows[i][j]) // piv
            if q:
                self.rows[i] = self._reduce_vec(self.rows[i] - q * self.rows[k],
                                                k + 1)

    def add(self, vec) -> bool:
        """Insert a vector; returns True if the span grew."""
        v = np.array([int(x) for x in vec], dtype=object)
        if v.shape[0] != self.ncols:
            raise ValueError("wrong length")
        grew = False
        while True:
            v = self._reduce_vec(v)
            j = _first_nonzero(v)
            if j < 0:
                return grew
            k = bisect.bisect_left(self.pivot_cols, j)
            if k < len(self.pivot_cols) and self.pivot_cols[k] == j:
                # pivot collision with 0 < v[j] < pivot: shrink the pivot
                row = self.rows[k]
                a, b = int(row[j]), int(v[j])
                x, y, g = xgcd(a, b)
                combined = x * row + y * v
                v = (a // g) * v - (b // g) * row
                self.rows[k] = self._reduce_vec(combined, k + 1)
                self._reduce_column(k)
                grew = True
            else:
                if v[j] < 0:
                    v = -v
                self.rows.insert(k, self._reduce_vec(v, k))
                self.pivot_cols.insert(k, j)
                self._reduce_column(k)
                return True

    def member(self, vec) -> bool:
        v = np.array([int(x) for x in vec], dtype=object)
        for j, row in zip(self.pivot_cols, self.rows):
            x = int(v[j])
            if x == 0:
                continue
            piv = int(row[j])
            if x % piv != 0:
                return False
            v = v - (x // piv) * row
        return _first_nonzero(v) < 0

    def hnf(self) -> np.ndarray:
        """Canonical Hermite normal form of the accumulated span."""
        if not self.rows:
            return np.empty((0, self.ncols), dtype=object)
        return np.vstack([r.copy() for r in self.rows])


def sparse_kernel(ncols: int, rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """Basis of {x in Z^ncols : A x = 0} for sparse constraint rows A.

    Processes one constraint at a time, maintaining an exact basis of the
    current solution lattice; solving a single linear functional on a lattice
    is an xgcd fold. The result is automatically saturated.
    """
    basis: dict[int, dict[int, int]] = {i: {i: 1} for i in range(ncols)}
    col_index: dict[int, set[int]] = {i: {i} for i in range(ncols)}

    def unregister(bid, cols):
        for c in cols:
            s = col_index.get(c)
            if s is not None:
                s.discard(bid)
                if not s:
                    del col_index[c]

    def register(bid, cols):
        for c in cols:
            col_index.setdefault(c, set()).add(bid)

    def set_vec(bid, vec):
        old = basis[bid]
        unregister(bid, old.keys())
        basis[bid] = vec
        register(bid, vec.keys())

    for a in rows:
        a = {c: int(v) for c, v in a.items() if v != 0}
        if not a:
            continue
        cand: set[int] = set()
        for c in a:
            cand |= col_index.get(c, set())
        pairs = []
        for bid in cand:
            b = basis[bid]
            if len(b) < len(a):
                d = sum(v * a.get(c, 0) for c, v in b.items())
            else:
                d = sum(v * b.get(c, 0) for c, v in a.items())
            if d != 0:
                pairs.append((bid, d))
        if not pairs:
            continue
        # fold all nonzero dots into one carrier vector
        pairs.sort(key=lambda t: (abs(t[1]), t[0]))
        unit = next((t for t in pairs if abs(t[1]) == 1), None)
        if unit is not None:
            cid, cd = unit
            carrier = basis[cid]
            for bid, d in pairs:
                if bid == cid:
                    continue
                coef = d * cd              # d / cd since cd is +-1
                vec = dict(basis[bid])
                for c, v in carrier.items():
                    nv = vec.get(c, 0) - coef * v
                    if nv == 0:
                        vec.pop(c, None)
                    else:
                        vec[c] = nv
                set_vec(bid, vec)
        else:
            cid, cd = pairs[0]
            for bid, d in pairs[1:]:
                x, y, g = xgcd(cd, d)
                bvec = basis[bid]
                cvec = basis[cid]
                merged: dict[int, int] = {}
                for c, v in cvec.items():
                    merged[c] = x * v
                for c, v in bvec.items():
                    nv = merged.get(c, 0) + y * v
                    if nv == 0:
                        merged.pop(c, None)
                    else:
                        merged[c] = nv
                repl: dict[int, int] = {}
                for c, v in cvec.items():
                    repl[c] = -(d // g) * v
                for c, v in bvec.items():
                    nv = repl.get(c, 0) + (cd // g) * v
                    if nv == 0:
                        repl.pop(c, None)
                    else:
                        repl[c] = nv
                set_vec(cid, merged)
                set_vec(bid, repl)
                cd = g
        unregister(cid, basis[cid].keys())
        del basis[cid]
    return [basis[k] for k in sorted(basis)]


def unit_elimination_by_rescans(rows: list[dict[int, int]]):
    """The former zlinalg.unit_elimination: (steps, core) as there, with
    every row an elimination changes scanned again and pushed anew."""
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

    for ri in work:
        push(ri)
    steps = []
    while heap:
        cost, pri, pc = heapq.heappop(heap)
        prow = work.get(pri)
        if prow is None:
            continue
        pval = prow.get(pc)
        if pval != 1 and pval != -1:
            continue
        if (len(prow) - 1) * (len(col_rows[pc]) - 1) > cost:
            push(pri)
            continue
        del work[pri]
        for c in prow:
            col_rows[c].discard(pri)
        for ri in col_rows.pop(pc, ()):
            r = work[ri]
            factor = r[pc] * pval
            for c, v in prow.items():
                nv = r.get(c, 0) - factor * v
                if nv == 0:
                    if c in r:
                        del r[c]
                        if c != pc:
                            col_rows[c].discard(ri)
                else:
                    if c not in r:
                        col_rows.setdefault(c, set()).add(ri)
                    r[c] = nv
            if r:
                push(ri)
            else:
                del work[ri]
        steps.append((pc, prow))
    return steps, list(work.values())


def _direct_limit_basis(system: CoefficientSystem) -> np.ndarray:
    rows = []
    for src, dst, tag in system.edges():
        if system.dims[dst] == 0:
            continue
        D = system.edge_matrix(src, dst, tag)
        so, do = system.offsets[src], system.offsets[dst]
        for r in range(D.shape[0]):
            row = {}
            for c in range(D.shape[1]):
                v = int(D[r, c])
                if v:
                    row[so + c] = row.get(so + c, 0) + v
            key = do + r
            row[key] = row.get(key, 0) - 1
            if row:
                rows.append(row)
    sol = sparse_kernel(system.total, rows)
    basis = obj_zeros(system.total, len(sol))
    for j, s in enumerate(sol):
        for c, v in s.items():
            basis[c, j] = v
    return basis


class SectionSlot:
    """Basis data for one section (T, S) of the ambient group, as the
    family kept it per section before its flat arrays.

    classes holds one representative subgroup index per T-conjugacy class
    of intermediate subgroups, the least member of the class; class_pos
    maps every subgroup index to the position of its class, or -1 for
    subgroups outside the interval S <= W <= T.
    """

    __slots__ = ("ti", "si", "classes", "class_pos", "dim")

    def __init__(self, ti: int, si: int, classes: list, class_pos: np.ndarray):
        self.ti = ti
        self.si = si
        self.classes = classes
        self.class_pos = class_pos
        self.dim = len(classes)

    def index(self, ana) -> int:
        return (len(ana.subgroup_members[self.ti])
                // len(ana.subgroup_members[self.si]))


def slots_of(fam) -> list:
    """The SectionSlot of every section of a family, scattered from its
    flat arrays."""
    return [SectionSlot(ti, si, fam.classes(i).tolist(), fam.class_positions(i))
            for i, (ti, si) in enumerate(fam.sections)]


class DenseFamily:
    """The former section family, the reference for the flat arrays of
    limits.SectionFamily: one (sections x subgroups) array of class
    positions, a SectionSlot per section, a dict of positions, mark rows
    in chunks of sections, kernels as (basis, pivots) and the edges as a
    list of (src, dst, tag) tuples."""

    def __init__(self, G, label: str):
        self.group = G
        ana = self.ana = analysis(G)
        tops, bots = self._tops, self._bots = np.nonzero(_admits(label, ana.shapes))
        self.sections = list(zip(tops.tolist(), bots.tolist()))
        self.pos = {ts: i for i, ts in enumerate(self.sections)}
        n = ana.n_sub
        self.whole_pos = self.pos.get((n - 1, 0))
        pos_t = np.min_scalar_type(-n - 1)
        if G.is_abelian:
            least = np.arange(n, dtype=pos_t)[None, :]
        else:
            least = np.zeros((n, n), dtype=pos_t)
            for t in np.flatnonzero(np.bincount(tops, minlength=n)).tolist():
                least[t] = ana.conj_sub[list(ana.subgroup_members[t])].min(axis=0)
            least = least[tops]
        between = ana.leq[bots] & ana.leq[:, tops].T
        reps = between & (least == np.arange(n))
        count = np.cumsum(reps, axis=1, dtype=pos_t)
        dims = count[:, -1].tolist()
        count -= 1
        cp = self._class_pos = np.take_along_axis(
            count, np.broadcast_to(least, count.shape), axis=1)
        cp[~between] = -1
        classes = np.nonzero(reps)[1].tolist()
        self.slots = [SectionSlot(t, s, classes[e - d:e], row)
                      for (t, s), row, d, e in zip(self.sections, cp, dims,
                                                   np.cumsum(dims).tolist())]

    def mark_rows(self) -> list:
        ana = self.ana
        sizes, p = ana.sizes, ana.group.prime
        out = [None] * len(self.slots)
        for sec in _batches(np.flatnonzero(sizes[self._tops] > p * sizes[self._bots]),
                            ana.n_sub):
            cp = self._class_pos[sec]
            ks, members = np.nonzero(cp >= 0)
            first_seen = cp > np.maximum.accumulate(np.pad(cp, ((0, 0), (1, 0)),
                                                           constant_values=-1), axis=1)[:, :-1]
            rk, reps = np.nonzero(first_seen)
            dim = np.bincount(rk, minlength=len(sec))
            first = np.cumsum(dim) - dim
            cls = first[ks] + cp[ks, members]
            n = dim[ks]
            m = np.repeat(np.arange(len(ks)), n)
            w = np.arange(len(m)) - np.repeat(np.cumsum(n) - n - first[ks], n)
            below = ana.leq[members[m], reps[w]]
            m, w = m[below], w[below]
            maximal = np.bincount(w[sizes[members[m]] * p == sizes[reps[w]]],
                                  minlength=len(reps))
            cyc = (sizes[reps] == sizes[self._bots[sec[rk]]]) | (maximal == 1)
            span = np.where(cyc, dim[rk], 0)
            start = np.cumsum(span) - span
            hit = cyc[cls[m]]
            m, w = m[hit], w[hit]
            hits = np.bincount(start[cls[m]] + w - first[ks[m]],
                               minlength=int(span.sum()))
            row = np.repeat(np.arange(len(reps)), span)
            col = np.arange(len(row)) - np.repeat(start - first[rk], span)
            mult = sizes[self._tops[sec[rk]]] // np.bincount(cls, minlength=len(reps))
            flat = mult[row] * hits // sizes[reps[col]]
            ncyc = np.bincount(rk[cyc], minlength=len(sec))
            ends = np.cumsum(ncyc * dim).tolist()
            for k, e, r, d in zip(sec.tolist(), ends, ncyc.tolist(), dim.tolist()):
                out[k] = flat[e - r * d:e].reshape(r, d)
        return out

    def kernels(self) -> list:
        out, memo = [], {}
        for i, (slot, rows) in enumerate(zip(self.slots, self.mark_rows())):
            if rows is None:
                out.append((np.zeros((0, slot.dim), dtype=np.int64), []))
                continue
            key = (rows.shape, rows.tobytes())
            if key not in memo:
                if i == self.whole_pos:
                    base = ring_data(self.group).kernel()
                    kern, piv = base.basis, base._piv
                else:
                    kern = kernel_basis(rows)
                    piv = hnf_pivots(kern)
                memo[key] = (np.asarray(kern, dtype=np.int64), piv)
            out.append(memo[key])
        return out

    def _add_edges(self, out: list, src, tops, bots, tags, kind) -> None:
        at = np.full(self.ana.leq.shape, -1, dtype=np.int32)
        at[self._tops, self._bots] = np.arange(len(self.sections))
        dst = at[tops, bots]
        assert (dst >= 0).all(), "a generating move left the family"
        out.extend((s, d, tags[k])
                   for s, d, k in zip(src.tolist(), dst.tolist(), kind.tolist()))

    def edges(self) -> list:
        ana, tops, bots = self.ana, self._tops, self._bots
        sizes, p = ana.sizes, self.group.prime
        out, cover = [], (("cover", "def"), ("cover", "res"))
        for sec in _batches(np.arange(len(tops)), ana.n_sub):
            t, b = tops[sec], bots[sec]
            between = ana.leq[b] & ana.leq[:, t].T
            grow = between & (sizes == sizes[b, None] * p) & ana.normal[:, t].T
            shrink = between & (sizes * p == sizes[t, None])
            src, w = np.nonzero(np.hstack([grow, shrink]))
            res, w = np.divmod(w, ana.n_sub)
            self._add_edges(out, sec[src], np.where(res, w, t[src]),
                            np.where(res, b[src], w), cover, res)
        if not self.group.is_abelian:
            cp = self._class_pos
            cu = ana.conj_sub[list(ana.generators)]
            keep = (cu[:, tops] != tops) | (cu[:, bots] != bots)
            for k, row in enumerate(cu):
                fixed = np.flatnonzero(~keep[k])
                keep[k, fixed] = (cp[fixed][:, row] != cp[fixed]).any(axis=1)
            src, k = np.nonzero(keep.T)
            self._add_edges(out, src, cu[k, tops[src]], cu[k, bots[src]],
                            [("conj", u) for u in ana.generators], k)
        return out


def sections_by_loops(ana, label: str):
    """The former pair loops of SectionFamily: the sections in (top, bottom)
    order, their positions and the cover edges, tagged ("cover", "def") or
    ("cover", "res"); the reference for the normality-matrix reads."""
    secs = []
    for ti in range(ana.n_sub):
        for si in range(ana.n_sub):
            if not (ana.leq[si, ti] and _normal_by_members(ana, si, ti)):
                continue
            if family_contains(ana, ti, si, label):
                secs.append((ti, si))
    pos = {ts: i for i, ts in enumerate(secs)}
    p = ana.group.prime
    cover = []
    for i, (ti, si) in enumerate(secs):
        so = len(ana.subgroup_members[si])
        to = len(ana.subgroup_members[ti])
        for sp in range(ana.n_sub):
            if (ana.leq[si, sp] and ana.leq[sp, ti]
                    and len(ana.subgroup_members[sp]) == so * p
                    and _normal_by_members(ana, sp, ti)):
                cover.append((i, pos[(ti, sp)], ("cover", "def")))
        for tm in range(ana.n_sub):
            if (ana.leq[si, tm] and ana.leq[tm, ti]
                    and len(ana.subgroup_members[tm]) * p == to):
                cover.append((i, pos[(tm, si)], ("cover", "res")))
    return secs, pos, cover


def conj_edges_by_loops(fam) -> list:
    """The former per-section x generator loop of SectionFamily: the
    conjugation edges (i, j, ("conj", u)), skipping a generator that fixes the
    section and each of its classes; the reference for the mask read."""
    ana = fam.ana
    conj = []
    if not fam.group.is_abelian:
        for i, ((ti, si), slot) in enumerate(zip(fam.sections, slots_of(fam))):
            for u in ana.generators:
                cu = ana.conj_sub[u]
                j = fam.index(int(cu[ti]), int(cu[si]))
                if j == i and np.array_equal(slot.class_pos[cu[slot.classes]],
                                             np.arange(slot.dim)):
                    continue
                conj.append((i, j, ("conj", u)))
    return conj


def relation_rows_by_columns(system: CoefficientSystem) -> list:
    """The former per-column read of limits._colimit_relations: one row
    per column of each upward move, entry by entry; the reference for the
    stacked read of each shape group."""
    _, moves = _upward_moves(system)
    rows = []
    offsets = system.offsets
    for (_, a, b), M in zip(moves, system._restricted(moves)):
        ao, bo = offsets[a], offsets[b]
        for j, col in enumerate(M.T.tolist()):
            row = {ao + j: 1}
            for i, v in enumerate(col):
                if v:
                    row[bo + i] = row.get(bo + i, 0) - int(v)
            rows.append({c: v for c, v in row.items() if v})
    return rows


def counit_matrix(system: CoefficientSystem) -> np.ndarray:
    """The former dense counit of limits: the summed upward maps, product
    of values -> F(P), as one (base rank x generators) matrix."""
    blocks = system._maps([("up", i) for i in range(len(system.dims))])
    if not blocks:
        return np.zeros((system.base_rank, 0), dtype=np.int64)
    return np.hstack(blocks)


def spans_everything_dense(U: np.ndarray) -> bool:
    """Do the columns of U span all of Z^rows?  The row HNF of U.T is then
    the identity; the reference for the sparse Smith-form test
    limits._spans_everything, by an independent elimination."""
    H = hnf(np.asarray(U).T)
    return H.shape[0] == U.shape[0] and np.array_equal(H, np.eye(U.shape[0], dtype=int))


def colimit_relations(system: CoefficientSystem, upward=None) -> list[dict[int, int]]:
    """The former sparse relation rows of limits.counit_kernel_report,
    presenting the colimit of an upward system: one row per column of
    each upward move.

    Moves M with equal shapes are restricted to kernel coordinates and
    stacked one batch at a time; per batch one product checks that the
    map of b after M is the map of a in base kernel coordinates, so that
    the counit kills the rows (see relation_rows) read off the same stack.
    This is the reference for limits._check_cocone, which checks the same
    equations in the transitive basis of P.  upward is the (ids, moves)
    of limits._upward_moves, built afresh when not given."""
    ids, moves = _upward_moves(system) if upward is None else upward
    dims = system.dims
    ups = system._maps([("up", i) for i in range(len(dims))])
    groups = {}
    for e, (_, a, b) in enumerate(moves):
        groups.setdefault((dims[b], dims[a]), []).append(e)
    starts = np.cumsum([0] + [dims[a] for _, a, _ in moves]).tolist()
    rows = [None] * starts[-1]
    bad = []
    r = system.base_rank
    for (kb, ka), members in groups.items():
        shared = len({moves[e][2] for e in members}) == 1
        for chunk in _batches(members, r * (kb * (not shared) + 2 * ka) + kb * ka,
                              r * kb * shared):
            pairs = [moves[e][1:] for e in chunk]
            Ms = np.stack(system._restricted([moves[e] for e in chunk]))
            lhs = _exact_matmul(_stack_shared([ups[b] for _, b in pairs]), Ms)
            rhs = _stack_shared([ups[a] for a, _ in pairs])
            wrong = (lhs != rhs).reshape(len(chunk), -1).any(axis=1)
            bad.extend(chunk[k] for k in np.flatnonzero(wrong))
            got = relation_rows(system.offsets, pairs, Ms)
            for m, e in enumerate(chunk):
                rows[starts[e]:starts[e + 1]] = got[m * ka:(m + 1) * ka]
    if bad:
        src, dst, tag = system.family.edges[ids[min(bad)]]
        raise AssertionError(f"upward maps disagree along {src}->{dst} {tag}")
    return rows


def relation_rows(off: list, pairs: list, Ms: np.ndarray) -> list[dict[int, int]]:
    """Per move of a stack (move, kb, ka) and column j, {a_j: 1} less column
    j over the b generators, keys in that order, zeros dropped; a move
    inside one value folds its own entry into the leading 1."""
    k, kb, ka = Ms.shape
    vals = np.empty((k, ka, kb + 1), dtype=np.int64)
    keys = np.empty_like(vals)
    vals[..., 0] = 1
    vals[..., 1:] = -Ms.transpose(0, 2, 1)
    keys[..., 0] = np.array([off[a] for a, _ in pairs])[:, None] + np.arange(ka)
    keys[..., 1:] = np.array([off[b] for _, b in pairs])[:, None, None] + np.arange(kb)
    own = keys[..., 1:] == keys[..., :1]
    vals[..., 0] += (vals[..., 1:] * own).sum(axis=2)
    vals[..., 1:][own] = 0
    live = vals != 0
    ks, vs = keys[live].tolist(), vals[live].tolist()
    ends = np.cumsum(live.sum(axis=2)).tolist()
    return [dict(zip(ks[lo:hi], vs[lo:hi])) for lo, hi in zip([0] + ends, ends)]


def counit_columns(system: CoefficientSystem) -> list[dict[int, int]]:
    """The former sparse counit columns of limits: the summed upward maps
    from the product of the values to F(P), as {row: entry} dicts, one
    per generator, read from the nonzeros of each up map."""
    ups = system._maps([("up", i) for i in range(len(system.dims))])
    cols, rows, vals = [], [], []
    for o, B in zip(system.offsets, ups):
        if B.size:
            c, r = np.nonzero(B.T)
            cols.append(c + o)
            rows.append(r)
            vals.append(B.T[c, r])
    if not cols:
        return [{} for _ in range(system.total)]
    cs, rs, vs = np.concatenate(cols), np.concatenate(rows), np.concatenate(vals)
    ends = np.cumsum(np.bincount(cs, minlength=system.total)).tolist()
    rs, vs = rs.tolist(), vs.tolist()
    return [dict(zip(rs[lo:hi], vs[lo:hi])) for lo, hi in zip([0] + ends, ends)]


def spans_everything(cols: list[dict[int, int]], n: int) -> bool:
    """Do the sparse vectors cols span all of Z^n?  True iff their lattice
    has rank n and every invariant factor is 1."""
    invariants = sparse_snf_invariants(cols)
    return len(invariants) == n and all(d == 1 for d in invariants)


def counit_report_by_relations(system: CoefficientSystem) -> dict:
    """The former limits.counit_kernel_report: the Smith invariants of
    every relation row, and surjectivity from every counit column; the
    reference for the forest elimination, with the HNF of every counit
    column in place of the root up maps."""
    invariants = sparse_snf_invariants(colimit_relations(system))
    rel_rank = len(invariants)
    surjective = spans_everything(counit_columns(system), system.base_rank)
    H = hnf(counit_matrix(system).T)
    finite = rel_rank + system.base_rank == system.total
    m_invariants = [int(d) for d in invariants if d != 1]
    return {
        "group": system.group.name,
        "family": system.family.label,
        "functor": system.functor,
        "generators": system.total,
        "relation_rank": int(rel_rank),
        "base_rank": int(system.base_rank),
        "counit_surjective": bool(surjective),
        "hnf_diagonal": [int(H[k, j]) for k, j in enumerate(hnf_pivots(H))],
        "kernel_finite": bool(finite),
        "kernel_invariants": m_invariants,
        "kernel_trivial": bool(finite and not m_invariants),
    }


def extraspecial_table_by_loops(p: int) -> np.ndarray:
    """The former six nested loops of groups.extraspecial_group: upper
    unitriangular matrices (a, b, c) encoded as a + p b + p^2 c."""
    n = p ** 3

    def enc(a, b, c):
        return a + p * b + p * p * c
    table = np.empty((n, n), dtype=np.int32)
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                i = enc(a1, b1, c1)
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            table[i, enc(a2, b2, c2)] = enc(
                                (a1 + a2) % p, (b1 + b2) % p,
                                (c1 + c2 + a1 * b2) % p)
    return table


def table_checks_by_loops(table) -> np.ndarray:
    """The former row loops of FiniteGroup.__init__: each row must be a
    permutation, then each row must hold the identity exactly once; the
    inverses, or the ValueError of the first failing check."""
    tbl = np.asarray(table, dtype=np.int32)
    n = tbl.shape[0]
    for i in range(n):
        if len(set(tbl[i].tolist())) != n:
            raise ValueError("rows must be permutations")
    inv = np.empty(n, dtype=np.int32)
    for i in range(n):
        hits = np.nonzero(tbl[i] == 0)[0]
        if len(hits) != 1:
            raise ValueError("missing or non-unique inverse")
        inv[i] = hits[0]
    return inv


def element_orders_by_loops(G) -> np.ndarray:
    """The former per-element walk of FiniteGroup.element_orders."""
    out = np.empty(G.order, dtype=np.int32)
    for g in range(G.order):
        x, k = int(G.table[0, g]), 1
        while x != 0:
            x = int(G.table[x, g])
            k += 1
        out[g] = k
    return out


def center_by_loops(G) -> tuple:
    """The former per-element test of GroupAnalysis.center_members."""
    return tuple(int(x) for x in range(G.order)
                 if np.array_equal(G.table[x], G.table[:, x]))


def cyclic_subs_by_loops(ana) -> list:
    """The former per-subgroup test of GroupAnalysis.is_cyclic_sub: some
    member has the subgroup's order."""
    orders = ana.group.element_orders()
    return [any(int(orders[m]) == len(mem) for m in mem)
            for mem in ana.subgroup_members]


def shapes_through_int64(ana) -> np.ndarray:
    """The former GroupAnalysis.shapes, built through int64 level, rank and
    code tables: the reference for its one-byte temporaries."""
    G, mask = ana.group, ana.member_mask
    rows, cols = np.nonzero(mask)
    powers = np.zeros(mask.shape, dtype=bool)
    powers[rows, ana.pth_power[cols]] = True
    exp_p = ana.leq[ana._generated(powers)]
    abelian = ana.leq[ana.derived]
    level = np.array([_check_prime_power(int(n), G.prime) for n in ana.sizes])
    rank = level[:, None] - level[None, :]
    code = np.where(exp_p & abelian, rank,
                    np.where(exp_p & (rank == 3), SHAPE_XSP, SHAPE_OTHER))
    return np.where(ana.normal.T, code, SHAPE_OTHER).astype(np.int8)


def _normal_by_members(ana, si: int, ti: int) -> bool:
    return bool(ana.leq[si, ti]
                and ana.normalizes[si, list(ana.subgroup_members[ti])].all())


def conjugate_members(ana, x: int, members: Sequence[int]) -> tuple:
    G = ana.group
    arr = np.asarray(members, dtype=np.int32)
    cm = G.table[G.table[x, arr], G.inv[x]]
    return tuple(sorted(cm.tolist()))


def double_coset_reps(G, left_members: Sequence[int],
                      right_members: Sequence[int],
                      within: Sequence[int] | None = None) -> list[int]:
    """Ascending least representatives of the double cosets L\\G/R.

    With `within`, representatives are drawn from that subgroup's members
    (both L and R must then lie inside it), partitioning it instead of G.
    The least point of LxR is the least over r in R of the least point of
    L(xr), read off one minimum over L of every point.
    """
    least_l = G.table[np.asarray(left_members, dtype=np.int32)].min(axis=0)
    xr = G.table.T[np.asarray(right_members, dtype=np.int32)]   # xr[j, x] = x r_j
    if within is not None:
        xr = xr[:, np.asarray(within, dtype=np.int32)]
    return np.unique(least_l[xr].min(axis=0)).tolist()


def subgroup_generators(G, members: Sequence[int]) -> tuple:
    """Small generating set of the subgroup given by its members."""
    gens: list[int] = []
    have = {0}
    for m in members:
        m = int(m)
        if m not in have:
            gens.append(m)
            have = set(_closure(G.table, gens))
            if len(have) == len(members):
                break
    return tuple(gens)


def mark_count(ana, s_members, t_members) -> int:
    """Fixed points of the first subgroup on cosets of the second."""
    G = ana.group
    if G.is_abelian:
        if set(int(x) for x in s_members) <= set(int(x) for x in t_members):
            return G.order // len(t_members)
        return 0
    t_arr = np.asarray(t_members, dtype=np.int32)
    s_set = set(int(x) for x in s_members)
    seen = np.zeros(G.order, dtype=bool)
    count = 0
    for x in range(G.order):
        if seen[x]:
            continue
        seen[G.table[x, t_arr]] = True
        conj = G.table[G.table[x, t_arr], G.inv[x]]
        if s_set <= set(conj.tolist()):
            count += 1
    return count


def slot_classes_by_union_find(ana, ti: int, si: int):
    """The T-classes of intermediate subgroups S <= W <= T by union-find
    over conjugation by generators of T: (least members, {W: position})."""
    leq = ana.leq
    cand = [w for w in range(ana.n_sub) if leq[si, w] and leq[w, ti]]
    pos = {w: i for i, w in enumerate(cand)}
    parent = list(range(len(cand)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    if not ana.group.is_abelian:
        gens = subgroup_generators(ana.group, ana.subgroup_members[ti])
        for w in cand:
            wm = ana.subgroup_members[w]
            for u in gens:
                cw = pos[ana.index_of(conjugate_members(ana, u, wm))]
                ra, rb = find(pos[w]), find(cw)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    reps = sorted({cand[find(i)] for i in range(len(cand))})
    rep_pos = {w: i for i, w in enumerate(reps)}
    return reps, {w: rep_pos[cand[find(pos[w])]] for w in cand}


def mark_rows_by_loops(ana, slot) -> np.ndarray:
    """Marks of the cyclic classes of the quotient at a slot against all
    of its classes, walking T for each orbit."""
    p = ana.group.prime
    s_size = len(ana.subgroup_members[slot.si])
    m_sets = [frozenset(m) for m in ana.subgroup_members]
    inside = np.flatnonzero(slot.class_pos >= 0).tolist()
    cyc = []
    for w in slot.classes:
        wsize = len(ana.subgroup_members[w])
        if wsize == s_size:
            cyc.append(w)
            continue
        n_max = 0
        for u in inside:
            if len(ana.subgroup_members[u]) * p == wsize and m_sets[u] <= m_sets[w]:
                n_max += 1
        # a p-group quotient is cyclic iff it has a unique maximal subgroup
        if n_max == 1:
            cyc.append(w)
    t_mem = ana.subgroup_members[slot.ti]
    rows = np.zeros((len(cyc), slot.dim), dtype=np.int64)
    for i, v in enumerate(cyc):
        vmem = ana.subgroup_members[v]
        if ana.group.is_abelian:
            orbit = [m_sets[v]]
        else:
            orbit = list({frozenset(conjugate_members(ana, x, vmem))
                          for x in t_mem})
        mult = len(t_mem) // len(orbit)
        for j, w in enumerate(slot.classes):
            wset = m_sets[w]
            wsize = len(ana.subgroup_members[w])
            hits = sum(1 for c in orbit if c <= wset)
            rows[i, j] = (mult * hits) // wsize
    return rows


def defres_by_double_cosets(ana, top: int, reps, dst) -> np.ndarray:
    """Restrict-then-deflate of B from the classes of the subgroups `reps`
    under conjugation by subgroup `top` to the slot dst, one double coset
    T'xW at a time."""
    t_mem = ana.subgroup_members[top]
    tp_mem = ana.subgroup_members[dst.ti]
    sp_mem = ana.subgroup_members[dst.si]
    t_set = frozenset(tp_mem)
    D = np.zeros((dst.dim, len(reps)), dtype=np.int64)
    for j, w in enumerate(reps):
        wmem = ana.subgroup_members[w]
        for x in double_coset_reps(ana.group, tp_mem, wmem, within=t_mem):
            cw = conjugate_members(ana, x, wmem)
            inter = tuple(m for m in cw if m in t_set)
            tgt = product_members(ana.group, inter, sp_mem)
            D[dst.class_pos[ana.index_of(tgt)], j] += 1
    return D


# -- per-point biset references -----------------------------------------------

def left_transporter(U: ConcreteBiset, u: int, s_members) -> list:
    """^uS: all y in the left group with y.u = u.s for some s in S.

    For a subgroup S of the right group this is a subgroup of the left
    group; ^u{1} is the left stabilizer of u."""
    hit = np.zeros(U.size, dtype=bool)
    hit[U.right[u, np.asarray(s_members, dtype=np.intp)]] = True
    return np.flatnonzero(hit[U.left[:, u]]).tolist()


def right_transporter(U: ConcreteBiset, t_members, u: int) -> list:
    """T^u: all x in the right group with t.u = u.x for some t in T."""
    hit = np.zeros(U.size, dtype=bool)
    hit[U.left[np.asarray(t_members, dtype=np.intp), u]] = True
    return np.flatnonzero(hit[U.right[u, :]]).tolist()


def transport_subgroup(U: ConcreteBiset, x: int, members) -> tuple:
    """Elements of the right group glued to the given left subgroup at x."""
    shifted = {int(U.left[t, x]) for t in members}
    return tuple(p for p in range(U.right_group.order)
                 if int(U.right[x, p]) in shifted)


def left_transport(U: ConcreteBiset, x: int, t_members, w_members) -> tuple:
    """Members t of T with t.x inside x.W, for W in the right group."""
    xw = {int(U.right[x, w]) for w in w_members}
    return tuple(t for t in t_members if int(U.left[t, x]) in xw)


def coset_ids_by_loop(P, members, side: str):
    """The former walk of groups._coset_ids: (ids over P, reps), cosets in
    order of their least member."""
    arr = np.asarray(sorted(members), dtype=np.int32)
    ids = np.full(P.order, -1, dtype=np.int32)
    reps = []
    for x in range(P.order):
        if ids[x] >= 0:
            continue
        coset = P.table[x, arr] if side == "left" else P.table[arr, x]
        ids[coset] = len(reps)
        reps.append(x)
    return ids, reps


def section_by_loop(ana, ti: int, si: int):
    """The former walk of GroupAnalysis._make_section: (proj, reps,
    quotient table), cosets tS in order of their least member."""
    G = ana.group
    S = np.array(ana.subgroup_members[si], dtype=np.int32)
    proj = np.full(G.order, -1, dtype=np.int32)
    reps: list[int] = []
    for t in ana.subgroup_members[ti]:
        if proj[t] >= 0:
            continue
        proj[G.table[t, S]] = len(reps)
        reps.append(int(t))
    qt = np.empty((len(reps), len(reps)), dtype=np.int32)
    for a, ra in enumerate(reps):
        qt[a, :] = proj[G.table[ra, np.array(reps, dtype=np.int32)]]
    return proj, reps, qt


def quotient_ids_by_loop(U: ConcreteBiset, c_members):
    """The former walk of left_quotient_biset: (ids over the points, reps),
    C-orbits in order of their least point."""
    c_arr = np.asarray(sorted(set(int(c) for c in c_members)), dtype=np.int32)
    ids = np.full(U.size, -1, dtype=np.int32)
    reps = []
    for x in range(U.size):
        if ids[x] >= 0:
            continue
        ids[U.left[c_arr, x]] = len(reps)
        reps.append(x)
    return ids, reps


def compose_by_loop(V: ConcreteBiset, U: ConcreteBiset):
    """The former compose, one element of the middle group at a time:
    (left, right, pairs) of the composite."""
    Q = U.left_group
    nV, nU = V.size, U.size
    least = np.arange(nV * nU, dtype=np.int64).reshape(nV, nU)
    for q in range(1, Q.order):
        np.minimum(least,
                   V.right[:, Q.inv[q]].astype(np.int64)[:, None] * nU
                   + U.left[q][None, :], out=least)
    roots, pairs = np.unique(least, return_inverse=True)
    pairs = pairs.reshape(nV, nU).astype(np.int32)
    vs, us = np.divmod(roots, nU)
    left = pairs[V.left[:, vs], us[None, :]]
    right = pairs[vs[:, None], U.right[us, :]]
    return left, right, pairs


def conj_sorted(Q, x: int, members, inverse_first: bool) -> list[int]:
    xi = Q.inv_of(x)
    if inverse_first:
        return sorted(Q.mul(Q.mul(xi, m), x) for m in members)
    return sorted(Q.mul(Q.mul(x, m), xi) for m in members)


def is_subgroup(Q, members) -> bool:
    mset = set(members)
    if 0 not in mset:
        return False
    return all(Q.mul(a, b) in mset for a in members for b in members)


def is_normal_inside(Q, sub, top) -> bool:
    sset = set(sub)
    return all(Q.mul(Q.mul(t, s), Q.inv_of(t)) in sset for t in top for s in sub)


def _outcome(claim: str, desc: str, failure, cases: int, small: bool) -> list[dict]:
    """The row of one appendix claim: refuted on its first failure, a
    (case, left, right) triple, else a census of its cases if it has any."""
    if failure:
        return _fail_row(claim, desc, *failure)
    return _census(claim, desc, cases, small)


def transporter_rows_by_points(desc, G, ana, pool, small, rng) -> list[dict]:
    # conjugation moves the transported subgroup with the point, on each side
    t_choices = []
    seen_orders = set()
    for ci in ana.class_reps:
        members = ana.subgroup_members[ci]
        if len(members) in seen_orders or len(members) == 1:
            continue
        seen_orders.add(len(members))
        t_choices.append(list(members))
        if len(t_choices) == 3:
            break
    if not t_choices:
        t_choices = [[0]]

    cases_a = 0
    fail_a = None
    cases_ap = 0
    fail_ap = None
    for U in pool:
        Q = U.right_group
        ana_q = analysis(Q)
        s_choices = []
        for ci in ana_q.class_reps:
            m = ana_q.subgroup_members[ci]
            if 1 < len(m):
                s_choices.append(list(m))
            if len(s_choices) == 2:
                break
        if not s_choices:
            s_choices = [[0]]
        if small:
            pts = [(u, x) for u in range(U.size) for x in range(Q.order)]
            lefts = [(u, y) for u in range(U.size) for y in range(G.order)]
        else:
            pts = [(int(rng.integers(U.size)), int(rng.integers(Q.order)))
                   for _ in range(10)]
            lefts = [(int(rng.integers(U.size)), int(rng.integers(G.order)))
                     for _ in range(10)]
        for tmem in t_choices[:2]:
            if fail_a:
                break
            for u, x in pts:
                base = right_transporter(U, tmem, u)
                moved = right_transporter(U, tmem, int(U.right[u, x]))
                conj = conj_sorted(Q, x, base, inverse_first=True)
                if conj != moved:
                    fail_a = ({"biset": U.name, "point": u, "element": x,
                               "subgroup": _ints(tmem)}, conj, moved)
                    break
                cases_a += 1
        for smem in s_choices[:2]:
            if fail_ap:
                break
            for u, y in lefts:
                base = left_transporter(U, u, smem)
                moved = left_transporter(U, int(U.left[y, u]), smem)
                conj = conj_sorted(G, y, base, inverse_first=False)
                if conj != moved:
                    fail_ap = ({"biset": U.name, "point": u, "element": y,
                                "subgroup": _ints(smem)}, conj, moved)
                    break
                cases_ap += 1
    return (_outcome("transporter-conjugation-right", desc, fail_a, cases_a,
                     small)
            + _outcome("transporter-conjugation-left", desc, fail_ap, cases_ap,
                       small))


def section_transport_rows_by_points(desc, ana, pool, secs_x3, small,
                                     rng) -> list[dict]:
    sec_choices = [(ti, si, _subquotient_fps(ana, ti, si))
                   for ti, si in _signature_reps(ana, secs_x3, 3)]
    cases_b = 0
    fail_b = None
    cases_bp = 0
    fail_bp = None
    for U in pool:
        if fail_b or fail_bp:
            break
        Q = U.right_group
        ana_q = analysis(Q)
        if small:
            pts = list(range(U.size))
        else:
            pts = _sample_indices(rng, U.size, 4)
        for ti, si, fps in sec_choices:
            if fail_b or fail_bp:
                break
            tmem = list(ana.subgroup_members[ti])
            smem = list(ana.subgroup_members[si])
            for u in pts:
                tq = right_transporter(U, tmem, u)
                sq = right_transporter(U, smem, u)
                case = {"biset": U.name, "point": int(u),
                        "top_order": len(tmem), "bottom_order": len(smem)}
                if not (is_subgroup(Q, tq) and is_subgroup(Q, sq)
                        and set(sq) <= set(tq)
                        and is_normal_inside(Q, sq, tq)):
                    fail_b = (case, _ints(sq), _ints(tq))
                    break
                cases_b += 1
                fp = _fingerprint(ana_q, ana_q.index_of(tq), ana_q.index_of(sq))
                if fp not in fps:
                    fail_bp = (case, [fp[0], fp[1], list(fp[2])],
                               sorted([f[0], f[1], list(f[2])] for f in fps))
                    break
                cases_bp += 1
    return (_outcome("transported-pair-is-section", desc, fail_b, cases_b,
                     small)
            + _outcome("transported-quotient-is-subquotient", desc, fail_bp,
                       cases_bp, small))


def composite_transporter_rows_by_points(desc, pool, small, rng) -> list[dict]:
    cases = 0
    failure = None
    for U in pool[:2]:
        if failure:
            break
        V = opposite(U)
        W, pairs = compose(V, U, return_pairs=True)
        Q = V.left_group
        ana_q = analysis(Q)
        tmem = list(ana_q.subgroup_members[ana_q.class_reps[-1]])
        smem = None
        for ci in ana_q.class_reps:
            m = ana_q.subgroup_members[ci]
            if 1 < len(m) < Q.order:
                smem = list(m)
                break
        if smem is None:
            smem = [0]
        if small:
            pvu = [(v, u) for v in range(V.size) for u in range(U.size)]
        else:
            pvu = [(int(rng.integers(V.size)), int(rng.integers(U.size)))
                   for _ in range(18)]
        for v, u in pvu:
            w = int(pairs[v, u])
            case = {"biset": U.name, "v": int(v), "u": int(u), "w": w}
            chain = right_transporter(U, right_transporter(V, tmem, v), u)
            direct = right_transporter(W, tmem, w)
            if chain != direct:
                failure = (case, chain, direct)
                break
            lchain = left_transporter(V, v, left_transporter(U, u, smem))
            ldirect = left_transporter(W, w, smem)
            if lchain != ldirect:
                failure = (case, lchain, ldirect)
                break
            cases += 2
    return _outcome("transporter-through-composite", desc, failure, cases,
                    small)


def coords_in_hnf_by_vector(H: np.ndarray, vec, piv=None) -> list[int] | None:
    """Coordinates of vec over the HNF basis rows H, or None if not a
    member: each basis row in turn is subtracted from the vector, and the
    remainder must vanish.  The reference for zlinalg.coords_in_hnf."""
    v = np.array([int(x) for x in vec], dtype=object)
    coords = []
    for row, j in zip(H, hnf_pivots(H) if piv is None else piv):
        x = int(v[j])
        p = int(row[j])
        if x % p != 0:
            return None
        q = x // p
        coords.append(q)
        if q != 0:
            v = v - q * row
    if np.count_nonzero(v):
        return None
    return coords


def constraint_violation_by_edges(system: CoefficientSystem, columns) -> dict:
    """First violated compatibility edge of the given stacked columns, one
    edge at a time in object arithmetic; the reference for the edge and
    residual that limits.residual_check raises."""
    M = np.asarray(columns, dtype=object)
    for src, dst, tag in system.edges():
        if system.dims[dst] == 0:
            continue
        D = np.asarray(system.edge_matrix(src, dst, tag), dtype=object)
        a = M[system.offsets[src]:system.offsets[src] + system.dims[src], :]
        b = M[system.offsets[dst]:system.offsets[dst] + system.dims[dst], :]
        flat = [int(v) for v in (D @ a - b).ravel()]
        if any(flat):
            return {"kind": "constraint-violation",
                    "edge": [int(src), int(dst), str(tag)],
                    "residual": flat}
    return {"kind": "constraint-violation", "edge": None, "residual": []}
