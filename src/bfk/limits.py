"""Coefficient systems over families of sections, with exact integer limits.

A family label picks out the sections (T, S) of a finite p-group P whose
quotient T/S stays inside a fixed shape vocabulary: elementary abelian up
to a rank cap, optionally also the exponent-p extraspecial group of order
p^3.  The values of a functor on those quotients, the downward maps
between them and conjugation by elements of P together form a coefficient
system; the inverse limit is the subgroup of the product of all values cut
out by the compatibility constraints, computed exactly over the integers.

Quotient groups are never materialized.  The transitive-set basis of a
quotient T/S is the set of T-conjugacy classes of intermediate subgroups
S <= W <= T, and every structure map is written in those coordinates on
the ambient group; the kernel functors rewrite whole batches of such maps
in kernel coordinates at once.  The shape table picks a family's sections,
and bounded passes over (sections x subgroups) masks fill the flat arrays
of its slots and edges.  Every limit is the integer kernel of the sparse
constraint rows v[dst] - D v[src] = 0, solved in one exact pass: +-1
pivots are eliminated in Markowitz order in Python ints, kernel_basis
solves the dense core left, and back-substitution fills in the eliminated
unknowns.  Columns are checked against every
constraint at once by residual_check, in stacked exact products of the
edges with one shape, and are written in the canonical limit basis by
the limit's IntegerLattice.

The colimit of K along the upward moves is presented by a generator per
coordinate of a value and a relation per column of a move.  Each section
with a nonzero value keeps its first upward cover move as its tree move
(the others are roots); it goes strictly up, so its relations have +1
pivots on the section's own generators.  Eliminating them leaves unit
invariants and the other moves over the root generators, which the counit
kills, so they are zero when the root up maps have full column rank.
Every move M from value(a) into value(b) must commute with the up maps,
U_b M = U_a in base kernel coordinates.  Restricting the up selection
S_x certifies H_P.T U_x = S_x H_x.T, and H_P.T is injective, so the
check is made as S_b H_b.T M = S_a H_a.T in the transitive basis of P:
only the root up maps, whose HNF decides surjectivity, are restricted.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .groups import SHAPE_XSP, FiniteGroup, GroupAnalysis, analysis
from .zlinalg import (IntegerLattice, _batches, _exact_matmul, _first_mismatch,
                      _i64_absmax, _restrict_moves, _stack_shared, _weighted_batches,
                      sparse_kernel_basis, sparse_snf_invariants)
from .burnside import ring_data
from .claims import FAMILY_LABELS, FUNCTOR_NAMES


class FamilyError(ValueError):
    pass


def _admits(label: str, shape):
    """Which shape codes (GroupAnalysis.shapes, elementwise) the labeled
    family admits; the one place the labels are read.  E* keeps the
    elementary abelian quotients (digit = rank cap, no digit = unbounded),
    X* also the extraspecial one of order p^3 and exponent p."""
    if label not in FAMILY_LABELS:
        raise FamilyError(f"unknown family label {label!r}")
    keep = shape >= 0
    if len(label) > 1:
        keep = keep & (shape <= int(label[1]))
    return keep | (shape == SHAPE_XSP) if label[0] == "X" else keep


def family_contains(ana: GroupAnalysis, ti: int, si: int, label: str) -> bool:
    """Does the quotient of section (ti, si) belong to the labeled family?"""
    return bool(_admits(label, ana.shapes[ti, si]))


# ---------------------------------------------------------------------------
# the family of sections of one group, with its generating moves


def _ranges(lo, hi) -> np.ndarray:
    """The ranges lo[k] <= j < hi[k], concatenated."""
    n = hi - lo
    return np.arange(int(n.sum())) + np.repeat(lo - (np.cumsum(n) - n), n)


def _mark_rows(family: "SectionFamily"):
    """Marks of the cyclic classes (rows) against all classes (columns) of
    the quotient at each section in order: an array at the slots of index
    above p, None at the others, in passes of at most _BATCH_ENTRIES
    (class, member) pairs.

    V/S fixes |T| / (|cls V| |W|) * #{V' in cls V : V' <= W} points of
    T/W, with cls V the T-class of V.  Each pair of a class W of a section
    and a member V' <= W of its interval is read once: it counts towards
    the maximal subgroups of W, whose quotient is cyclic iff there is one
    (a p-group with a unique maximal subgroup), and towards #{V' <= W} of
    the class of V'.
    """
    ana, dims = family.ana, np.diff(family._class_off)
    owner = np.repeat(np.arange(len(dims)), dims)
    # a class is a member, and subgroups come in order of size, so only the
    # members up to a class in its section's member list can lie below it
    reach = (np.searchsorted(family._member_keys(), owner * ana.n_sub + family._classes)
             + 1 - family._member_off[owner])
    big = np.flatnonzero(ana.sizes[family._tops] > ana.group.prime * ana.sizes[family._bots])
    done = 0
    for sec in _weighted_batches(big, np.bincount(owner, reach)[big]):
        for k, rows in zip(sec.tolist(), _mark_blocks(family, sec, reach)):
            yield from [None] * (k - done)
            yield rows
            done = k + 1
    yield from [None] * (len(dims) - done)


def _mark_blocks(family: "SectionFamily", sec: np.ndarray, reach: np.ndarray) -> list:
    """The mark rows of the sections sec, where class entry c of the
    family has reach[c] members up to it (_mark_rows)."""
    ana = family.ana
    sizes, p = ana.sizes, ana.group.prime
    moff, coff = family._member_off, family._class_off
    dim = np.diff(coff)[sec]
    first = np.cumsum(dim) - dim                 # first class entry of a section
    ci = _ranges(coff[sec], coff[sec + 1])
    reps = family._classes[ci]                   # class entries, in class order
    rk = np.repeat(np.arange(len(sec)), dim)
    # each pair of a class entry w and a member m up to it, in the least
    # integer types that hold them
    r = reach[ci]
    idx_t = np.promote_types(np.int32,
                             np.min_scalar_type(-len(family._members) - int(r.sum())))
    w = np.repeat(np.arange(len(ci), dtype=np.int32), r)
    m = np.repeat((moff[sec[rk]] - np.cumsum(r) + r).astype(idx_t), r)
    m += np.arange(len(w), dtype=idx_t)
    member = family._members[m]
    below = ana.leq[member, reps[w]]
    m, w, member = m[below], w[below], member[below]
    maximal = np.bincount(w[sizes[member] * p == sizes[reps[w]]], minlength=len(reps))
    cyc = (sizes[reps] == sizes[family._bots[sec[rk]]]) | (maximal == 1)
    # a cyclic class entry owns a block of its section's dim columns
    span = np.where(cyc, dim[rk], 0)
    start = np.cumsum(span) - span
    m_cls = first[rk[w]] + family._member_pos[m]  # class entry of the member
    hit = cyc[m_cls]
    w, m_cls = w[hit], m_cls[hit]
    hits = np.bincount(start[m_cls] + w - first[rk[w]], minlength=int(span.sum()))
    # |T| / |cls V| for the cyclic class entries V, in order
    cls = (np.repeat(first, np.diff(moff)[sec])
           + family._member_pos[_ranges(moff[sec], moff[sec + 1])])
    mult = (sizes[family._tops[sec[rk]]] // np.bincount(cls, minlength=len(reps)))[cyc]
    out, e, c = [], 0, 0
    for r, d, f in zip(np.bincount(rk[cyc], minlength=len(sec)).tolist(),
                       dim.tolist(), first.tolist()):
        out.append(mult[c:c + r, None] * hits[e:e + r * d].reshape(r, d)
                   // sizes[reps[f:f + d]])
        e, c = e + r * d, c + r
    return out


class SectionFamily:
    """All sections (T, S) of one group whose shape the label admits, in
    (top index, bottom index) order, held in flat arrays.

    Section k is (_tops[k], _bots[k]).  Its slot has dims[k] classes,
    _classes[_class_off[k]:_class_off[k + 1]]: the least member of each
    T-conjugacy class of intermediate subgroups S <= W <= T, in class
    order.  Entries _member_off[k]:_member_off[k + 1] of _members and
    _member_pos hold each such W, ascending, and the position of its class.
    All are read off the interval mask, the least T-conjugate of each W and
    a running count of the class representatives, in passes over at most
    _BATCH_ENTRIES (section, subgroup) entries.  The edges are built on
    first use (edge_arrays)."""

    def __init__(self, G: FiniteGroup, label: str):
        self.group = G
        self.label = label
        ana = self.ana = analysis(G)
        n = ana.n_sub
        tops, bots = self._tops, self._bots = np.nonzero(_admits(label, ana.shapes))
        self._keys = tops * n + bots                 # ascending
        self.whole_pos = self.index(n - 1, 0)        # the section (P, 1)
        self.edge_tags = (("cover", "def"), ("cover", "res")) + tuple(
            ("conj", u) for u in ana.generators)
        pos_t = np.min_scalar_type(-n - 1)   # holds -1 and every count up to n
        self.dims, self._classes, counts, self._members, self._member_pos = (
            np.concatenate(a) for a in zip(*(
                self._slot_arrays(sec, pos_t)
                for sec in _batches(np.arange(len(tops)), n))))
        self._class_off = np.concatenate([[0], np.cumsum(self.dims)])
        self._member_off = np.concatenate([[0], np.cumsum(counts)])
        self._systems: dict = {}         # functor -> CoefficientSystem

    def _slot_arrays(self, sec, pos_t) -> tuple:
        """(dims, classes, member counts, members, member positions) of the
        sections sec."""
        ana, n = self.ana, self.ana.n_sub
        t, b = self._tops[sec], self._bots[sec]
        between = ana.leq[b] & ana.leq[:, t].T
        if self.group.is_abelian:
            least = np.arange(n)[None, :]
        else:
            ut, at = np.unique(t, return_inverse=True)
            least = np.stack([ana.conj_sub[list(ana.subgroup_members[x])].min(axis=0)
                              for x in ut.tolist()])[at]
        reps = between & (least == np.arange(n))
        count = np.cumsum(reps, axis=1, dtype=pos_t)
        k, w = np.nonzero(between)
        # a copy, not a view that would keep the whole count alive
        return (count[:, -1].copy(), np.nonzero(reps)[1].astype(pos_t),
                np.bincount(k, minlength=len(sec)), w.astype(pos_t),
                count[k, np.broadcast_to(least, count.shape)[k, w]] - 1)

    @property
    def sections(self) -> list:
        """The (top, bottom) index pairs, built on access."""
        return list(zip(self._tops.tolist(), self._bots.tolist()))

    def _positions(self, tops, bots) -> np.ndarray:
        """Positions of the sections (tops, bots), -1 outside the family."""
        want = np.asarray(tops) * self.ana.n_sub + bots
        k = np.minimum(np.searchsorted(self._keys, want), len(self._keys) - 1)
        return np.where(self._keys[k] == want, k, -1)

    def index(self, ti: int, si: int) -> int | None:
        """Position of the section (ti, si), or None outside the family."""
        k = int(self._positions(ti, si))
        return None if k < 0 else k

    def classes(self, i: int) -> np.ndarray:
        """The class representatives of slot i, in class order."""
        return self._classes[self._class_off[i]:self._class_off[i + 1]]

    def _interval(self, i: int) -> tuple:
        """(W, class position of W) for every W in the interval of section
        i, in subgroup order."""
        lo, hi = self._member_off[i], self._member_off[i + 1]
        return self._members[lo:hi], self._member_pos[lo:hi]

    def _member_keys(self) -> np.ndarray:
        """k * n_sub + W for every member W of every section k: ascending."""
        return (np.repeat(np.arange(len(self._tops)) * self.ana.n_sub,
                          np.diff(self._member_off)) + self._members)

    def _locate(self, secs, subs) -> np.ndarray:
        """Class positions of the subgroups subs in the sections secs, -1
        where one lies outside the interval."""
        keys = self._member_keys()
        want = np.asarray(secs, dtype=np.int64) * self.ana.n_sub + subs
        k = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[k] == want, self._member_pos[k], -1)

    def _class_images(self, a, b, u) -> np.ndarray:
        """The class positions in section b[k] of the classes of section
        a[k] conjugated by the element u[k], for every k in turn."""
        n_cls = self.dims[a]
        subs = self.ana.conj_sub[np.repeat(u, n_cls), self._classes[
            _ranges(self._class_off[a], self._class_off[a + 1])]]
        return self._locate(np.repeat(b, n_cls), subs)

    def _selection_rows(self, a, b, u) -> list:
        """_class_images, one array per k."""
        rows, ends = self._class_images(a, b, u), np.cumsum(self.dims[a]).tolist()
        return [rows[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def class_positions(self, i: int) -> np.ndarray:
        """The class position of every subgroup in section i, -1 outside
        its interval: one scatter into a row of length n_sub."""
        members, pos = self._interval(i)
        row = np.full(self.ana.n_sub, -1, dtype=pos.dtype)
        row[members] = pos
        return row

    @cached_property
    def kernels(self) -> list:
        """The IntegerLattice of the mark kernel of the quotient at each
        slot.

        Rows of the linearization are indexed by the classes whose quotient
        image is cyclic (_mark_rows); the quotient of order dividing p
        contributes nothing, and its slots share one empty kernel per
        dimension.  Slots with the same mark rows share one kernel through
        the memo, keyed by the exact rows.  The whole-group slot (P, 1) has
        the class representatives as its classes and the linearization as
        its mark rows, so its entry is the base kernel of ring_data.
        """
        out, empty, memo = [], {}, {}     # memo: exact mark rows -> lattice
        for i, (d, rows) in enumerate(zip(self.dims.tolist(), _mark_rows(self))):
            if rows is None:
                if d not in empty:
                    empty[d] = IntegerLattice(d)
                out.append(empty[d])
                continue
            key = (rows.shape, rows.tobytes())
            got = memo.get(key)
            if got is None:
                got = memo[key] = (
                    ring_data(self.group).kernel() if i == self.whole_pos
                    else IntegerLattice.kernel(rows))
            out.append(got)
        return out

    @cached_property
    def edge_arrays(self) -> tuple:
        """(src, dst, kind) of every generating edge, each built once: int32
        section positions and int8 indices into edge_tags.

        First the cover edges: one-step deflations (grow the bottom by p,
        tag ("cover", "def")) and restrictions (shrink the top by p, tag
        ("cover", "res")), by source with its deflations first, each run in
        subgroup order of the new bottom or top, read off masks of at most
        _BATCH_ENTRIES entries.  Then the conjugation edges, tag ("conj",
        u), by source and then generator, for each generator u that moves
        the section or one of its classes.  Families are closed under the moves, so a move
        that leaves the family is a bug."""
        ana, tops, bots = self.ana, self._tops, self._bots
        sizes, p, n = ana.sizes, self.group.prime, ana.n_sub
        parts = []
        for sec in _batches(np.arange(len(tops)), 2 * n):
            t, b = tops[sec], bots[sec]
            between = ana.leq[b] & ana.leq[:, t].T
            grow = between & (sizes == sizes[b, None] * p) & ana.normal[:, t].T
            shrink = between & (sizes * p == sizes[t, None])
            src, w = np.nonzero(np.hstack([grow, shrink]))
            res, w = np.divmod(w, n)
            parts.append((sec[src], self._positions(np.where(res, w, t[src]),
                                                    np.where(res, b[src], w)), res))
        if not self.group.is_abelian:
            cu = ana.conj_sub[list(ana.generators)]       # (generator, subgroup)
            keep = (cu[:, tops] != tops) | (cu[:, bots] != bots)
            for k, u in enumerate(ana.generators):
                fixed = np.flatnonzero(~keep[k])
                n_cls = self.dims[fixed]
                moved = (self._class_images(fixed, fixed, np.full(len(fixed), u))
                         != _ranges(np.zeros_like(n_cls), n_cls))
                keep[k, fixed] = np.bincount(np.repeat(np.arange(len(fixed)), n_cls),
                                             moved, minlength=len(fixed)) > 0
            src, k = np.nonzero(keep.T)
            parts.append((src, self._positions(cu[k, tops[src]], cu[k, bots[src]]),
                          k + 2))
        src, dst, kind = (np.concatenate(a) for a in zip(*parts))
        if (dst < 0).any():
            raise AssertionError("a generating move left the family")
        return src.astype(np.int32), dst.astype(np.int32), kind.astype(np.int8)

    @property
    def edges(self) -> list:
        """Every generating edge as (src, dst, tag), decoded on access; the
        edges of one kind share one tag tuple."""
        src, dst, kind = self.edge_arrays
        return list(zip(src.tolist(), dst.tolist(),
                        map(self.edge_tags.__getitem__, kind.tolist())))

    # the two kinds apart; only perfbench/traced.py reads them, and it
    # needs no more than len(self.edges)
    @property
    def cover_edges(self) -> list:
        return [e for e in self.edges if e[2][0] == "cover"]

    @property
    def conj_edges(self) -> list:
        return [e for e in self.edges if e[2][0] == "conj"]


def section_family(G: FiniteGroup, label: str) -> SectionFamily:
    ana = analysis(G)
    fam = ana._families.get(label)
    if fam is None:
        fam = ana._families[label] = SectionFamily(G, label)
    return fam


# ---------------------------------------------------------------------------
# coefficient systems for the built-in functors


def _as_i64(mat) -> np.ndarray:
    arr = np.asarray(mat)
    if arr.dtype == np.int64:
        return arr
    out, _ = _i64_absmax(arr)
    if out is None:
        raise OverflowError("entry exceeds the int64 working range")
    return out


def _selection_matrix(rows, n: int) -> np.ndarray:
    """The n-row 0/1 matrix whose column j has its single 1 in rows[j]."""
    M = np.zeros((n, len(rows)), dtype=np.int64)
    M[rows, np.arange(len(rows))] = 1
    return M


def _defres_counts(ana: GroupAnalysis, top: int, cand: np.ndarray, cols: np.ndarray,
                   family: SectionFamily, j: int) -> np.ndarray:
    """Restrict-then-deflate of B to the section j = (T', S') of family
    from the classes of subgroups under conjugation by top >= T'; cols
    gives the column of the class of each subgroup in cand.

    Each double coset T' x W in top sends the class of W to the class of
    (xWx^-1 meet T') S'.  Summing over every x in top with weight
    |xWx^-1 meet T'| counts each double coset |T'| |W| times, and x W x^-1
    runs over each c in cls W |top| / |cls W| times, so the column of W
    is |top| / (|cls W| |T'| |W|) times the weighted sum over c in cls W.
    No double coset is listed, and a deflation (T' = top) writes one 1.
    """
    sizes = ana.sizes
    ti, si = family._tops[j], family._bots[j]
    inter = ana.meet[cand, ti]
    # (xWx^-1 meet T') S' lies in the interval of section j
    members, pos = family._interval(j)
    rows = pos[np.searchsorted(members, ana.join[inter, si])]
    D = np.zeros((family.dims[j], int(cols.max()) + 1), dtype=np.int64)
    np.add.at(D, (rows, cols), sizes[inter])
    w_size = np.zeros(D.shape[1], dtype=np.int64)
    w_size[cols] = sizes[cand]
    D, rem = np.divmod(D * sizes[top],
                       np.bincount(cols) * w_size * sizes[ti])
    if rem.any():
        raise AssertionError("double coset counts must be integral")
    return D


class CoefficientSystem:
    """Values and structure maps of one functor over one section family.

    functor B is the transitive-set functor itself, K its mark kernel;
    Bdual and Kdual are the dual functors, whose downward maps are the
    transposes of the upward maps of B and K along the same moves.
    """

    def __init__(self, family: SectionFamily, functor: str):
        if functor not in FUNCTOR_NAMES:
            raise FamilyError(f"unknown functor {functor!r}")
        self.family = family
        self.functor = functor
        self.group = family.group
        self.ana = family.ana
        self._map_cache = {}             # edge and base keys -> matrix
        self._limit = None               # set by inverse_limit
        if functor in ("K", "Kdual"):
            rd = ring_data(self.group)
            self._kernels = family.kernels
            self.dims = [k.rank for k in self._kernels]
            self.base_kernel = rd.kernel()
            self.base_rank = self.base_kernel.rank
        else:
            self._kernels = None
            self.dims = family.dims.tolist()
            self.base_rank = ring_data(self.group).n_classes
        self.offsets = []
        run = 0
        for d in self.dims:
            self.offsets.append(run)
            run += d
        self.total = run

    # -- structure maps, built in one batched pass per request -------------

    def _b_defres_between(self, src: int, dst: int) -> np.ndarray:
        """Downward map of B between nested sections, ambient coordinates."""
        fam = self.family
        return _defres_counts(self.ana, fam._tops[src], *fam._interval(src), fam, dst)

    def _b_defres_from_base(self, i: int) -> np.ndarray:
        ana = self.ana
        return _defres_counts(ana, ana.n_sub - 1, np.arange(ana.n_sub),
                              ana.class_of_sub, self.family, i)

    def _moves(self, keys, dual: bool) -> list:
        """(B, src, dst) for each cache key: the transitive-basis move
        behind its map, between value indices, len(dims) being the whole
        group.

        B is a full matrix, or for a selection move the row of the single
        1 in each column: induction and inflation keep the subgroup of each
        class, conjugation moves it.  A dual functor's map is the
        transpose of the map of the move that runs the other way.  The
        rows of every selection move along an edge come from one lookup.
        """
        ana, fam, whole = self.ana, self.family, len(self.dims)
        out, sel = [None] * len(keys), []
        for k, key in enumerate(keys):
            if key[0] in ("down", "up"):
                i = key[1]
                if dual and key[0] == "up":
                    raise FamilyError("upward maps to the base need functor B or K")
                out[k] = ((ana.class_of_sub[fam.classes(i)], i, whole)
                          if dual or key[0] == "up"
                          else (self._b_defres_from_base(i), whole, i))
                continue
            src, dst, (kind, u) = key
            if kind == "cover" and not dual:
                out[k] = (self._b_defres_between(src, dst), src, dst)
            elif dual:
                sel.append((k, dst, src, 0 if kind == "cover" else ana.group.inv_of(u)))
            else:
                sel.append((k, src, dst, u))
        if sel:
            ks, a, b, u = (np.array(c) for c in zip(*sel))
            for k, rows, ai, bi in zip(ks.tolist(), fam._selection_rows(a, b, u),
                                       a.tolist(), b.tolist()):
                out[k] = (rows, ai, bi)
        return out

    def _restricted(self, moves) -> list:
        """Moves as maps between this system's values: the transitive-basis
        matrices for B and Bdual, kernel coordinates for K and Kdual."""
        if self._kernels is None:
            dims = self.dims + [self.base_rank]
            return [B if B.ndim == 2 else _selection_matrix(B, dims[d])
                    for B, _, d in moves]
        kernels = self._kernels + [self.base_kernel]
        return [_as_i64(C) for C in _restrict_moves(moves, kernels)]

    def _maps(self, keys) -> list:
        """The maps under edge keys (src, dst, tag) and base keys ("down",
        i) or ("up", i); the missing ones are built in one pass."""
        cache = self._map_cache
        missing = [k for k in dict.fromkeys(keys) if k not in cache]
        if missing:
            dual = self.functor in ("Bdual", "Kdual")
            mats = self._restricted(self._moves(missing, dual))
            for key, M in zip(missing, mats):
                cache[key] = M.T if dual else M
        return [cache[k] for k in keys]

    def edges(self) -> list:
        """The family's generating edges (src, dst, tag), decoded afresh."""
        return self.family.edges

    def edge_matrix(self, src: int, dst: int, tag) -> np.ndarray:
        """Matrix of the downward move src -> dst on this functor's values.

        The first request builds every generating move at once."""
        key = (src, dst, tag)
        got = self._map_cache.get(key)
        if got is None:
            got = self._maps(self.edges() + [key])[-1]
        return got

    # -- maps to and from the value at the whole group ---------------------

    def defres_from_base(self, i: int) -> np.ndarray:
        """Component map F(P) -> value(i) of the product-of-downward-maps."""
        return self._maps([("down", i)])[0]

    def indinf_to_base(self, i: int) -> np.ndarray:
        """Upward map value(i) -> F(P); defined for B and K only."""
        return self._maps([("up", i)])[0]

    def unit_matrix(self) -> np.ndarray:
        """Stacked downward components: F(P) -> product of all values."""
        blocks = self._maps([("down", i) for i in range(len(self.dims))])
        if not blocks:
            return np.zeros((0, self.base_rank), dtype=np.int64)
        return np.vstack(blocks)


def coefficient_system(G: FiniteGroup, label: str, functor: str) -> CoefficientSystem:
    fam = section_family(G, label)
    sys = fam._systems.get(functor)
    if sys is None:
        sys = fam._systems[functor] = CoefficientSystem(fam, functor)
    return sys


# ---------------------------------------------------------------------------
# inverse limits of the built-in systems


class InverseLimit:
    """The limit lattice inside the product of the values.

    lattice holds it by its canonical HNF basis, so two solvers that find
    the same lattice produce identical objects; basis is that basis with
    one column per basis row (total x rank, object entries).
    """

    def __init__(self, system: CoefficientSystem, lattice: IntegerLattice):
        self.system = system
        self.lattice = lattice
        self.basis = lattice.basis.T
        self.rank = lattice.rank


class ConstraintViolation(AssertionError):
    """Columns that break a constraint v[dst] = D v[src]: edge is the first
    such edge in edge order as [src, dst, tag text], residual the entries
    of D v[src] - v[dst] on it, row by row."""

    def __init__(self, edge: list, residual: list[int]):
        super().__init__(f"constraint {edge[0]}->{edge[1]} {edge[2]} "
                         "violated by the given columns")
        self.edge = edge
        self.residual = residual


def residual_check(system: CoefficientSystem, mat: np.ndarray) -> None:
    """Assert the columns of mat satisfy every generating constraint.

    Edges whose matrices have one shape are checked in stacked exact
    products; a failure raises ConstraintViolation."""
    try:
        M = _as_i64(mat)
    except OverflowError:
        M = np.asarray(mat, dtype=object)
    blocks = [M[o:o + d] for o, d in zip(system.offsets, system.dims)]
    edges = system.edges()
    live = [(e, D) for e, D in zip(edges, system._maps(edges)) if D.shape[0]]
    e = _first_mismatch([(D, blocks[s], blocks[d], None) for (s, d, _), D in live])
    if e is not None:
        (src, dst, tag), D = live[e]
        res = np.asarray(_exact_matmul(D, blocks[src]), dtype=object) - blocks[dst]
        raise ConstraintViolation([int(src), int(dst), str(tag)],
                                  [int(v) for v in res.ravel()])


def constraint_rows(system: CoefficientSystem) -> list[dict[int, int]]:
    """The constraints D v[src] - v[dst] = 0 that inverse_limit solves, as
    sparse rows over the unknowns of the product of the values: one per
    generating edge and entry of v[dst]."""
    rows = []
    edges = system.edges()
    for (src, dst, _), D in zip(edges, system._maps(edges)):
        if not D.shape[0]:
            continue
        so, do = system.offsets[src], system.offsets[dst]
        block = [{} for _ in range(D.shape[0])]
        for r, c in zip(*np.nonzero(D)):
            block[r][so + int(c)] = int(D[r, c])
        for r, row in enumerate(block):
            row[do + r] = row.get(do + r, 0) - 1
        rows.extend(block)
    return rows


def inverse_limit(system: CoefficientSystem) -> InverseLimit:
    """Solve the compatibility constraints; basis columns span the limit.

    sparse_kernel_basis solves the constraint rows exactly.  The lattice
    its solution columns span gives the canonical basis, which is checked
    against the raw constraints before it is returned.
    The result is kept on the system, which lives on G's analysis, so a
    second call returns the same object and it is freed together with G.
    """
    if system._limit is None:
        lat = IntegerLattice(system.total, sparse_kernel_basis(
            constraint_rows(system), system.total).T)
        residual_check(system, lat.working_basis.T)
        system._limit = InverseLimit(system, lat)
    return system._limit


# ---------------------------------------------------------------------------
# the unit map into the limit and its comparison report


def comparison_report(limit: InverseLimit) -> dict:
    """Exact shape of the unit map F(P) -> limit.

    Expressing the unit columns in the canonical limit basis gives the
    unit map as an integer matrix; its invariant factors decide
    injectivity, surjectivity and the cokernel in one place.
    """
    system = limit.system
    E = system.unit_matrix()
    k = limit.rank
    r = E.shape[1]
    # the limit basis met every constraint in inverse_limit, so a column
    # certified a member meets them too; a faulty unit is reported here,
    # and the main campaign names the constraint or the column it breaks
    X, member = limit.lattice.coords(E)
    unit_in_limit = bool(member.all())
    inv = sparse_snf_invariants(_sparse_rows(X)) if unit_in_limit else []
    rank_unit = len(inv)
    report = {
        "group": system.group.name,
        "family": system.family.label,
        "functor": system.functor,
        "sections": len(system.family.sections),
        "ambient_rank": system.total,
        "limit_rank": k,
        "value_rank": r,
        "unit_in_limit": bool(unit_in_limit),
        "unit_rank": rank_unit,
        "unit_invariants": [int(d) for d in inv],
        "kernel_rank": r - rank_unit,
        "cokernel_torsion": [int(d) for d in inv if d != 1],
        "cokernel_free_rank": k - rank_unit,
    }
    report["is_isomorphism"] = bool(
        unit_in_limit and k == r == rank_unit and not report["cokernel_torsion"])
    return report


# ---------------------------------------------------------------------------
# colimits of upward systems and the kernel-of-counit probe


def _upward_moves(system: CoefficientSystem) -> tuple[np.ndarray, list]:
    """(ids, moves): moves[k] = (B, a, b) is the transitive-basis move
    that sends value(a) into value(b) along the family edge ids[k], a
    cover edge read as its dual or a conjugation edge, ready for
    system._restricted.  Moves out of a zero value are left out; covers
    come first, as in the edge arrays.  The selection rows of every move
    come from one lookup of the family's class positions."""
    if system.functor not in ("B", "K"):
        raise FamilyError("colimits are built from functor B or K")
    fam = system.family
    src, dst, kind = fam.edge_arrays
    conj = kind >= 2
    ids = np.flatnonzero(np.asarray(system.dims)[np.where(conj, src, dst)])
    a = np.where(conj, src, dst)[ids]
    b = np.where(conj, dst, src)[ids]
    # a cover's dual keeps each class of its bottom: conjugation by 1
    u = np.array((0, 0) + system.ana.generators)[kind[ids]]
    return ids, list(zip(fam._selection_rows(a, b, u), a.tolist(), b.tolist()))


def _up_rows(fam: SectionFamily) -> np.ndarray:
    """The up selection of every class entry of the family, in the order of
    fam._classes: the class of P that holds it.  The up map of value(x)
    sends class j of section x to class _up_rows(fam)[_class_off[x] + j]."""
    return fam.ana.class_of_sub[fam._classes]


def _check_cocone(system: CoefficientSystem, ids: np.ndarray, moves: list,
                  keep: bool) -> dict:
    """Check U_b @ M == U_a for every move M from value(a) into value(b),
    U_x being the up map of value(x) in base kernel coordinates, without
    forming any U_x.

    U_x is the restriction of the up selection S_x to the kernel bases, so
    H_P.T @ U_x == S_x @ H_x.T, and H_P.T is injective: the check reads
    S_b @ (H_b.T @ M) == S_a @ H_a.T in the transitive basis of P.  Moves
    with equal kernel shapes at both ends are taken in batches of about
    _BATCH_ENTRIES entries, each checked by one stacked exact product
    H_b.T @ M and one scatter-add of both sides into the classes of P.  A
    failure names the first failing edge, moves[k] running along the
    family edge ids[k].  Returns the restricted moves by index, kept if
    keep is set."""
    fam, lats = system.family, system._kernels
    up, off = _up_rows(fam), fam._class_off
    n = system.base_kernel.ambient
    groups = {}
    for e, (_, a, b) in enumerate(moves):
        groups.setdefault((lats[b].basis.shape, lats[a].basis.shape), []).append(e)
    kept, bad = {}, []
    for ((kb, db), (ka, da)), members in groups.items():
        # a target basis every member shares is stacked once and broadcast
        shared = len({id(lats[moves[e][2]]) for e in members}) == 1
        for chunk in _batches(members, kb * ka + (db + da + n) * ka + db * kb * (not shared),
                              db * kb * shared):
            a, b = (np.array([moves[e][k] for e in chunk]) for k in (1, 2))
            Ms = np.stack(system._restricted([moves[e] for e in chunk]))
            Hb, Ha = (_stack_shared([lats[i].working_basis for i in x.tolist()])
                      .transpose(0, 2, 1) for x in (b, a))
            lhs = _exact_matmul(Hb, Ms)
            at = np.arange(len(chunk))[:, None]
            diff = np.zeros((len(chunk), n, ka), dtype=np.result_type(lhs, Ha))
            np.add.at(diff, (at, up[off[b][:, None] + np.arange(db)]), lhs)
            np.subtract.at(diff, (at, up[off[a][:, None] + np.arange(da)]), Ha)
            wrong = diff.reshape(len(chunk), -1).any(axis=1)
            bad.extend(chunk[k] for k in np.flatnonzero(wrong))
            if keep:
                kept.update(zip(chunk, Ms))
    if bad:
        src, dst, tag = system.family.edges[ids[min(bad)]]
        raise AssertionError(f"upward maps disagree along {src}->{dst} {tag}")
    return kept


def _residual_rows(system: CoefficientSystem, moves: list, tree: dict,
                   roots: list, Ms: dict) -> list[dict[int, int]]:
    """The relations of the moves off the tree over the root generators, in
    which each root's value has its own block.  Along its tree move a -> b,
    value(a) has the coordinates C_a = C_b M in the block of b's root (none
    if value(b) is zero), and column j of a move M: a -> b off the tree
    reads C_a e_j - C_b M e_j."""
    dims, n = system.dims, 0
    at = {i: (0, np.zeros((0, 0), dtype=np.int64)) for i, d in enumerate(dims) if not d}
    for i in roots:
        at[i] = (n, np.eye(dims[i], dtype=np.int64))
        n += dims[i]
    sizes, fam = system.ana.sizes, system.family
    index = (sizes[fam._tops] // sizes[fam._bots]).tolist()
    for a in sorted(tree, key=lambda a: -index[a]):
        o, C = at[moves[tree[a]][2]]
        at[a] = (o, _exact_matmul(C, Ms[tree[a]]))
    rows = []
    for e, (_, a, b) in enumerate(moves):
        if tree.get(a) != e:
            (oa, Ca), (ob, Cb) = at[a], at[b]
            block = np.zeros((dims[a], n), dtype=object)
            block[:, oa:oa + len(Ca)] += Ca.T
            block[:, ob:ob + len(Cb)] -= _exact_matmul(Cb, Ms[e]).T
            rows.extend(_sparse_rows(block))
    return rows


def _sparse_rows(M: np.ndarray) -> list[dict[int, int]]:
    """The rows of M as {column: entry} dicts, zeros dropped."""
    rs, cs = np.nonzero(M)
    ends = np.cumsum(np.bincount(rs, minlength=M.shape[0])).tolist()
    ks, vs = cs.tolist(), M[rs, cs].tolist()
    return [dict(zip(ks[lo:hi], vs[lo:hi])) for lo, hi in zip([0] + ends, ends)]


def counit_kernel_report(system: CoefficientSystem) -> dict:
    """The kernel of the counit, by forest elimination of the colimit's
    relations (module docstring): finite exactly when the relation rank
    plus the base rank fills the generator count, and then its invariant
    factors are the nontrivial relation invariants.  The counit is onto
    when the row HNF of the root up maps is the identity; hnf_diagonal
    holds its pivot entries in row order, the diagonal when it is square."""
    if system.functor != "K":
        raise FamilyError("the counit probe is defined for functor K")
    ids, moves = _upward_moves(system)
    dims, r = system.dims, system.base_rank
    tree = {}                    # section -> its first upward cover move
    cover = (system.family.edge_arrays[2][ids] < 2).tolist()
    for e, ((_, a, _), c) in enumerate(zip(moves, cover)):
        if c:
            tree.setdefault(a, e)
    roots = [i for i, d in enumerate(dims) if d and i not in tree]
    root_gens = sum(dims[i] for i in roots)
    # every up map factors through a root's, so the counit's image is the
    # span of the root up maps: onto iff their row HNF is the identity
    ups = system._restricted(system._moves([("up", i) for i in roots], False))
    image = IntegerLattice(r, np.hstack([np.zeros((r, 0), dtype=np.int64)] + ups).T)
    keep, surjective = image.rank < root_gens, image.rank == r and image.ident
    diagonal = [int(d) for d in image.basis[np.arange(image.rank), image.piv]]
    del ups, image               # freed before the cocone pass
    kept = _check_cocone(system, ids, moves, keep)
    invariants = sparse_snf_invariants(
        _residual_rows(system, moves, tree, roots, kept)) if keep else []
    rel_rank = system.total - root_gens + len(invariants)
    finite = rel_rank + r == system.total
    m_invariants = [int(d) for d in invariants if d != 1]
    return {
        "group": system.group.name,
        "family": system.family.label,
        "functor": system.functor,
        "generators": system.total,
        "relation_rank": int(rel_rank),
        "base_rank": int(r),
        "counit_surjective": bool(surjective),
        "hnf_diagonal": diagonal,
        "kernel_finite": bool(finite),
        "kernel_invariants": m_invariants,
        "kernel_trivial": bool(finite and not m_invariants),
    }
