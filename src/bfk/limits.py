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
and (sections x subgroups) arrays give its slots and edges.  Every limit
is the integer kernel of the sparse constraint rows v[dst] - D v[src] = 0,
solved in one exact pass: +-1 pivots are eliminated in Markowitz order in
Python ints, kernel_basis solves the dense core left, and back-substitution
fills in the eliminated unknowns.  Columns are checked against every
constraint at once by residual_check, in stacked exact products of the
edges with one shape, and are written in the canonical limit basis by
zlinalg.coords_in_hnf.

The colimit of K along the upward moves is presented by a generator per
coordinate of a value and a relation per column of a move.  Each section
with a nonzero value keeps its first upward cover move as its tree move
(the others are roots); it goes strictly up, so its relations have +1
pivots on the section's own generators.  Eliminating them leaves unit
invariants and the other moves over the root generators, which the counit
kills, so they are zero when the root up maps have full column rank.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .groups import SHAPE_XSP, FiniteGroup, GroupAnalysis, analysis
from .zlinalg import (_batches, _exact_matmul, _first_mismatch, _i64_absmax,
                      _restrict_moves, _stack_shared, coords_in_hnf, hnf,
                      hnf_pivots, kernel_basis, sparse_kernel_basis,
                      sparse_snf_invariants)
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
# section slots: transitive-set bases in ambient coordinates


class SectionSlot:
    """Basis data for one section (T, S) of the ambient group.

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

    def index(self, ana: GroupAnalysis) -> int:
        return (len(ana.subgroup_members[self.ti])
                // len(ana.subgroup_members[self.si]))


def _mark_rows(family: "SectionFamily") -> list:
    """Marks of the cyclic classes (rows) against all classes (columns) of
    the quotient at each slot of index above p, None at the others, read
    off the family's (sections x subgroups) arrays in chunks of
    _BATCH_ENTRIES // n_sub sections.

    V/S fixes |T| / (|cls V| |W|) * #{V' in cls V : V' <= W} points of
    T/W, with cls V the T-class of V.  Each pair of a member V' of a
    section's interval S <= V' <= T and a class W of that section is read
    once: it counts towards the maximal subgroups of W, whose quotient is
    cyclic iff there is one (a p-group with a unique maximal subgroup), and
    towards #{V' <= W} of the class of V'.
    """
    ana = family.ana
    sizes, p = ana.sizes, ana.group.prime
    out = [None] * len(family.slots)
    for sec in _batches(np.flatnonzero(sizes[family._tops] > p * sizes[family._bots]),
                        ana.n_sub):
        cp = family._class_pos[sec]
        ks, members = np.nonzero(cp >= 0)            # interval members by section
        # the least member of a class is its representative and its first
        # member, and classes are numbered in the order they first appear
        first_seen = cp > np.maximum.accumulate(np.pad(cp, ((0, 0), (1, 0)),
                                                       constant_values=-1), axis=1)[:, :-1]
        rk, reps = np.nonzero(first_seen)            # class entries, in class order
        dim = np.bincount(rk, minlength=len(sec))
        first = np.cumsum(dim) - dim                 # first class entry of a section
        cls = first[ks] + cp[ks, members]            # class entry of each member
        # every (member, class entry of its section) pair with member <= class
        n = dim[ks]
        m = np.repeat(np.arange(len(ks)), n)
        w = np.arange(len(m)) - np.repeat(np.cumsum(n) - n - first[ks], n)
        below = ana.leq[members[m], reps[w]]
        m, w = m[below], w[below]
        maximal = np.bincount(w[sizes[members[m]] * p == sizes[reps[w]]],
                              minlength=len(reps))
        cyc = (sizes[reps] == sizes[family._bots[sec[rk]]]) | (maximal == 1)
        # a cyclic class entry owns a block of its section's dim columns
        span = np.where(cyc, dim[rk], 0)
        start = np.cumsum(span) - span
        hit = cyc[cls[m]]
        m, w = m[hit], w[hit]
        hits = np.bincount(start[cls[m]] + w - first[ks[m]], minlength=int(span.sum()))
        row = np.repeat(np.arange(len(reps)), span)
        col = np.arange(len(row)) - np.repeat(start - first[rk], span)
        mult = sizes[family._tops[sec[rk]]] // np.bincount(cls, minlength=len(reps))
        flat = mult[row] * hits // sizes[reps[col]]
        ncyc = np.bincount(rk[cyc], minlength=len(sec))
        ends = np.cumsum(ncyc * dim).tolist()
        for k, e, r, d in zip(sec.tolist(), ends, ncyc.tolist(), dim.tolist()):
            out[k] = flat[e - r * d:e].reshape(r, d)
    return out


# ---------------------------------------------------------------------------
# the family of sections of one group, with its generating moves


class SectionFamily:
    """All sections (T, S) of one group whose shape the label admits, in
    (top index, bottom index) order.  Slots are read off (sections x
    subgroups) arrays: the interval mask S <= W <= T, the least T-conjugate
    of each W, and a running count of the class representatives; each
    class_pos is a row of the counts.  The edges, one-step deflations (grow
    the bottom by p) and restrictions (shrink the top by p) and conjugation
    by the generators, are read off masks of that shape on first use."""

    def __init__(self, G: FiniteGroup, label: str):
        self.group = G
        self.label = label
        ana = self.ana = analysis(G)
        tops, bots = self._tops, self._bots = np.nonzero(_admits(label, ana.shapes))
        self.sections = list(zip(tops.tolist(), bots.tolist()))
        self.pos = {ts: i for i, ts in enumerate(self.sections)}
        n = ana.n_sub
        self.whole_pos = self.pos.get((n - 1, 0))    # the section (P, 1)
        pos_t = np.min_scalar_type(-n - 1)   # holds -1 and every count up to n
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
        self._systems: dict = {}         # functor -> CoefficientSystem
        self._kernel_memo: dict = {}     # exact mark rows -> (kernel, pivots)

    @cached_property
    def kernels(self) -> list:
        """HNF basis (rows, int64) of the mark kernel of the quotient at
        each slot, with the pivot column of each basis row.

        Rows of the linearization are indexed by the classes whose quotient
        image is cyclic (_mark_rows); the quotient of order dividing p
        contributes nothing.  Slots with the same mark rows share one
        kernel through the memo, keyed by the exact rows.  The whole-group
        slot (P, 1) has the class representatives as its classes and the
        linearization as its mark rows, so its entry is the base kernel of
        ring_data.
        """
        out = []
        for i, (slot, rows) in enumerate(zip(self.slots, _mark_rows(self))):
            if rows is None:
                out.append((np.zeros((0, slot.dim), dtype=np.int64), []))
                continue
            key = (rows.shape, rows.tobytes())
            got = self._kernel_memo.get(key)
            if got is None:
                if i == self.whole_pos:
                    base = ring_data(self.group).kernel()
                    kern, piv = base.basis, base._piv
                else:
                    kern = kernel_basis(rows)
                    piv = hnf_pivots(kern)
                got = self._kernel_memo[key] = (_as_i64(kern), piv)
            out.append(got)
        return out

    def _add_edges(self, out: list, src, tops, bots, tags, kind) -> None:
        """Append (src, position of (tops, bots), tags[kind]) to out, sharing
        the ints of pos and one tag per kind; families are closed under the
        moves, so a miss is a bug."""
        at = np.full(self.ana.leq.shape, -1, dtype=np.int32)
        at[self._tops, self._bots] = np.arange(len(self.sections))
        dst = at[tops, bots]
        if (dst < 0).any():
            raise AssertionError("a generating move left the family")
        ids = list(self.pos.values())
        out.extend((ids[s], ids[d], tags[k])
                   for s, d, k in zip(src.tolist(), dst.tolist(), kind.tolist()))

    @cached_property
    def edges(self) -> list:
        """Every generating edge (src, dst, tag), each built once.

        First the cover edges, tag ("cover", "def" | "res"), by source,
        its deflations first, each run in subgroup order of the new bottom
        or top, read off masks of _BATCH_ENTRIES // n_sub sections at a
        time; then the conjugation edges, tag ("conj", u), by source and
        then generator, for each generator u that moves the section or one
        of its classes.  Every system of the family shares this one list,
        so a caller that extends it copies it first."""
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
            cu = ana.conj_sub[list(ana.generators)]       # (generator, subgroup)
            keep = (cu[:, tops] != tops) | (cu[:, bots] != bots)
            for k, row in enumerate(cu):
                fixed = np.flatnonzero(~keep[k])
                keep[k, fixed] = (cp[fixed][:, row] != cp[fixed]).any(axis=1)
            src, k = np.nonzero(keep.T)
            self._add_edges(out, src, cu[k, tops[src]], cu[k, bots[src]],
                            [("conj", u) for u in ana.generators], k)
        return out

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


def _defres_counts(ana: GroupAnalysis, top: int, class_pos: np.ndarray,
                   dst: SectionSlot) -> np.ndarray:
    """Restrict-then-deflate of B to the section dst = (T', S') from the
    classes of subgroups under conjugation by top >= T'; class_pos gives
    the column of each subgroup's class, -1 for none.

    Each double coset T' x W in top sends the class of W to the class of
    (xWx^-1 meet T') S'.  Summing over every x in top with weight
    |xWx^-1 meet T'| counts each double coset |T'| |W| times, and x W x^-1
    runs over each c in cls W |top| / |cls W| times, so the column of W
    is |top| / (|cls W| |T'| |W|) times the weighted sum over c in cls W.
    No double coset is listed, and a deflation (T' = top) writes one 1.
    """
    sizes = ana.sizes
    cand = np.flatnonzero(class_pos >= 0)
    cols = class_pos[cand]
    inter = ana.meet[cand, dst.ti]
    D = np.zeros((dst.dim, int(cols.max()) + 1), dtype=np.int64)
    np.add.at(D, (dst.class_pos[ana.join[inter, dst.si]], cols), sizes[inter])
    w_size = np.zeros(D.shape[1], dtype=np.int64)
    w_size[cols] = sizes[cand]
    D, rem = np.divmod(D * sizes[top],
                       np.bincount(cols) * w_size * sizes[dst.ti])
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
            self._kernels = [k for k, _ in family.kernels]
            self._kernel_pivs = [piv for _, piv in family.kernels]
            self.dims = [k.shape[0] for k in self._kernels]
            self.base_kernel = ring_data(self.group).kernel()
            self.base_rank = self.base_kernel.rank
            self._base_basis = _as_i64(self.base_kernel.basis)
        else:
            self._kernels = self._kernel_pivs = None
            self.dims = [s.dim for s in family.slots]
            self.base_rank = ring_data(self.group).n_classes
        self.offsets = []
        run = 0
        for d in self.dims:
            self.offsets.append(run)
            run += d
        self.total = run

    # -- structure maps, built in one batched pass per request -------------

    def _b_defres_between(self, src: SectionSlot, dst: SectionSlot) -> np.ndarray:
        """Downward map of B between nested sections, ambient coordinates."""
        return _defres_counts(self.ana, src.ti, src.class_pos, dst)

    def _b_defres_from_base(self, i: int) -> np.ndarray:
        ana = self.ana
        return _defres_counts(ana, ana.n_sub - 1, ana.class_of_sub,
                              self.family.slots[i])

    def _move(self, key, dual: bool):
        """(B, src, dst): the transitive-basis move behind the map under a
        cache key, between value indices, len(dims) being the whole group.

        B is a full matrix, or for a selection move the row of the single
        1 in each column: induction and inflation keep the subgroup of each
        class, conjugation moves it.  A dual functor's map is the
        transpose of the map of the move that runs the other way.
        """
        ana, slots = self.ana, self.family.slots
        if key[0] in ("down", "up"):
            i = key[1]
            if dual and key[0] == "up":
                raise FamilyError("upward maps to the base need functor B or K")
            if dual or key[0] == "up":
                return ana.class_of_sub[slots[i].classes], i, len(slots)
            return self._b_defres_from_base(i), len(slots), i
        src, dst, (kind, u) = key
        a, b = slots[src], slots[dst]
        if kind == "cover":
            if dual:
                return a.class_pos[b.classes], dst, src
            return self._b_defres_between(a, b), src, dst
        if dual:
            return a.class_pos[ana.conj_sub[ana.group.inv_of(u), b.classes]], dst, src
        return b.class_pos[ana.conj_sub[u, a.classes]], src, dst

    def _restricted(self, moves) -> list:
        """Moves as maps between this system's values: the transitive-basis
        matrices for B and Bdual, kernel coordinates for K and Kdual."""
        if self._kernels is None:
            dims = self.dims + [self.base_rank]
            return [B if B.ndim == 2 else _selection_matrix(B, dims[d])
                    for B, _, d in moves]
        kernels = self._kernels + [self._base_basis]
        pivots = self._kernel_pivs + [self.base_kernel._piv]
        return [_as_i64(C) for C in _restrict_moves(moves, kernels, pivots)]

    def _maps(self, keys) -> list:
        """The maps under edge keys (src, dst, tag) and base keys ("down",
        i) or ("up", i); the missing ones are built in one pass."""
        cache = self._map_cache
        missing = [k for k in dict.fromkeys(keys) if k not in cache]
        if missing:
            dual = self.functor in ("Bdual", "Kdual")
            mats = self._restricted([self._move(k, dual) for k in missing])
            for key, M in zip(missing, mats):
                cache[key] = M.T if dual else M
        return [cache[k] for k in keys]

    def edges(self) -> list:
        """The family's generating edges (src, dst, tag): one shared list,
        which callers copy before they change it."""
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
    """Basis of the limit lattice inside the product of the values.

    The stored basis is canonical: columns are the transposed reduced
    row-echelon integer basis of the solution lattice, so two solvers
    that find the same lattice produce identical objects.
    """

    def __init__(self, system: CoefficientSystem, basis: np.ndarray):
        self.system = system
        self.basis = basis          # total x rank, object entries
        self.rank = basis.shape[1]
        self.pivots = hnf_pivots(basis.T)


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

    sparse_kernel_basis solves the constraint rows exactly.  One
    zlinalg.hnf call of its solution columns gives the canonical basis,
    which is checked against the raw constraints before it is returned.
    The result is kept on the system, which lives on G's analysis, so a
    second call returns the same object and it is freed together with G.
    """
    if system._limit is None:
        basis = hnf(sparse_kernel_basis(constraint_rows(system), system.total).T).T.copy()
        residual_check(system, basis)
        system._limit = InverseLimit(system, basis)
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
    residual_check(system, E)
    k = limit.rank
    r = E.shape[1]
    X, member = coords_in_hnf(limit.basis.T, E, limit.pivots)
    unit_in_limit = bool(member.all())
    if unit_in_limit:
        inv = sparse_snf_invariants(_sparse_rows(X))
    else:
        # the unit satisfies every constraint, so this cannot happen for
        # a correctly solved limit; report it rather than assert
        inv = []
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


def _upward_moves(system: CoefficientSystem) -> tuple[list, list]:
    """(edges, moves): moves[e] = (B, a, b) is the transitive-basis move
    that sends value(a) into value(b) along edges[e], a cover edge read as
    its dual or a conjugation edge, ready for system._restricted.  Moves
    out of a zero value are left out; covers come first, as in edges()."""
    if system.functor not in ("B", "K"):
        raise FamilyError("colimits are built from functor B or K")
    dims = system.dims
    edges, moves = [], []
    for e in system.edges():
        src, dst, tag = e
        if dims[src if tag[0] == "conj" else dst]:
            edges.append(e)
            moves.append(system._move(e, dual=tag[0] != "conj"))
    return edges, moves


def _check_cocone(system: CoefficientSystem, edges: list, moves: list,
                  keep: bool) -> dict:
    """Check ups[b] @ M == ups[a] for every move M from value(a) into
    value(b), one batch of equal-shape moves and one product at a time; a
    failure names the first failing edge.  Up maps are restricted per batch
    and never cached: a target's lives until its last move, a source's for
    one batch.  Returns the restricted moves by index, kept if keep is set."""
    dims, r = system.dims, system.base_rank
    groups = {}
    for e, (_, a, b) in enumerate(moves):
        groups.setdefault((dims[b], dims[a]), []).append(e)
    left = np.bincount([b for _, _, b in moves], minlength=len(dims)).tolist()
    held, kept, bad = {}, {}, []
    for (kb, ka), members in groups.items():
        # an up map every member shares is stacked once and broadcast
        shared = len({moves[e][2] for e in members}) == 1
        for chunk in _batches(members, r * (kb * (not shared) + 3 * ka) + kb * ka,
                              r * kb * shared):
            pairs = [moves[e][1:] for e in chunk]
            Ms = np.stack(system._restricted([moves[e] for e in chunk]))
            new = [i for i in dict.fromkeys(i for ab in pairs for i in ab)
                   if i not in held]
            ups = dict(zip(new, system._restricted(
                [system._move(("up", i), False) for i in new])))
            held.update((b, ups[b]) for _, b in pairs if b in ups)
            lhs = _exact_matmul(_stack_shared([held[b] for _, b in pairs]), Ms)
            rhs = _stack_shared([held[a] if a in held else ups[a] for a, _ in pairs])
            wrong = (lhs != rhs).reshape(len(chunk), -1).any(axis=1)
            bad.extend(chunk[k] for k in np.flatnonzero(wrong))
            if keep:
                kept.update(zip(chunk, Ms))
            for _, b in pairs:
                left[b] -= 1
                if not left[b]:
                    del held[b]
    if bad:
        src, dst, tag = edges[min(bad)]
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
    for a in sorted(tree, key=lambda a: -system.family.slots[a].index(system.ana)):
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
    factors are the nontrivial relation invariants."""
    if system.functor != "K":
        raise FamilyError("the counit probe is defined for functor K")
    edges, moves = _upward_moves(system)
    dims, r = system.dims, system.base_rank
    tree = {}                    # section -> its first upward cover move
    for e, ((_, _, tag), (_, a, _)) in enumerate(zip(edges, moves)):
        if tag[0] == "cover":
            tree.setdefault(a, e)
    roots = [i for i, d in enumerate(dims) if d and i not in tree]
    root_gens = sum(dims[i] for i in roots)
    # every up map factors through a root's, so the counit's image is the
    # span of the root up maps: onto iff their row HNF is the identity
    H = hnf(np.hstack([np.zeros((r, 0), dtype=np.int64)] + system._restricted(
        [system._move(("up", i), False) for i in roots])).T)
    keep, surjective = len(H) < root_gens, np.array_equal(H, np.eye(r, dtype=np.int64))
    del H                        # freed before the cocone pass
    kept = _check_cocone(system, edges, moves, keep)
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
        "kernel_finite": bool(finite),
        "kernel_invariants": m_invariants,
        "kernel_trivial": bool(finite and not m_invariants),
    }
