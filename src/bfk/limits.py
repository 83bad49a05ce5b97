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
in kernel coordinates at once.  Every limit is the integer kernel of the
sparse constraint rows v[dst] - D v[src] = 0, solved in one exact pass:
+-1 pivots are eliminated in Markowitz order in Python ints,
kernel_basis solves the dense core left, and back-substitution fills in
the eliminated unknowns.
"""

from __future__ import annotations

import numpy as np

from .groups import (SECTION_CLASSES, FiniteGroup, GroupAnalysis, analysis,
                     _closure)
from .zlinalg import (LatticeBuilder, _batches, _exact_matmul, _i64_absmax,
                      _restrict_moves, _stack_shared, hnf_pivots, kernel_basis,
                      obj_zeros, sparse_kernel_basis, sparse_snf_invariants)
from .burnside import ring_data

FAMILY_LABELS = tuple(SECTION_CLASSES)
FUNCTOR_NAMES = ("B", "K", "Bdual", "Kdual")

# label semantics: E* keeps elementary abelian quotients (digit = rank cap,
# no digit = unbounded), X* additionally keeps the extraspecial exponent-p
# quotient of order p^3.


class FamilyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# subgroup shape memos on the ambient analysis


def _power_closure(ana: GroupAnalysis, ti: int) -> frozenset:
    """Subgroup generated by the p-th powers of the members of subgroup ti."""
    got = ana._power_memo.get(ti)
    if got is None:
        m = np.asarray(ana.subgroup_members[ti], dtype=np.int32)
        got = frozenset(_closure(ana.group.table,
                                 np.flatnonzero(np.bincount(ana.pth_power[m]))))
        ana._power_memo[ti] = got
    return got


def _derived_closure(ana: GroupAnalysis, ti: int) -> frozenset:
    """Commutator subgroup of subgroup ti."""
    got = ana._derived_memo.get(ti)
    if got is None:
        table, inv = ana.group.table, ana.group.inv
        m = np.asarray(ana.subgroup_members[ti], dtype=np.int32)
        # comms[a, b] = (a^-1 b^-1)(a b)
        comms = table[table[inv[m][:, None], inv[m][None, :]],
                      table[m[:, None], m[None, :]]]
        got = frozenset(_closure(table, np.flatnonzero(np.bincount(comms.ravel()))))
        ana._derived_memo[ti] = got
    return got


def family_contains(ana: GroupAnalysis, ti: int, si: int, label: str) -> bool:
    """Does the quotient of section (ti, si) belong to the labeled family?

    Assumes (ti, si) is a section: si normal in ti.  The tests reduce to
    two containments: the quotient has exponent p iff the p-th power
    closure of T lies in S, and it is abelian iff the derived subgroup
    does.  Order p^3 with exponent p and nonabelian is exactly the
    extraspecial member.
    """
    if label not in FAMILY_LABELS:
        raise FamilyError(f"unknown family label {label!r}")
    p = ana.group.prime
    index = len(ana.subgroup_members[ti]) // len(ana.subgroup_members[si])
    s_set = ana.member_sets[si]
    if index == 1:
        return True
    if not _power_closure(ana, ti) <= s_set:
        return False
    abelian = _derived_closure(ana, ti) <= s_set
    if label == "E":
        return abelian
    if label == "E2":
        return abelian and index <= p * p
    if label == "E3":
        return abelian and index <= p ** 3
    if label == "X3":
        # rank <= 3 elementary abelian, or the extraspecial quotient;
        # exponent p forces one of the two once the index caps at p^3
        return index <= p ** 3
    if label == "X2":
        return (abelian and index <= p * p) or (not abelian and index == p ** 3)
    # label == "X"
    return abelian or index == p ** 3


# ---------------------------------------------------------------------------
# section slots: transitive-set bases in ambient coordinates


class SectionSlot:
    """Basis data for one section (T, S) of the ambient group.

    classes holds one representative subgroup index per T-conjugacy class
    of intermediate subgroups, the least member of the class; class_pos
    maps every subgroup index to the position of its class, or -1 for
    subgroups outside the interval S <= W <= T.
    """

    __slots__ = ("ti", "si", "classes", "class_pos", "dim", "_kernel",
                 "_kernel_piv")

    def __init__(self, ana: GroupAnalysis, ti: int, si: int):
        self.ti = ti
        self.si = si
        cand = np.flatnonzero(ana.leq[si] & ana.leq[:, ti])
        t_mem = np.asarray(ana.subgroup_members[ti])
        least = ana.conj_sub[np.ix_(t_mem, cand)].min(axis=0)
        reps, pos = np.unique(least, return_inverse=True)
        self.classes = reps.tolist()
        # the smallest signed type that holds every position and -1
        self.class_pos = np.full(ana.n_sub, -1, dtype=np.min_scalar_type(-len(reps)))
        self.class_pos[cand] = pos
        self.dim = len(reps)
        self._kernel = None
        self._kernel_piv = None

    def index(self, ana: GroupAnalysis) -> int:
        return (len(ana.subgroup_members[self.ti])
                // len(ana.subgroup_members[self.si]))


def _slot_kernel(family: "SectionFamily", slot: SectionSlot) -> tuple[np.ndarray, list]:
    """HNF basis (rows, int64) of the mark kernel of the quotient at this
    slot, with the pivot column of each basis row.

    Rows of the linearization are indexed by the classes whose quotient
    image is cyclic; the quotient of order dividing p contributes nothing.
    Slots with the same mark rows share one kernel through the family's
    memo, keyed by the exact rows.  The whole-group slot (P, 1) has the
    class representatives as its classes and the linearization as its
    mark rows, so its entry is the base kernel of ring_data.
    """
    if slot._kernel is None:
        ana = family.ana
        if slot.index(ana) <= ana.group.prime:
            got = (np.zeros((0, slot.dim), dtype=np.int64), [])
        else:
            rows = _mark_rows(ana, slot)
            key = (rows.shape, rows.tobytes())
            got = family._kernel_memo.get(key)
            if got is None:
                if slot.index(ana) == ana.group.order:
                    base = ring_data(ana.group).kernel()
                    kern, piv = base.basis, base._piv
                else:
                    kern = kernel_basis(rows)
                    piv = hnf_pivots(kern)
                got = family._kernel_memo[key] = (_as_i64(kern), piv)
        slot._kernel, slot._kernel_piv = got
    return slot._kernel, slot._kernel_piv


def _mark_rows(ana: GroupAnalysis, slot: SectionSlot) -> np.ndarray:
    """Marks of the cyclic classes of the quotient at this slot (rows)
    against all of its classes (columns).

    V/S fixes |T| / (|cls V| |W|) * #{V' in cls V : V' <= W} points of
    T/W, with cls V the T-class of V.
    """
    sizes = ana.sizes
    cls = np.asarray(slot.classes)
    cand = np.flatnonzero(slot.class_pos >= 0)
    # a p-group quotient is cyclic iff it has a unique maximal subgroup
    maximal = (ana.leq[np.ix_(cand, cls)]
               & (sizes[cand, None] * ana.group.prime == sizes[cls]))
    cyc = cls[(sizes[cls] == sizes[slot.si]) | (maximal.sum(axis=0) == 1)]
    in_cls = slot.class_pos[cand] == slot.class_pos[cyc][:, None]
    hits = in_cls.astype(np.int64) @ ana.leq[np.ix_(cand, cls)]
    mult = sizes[slot.ti] // in_cls.sum(axis=1)
    return mult[:, None] * hits // sizes[cls]


# ---------------------------------------------------------------------------
# the family of sections of one group, with its generating moves


class SectionFamily:
    """All sections of one group whose quotient fits the family label.

    Sections are ordered by (top index, bottom index) over the canonical
    subgroup ordering, so every derived listing is deterministic.  Edges
    record the generating moves: one-step deflations (grow the bottom by
    p), one-step restrictions (shrink the top by p), and conjugation by
    the group generators when the group is nonabelian.
    """

    def __init__(self, G: FiniteGroup, label: str):
        if label not in FAMILY_LABELS:
            raise FamilyError(f"unknown family label {label!r}")
        self.group = G
        self.label = label
        ana = analysis(G)
        self.ana = ana
        sizes, normal = ana.sizes, ana.normal
        secs = [(ti, si) for ti in range(ana.n_sub)
                for si in np.flatnonzero(normal[:, ti]).tolist()
                if family_contains(ana, ti, si, label)]
        self.sections = secs
        self.pos = {ts: i for i, ts in enumerate(secs)}
        self.slots = [SectionSlot(ana, t, s) for t, s in secs]

        p = G.prime
        cover = []
        for i, (ti, si) in enumerate(secs):
            between = ana.leq[si] & ana.leq[:, ti]
            # families are closed under subquotients, so every target
            # section is present; a miss is a bug, not a branch
            for sp in np.flatnonzero(between & (sizes == sizes[si] * p)
                                     & normal[:, ti]).tolist():
                cover.append((i, self.pos[(ti, sp)], "def"))
            for tm in np.flatnonzero(between & (sizes * p == sizes[ti])).tolist():
                cover.append((i, self.pos[(tm, si)], "res"))
        self.cover_edges = cover

        conj = []
        if not G.is_abelian:
            for i, ((ti, si), slot) in enumerate(zip(secs, self.slots)):
                for u in ana.generators:
                    cu = ana.conj_sub[u]
                    j = self.pos[(int(cu[ti]), int(cu[si]))]
                    if j == i and np.array_equal(slot.class_pos[cu[slot.classes]],
                                                 np.arange(slot.dim)):
                        continue
                    conj.append((i, j, u))
        self.conj_edges = conj
        self._systems: dict = {}         # functor -> CoefficientSystem
        self._kernel_memo: dict = {}     # exact mark rows -> (kernel, pivots)


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
        self._edge_cache = {}
        self._base_cache = {}
        self._limit = None               # set by campaigns.cached_inverse_limit
        if functor in ("K", "Kdual"):
            kp = [_slot_kernel(family, s) for s in family.slots]
            self._kernels = [k for k, _ in kp]
            self._kernel_pivs = [piv for _, piv in kp]
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
        def cache(key):
            return self._base_cache if key[0] in ("down", "up") else self._edge_cache
        missing = [k for k in dict.fromkeys(keys) if k not in cache(k)]
        if missing:
            dual = self.functor in ("Bdual", "Kdual")
            mats = self._restricted([self._move(k, dual) for k in missing])
            for key, M in zip(missing, mats):
                cache(key)[key] = M.T if dual else M
        return [cache(k)[k] for k in keys]

    def edges(self):
        fam = self.family
        out = [(s, d, ("cover", kind)) for s, d, kind in fam.cover_edges]
        out.extend((s, d, ("conj", u)) for s, d, u in fam.conj_edges)
        return out

    def edge_matrix(self, src: int, dst: int, tag) -> np.ndarray:
        """Matrix of the downward move src -> dst on this functor's values.

        The first request builds every generating move at once."""
        key = (src, dst, tag)
        got = self._edge_cache.get(key)
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


def _any_nonzero(arr) -> bool:
    if arr.dtype == np.int64:
        return bool(arr.any())
    return any(int(x) for x in arr.flat)


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
        self.pivots = []
        for j in range(self.rank):
            col = basis[:, j]
            i = 0
            while i < basis.shape[0] and not col[i]:
                i += 1
            self.pivots.append(i)


def residual_check(system: CoefficientSystem, mat: np.ndarray) -> None:
    """Assert the columns of mat satisfy every generating constraint."""
    try:
        M = _as_i64(mat)
    except OverflowError:
        M = np.asarray(mat, dtype=object)
    for src, dst, tag in system.edges():
        if system.dims[dst] == 0:
            continue
        D = system.edge_matrix(src, dst, tag)
        a = M[system.offsets[src]:system.offsets[src] + system.dims[src], :]
        b = M[system.offsets[dst]:system.offsets[dst] + system.dims[dst], :]
        if _any_nonzero(_exact_matmul(D, a) - b):
            raise AssertionError(
                f"constraint {src}->{dst} {tag} violated by the given columns")


def inverse_limit(system: CoefficientSystem) -> InverseLimit:
    """Solve the compatibility constraints; basis columns span the limit.

    Each generating edge src -> dst with matrix D gives the rows of
    v[dst] - D v[src] = 0 over the unknowns of the product of the values;
    sparse_kernel_basis solves them exactly.  The canonical HNF of the
    solution lattice is checked against the raw constraints before it is
    returned.
    """
    rows = []
    for src, dst, tag in system.edges():
        if system.dims[dst] == 0:
            continue
        D = system.edge_matrix(src, dst, tag)
        so, do = system.offsets[src], system.offsets[dst]
        block = [{} for _ in range(D.shape[0])]
        for r, c in zip(*np.nonzero(D)):
            block[r][so + int(c)] = int(D[r, c])
        for r, row in enumerate(block):
            row[do + r] = row.get(do + r, 0) - 1
        rows.extend(block)
    basis = sparse_kernel_basis(rows, system.total)
    lb = LatticeBuilder(system.total)
    for j in range(basis.shape[1]):
        lb.add(basis[:, j])
    basis = lb.hnf().T.copy()
    residual_check(system, basis)
    return InverseLimit(system, basis)


# ---------------------------------------------------------------------------
# the unit map into the limit and its comparison report


def limit_coordinates(limit: InverseLimit, mat: np.ndarray):
    """Coordinates of stacked columns in the canonical limit basis.

    Returns (X, ok): basis @ X == mat and ok is true exactly when every
    column lies in the limit lattice.  The echelon shape of the basis
    makes this a single vectorized back-substitution with no entry growth.
    """
    V = np.asarray(mat, dtype=object).copy()
    r = V.shape[1]
    k = limit.rank
    X = obj_zeros(k, r)
    for j in range(k):
        piv = limit.pivots[j]
        d = int(limit.basis[piv, j])
        q = V[piv, :] // d
        rem = V[piv, :] - q * d
        if _any_nonzero(np.asarray(rem, dtype=object)):
            return X, False
        X[j, :] = q
        if not any(int(x) for x in q):
            continue
        col = limit.basis[:, j]
        nz = np.nonzero(col)[0]
        V[nz, :] = V[nz, :] - np.outer(col[nz], q)
    return X, not _any_nonzero(V)


def comparison_report(limit: InverseLimit) -> dict:
    """Exact shape of the unit map F(P) -> limit.

    Expressing the unit columns in the canonical limit basis gives the
    unit map as an integer matrix; its invariant factors decide
    injectivity, surjectivity and the cokernel in one place.
    """
    system = limit.system
    E = system.unit_matrix()
    residual_check(system, np.asarray(E, dtype=object))
    k = limit.rank
    r = E.shape[1]
    X, unit_in_limit = limit_coordinates(limit, E)
    if unit_in_limit:
        rows = []
        for i in range(k):
            row = {j: int(X[i, j]) for j in range(r) if X[i, j]}
            if row:
                rows.append(row)
        inv, rank_unit = sparse_snf_invariants(rows, r)
    else:
        # the unit satisfies every constraint, so this cannot happen for
        # a correctly solved limit; report it rather than assert
        inv, rank_unit = [], 0
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


def _colimit_relations(system: CoefficientSystem) -> list[dict[int, int]]:
    """Sparse relation rows presenting the colimit of an upward system.

    Each generating move gives a matrix M from value(a) into value(b): the
    upward map of a cover edge from the subquotient into the larger
    section (the dual functor's cover map before its transpose), or the
    matrix of a conjugation edge.  The maps come from one batched pass.
    Each group of equal shapes is checked against the upward maps to the
    base (the map of b after M equals the map of a) by one stacked
    product, and every M is read off into one relation row per column.
    The counit kills each such row exactly when that check holds.
    """
    if system.functor not in ("B", "K"):
        raise FamilyError("colimits are built from functor B or K")
    dims = system.dims
    ups = system._maps([("up", i) for i in range(len(dims))])
    # a move out of a zero value gives no relation and checks nothing
    cover, conj = [], []
    for src, dst, tag in system.edges():
        if tag[0] == "conj":
            if dims[src]:
                conj.append((src, dst, tag))
        elif dims[dst]:
            cover.append((src, dst, tag))
    maps = (system._restricted([system._move(e, dual=True) for e in cover])
            + system._maps(conj))
    pairs = [(d, s) for s, d, _ in cover] + [(s, d) for s, d, _ in conj]
    groups = {}
    for e, ((a, b), M) in enumerate(zip(pairs, maps)):
        groups.setdefault((ups[b].shape, M.shape), []).append(e)
    bad = []
    for ((r, kb), (_, ka)), members in groups.items():
        for chunk in _batches(members, r * (kb + 2 * ka) + kb * ka):
            lhs = _exact_matmul(_stack_shared([ups[pairs[e][1]] for e in chunk]),
                                np.stack([maps[e] for e in chunk]))
            rhs = _stack_shared([ups[pairs[e][0]] for e in chunk])
            wrong = (lhs != rhs).reshape(len(chunk), -1).any(axis=1)
            bad.extend(chunk[k] for k in np.flatnonzero(wrong))
    if bad:
        src, dst, tag = (cover + conj)[min(bad)]
        raise AssertionError(f"upward maps disagree along {src}->{dst} {tag}")
    rows = []
    offsets = system.offsets
    for (a, b), M in zip(pairs, maps):
        ao, bo = offsets[a], offsets[b]
        for j, col in enumerate(M.T.tolist()):
            row = {ao + j: 1}
            for i, v in enumerate(col):
                if v:
                    row[bo + i] = row.get(bo + i, 0) - int(v)
            rows.append({c: v for c, v in row.items() if v})
    return rows


def counit_matrix(system: CoefficientSystem) -> np.ndarray:
    """Summed upward maps: product of values -> F(P)."""
    blocks = system._maps([("up", i) for i in range(len(system.dims))])
    if not blocks:
        return np.zeros((system.base_rank, 0), dtype=np.int64)
    return np.hstack(blocks)


def _spans_everything(U: np.ndarray) -> bool:
    """Do the columns of U span all of Z^rows?  True iff the column lattice
    has full rank and every invariant factor is 1."""
    cols = [{i: v for i, v in enumerate(col) if v} for col in U.T.tolist()]
    invariants, rank = sparse_snf_invariants(cols, U.shape[0])
    return rank == U.shape[0] and all(d == 1 for d in invariants)


def counit_kernel_report(system: CoefficientSystem) -> dict:
    """Presentation-level data for the kernel of the counit.

    The counit descends to the colimit because it kills every relation;
    its kernel is finite exactly when the relation rank plus the rank of
    the base value fills the generator count, and then its invariant
    factors are the nontrivial relation invariants.
    """
    if system.functor != "K":
        raise FamilyError("the counit probe is defined for functor K")
    rel = _colimit_relations(system)
    U = counit_matrix(system)
    invariants, rel_rank = sparse_snf_invariants(rel, system.total)
    # U is written in base-kernel coordinates, and the base-kernel basis has
    # full row rank, so the counit is onto iff U's columns span Z^base_rank
    surjective = _spans_everything(U)
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
        "kernel_finite": bool(finite),
        "kernel_invariants": m_invariants,
        "kernel_trivial": bool(finite and not m_invariants),
    }
