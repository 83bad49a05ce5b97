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
the ambient group.  Every limit comes from one component-merging solver
whose basis updates are deferred on per-component chains; it runs in one
exact pass, taking each product in int64 only under a bound that shows it
cannot wrap and in Python ints otherwise.
"""

from __future__ import annotations

import numpy as np

from .groups import (SECTION_CLASSES, FiniteGroup, GroupAnalysis, analysis,
                     _closure)
from .zlinalg import (LatticeBuilder, coords_in_hnf, hnf_pivots, kernel_basis,
                      obj_matrix, obj_zeros, sparse_snf_invariants)
from .burnside import ring_data

FAMILY_LABELS = tuple(SECTION_CLASSES)
FUNCTOR_NAMES = ("B", "K", "Bdual", "Kdual")

# label semantics: E* keeps elementary abelian quotients (digit = rank cap,
# no digit = unbounded), X* additionally keeps the extraspecial exponent-p
# quotient of order p^3.

_I64_BOUND = 1 << 55


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
                                 np.unique(ana.pth_power[m]).tolist()))
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
        got = frozenset(_closure(table, np.unique(comms).tolist()))
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
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    try:
        out = arr.astype(np.int64)
    except (OverflowError, TypeError):
        raise OverflowError("entry exceeds the int64 working range") from None
    if int(np.abs(out).max()) > _I64_BOUND:
        raise OverflowError("entry exceeds the int64 working range")
    return out


def _restrict_to_kernels(M: np.ndarray, src_kern: np.ndarray,
                         dst_kern: np.ndarray, dst_piv) -> np.ndarray:
    """Rewrite a transitive-basis matrix as a map between kernel bases.

    The kernels are HNF bases (rows) and dst_piv holds the pivot column of
    each row of dst_kern.  The coordinates C of the images M @ src_kern.T
    solve dst_kern.T @ C == images.  When every pivot is 1 the pivot
    columns of dst_kern form the identity, so C is the pivot rows of the
    images; otherwise each column is solved by coords_in_hnf.  Either way
    C is accepted only after the exact product check.
    """
    images = _exact_matmul(M, src_kern.T)
    k = dst_kern.shape[0]
    piv = np.asarray(dst_piv, dtype=np.intp)
    if (dst_kern[np.arange(k), piv] == 1).all():
        C = images[piv, :]
    else:
        H = np.asarray(dst_kern, dtype=object)
        cols = [coords_in_hnf(H, v, dst_piv) for v in images.T]
        C = None if None in cols else obj_matrix(cols, k).T
    if C is None or not np.array_equal(_exact_matmul(dst_kern.T, C), images):
        raise AssertionError("image left the mark kernel; upstream map is wrong")
    return C


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

    # -- transitive-basis building blocks ----------------------------------

    def _b_defres_between(self, src: SectionSlot, dst: SectionSlot) -> np.ndarray:
        """Downward map of B between nested sections, ambient coordinates."""
        return _defres_counts(self.ana, src.ti, src.class_pos, dst)

    def _b_indinf_between(self, src: SectionSlot, dst: SectionSlot) -> np.ndarray:
        """Upward map of B from a subquotient into a nested ambient section.

        Both moves keep the representing subgroup itself: inflation reads a
        class over the larger bottom, induction reads it in the larger top.
        """
        M = np.zeros((dst.dim, src.dim), dtype=np.int64)
        M[dst.class_pos[src.classes], np.arange(src.dim)] = 1
        return M

    def _b_conj(self, src: SectionSlot, dst: SectionSlot, u: int) -> np.ndarray:
        C = np.zeros((dst.dim, src.dim), dtype=np.int64)
        C[dst.class_pos[self.ana.conj_sub[u, src.classes]], np.arange(src.dim)] = 1
        return C

    # -- per-edge matrices for the configured functor ----------------------

    def edges(self):
        fam = self.family
        out = [(s, d, ("cover", kind)) for s, d, kind in fam.cover_edges]
        out.extend((s, d, ("conj", u)) for s, d, u in fam.conj_edges)
        return out

    def edge_matrix(self, src: int, dst: int, tag) -> np.ndarray:
        """Matrix of the downward move src -> dst on this functor's values."""
        key = (src, dst, tag)
        got = self._edge_cache.get(key)
        if got is not None:
            return got
        fam = self.family
        a, b = fam.slots[src], fam.slots[dst]
        kind = tag[0]
        if self.functor == "B":
            M = (self._b_defres_between(a, b) if kind == "cover"
                 else self._b_conj(a, b, tag[1]))
        elif self.functor == "K":
            B = (self._b_defres_between(a, b) if kind == "cover"
                 else self._b_conj(a, b, tag[1]))
            M = _as_i64(self._restrict(B, src, dst))
        elif self.functor == "Bdual":
            M = self._dual_edge_b(a, b, src, dst, kind, tag)
        else:
            M = self._dual_edge_k(a, b, src, dst, kind, tag)
        self._edge_cache[key] = M
        return M

    def _dual_edge_b(self, a, b, src, dst, kind, tag):
        if kind == "cover":
            return self._b_indinf_between(b, a).T.copy()
        u_inv = self.ana.group.inv_of(tag[1])
        return self._b_conj(b, a, u_inv).T.copy()

    def _dual_edge_k(self, a, b, src, dst, kind, tag):
        if kind == "cover":
            B = self._b_indinf_between(b, a)
        else:
            B = self._b_conj(b, a, self.ana.group.inv_of(tag[1]))
        return _as_i64(self._restrict(B, dst, src)).T.copy()

    def _restrict(self, B: np.ndarray, src: int, dst: int) -> np.ndarray:
        """A transitive-basis map value(src) -> value(dst) on the K bases."""
        return _restrict_to_kernels(B, self._kernels[src], self._kernels[dst],
                                    self._kernel_pivs[dst])

    # -- maps to and from the value at the whole group ---------------------

    def _b_defres_from_base(self, i: int) -> np.ndarray:
        ana = self.ana
        return _defres_counts(ana, ana.n_sub - 1, ana.class_of_sub,
                              self.family.slots[i])

    def _b_indinf_to_base(self, i: int) -> np.ndarray:
        ana = self.ana
        slot = self.family.slots[i]
        M = np.zeros((len(ana.class_reps), slot.dim), dtype=np.int64)
        M[ana.class_of_sub[slot.classes], np.arange(slot.dim)] = 1
        return M

    def defres_from_base(self, i: int) -> np.ndarray:
        """Component map F(P) -> value(i) of the product-of-downward-maps."""
        key = ("down", i)
        got = self._base_cache.get(key)
        if got is not None:
            return got
        if self.functor == "B":
            M = self._b_defres_from_base(i)
        elif self.functor == "K":
            M = _as_i64(_restrict_to_kernels(
                self._b_defres_from_base(i), self._base_basis,
                self._kernels[i], self._kernel_pivs[i]))
        elif self.functor == "Bdual":
            M = self._b_indinf_to_base(i).T.copy()
        else:
            M = self._k_indinf_to_base(i).T.copy()
        self._base_cache[key] = M
        return M

    def indinf_to_base(self, i: int) -> np.ndarray:
        """Upward map value(i) -> F(P); defined for B and K only."""
        if self.functor not in ("B", "K"):
            raise FamilyError("upward maps to the base need functor B or K")
        key = ("up", i)
        got = self._base_cache.get(key)
        if got is not None:
            return got
        if self.functor == "B":
            M = self._b_indinf_to_base(i)
        else:
            M = self._k_indinf_to_base(i)
        self._base_cache[key] = M
        return M

    def _k_indinf_to_base(self, i: int) -> np.ndarray:
        return _as_i64(_restrict_to_kernels(
            self._b_indinf_to_base(i), self._kernels[i], self._base_basis,
            self.base_kernel._piv))

    def unit_matrix(self) -> np.ndarray:
        """Stacked downward components: F(P) -> product of all values."""
        blocks = [self.defres_from_base(i) for i in range(len(self.dims))]
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
# the component-merging limit solver with deferred updates


class _Node:
    __slots__ = ("mat", "next")

    def __init__(self):
        self.mat = None
        self.next = None


class MergeLimitSolver:
    """Exact solver for v[dst] = D v[src] constraint systems over Z.

    Sections start as independent free components.  A constraint into an
    untouched component substitutes; a constraint inside one component
    shrinks its parameter space by a small exact kernel; a constraint
    across two components merges them.  Basis rewrites are not applied to
    member sections eagerly: each component keeps a chain of update
    matrices, sections remember their position in it, and catching up is
    one multiplication against a suffix product at materialization time.
    """

    def __init__(self, dims):
        self.n = len(dims)
        self.dims = list(dims)
        self.parent = list(range(self.n))
        self.phi = [np.eye(d, dtype=np.int64) for d in dims]
        self.ptr = []
        self.tail = {}
        self.kdim = {}
        self.free_at = {}
        for s in range(self.n):
            node = _Node()
            self.ptr.append(node)
            self.tail[s] = node
            self.kdim[s] = dims[s]
            self.free_at[s] = s
        self.n_solves = 0

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    @staticmethod
    def _mul(A, B):
        # the tighter product bound keeps D a - b from wrapping as well
        return _exact_matmul(A, B, _I64_BOUND)

    def _read(self, s: int):
        node = self.ptr[s]
        v = self.phi[s]
        while node.next is not None:
            nxt = node.next
            if nxt.next is not None:
                # fold the pair; rewiring only this node preserves the
                # product seen from every pointer into the chain
                if node.mat is None:
                    node.mat = nxt.mat
                elif nxt.mat is not None:
                    node.mat = self._mul(node.mat, nxt.mat)
                node.next = nxt.next
                continue
            if node.mat is not None:
                v = self._mul(v, node.mat)
            node = node.next
        self.phi[s] = v
        self.ptr[s] = node
        return v

    def _kernel_transform(self, rows, k: int):
        """Columns parametrizing the kernel of rows, as a k x k' update."""
        self.n_solves += 1
        basis = kernel_basis(rows)
        if basis.shape[0] == 0:
            return np.zeros((k, 0), dtype=np.int64)
        B64, _ = _i64_absmax(basis)
        return (basis if B64 is None else B64).T.copy()

    @staticmethod
    def _is_identity(S) -> bool:
        return (S.shape[0] == S.shape[1]
                and np.array_equal(S, np.eye(S.shape[0], dtype=np.int64)))

    def _append(self, root: int, S):
        t = self.tail[root]
        t.mat = S
        new = _Node()
        t.next = new
        self.tail[root] = new
        self.kdim[root] = S.shape[1]
        self.free_at[root] = None

    def process(self, src: int, dst: int, D):
        """Impose value[dst] == D @ value[src]."""
        if D.shape[0] == 0:
            return
        if D.shape[1] == 0:
            # dst must vanish; a constraint entirely inside dst's component
            c2 = self.find(dst)
            b = self._read(dst)
            if not b.size or not _any_nonzero(b):
                return
            S = self._kernel_transform(-b, self.kdim[c2])
            self._append(c2, S)
            return
        c1, c2 = self.find(src), self.find(dst)
        if c1 == c2:
            a = self._read(src)
            b = self._read(dst)
            rows = self._mul(D, a) - b
            if not _any_nonzero(rows):
                return
            S = self._kernel_transform(rows, self.kdim[c1])
            if not self._is_identity(S):
                self._append(c1, S)
            return
        if self.free_at.get(c2) == dst:
            # dst's component is parametrized by dst's own value; define it
            X = self._mul(D, self._read(src))
            t2 = self.tail[c2]
            t2.mat = X
            t2.next = self.tail[c1]
            self.parent[c2] = c1
            del self.tail[c2], self.kdim[c2], self.free_at[c2]
            return
        a = self._read(src)
        b = self._read(dst)
        k1, k2 = self.kdim[c1], self.kdim[c2]
        rows = np.concatenate([self._mul(D, a), -b], axis=1)
        S = self._kernel_transform(rows, k1 + k2)
        S1, S2 = S[:k1], S[k1:]
        t1, t2 = self.tail[c1], self.tail[c2]
        if self._is_identity(S1):
            shared = t1
        else:
            t1.mat = S1
            shared = _Node()
            t1.next = shared
            self.free_at[c1] = None
        t2.mat = None if self._is_identity(S2) else S2
        t2.next = shared
        self.tail[c1] = shared
        self.kdim[c1] = S.shape[1]
        self.parent[c2] = c1
        del self.tail[c2], self.kdim[c2], self.free_at[c2]

    def _suffix(self, node, memo):
        stack = []
        while id(node) not in memo and node.next is not None:
            stack.append(node)
            node = node.next
        acc = memo.get(id(node))
        for nd in reversed(stack):
            if nd.mat is None:
                cur = acc
            elif acc is None:
                cur = nd.mat
            else:
                cur = self._mul(nd.mat, acc)
            memo[id(nd)] = cur
            acc = cur
        return acc

    def finish(self):
        """Materialize every section's basis block and the column layout."""
        memo = {}
        roots = []
        seen = set()
        for s in range(self.n):
            r = self.find(s)
            if r not in seen:
                seen.add(r)
                roots.append(r)
        col_off = {}
        total = 0
        for r in roots:
            col_off[r] = total
            total += self.kdim[r]
        blocks = []
        for s in range(self.n):
            suf = self._suffix(self.ptr[s], memo)
            v = self.phi[s] if suf is None else self._mul(self.phi[s], suf)
            r = self.find(s)
            if v.shape[1] != self.kdim[r]:
                raise AssertionError("chain bookkeeping lost a rewrite")
            blocks.append((col_off[r], v))
        return total, blocks


def _any_nonzero(arr) -> bool:
    if arr.dtype == np.int64:
        return bool(arr.any())
    return any(int(x) for x in arr.flat)


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


def _exact_matmul(A, B, bound: int = (1 << 62) - 1) -> np.ndarray:
    """A @ B over the integers: in int64 when no product can wrap.

    Each operand is read once for its largest entry; int64 needs every
    entry within 2**55 and amax * bmax * k at most bound (below 2**62).
    """
    A64, amax = _i64_absmax(A)
    B64, bmax = _i64_absmax(B)
    if (A64 is not None and B64 is not None
            and amax * bmax * max(1, A64.shape[1]) <= bound):
        return A64 @ B64
    return np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)


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

    Every system goes through the merging solver in one exact pass: each
    product is taken in int64 when a bound shows it cannot wrap and in
    Python ints otherwise.  The canonical HNF of the solution lattice is
    checked against the raw constraints before it is returned.
    """
    solver = MergeLimitSolver(system.dims)
    edges = system.edges()
    order = sorted(range(len(edges)),
                   key=lambda e: (-system.dims[edges[e][0]],
                                  edges[e][0], edges[e][1], edges[e][2][0]))
    for e in order:
        src, dst, tag = edges[e]
        if system.dims[dst] == 0:
            continue
        solver.process(src, dst, system.edge_matrix(src, dst, tag))
    total_rank, blocks = solver.finish()
    basis = obj_zeros(system.total, total_rank)
    for off, (coff, v) in zip(system.offsets, blocks):
        basis[off:off + v.shape[0], coff:coff + v.shape[1]] = v
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
    section, or the matrix of a conjugation edge.  M is built once, checked
    against the upward maps to the base (the map of b after M equals the
    map of a), and read off into one relation row per column.
    """
    if system.functor not in ("B", "K"):
        raise FamilyError("colimits are built from functor B or K")
    fam = system.family
    ups = [system.indinf_to_base(i) for i in range(len(system.dims))]
    rows = []
    for src, dst, tag in system.edges():
        if tag[0] == "cover":
            if system.dims[src] == 0 and system.dims[dst] == 0:
                continue
            a, b = dst, src
            M = system._b_indinf_between(fam.slots[dst], fam.slots[src])
            if system.functor == "K":
                M = system._restrict(M, dst, src)
        else:
            a, b = src, dst
            M = system.edge_matrix(src, dst, tag)
        if _any_nonzero(_exact_matmul(ups[b], M) - ups[a]):
            raise AssertionError(
                f"upward maps disagree along {src}->{dst} {tag}")
        ao, bo = system.offsets[a], system.offsets[b]
        for j, col in enumerate(M.T.tolist()):
            row = {ao + j: 1}
            for i, v in enumerate(col):
                if v:
                    row[bo + i] = row.get(bo + i, 0) - int(v)
            rows.append({c: v for c, v in row.items() if v})
    return rows


def counit_matrix(system: CoefficientSystem) -> np.ndarray:
    """Summed upward maps: product of values -> F(P)."""
    blocks = [system.indinf_to_base(i) for i in range(len(system.dims))]
    if not blocks:
        return np.zeros((system.base_rank, 0), dtype=np.int64)
    return np.hstack(blocks)


def _check_counit_kills(U: np.ndarray, rel: list[dict[int, int]]) -> None:
    """Apply the counit to every relation row; each image must be zero.

    Runs in int64 when the largest entry of U times the largest absolute
    row sum stays below 2**62, so no product can wrap; else exactly.
    """
    reach = max((sum(abs(v) for v in row.values()) for row in rel), default=0)
    if not (U.dtype == np.int64
            and (int(np.abs(U).max()) if U.size else 0) * reach < (1 << 62)):
        U = np.asarray(U, dtype=object)
    for row in rel:
        cols = list(row)
        vals = np.array([row[c] for c in cols], dtype=U.dtype)
        if _any_nonzero(U[:, cols] @ vals):
            raise AssertionError("counit does not kill a colimit relation")


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
    _check_counit_kills(U, rel)
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
