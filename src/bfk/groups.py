"""Finite p-groups as explicit multiplication tables.

Element 0 is always the identity. Everything downstream (subgroup lattices,
sections, quotients, classification) lives here, built lazily per group,
kept on the group object and guarded by its lock so threaded callers share
one analysis.  A section is named by the subgroup indices (ti, si) of its
top and bottom; `GroupAnalysis.section_at` builds its quotient, with the
cosets labelled by `_coset_ids`, and keeps it on the analysis.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .claims import is_prime


class GroupTooLarge(ValueError):
    """Order exceeds the configured enumeration bound."""


class DescriptorError(ValueError):
    """Malformed or unsupported group descriptor."""


def default_order_bound(p: int) -> int:
    # p = 3 is the primary regime; larger primes get a reduced default
    return p ** 4 if p == 3 else p ** 3


def _check_prime_power(order: int, p: int) -> int:
    k = 0
    n = order
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"order {order} is not a power of {p}")
    return k


class FiniteGroup:
    """Immutable finite group on points 0..order-1 given by its full table."""

    __slots__ = ("prime", "order", "table", "inv", "name",
                 "_abelian", "_elt_order", "_lock", "_analysis", "_gens")

    def __init__(self, prime: int, table, name: str = "", validate: bool = True,
                 check_associativity: bool = False):
        if prime % 2 == 0 or not is_prime(prime):
            raise ValueError(f"prime must be an odd prime, got {prime}")
        tbl = np.asarray(table, dtype=np.int32)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise ValueError("table must be square")
        n = tbl.shape[0]
        _check_prime_power(n, prime)
        self.prime = prime
        self.order = n
        self.table = tbl
        self.name = name or f"group-of-order-{n}"
        if validate:
            if tbl.min() < 0 or tbl.max() >= n:
                raise ValueError("table entries out of range")
            ident = np.arange(n, dtype=np.int32)
            if not (np.array_equal(tbl[0], ident) and np.array_equal(tbl[:, 0], ident)):
                raise ValueError("element 0 must be the identity")
            if not (np.sort(tbl, axis=1) == ident).all():
                raise ValueError("rows must be permutations")
        hits = tbl == 0
        if not (hits.sum(axis=1) == 1).all():
            raise ValueError("missing or non-unique inverse")
        self.inv = hits.argmax(axis=1).astype(np.int32)
        if check_associativity:
            # (ij)k against i(jk) for a block of rows i at a time, so no
            # temporary holds more than about 2^18 entries
            step = max(1, (1 << 18) // (n * n))
            for rows in (tbl[i:i + step] for i in range(0, n, step)):
                if not np.array_equal(tbl[rows], rows[:, tbl]):
                    raise ValueError("table is not associative")
        self._abelian = None
        self._elt_order = None
        self._lock = threading.Lock()
        self._analysis = None
        self._gens = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv_of(self, a: int) -> int:
        return int(self.inv[a])

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def element_orders(self) -> np.ndarray:
        if self._elt_order is None:
            # step every element at once, holding each at the identity
            # once its power gets there
            g = np.arange(self.order)
            x, out = g.copy(), np.ones(self.order, dtype=np.int32)
            live = x != 0
            while live.any():
                x[live] = self.table[x[live], g[live]]
                out += live
                live = x != 0
            self._elt_order = out
        return self._elt_order

    @property
    def exponent(self) -> int:
        return int(self.element_orders().max())

    def generators(self) -> tuple:
        """A small generating set, greedily chosen, deterministic."""
        if self._gens is None:
            gens: list[int] = []
            have = {0}
            for g in range(self.order):
                if g not in have:
                    gens.append(g)
                    have = set(_closure(self.table, gens))
                    if len(have) == self.order:
                        break
            self._gens = tuple(gens)
        return self._gens

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Section(NamedTuple):
    """A pair S normal-in T of subgroups of one parent, with its quotient
    built as a group of its own, for the concrete bisets along it.

    top and bottom are the member tuples of T and S.  The quotient's
    elements are the cosets tS, ordered by least parent member, so element
    0 is the coset S.  proj maps parent elements of T to quotient indices
    (-1 outside T); reps holds the least member of each coset.
    """

    parent: FiniteGroup
    top: tuple
    bottom: tuple
    group: FiniteGroup
    proj: np.ndarray
    reps: np.ndarray


# ---------------------------------------------------------------------------
# constructors

def trivial_group(p: int = 3) -> FiniteGroup:
    return FiniteGroup(p, [[0]], name="C1")


def cyclic_group(n: int, p: int | None = None) -> FiniteGroup:
    if n == 1:
        if p is None:
            raise DescriptorError("order-1 cyclic group needs a prime, use elab:p:0")
        return trivial_group(p)
    if p is None:
        p = min(q for q in range(2, n + 1) if n % q == 0 and is_prime(q))
    _check_prime_power(n, p)
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(p, table, name=f"C{n}")


def elementary_abelian_group(p: int, rank: int) -> FiniteGroup:
    n = p ** rank
    if rank == 0:
        return trivial_group(p)
    idx = np.arange(n, dtype=np.int64)
    digits = np.stack([(idx // p ** i) % p for i in range(rank)], axis=1)
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    table = sums @ (p ** np.arange(rank, dtype=np.int64))
    name = f"C{p}" + f"xC{p}" * (rank - 1)
    return FiniteGroup(p, table.astype(np.int32), name=name)


def extraspecial_group(p: int) -> FiniteGroup:
    """The nonabelian group of order p^3 and exponent p (upper unitriangular
    3x3 matrices over the field with p elements)."""
    n = p ** 3
    # element a + p b + p^2 c is the matrix with a, b above the diagonal
    # and c in the corner; rows are the left factor
    idx = np.arange(n)
    a, b, c = idx % p, idx // p % p, idx // (p * p)
    table = ((a[:, None] + a) % p + p * ((b[:, None] + b) % p)
             + p * p * ((c[:, None] + c + a[:, None] * b) % p))
    return FiniteGroup(p, table.astype(np.int32), name=f"X{n}")


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    acc = factors[0]
    for g in factors[1:]:
        if g.prime != acc.prime:
            raise ValueError("factors must share the prime")
        na, nb = acc.order, g.order
        ta = acc.table.astype(np.int64)
        tb = g.table.astype(np.int64)
        table = (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(na * nb, na * nb)
        acc = FiniteGroup(acc.prime, table.astype(np.int32),
                          name=f"{acc.name}x{g.name}")
    return acc


def group_from_table(p: int, table, name: str = "ingested") -> FiniteGroup:
    return FiniteGroup(p, table, name=name, validate=True, check_associativity=True)


# ---------------------------------------------------------------------------
# descriptors and the group file format

def parse_descriptor(desc: str, p_default: int | None = None) -> FiniteGroup:
    """Build a group from a symbolic descriptor.

    Grammar: cyclic:<order> | elab:<p>:<rank> | xsp:<p> | prod:<d1>,<d2>[,...]
    (prod arguments may not themselves contain commas).
    """
    desc = desc.strip()
    if desc.startswith("prod:"):
        parts = desc[len("prod:"):].split(",")
        if len(parts) < 2:
            raise DescriptorError(f"prod needs at least two factors: {desc!r}")
        return direct_product(*(parse_descriptor(q, p_default) for q in parts))
    bits = desc.split(":")
    try:
        if bits[0] == "cyclic" and len(bits) == 2:
            return cyclic_group(int(bits[1]), p_default if bits[1] == "1" else None)
        if bits[0] == "elab" and len(bits) == 3:
            return elementary_abelian_group(int(bits[1]), int(bits[2]))
        if bits[0] == "xsp" and len(bits) == 2:
            return extraspecial_group(int(bits[1]))
    except (ValueError, DescriptorError) as e:
        raise DescriptorError(f"bad descriptor {desc!r}: {e}") from e
    raise DescriptorError(f"unrecognized descriptor {desc!r}")


def load_group_file(path, name: str | None = None) -> FiniteGroup:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("p ") or not lines[1].startswith("order "):
        raise DescriptorError(f"{path}: expected 'p <prime>' then 'order <n>' headers")
    p = int(lines[0].split()[1])
    n = int(lines[1].split()[1])
    if len(lines) != 2 + n:
        raise DescriptorError(f"{path}: expected {n} table rows, found {len(lines) - 2}")
    table = []
    for ln in lines[2:]:
        row = [int(x) for x in ln.split()]
        if len(row) != n:
            raise DescriptorError(f"{path}: table row of length {len(row)}, expected {n}")
        table.append(row)
    import os
    return group_from_table(p, table, name=name or os.path.basename(str(path)))


def group_from_spec(spec: str, p_default: int | None = None) -> FiniteGroup:
    """Descriptor string or a path to a group file."""
    import os
    if os.path.exists(spec):
        return load_group_file(spec)
    return parse_descriptor(spec, p_default)


# ---------------------------------------------------------------------------
# per-group analysis

def _coset_ids(P: FiniteGroup, members, side: str):
    """Index cosets of a subgroup by ascending least representative.

    side 'left' indexes cosets xS, side 'right' indexes cosets Sx.
    Returns (ids array over P, reps array).
    """
    arr = np.asarray(members, dtype=np.intp)
    least = P.table[:, arr].min(axis=1) if side == "left" else P.table[arr, :].min(axis=0)
    reps, ids = np.unique(least, return_inverse=True)
    return ids.astype(np.int32), reps


def _closure(table: np.ndarray, gens: Sequence[int]) -> tuple:
    members = {0}
    frontier = [0]
    gens = list(dict.fromkeys(int(g) for g in gens))
    if not gens:
        return (0,)
    while frontier:
        prods = table[np.ix_(frontier, gens)].ravel()
        new = set(prods.tolist()) - members
        members |= new
        frontier = sorted(new)
    return tuple(sorted(members))


class GroupAnalysis:
    """Subgroup lattice, conjugacy classes, and section data for one group."""

    def __init__(self, group: FiniteGroup, bound: int):
        self.group = group
        self.bound = bound
        G = group
        n = G.order
        pw = np.zeros(n, dtype=np.int32)
        for _ in range(G.prime):
            pw = G.table[pw, np.arange(n)]
        self.pth_power = pw              # pth_power[g] = g^p

        norm = self._enumerate_subgroups()
        subs = sorted(norm, key=lambda m: (len(m), m))
        # normalizes[si, x]: x normalizes subgroup si
        self.normalizes = np.array([norm[m] for m in subs])
        self.subgroup_members: list[tuple] = subs
        self.n_sub = len(subs)
        self.index_by_members = {m: i for i, m in enumerate(subs)}

        mask = np.zeros((self.n_sub, n), dtype=np.int64)
        for i, m in enumerate(subs):
            mask[i, list(m)] = 1
        self.member_mask = mask          # member_mask[si, x]: x in si
        common = mask @ mask.T
        self.sizes = sizes = mask.sum(axis=1)
        self.leq = common == sizes[:, None]
        # normal[si, ti]: si lies in ti and every member of ti normalizes it
        self.normal = self.leq & (self.normalizes.astype(np.int64) @ mask.T
                                  == sizes)

        # conj_sub[x, si]: index of the subgroup x si x^-1
        self.conj_sub, classes = self._conjugation_table()
        self.classes: list[tuple] = classes
        self.class_of_sub = np.empty(self.n_sub, dtype=np.int32)
        for ci, cls in enumerate(classes):
            self.class_of_sub[list(cls)] = ci
        self.class_reps = [cls[0] for cls in classes]

        orders = G.element_orders()
        # cyclic iff some member has the subgroup's order
        self.is_cyclic_sub = ((mask == 1) & (orders == sizes[:, None])).any(axis=1).tolist()
        self.cyclic_class_positions = [ci for ci, cls in enumerate(self.classes)
                                       if self.is_cyclic_sub[cls[0]]]

        self.generators = G.generators()
        self.center_members = tuple(
            np.flatnonzero((G.table == G.table.T).all(axis=1)).tolist())

        self._quotients: dict[tuple, Section] = {}
        # results of other layers, kept here so they live as long as G
        self._families: dict = {}        # label -> limits.SectionFamily
        self._ring_data = None           # burnside.RingData

    # -- construction helpers ------------------------------------------------

    def _enumerate_subgroups(self) -> dict:
        """Every subgroup, level by level, with the mask of the elements
        that normalize it.  A subgroup K of order p|H| has a normal
        subgroup H of index p, so K = H u Hg u ... u Hg^(p-1) for any g in
        K - H, and such g are exactly the elements outside H that normalize
        H and whose p-th power lies in H."""
        G = self.group
        table, inv, p, n = G.table, G.inv, G.prime, G.order
        everything = np.ones(n, dtype=bool)
        norm = {}
        current = [(0,)]
        while current:
            nxt = set()
            for H in current:
                h = np.asarray(H, dtype=np.int32)
                in_h = np.zeros(n, dtype=bool)
                in_h[h] = True
                if G.is_abelian or len(H) == n:
                    norm[H] = everything
                else:
                    # conj[x, j] = x h_j x^-1
                    norm[H] = in_h[table[table[:, h], inv[:, None]]].all(axis=1)
                covered = in_h.copy()
                for g in np.flatnonzero(norm[H] & ~in_h & in_h[self.pth_power]):
                    if covered[g]:
                        continue
                    gp = [0]
                    for _ in range(p - 1):
                        gp.append(int(table[gp[-1], g]))
                    K = np.sort(table[np.ix_(h, gp)].ravel())
                    # two such K meet exactly in H, so any g' in K - H gives K again
                    covered[K] = True
                    nxt.add(tuple(K.tolist()))
            current = sorted(nxt)
        return norm

    def _conjugation_table(self):
        """The table conj_sub and the conjugacy classes, in order of least
        member.  One conjugation array per class representative r gives
        column r; a member j = g r g^-1 of its class gets column
        conj_sub[x g, r], since x j x^-1 = (x g) r (x g)^-1."""
        G = self.group
        n, ns = G.order, self.n_sub
        if G.is_abelian:
            ident = np.arange(ns, dtype=np.int32)
            return np.broadcast_to(ident, (n, ns)), [(i,) for i in range(ns)]
        table, inv = G.table, G.inv
        conj = np.full((n, ns), -1, dtype=np.int32)
        classes = []
        for i, mem in enumerate(self.subgroup_members):
            if conj[0, i] >= 0:
                continue
            arr = np.asarray(mem, dtype=np.int32)
            rows = np.sort(table[table[:, arr], inv[:, None]], axis=1)
            col = np.array([self.index_by_members[tuple(r)]
                            for r in rows.tolist()], dtype=np.int32)
            members, first = np.unique(col, return_index=True)
            for j, g in zip(members.tolist(), first.tolist()):
                conj[:, j] = col[table[:, g]]
            classes.append(tuple(members.tolist()))
        return conj, classes

    # -- queries -------------------------------------------------------------

    def index_of(self, members: Iterable[int]) -> int:
        key = tuple(sorted(int(m) for m in members))
        try:
            return self.index_by_members[key]
        except KeyError:
            raise ValueError("not a subgroup of this group") from None

    def is_normal_in(self, si: int, ti: int) -> bool:
        return bool(self.normal[si, ti])

    @cached_property
    def meet(self) -> np.ndarray:
        """meet[a, b]: index of the intersection of subgroups a and b, the
        last subgroup below both (subgroups are ordered by size)."""
        rev = self.leq[::-1]
        out = np.empty((self.n_sub, self.n_sub), dtype=np.int32)
        for b in range(self.n_sub):
            out[:, b] = self.n_sub - 1 - np.argmax(rev & rev[:, b:b + 1], axis=0)
        return out

    @cached_property
    def join(self) -> np.ndarray:
        """join[a, b]: index of the subgroup generated by a and b, the first
        subgroup above both."""
        out = np.empty((self.n_sub, self.n_sub), dtype=np.int32)
        for b in range(self.n_sub):
            out[:, b] = np.argmax(self.leq & self.leq[b], axis=1)
        return out

    def _generated(self, sets: np.ndarray) -> np.ndarray:
        """Index of the subgroup generated by each row of a (k x order)
        element mask: the first subgroup, in size order, holding it."""
        outside = sets.astype(np.int64) @ (1 - self.member_mask).T
        return np.argmax(outside == 0, axis=1)

    @cached_property
    def derived(self) -> np.ndarray:
        """derived[ti]: index of the commutator subgroup of subgroup ti."""
        if self.group.is_abelian:
            return np.zeros(self.n_sub, dtype=np.intp)
        t, inv = self.group.table, self.group.inv
        comm = t[t[inv[:, None], inv[None, :]], t]         # a^-1 b^-1 a b
        comms = np.zeros(self.member_mask.shape, dtype=bool)
        for i, mem in enumerate(self.subgroup_members):
            comms[i, comm[np.ix_(mem, mem)]] = True
        return self._generated(comms)

    @cached_property
    def shapes(self) -> np.ndarray:
        """shapes[ti, si] (int8): the rank of T/S when it is elementary
        abelian, SHAPE_XSP when it is extraspecial of order p^3 and exponent
        p, else SHAPE_OTHER, also off the sections.  T/S has exponent p iff
        the p-th power closure of T lies in S, and it is abelian iff the
        derived subgroup of T does.  Every temporary takes one byte per
        entry."""
        G, mask = self.group, self.member_mask
        rows, cols = np.nonzero(mask)
        powers = np.zeros(mask.shape, dtype=bool)
        powers[rows, self.pth_power[cols]] = True
        exp_p = self.leq[self._generated(powers)]          # [ti, si]: T^p <= S
        abelian = self.leq[self.derived]                   # [ti, si]: T' <= S
        level = np.array([_check_prime_power(int(n), G.prime) for n in self.sizes],
                         dtype=np.int8)
        rank = level[:, None] - level[None, :]
        other = np.int8(SHAPE_OTHER)
        code = np.where(exp_p & abelian, rank,
                        np.where(exp_p & (rank == 3), np.int8(SHAPE_XSP), other))
        return np.where(self.normal.T, code, other)

    def moebius(self, si: int, ti: int) -> int:
        """Moebius function of the subgroup poset on the interval [si, ti].
        In a p-group it is (-1)^k p^(k(k-1)/2) when T/S is elementary
        abelian of rank k, and 0 otherwise (P. Hall, 1936)."""
        if not self.leq[si, ti]:
            raise ValueError("moebius needs nested subgroups")
        k = int(self.shapes[ti, si])
        return 0 if k < 0 else (-1) ** k * self.group.prime ** (k * (k - 1) // 2)

    def frattini_of(self, ti: int) -> int:
        """Subgroup index of the Frattini subgroup of subgroup ti: the
        least S with T/S elementary abelian."""
        return int(np.argmax(self.shapes[ti] >= 0))

    # -- concrete section quotients ------------------------------------------

    def _make_section(self, ti: int, si: int) -> Section:
        G = self.group
        T, S = self.subgroup_members[ti], self.subgroup_members[si]
        ids, reps = _coset_ids(G, S, "left")
        # a coset lies in T iff its least member does
        in_t = self.member_mask[ti].astype(bool)
        keep = in_t[reps]
        proj = np.where(in_t, np.cumsum(keep, dtype=np.int32)[ids] - 1, -1)
        reps = reps[keep].astype(np.int32)
        q = FiniteGroup(G.prime, proj[G.table[np.ix_(reps, reps)]],
                        name=f"{G.name}.sec{ti}.{si}", validate=False)
        return Section(G, T, S, q, proj, reps)

    def section_at(self, ti: int, si: int) -> Section:
        """The section (T, S) at the subgroup indices (ti, si) with its
        quotient group, built on the first request and kept, so every
        caller gets the same quotient object."""
        if not self.normal[si, ti]:
            raise ValueError("no such section")
        key = (int(ti), int(si))
        sec = self._quotients.get(key)
        if sec is None:
            sec = self._quotients.setdefault(key, self._make_section(*key))
        return sec


def analysis(G: FiniteGroup, bound: int | None = None) -> GroupAnalysis:
    """The lattice analysis of G, built once and kept on G; enumeration
    refuses huge groups."""
    limit = bound if bound is not None else default_order_bound(G.prime)
    if G.order > limit:
        raise GroupTooLarge(
            f"|G| = {G.order} exceeds the enumeration bound {limit}; "
            f"pass a larger bound explicitly to override")
    ana = G._analysis
    if ana is None:
        with G._lock:
            ana = G._analysis
            if ana is None:
                ana = G._analysis = GroupAnalysis(G, limit)
    return ana


# ---------------------------------------------------------------------------
# public wrappers

# the codes of GroupAnalysis.shapes that are no elementary abelian rank
SHAPE_OTHER = -1
SHAPE_XSP = -2


def section_shape(ana: GroupAnalysis, ti: int, si: int) -> tuple:
    """Shape of the quotient T/S of a section (si normal in ti), read off
    the shape table: ("elab", rank), ("xsp", None) for the extraspecial
    group of order p^3 and exponent p, or ("other", None)."""
    code = int(ana.shapes[ti, si])
    return ("elab", code) if code >= 0 else ("xsp" if code == SHAPE_XSP else "other", None)


def product_members(G: FiniteGroup, a_members: Sequence[int],
                    b_members: Sequence[int]) -> tuple:
    """All products a.b as a sorted member tuple (a subgroup when one
    factor normalizes the other)."""
    a = np.asarray(a_members, dtype=np.int32)
    b = np.asarray(b_members, dtype=np.int32)
    return tuple(sorted(set(G.table[np.ix_(a, b)].ravel().tolist())))
