"""Finite sets with commuting left and right group actions.

A biset here is fully concrete: an index set 0..size-1, a left action table
for one group and a right action table for another. Composition glues two
bisets over their shared middle group by identifying (v.q, u) with (v, q.u);
the opposite biset swaps the two sides through inverses.

Group-valued sides are always FiniteGroup objects; a subgroup T of P enters
as the quotient of the section (T, 1), whose table is literally P's table
restricted and relabeled. Two sides match when their tables are equal.

Orbit labels and transporters are whole-biset arrays: cosets, quotient
points and composite points are numbered by least member in one pass, and
`left_transporters` / `right_transporters` give every point's transporter
as one row of a (points x group) bool mask.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup, Section, _coset_ids
from .zlinalg import _batches


def _same_group(A: FiniteGroup, B: FiniteGroup) -> bool:
    return A is B or (A.order == B.order and np.array_equal(A.table, B.table))


class ConcreteBiset:
    """left[q, x] and right[x, p] give the two actions on 0..size-1."""

    __slots__ = ("left_group", "right_group", "size", "left", "right", "name")

    def __init__(self, left_group: FiniteGroup, right_group: FiniteGroup,
                 left, right, name: str = ""):
        self.left_group = left_group
        self.right_group = right_group
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.size = self.left.shape[1]
        self.name = name
        if self.left.shape != (left_group.order, self.size):
            raise ValueError("left table shape mismatch")
        if self.right.shape != (self.size, right_group.order):
            raise ValueError("right table shape mismatch")

    def __repr__(self):
        return (f"ConcreteBiset({self.name or 'biset'}: size={self.size}, "
                f"left=|{self.left_group.order}|, right=|{self.right_group.order}|)")


# ---------------------------------------------------------------------------
# constructors

def identity_biset(G: FiniteGroup) -> ConcreteBiset:
    return ConcreteBiset(G, G, G.table, G.table, name=f"id[{G.name}]")


def indinf_biset(sec: Section) -> ConcreteBiset:
    """Left cosets of the bottom of sec in the parent, as a
    (parent, quotient)-biset. Composing with it induces from the top after
    inflating from the quotient."""
    P = sec.parent
    ids, reps_arr = _coset_ids(P, sec.bottom, "left")
    left = ids[P.table[:, reps_arr]]
    right = ids[P.table[np.ix_(reps_arr, sec.reps)]]
    return ConcreteBiset(P, sec.group, left, right,
                         name=f"indinf[{(sec.top, sec.bottom)}]")


def defres_biset(sec: Section) -> ConcreteBiset:
    """Right cosets of the bottom of sec, as a (quotient, parent)-biset.
    Composing with it restricts to the top then deflates to the quotient."""
    P = sec.parent
    ids, reps_arr = _coset_ids(P, sec.bottom, "right")
    left = ids[P.table[np.ix_(sec.reps, reps_arr)]]
    right = ids[P.table[reps_arr, :]]
    return ConcreteBiset(sec.group, P, left, right,
                         name=f"defres[{(sec.top, sec.bottom)}]")


def opposite(U: ConcreteBiset) -> ConcreteBiset:
    Q, P = U.left_group, U.right_group
    left = U.right[:, P.inv].T.copy()
    right = U.left[Q.inv, :].T.copy()
    return ConcreteBiset(P, Q, left, right, name=f"op[{U.name}]")


def compose(V: ConcreteBiset, U: ConcreteBiset, return_pairs: bool = False):
    """V over (R,Q) and U over (Q,P) give the (R,P)-biset of Q-orbits on
    pairs, identifying (v.q, u) with (v, q.u).

    With return_pairs, also return the (V.size, U.size) array sending each
    pair to the index of its orbit in the composite."""
    if not _same_group(V.right_group, U.left_group):
        raise ValueError("middle groups do not match")
    R, Q, P = V.left_group, U.left_group, U.right_group
    nV, nU = V.size, U.size
    # label each pair by the least code v * nU + u in its orbit
    # {(v.q^-1, q.u) : q in Q}, over chunks of Q
    least = np.arange(nV * nU, dtype=np.int64).reshape(nV, nU)
    for qs in _batches(np.arange(1, Q.order), nV * nU):
        codes = (V.right[:, Q.inv[qs]].T.astype(np.int64)[:, :, None] * nU
                 + U.left[qs][:, None, :])
        np.minimum(least, codes.min(axis=0), out=least)
    roots, pairs = np.unique(least, return_inverse=True)
    pairs = pairs.reshape(nV, nU).astype(np.int32)
    vs, us = np.divmod(roots, nU)
    left = pairs[V.left[:, vs], us[None, :]]
    right = pairs[vs[:, None], U.right[us, :]]
    W = ConcreteBiset(R, P, left, right, name=f"({V.name})o({U.name})")
    if not return_pairs:
        return W
    return W, pairs


def left_transporters(U: ConcreteBiset, s_members, points=None) -> np.ndarray:
    """mask[k, y]: y lies in ^uS for the k-th point u, the y of the left group
    with y.u = u.s for some s in S; one row per point, or per given point.

    For a subgroup S of the right group each row is a subgroup of the left
    group; ^u{1} is the left stabilizer of u."""
    us = np.arange(U.size) if points is None else np.asarray(points, dtype=np.intp)
    at = np.arange(len(us))[:, None]
    hit = np.zeros((len(us), U.size), dtype=bool)       # hit[k, w]: w in u.S
    hit[at, U.right[us[:, None], np.asarray(s_members, dtype=np.intp)]] = True
    return hit[at, U.left.T[us]]


def right_transporters(U: ConcreteBiset, t_members) -> np.ndarray:
    """mask[u, x]: x lies in T^u, the x of the right group with t.u = u.x
    for some t in T, one row per point."""
    at = np.arange(U.size)
    hit = np.zeros((U.size, U.size), dtype=bool)        # hit[u, w]: w in T.u
    hit[at, U.left[np.asarray(t_members, dtype=np.intp)]] = True
    return hit[at[:, None], U.right]


def double_coset_reps(U: ConcreteBiset, t_members) -> list:
    """Least point index in each orbit of T x (right group), ascending."""
    # t.x.p = t.(x.p): the least point over T, then over the right group
    least_t = U.left[np.asarray(t_members, dtype=np.int32), :].min(axis=0)
    return np.flatnonzero(np.bincount(least_t[U.right].min(axis=1))).tolist()


def left_quotient_biset(U: ConcreteBiset, c_members) -> ConcreteBiset:
    """Collapse points into orbits of a normal subgroup C of the left group.

    The left action descends because C is normal; the right action descends
    because the two actions commute. The left group object is kept, now
    acting through the quotient."""
    Q = U.left_group
    inside = np.zeros(Q.order, dtype=bool)
    inside[np.asarray(list(c_members), dtype=np.intp)] = True
    if not inside[0]:
        raise ValueError("subgroup must contain the identity")
    c_arr = np.flatnonzero(inside)
    if not (inside[Q.inv[c_arr]].all()
            and inside[Q.table[c_arr[:, None], c_arr]].all()):
        raise ValueError("members do not form a subgroup")
    gens = np.asarray(Q.generators(), dtype=np.intp)
    # g c g^-1 for every generator g (rows) and member c (columns)
    conj = Q.table[Q.table[gens[:, None], c_arr], Q.inv[gens][:, None]]
    if not inside[conj].all():
        raise ValueError("subgroup is not normal in the left group")
    reps_arr, ids = np.unique(U.left[c_arr, :].min(axis=0), return_inverse=True)
    ids = ids.astype(np.int32)
    left = ids[U.left[:, reps_arr]]
    right = ids[U.right[reps_arr, :]]
    return ConcreteBiset(Q, U.right_group, left, right, name=f"quot[{U.name}]")


# ---------------------------------------------------------------------------
# orbit structure

def orbit_decompose(U: ConcreteBiset):
    """Two-sided orbits with their stabilizer pairs.

    Each entry: (rep, sorted orbit, stab) where stab is the sorted tuple of
    codes q * |P| + p over pairs with q.rep.p == rep.
    """
    Q, P = U.left_group, U.right_group
    nP = P.order
    seen = np.zeros(U.size, dtype=bool)
    out = []
    for x in range(U.size):
        if seen[x]:
            continue
        # all q.x.p in one sweep
        block = U.left[:, U.right[x, :]]        # block[q, p] = q.(x.p)
        orbit = sorted(set(block.ravel().tolist()))
        seen[orbit] = True
        # row-major, so the codes come out ascending
        qs, ps = np.nonzero(block == x)
        out.append((x, orbit, tuple((qs * nP + ps).tolist())))
    return out


def canonical_stabilizer(Q: FiniteGroup, P: FiniteGroup, stab) -> tuple:
    """Least tuple in the conjugation orbit of a pair-stabilizer, so equal
    labels mean conjugate stabilizers and hence isomorphic orbits.

    A code is q * |P| + p; conjugation by a generator (a, b) sends it to
    (a q a^-1) * |P| + (b^-1 p b), read for a whole code set from two
    lookup arrays.
    """
    nP = P.order
    ids_q, ids_p = np.arange(Q.order), np.arange(nP)
    moves = ([(Q.table[Q.table[a], Q.inv[a]], ids_p) for a in Q.generators()]
             + [(ids_q, P.table[P.table[P.inv[b]], b]) for b in P.generators()])
    start = tuple(sorted(stab))
    best = start
    frontier = [start]
    seen = {start}
    while frontier:
        nxt = []
        for cur in frontier:
            q, p = np.divmod(np.asarray(cur, dtype=np.int64), nP)
            for conj_q, conj_p in moves:
                img = tuple(np.sort(conj_q[q] * nP + conj_p[p]).tolist())
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
                    if img < best:
                        best = img
        frontier = nxt
    return best


def orbit_labels(U: ConcreteBiset) -> list:
    """Multiset of (size, canonical stabilizer) over the orbits of U."""
    out = []
    for _, orbit, stab in orbit_decompose(U):
        out.append((len(orbit),
                    canonical_stabilizer(U.left_group, U.right_group, stab)))
    return sorted(out)


def is_biset_iso(U: ConcreteBiset, V: ConcreteBiset) -> bool:
    if not (_same_group(U.left_group, V.left_group)
            and _same_group(U.right_group, V.right_group)):
        raise ValueError("bisets over different group pairs")
    if U.size != V.size:
        return False
    return orbit_labels(U) == orbit_labels(V)
