"""Test-only fixture builders and reference checks.

The package builds bisets only along whole sections (`indinf_biset`,
`defres_biset`); the one-step builders here (induction, restriction,
inflation, deflation, isomorphisms, conjugation of a section) give
independent fixtures for the composition, orbit and action tests.
"""

import numpy as np

from bfk.bisets import ConcreteBiset, defres_biset, indinf_biset
from bfk.zlinalg import coords_in_hnf, obj_zeros


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


def normalizer(ana, members) -> tuple:
    """Members of the normalizer of a subgroup given by its members."""
    return tuple(np.flatnonzero(ana.normalizes[ana.index_of(members)]).tolist())


def restriction_biset(ana, members) -> ConcreteBiset:
    return defres_biset(ana.section_at(members, (0,)))


def induction_biset(ana, members) -> ConcreteBiset:
    return indinf_biset(ana.section_at(members, (0,)))


def _top_and_lifts(ana, sec):
    tsec = ana.section_at(sec.top.members, (0,))
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
    target = ana.section_at(ana.conjugate_members(u, sec.top.members),
                            ana.conjugate_members(u, sec.bottom.members))
    ui = G.inv_of(u)
    f = [int(target.proj[G.mul(G.mul(u, sec.reps[t]), ui)])
         for t in range(sec.group.order)]
    return target, iso_biset(sec.group, target.group, f)


def per_column_restrict(M, src_kern, dst_kern):
    """A transitive-basis matrix as a map between kernel bases (HNF rows),
    by object products and coords_in_hnf one column at a time; the
    reference for limits._restrict_to_kernels."""
    H = np.asarray(dst_kern, dtype=object)
    images = np.asarray(M, dtype=object) @ np.asarray(src_kern, dtype=object).T
    out = obj_zeros(H.shape[0], images.shape[1])
    for i in range(images.shape[1]):
        c = coords_in_hnf(H, images[:, i])
        if c is None:
            raise AssertionError("image left the mark kernel")
        out[:, i] = c
    return out
