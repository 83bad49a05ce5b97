"""Transfer maps between limits: retractions, adjunctions, actions.

Everything here moves values across groups rather than within one system:
the Moebius-weighted retraction from a limit back to the value at the
whole group, the two adjunction directions between groupwise maps and
maps into limits, and the action of a concrete biset on limit elements,
which names every transported subgroup by its located lattice index.
"""

from __future__ import annotations

import numpy as np

from .bisets import (ConcreteBiset, double_coset_reps, left_transporters,
                     opposite, right_transporters)
from .zlinalg import _exact_matmul, _first_mismatch, _restrict_moves, obj_zeros
from .limits import (CoefficientSystem, FamilyError, InverseLimit, _as_i64,
                     _selection_matrix, coefficient_system)


# ---------------------------------------------------------------------------
# Moebius retraction onto the value at the whole group


def _upward_to_base(system: CoefficientSystem, i: int) -> np.ndarray:
    """Transfer map value(i) -> F(P) for the functors that have one."""
    if system.functor in ("B", "K"):
        return np.asarray(system.indinf_to_base(i), dtype=object)
    if system.functor == "Kdual":
        ksys = coefficient_system(system.group, system.family.label, "K")
        return np.asarray(ksys.defres_from_base(i), dtype=object).T.copy()
    raise FamilyError("no upward transfer for functor Bdual")


def retraction_matrix(system: CoefficientSystem, reading: str = "A") -> np.ndarray:
    """Weighted sum of upward transfers, one term per family section.

    Terms are weighted by |S| times the Moebius value of the interval
    [S, T] in the subgroup poset.  Reading "A" takes both the component
    and the transfer at the shifted section (S, frattini(T)); reading "B"
    takes them at (T, S) itself.  Reading "A" is the one whose composite
    with the unit is multiplication by the group order; "B" is kept so
    the failure is demonstrable.
    """
    if system.family.label != "E":
        raise FamilyError("the retraction is defined over the family E")
    ana = system.ana
    fam = system.family
    r = system.base_rank
    sig = obj_zeros(r, system.total)
    for (ti, si) in fam.sections:
        mu = ana.moebius(si, ti)
        if mu == 0:
            continue
        coeff = len(ana.subgroup_members[si]) * mu
        if reading == "A":
            j = fam.index(si, ana.frattini_of(ti))
        elif reading == "B":
            j = fam.index(ti, si)
        else:
            raise ValueError(f"unknown reading {reading!r}")
        up = _upward_to_base(system, j)
        off = system.offsets[j]
        d = system.dims[j]
        if d == 0:
            continue
        sig[:, off:off + d] = sig[:, off:off + d] + coeff * up
    return sig


def retraction_identity_holds(limit: InverseLimit, reading: str = "A") -> bool:
    """Does unit-after-retraction scale the limit by the group order?"""
    system = limit.system
    sig = retraction_matrix(system, reading)
    lhs = _exact_matmul(system.unit_matrix(), _exact_matmul(sig, limit.basis))
    return np.array_equal(lhs, system.group.order * limit.basis)


# ---------------------------------------------------------------------------
# adjunction between groupwise maps and maps into limits


class NaturalityError(ValueError):
    """Raised when a per-section family fails an edge compatibility.

    witness names the failing move as (source index, target index, tag).
    """

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def check_section_naturality(sys_f: CoefficientSystem, sys_g: CoefficientSystem,
                             components) -> None:
    """components[i]: F-value(i) -> G-value(i) must commute with every move.

    Edges whose four matrices have equal shapes are checked in stacked
    exact products; the error names the first failing edge in edge order."""
    edges = sys_f.family.edges
    try:                    # int64 where it fits, so no stack is converted
        comps = [_as_i64(c) for c in components]
    except OverflowError:
        comps = [np.asarray(c, dtype=object) for c in components]
    e = _first_mismatch([(Dg, comps[s], comps[d], Df) for (s, d, _), Dg, Df
                         in zip(edges, sys_g._maps(edges), sys_f._maps(edges))])
    if e is not None:
        src, dst, tag = edges[e]
        raise NaturalityError(
            f"components are not natural along {src}->{dst}", (src, dst, tag))


def adjunction_plus(sys_f: CoefficientSystem, sys_g: CoefficientSystem,
                    components) -> np.ndarray:
    """Groupwise map to limit-valued map: compose components with descent.

    components[i] acts on the value of F at section i and is validated
    for naturality first.  The result sends F at the whole group into the
    product of G-values; its columns land in the limit of G because the
    components commute with every generating move.
    """
    if sys_f.family is not sys_g.family:
        raise FamilyError("both functors must live over one section family")
    check_section_naturality(sys_f, sys_g, components)
    downs = sys_f._maps([("down", i) for i in range(len(sys_f.dims))])
    blocks = [_exact_matmul(c, down) for c, down in zip(components, downs)]
    if not blocks:
        return obj_zeros(0, sys_f.base_rank)
    return np.vstack(blocks)


def adjunction_minus(sys_g: CoefficientSystem, stacked: np.ndarray) -> np.ndarray:
    """Limit-valued map to groupwise map: read the whole-group component.

    The family must contain the section (P, 1); the block of the stacked
    matrix at that section is the groupwise map, in the coordinates of
    the value at (P, 1), which equal those of the value at P itself.
    """
    pos = sys_g.family.whole_pos
    if pos is None:
        raise FamilyError("family does not contain the whole-group section")
    off = sys_g.offsets[pos]
    return np.asarray(stacked[off:off + sys_g.dims[pos], :], dtype=object)


# ---------------------------------------------------------------------------
# action of a concrete biset on limit elements


def act_on_limit_matrix(U: ConcreteBiset, sys_q: CoefficientSystem,
                        sys_p: CoefficientSystem) -> np.ndarray:
    """Matrix of the biset action from one group's limit to another's.

    U is a biset with left group matching sys_q and right group matching
    sys_p; both systems carry the same functor over the same family
    label.  For the downward functors each target section accumulates one
    term per double coset, read off a source section of the right group;
    the dual functor acts through the opposite biset, transposed.  At a
    point x the source section is (T^x, S^x), and the slot class W goes
    to the class of (T meet ^xW) S, the join of T meet ^xW with S, as S is
    normal in T.

    Transposition reverses the downward compatibilities, so for the dual
    functors the image of a limit element is again a limit element only
    when the biset is invertible; on stacked values the matrix is always
    the right one.
    """
    if sys_q.family.label != sys_p.family.label:
        raise FamilyError("action needs one family label on both sides")
    if sys_q.functor != sys_p.functor:
        raise FamilyError("action needs one functor on both sides")
    if U.left_group is not sys_q.group or U.right_group is not sys_p.group:
        raise FamilyError("biset groups do not match the systems")
    functor = sys_q.functor
    if functor in ("Kdual", "Bdual"):
        base = "K" if functor == "Kdual" else "B"
        kp = coefficient_system(sys_p.group, sys_p.family.label, base)
        kq = coefficient_system(sys_q.group, sys_q.family.label, base)
        return act_on_limit_matrix(opposite(U), kp, kq).T.copy()
    ana_q, ana_p = sys_q.ana, sys_p.ana
    fam_q, fam_p = sys_q.family, sys_p.family
    up = {}                 # T^u for every point u, by subgroup T of Q
    down = {}               # the index of ^uW in Q at every point u, by W of P
    moves = []              # (selection rows, source slot, target slot)
    for qi, (ti, si) in enumerate(fam_q.sections):
        if sys_q.dims[qi] == 0:
            continue
        up.update({i: right_transporters(U, ana_q.subgroup_members[i])
                   for i in (ti, si) if i not in up})
        xs = double_coset_reps(U, ana_q.subgroup_members[ti])
        # the section (T^x, S^x) of the right group at each point x
        moved = ana_p.locate(np.vstack([up[ti][xs], up[si][xs]]))
        pos_q = fam_q.class_positions(qi)
        for x, tx, sx in zip(xs, *moved.reshape(2, -1).tolist()):
            pj = fam_p.index(tx, sx)
            # section families are closed under the transported sections,
            # so a missing slot indicates corrupted biset data
            if pj is None:
                raise AssertionError("transported section left the family")
            if sys_p.dims[pj] == 0:
                continue
            ws = fam_p.classes(pj).tolist()
            down.update({w: ana_q.locate(left_transporters(U, ana_p.subgroup_members[w]))
                         for w in ws if w not in down})
            # (T meet ^xW) S: the t in T with t.x in x.W, times S
            xw = np.array([down[w][x] for w in ws])
            moves.append((pos_q[ana_q.join[ana_q.meet[ti, xw], si]], pj, qi))
    if functor == "K":
        # source kernels first, then the target kernels after them
        n_p = len(sys_p.dims)
        blocks = _restrict_moves([(r, pj, n_p + qi) for r, pj, qi in moves],
                                 sys_p._kernels + sys_q._kernels)
    else:
        blocks = [_selection_matrix(r, sys_q.dims[qi]) for r, _, qi in moves]
    A = obj_zeros(sys_q.total, sys_p.total)
    for (_, pj, qi), blk in zip(moves, blocks):
        ro, co = sys_q.offsets[qi], sys_p.offsets[pj]
        A[ro:ro + sys_q.dims[qi], co:co + sys_p.dims[pj]] += blk.astype(object)
    return A
