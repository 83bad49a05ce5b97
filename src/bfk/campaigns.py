"""Verification campaigns: per-group checks, reports, re-checking.

A campaign runs one bundle of claims over every catalog group within the
configured order bound and returns a report document.  Reports are
deterministic for a fixed config and seed: rows carry no timing, group
workers derive their randomness from the seed and the group descriptor,
and rows are sorted before emission so parallel runs aggregate to the
same bytes.  The sampled engines draw from `sampling.Stream`, the
package's own copy of numpy's seeded stream, so a seed gives the same
bytes on any numpy.

Each check returns its refuted row at its first failing case and
otherwise a census of the cases it passed.  Every witness names its
kind, and one table, `_KINDS`, gives each kind the statuses its rows may
carry and a predicate on the witness's own fields that says whether the
claim holds.  `recheck` reads only that table, with one pass of plain
arithmetic (no solving beyond back-substitution against a recorded
Hermite basis).  Where the witness carries everything the verdict rests
on, the engine takes the row's status from the same predicate
(`_judged`), so the two cannot disagree.

Every engine names a section by its subgroup indices (ti, si), as the
section families list them, and asks the group's analysis for its
quotient (`section_at`).  The module keeps no cache of its own: what an
engine computes, down to the subquotient verdicts of the main campaign,
is kept on the group it belongs to and is freed with it.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .bisets import (
    compose,
    defres_biset,
    identity_biset,
    indinf_biset,
    is_biset_iso,
    left_quotient_biset,
    left_transporters,
    opposite,
    right_transporters,
)
from .burnside import (
    character_dual_sublattice,
    dual_action_matrix,
    dual_exactness_report,
    extraspecial_kernel_element,
    rank_two_kernel_element,
    ring_data,
    sum_of_induced_kernels,
)
from .claims import CAMPAIGNS, RunConfig, catalog_groups
from .groups import analysis, parse_descriptor, section_shape
from .limits import (
    ConstraintViolation,
    coefficient_system,
    comparison_report,
    counit_kernel_report,
    inverse_limit,
    residual_check,
    section_family,
)
from .transfers import (
    adjunction_minus,
    adjunction_plus,
    act_on_limit_matrix,
    retraction_identity_holds,
    retraction_matrix,
)
from .zlinalg import IntegerLattice, _batches, _exact_matmul, obj_eye

REPORT_FORMAT = "bfk-report"
REPORT_VERSION = 1

EXIT_VERIFIED = 0
EXIT_REFUTED = 2
EXIT_SKIPPED = 3


def _row(campaign: str, claim: str, group: str, status: str, witness: dict) -> dict:
    # reports must be byte-stable across runs, so timings never enter rows
    return {"campaign": campaign, "claim": claim, "group": group,
            "status": status, "witness": witness, "wall_time": None}


def _judged(campaign: str, claim: str, group: str, witness: dict) -> dict:
    """The row whose status is its witness kind's verdict on the witness."""
    holds = _KINDS[witness["kind"]][1](witness)
    return _row(campaign, claim, group, "verified" if holds else "refuted",
                witness)


# ---------------------------------------------------------------------------
# shared numeric helpers


def _ints(vec) -> list[int]:
    # as objects: numpy reads a list holding an int past 2**63 as float64
    return [int(v) for v in np.asarray(vec, dtype=object).ravel()]


def _first(bad) -> int | None:
    """Index of the first true entry, else None."""
    bad = np.flatnonzero(bad)
    return int(bad[0]) if len(bad) else None


def _members(row) -> list[int]:
    return np.flatnonzero(row).tolist()


def _engine_rng(cfg: "RunConfig", desc: str, salt: int) -> "Stream":
    # one stream per (seed, group, engine) so adding an engine never
    # shifts the draws of another; imported here, so only the seeded
    # engines load the sampler
    from .sampling import Stream, group_key
    return Stream([cfg.seed, group_key(desc), salt])


def _signature_reps(ana, pairs, limit: int) -> list:
    """First section (ti, si) of each (orders, quotient shape), up to a
    count."""
    seen = set()
    out = []
    for ti, si in pairs:
        sig = (ana.sizes[ti], ana.sizes[si]) + section_shape(ana, ti, si)
        if sig in seen:
            continue
        seen.add(sig)
        out.append((ti, si))
        if len(out) == limit:
            break
    return out


def _x3_quotients(Q, limit: int) -> list:
    """Concrete sections at the first X3 section of each shape of Q."""
    fam = section_family(Q, "X3")
    return [fam.ana.section_at(ti, si)
            for ti, si in _signature_reps(fam.ana, fam.sections, limit)]


def _sample_indices(rng, n: int, k: int) -> list[int]:
    if n <= 0:
        return []
    if k >= n:
        return list(range(n))
    return sorted(rng.sample(n, k))


# ---------------------------------------------------------------------------
# induction campaign


def _membership_row(camp, claim, desc, vector, lattice, **extra) -> dict:
    """Refuted row naming a vector outside a lattice, with the lattice's
    basis to confirm it by."""
    witness = {"kind": "membership-failure", "vector": _ints(vector),
               "basis": [_ints(b) for b in lattice.basis],
               "ambient": lattice.ambient, **extra}
    return _row(camp, claim, desc, "refuted", witness)


def _lattice_identity_row(camp, claim, desc, left, right) -> dict:
    """Row for an exact lattice equality, with a concrete miss on failure."""
    if left == right:
        witness = {"kind": "lattice-identity",
                   "rank": left.rank, "ambient": left.ambient}
        return _row(camp, claim, desc, "verified", witness)
    for a, b in ((left, right), (right, left)):
        j = _first(~b.members(a.basis.T))
        if j is not None:
            return _membership_row(camp, claim, desc, a.basis[j], b)
    # same members, different HNF cannot happen; keep the row honest anyway
    witness = {"kind": "lattice-identity", "rank": left.rank,
               "ambient": left.ambient}
    return _row(camp, claim, desc, "refuted", witness)


def _induced_rank_two(ana, classes, si: int) -> np.ndarray:
    """Induce-after-inflate image of the rank-two kernel generator of the
    quotient at an index-p^2 slot with bottom si and the given classes:
    the class of W/S weighs 1, -1 or p by |W|/|S|, and goes to the class
    of W."""
    p = ana.group.prime
    weight = {1: 1, p: -1, p * p: p}
    out = np.zeros(len(ana.classes), dtype=object)
    for w in classes.tolist():
        out[ana.class_of_sub[w]] += weight[int(ana.sizes[w] // ana.sizes[si])]
    return out


def _delta_identity_row(cfg: RunConfig) -> dict:
    """Difference of two induced generators against p times delta."""
    p = cfg.p
    desc = f"xsp:{p}"
    G = parse_descriptor(desc, p)
    ana = analysis(G)
    noncentral = [r for r in ana.class_reps if ana.sizes[r] == p and r != ana.center]
    # J / 1 is elementary abelian of order p^2, so it is a slot of E2
    fam = section_family(G, "E2")
    inds = []
    for r in noncentral[:2]:
        J = ana.join[r, ana.center]
        inds.append(_induced_rank_two(ana, fam.classes(fam.index(J, 0)), 0))
    delta = np.asarray(extraspecial_kernel_element(G, 0, 1), dtype=object)
    witness = {"kind": "vector-identity", "left": _ints(inds[1] - inds[0]),
               "right": _ints(p * delta), "scale": p}
    return _judged("induction", "induction-difference-is-scaled-delta",
                   desc, witness)


def _eps_generator_row(cfg: RunConfig) -> dict:
    p = cfg.p
    desc = f"elab:{p}:2"
    G = parse_descriptor(desc, p)
    kern = ring_data(G).kernel()
    eps = np.asarray(rank_two_kernel_element(G), dtype=object)
    span = IntegerLattice(kern.ambient, [eps])
    claim = "induction-eps-generates-rank-two-kernel"
    if kern.rank == 1 and span == kern:
        witness = {"kind": "generator-span", "generator": _ints(eps),
                   "rank": kern.rank}
        return _row("induction", claim, desc, "verified", witness)
    return _membership_row("induction", claim, desc, eps, kern,
                           rank=kern.rank)


def _induction_rows(desc: str, cfg: RunConfig) -> list[dict]:
    p = cfg.p
    G = parse_descriptor(desc, p)
    ana = analysis(G)
    rows = []

    kern = ring_data(G).kernel()
    x2_sum = sum_of_induced_kernels(G, "X2")
    rows.append(_lattice_identity_row(
        "induction", "induction-kernel-matches-x2-sum", desc, kern, x2_sum))

    fam = section_family(G, "E2")
    eps_part = IntegerLattice(kern.ambient, [
        _induced_rank_two(ana, fam.classes(i), si) for i, (ti, si) in enumerate(fam.sections)
        if ana.sizes[ti] // ana.sizes[si] == p * p])
    e2_sum = sum_of_induced_kernels(G, "E2")
    rows.append(_lattice_identity_row(
        "induction", "induction-eps-part-matches-e2-sum", desc, eps_part, e2_sum))

    claim = "induction-scaling-lands-in-eps-part"
    scaled = p * kern.basis.T
    bad = _first(~eps_part.members(scaled))
    if bad is None:
        witness = {"kind": "scaled-membership", "scale": p,
                   "checked": kern.rank}
        rows.append(_row("induction", claim, desc, "verified", witness))
    else:
        rows.append(_membership_row("induction", claim, desc, scaled[:, bad],
                                    eps_part))

    if desc == f"elab:{p}:2":
        rows.append(_eps_generator_row(cfg))
    if desc == f"xsp:{p}":
        rows.append(_delta_identity_row(cfg))
    return rows


# ---------------------------------------------------------------------------
# exact campaign


def _exact_rows(desc: str, cfg: RunConfig) -> list[dict]:
    G = parse_descriptor(desc, cfg.p)
    rep = dual_exactness_report(G)
    additivity = {"kind": "rank-additivity",
                  "basis_rank": int(rep["basis_rank"]),
                  "character_rank": int(rep["character_rank"]),
                  "kernel_rank": int(rep["kernel_rank"])}
    inv = rep["dual_quotient_invariants"]
    quotient = {"kind": "free-quotient",
                "nontrivial_invariants": [int(d) for d in inv if d not in (0, 1)],
                "free_rank": int(rep["dual_quotient_free_rank"]),
                "kernel_rank": int(rep["kernel_rank"]),
                "annihilator_matches": bool(rep["annihilator_matches"])}
    return [_judged("exact", "dual-rank-additivity", desc, additivity),
            _judged("exact", "dual-quotient-free", desc, quotient),
            _dual_descent_row(desc, G)]


def _dual_descent_row(desc, G) -> dict:
    """Induce-after-inflate bisets, and their opposites, at a few X3
    sections carry character functionals to character functionals."""
    secs = _x3_quotients(G, 3)
    char_g = character_dual_sublattice(G)
    checked = 0
    for sec in secs:
        U = indinf_biset(sec)
        char_q = character_dual_sublattice(sec.group)
        for biset, src, dst in ((U, char_q, char_g), (opposite(U), char_g, char_q)):
            images = _exact_matmul(dual_action_matrix(biset), src.basis.T)
            j = _first(~dst.members(images))
            if j is not None:
                return _membership_row("exact", "dual-action-descends", desc,
                                       images[:, j], dst)
            checked += src.rank
    witness = {"kind": "dual-descent", "bisets": 2 * len(secs),
               "cases": checked}
    return _row("exact", "dual-action-descends", desc, "verified", witness)


# ---------------------------------------------------------------------------
# main campaign


_UNIT_LANDS = {
    "E": "unit-lands-in-limit-e",
    "E3": "unit-lands-in-limit-e3",
    "X": "unit-lands-in-limit-x",
    "X3": "unit-lands-in-limit-x3",
}


def _section_type_descriptor(shape, p: int) -> str:
    kind, r = shape
    if kind == "xsp":
        return f"xsp:{p}"
    if r == 0:
        return "cyclic:1"
    if r == 1:
        return f"cyclic:{p}"
    return f"elab:{p}:{r}"


def _main_rows(desc: str, cfg: RunConfig) -> list[dict]:
    p = cfg.p
    G = parse_descriptor(desc, p)
    rows = []

    # for abelian groups the X-side families select the same sections as
    # the E-side ones, so one solve serves both labels
    computed = ("E", "E3") if G.is_abelian else ("E", "E3", "X", "X3")
    lims = {}
    reports = {}
    systems = {}
    for label in computed:
        lim = inverse_limit(coefficient_system(G, label, "Kdual"))
        lims[label] = lim
        systems[label] = lim.system
        reports[label] = comparison_report(lim)
    if G.is_abelian:
        for alias, src in (("X", "E"), ("X3", "E3")):
            lims[alias] = lims[src]
            reports[alias] = reports[src]
            systems[alias] = systems[src]

    for label in ("E", "E3", "X", "X3"):
        rep = reports[label]
        if rep["unit_in_limit"]:
            witness = {"kind": "unit-in-limit", "family": label,
                       "columns": int(rep["value_rank"])}
            rows.append(_row("main", _UNIT_LANDS[label], desc,
                             "verified", witness))
            continue
        system = systems[label]
        E = system.unit_matrix()
        try:
            residual_check(system, E)
        except ConstraintViolation as err:
            witness = {"kind": "constraint-violation", "edge": err.edge,
                       "residual": err.residual, "family": label}
            rows.append(_row("main", _UNIT_LANDS[label], desc,
                             "refuted", witness))
            continue
        # every constraint holds, so some unit column misses the lattice
        lat = lims[label].lattice
        j = _first(~lat.members(E)) or 0
        rows.append(_membership_row("main", _UNIT_LANDS[label], desc,
                                    E[:, j], lat, family=label))

    for label, claim in (("X", "unit-iso-x"), ("X3", "unit-iso-x3")):
        rep = reports[label]
        rows.append(_judged("main", claim, desc, {
            "kind": "unit-iso", "family": label,
            "rank": int(rep["unit_rank"]),
            "value_rank": int(rep["value_rank"]),
            "limit_rank": int(rep["limit_rank"]),
            "nontrivial_invariants": [int(d) for d in rep["cokernel_torsion"]],
            "kernel_rank": int(rep["kernel_rank"]),
            "cokernel_free_rank": int(rep["cokernel_free_rank"])}))

    for label, claim in (("E", "unit-cokernel-divides-order-e"),
                         ("X", "unit-cokernel-divides-order-x"),
                         ("E3", "unit-cokernel-finite-e3")):
        rep = reports[label]
        witness = {"kind": "cokernel-data", "family": label,
                   "invariants": [int(d) for d in rep["cokernel_torsion"]],
                   "free_rank": int(rep["cokernel_free_rank"])}
        if label != "E3":
            witness.update(kind="cokernel-bound", order=G.order)
        if not rep["unit_in_limit"]:
            witness["unit_in_limit"] = False
        rows.append(_judged("main", claim, desc, witness))

    if G.order <= 27:
        lim_e = lims["E"]
        if retraction_identity_holds(lim_e, "A"):
            witness = {"kind": "retraction-scale", "reading": "A",
                       "scale": G.order}
            rows.append(_row("main", "unit-retraction-scales-by-order",
                             desc, "verified", witness))
        else:
            sys_e = systems["E"]
            R = np.asarray(retraction_matrix(sys_e, "A"), dtype=object)
            E = np.asarray(sys_e.unit_matrix(), dtype=object)
            comp = E @ (R @ lim_e.basis)
            want = G.order * lim_e.basis
            jbad = _first((comp != want).any(axis=0)) or 0
            witness = {"kind": "vector-identity", "reading": "A",
                       "left": _ints(comp[:, jbad]),
                       "right": _ints(want[:, jbad])}
            rows.append(_row("main", "unit-retraction-scales-by-order",
                             desc, "refuted", witness))

    # one-step descent: the X-side isomorphism at the group plus the
    # bounded-family isomorphism at every smaller section type forces the
    # bounded-family isomorphism at the group; each smaller type is solved
    # on the quotient of its first section, which G's analysis keeps
    x_label = "E" if G.is_abelian else "X"
    ana = analysis(G)
    firsts = {}
    for ti, si in section_family(G, x_label).sections:
        if ana.sizes[ti] // ana.sizes[si] < G.order:
            firsts.setdefault(_section_type_descriptor(
                section_shape(ana, ti, si), p), (ti, si))
    sub_types = sorted(firsts)
    premise_group = bool(reports["X"]["is_isomorphism"])
    premise_subs = all(comparison_report(inverse_limit(coefficient_system(
        ana.section_at(ti, si).group, "X3", "Kdual")))["is_isomorphism"]
        for ti, si in firsts.values())
    rows.append(_judged("main", "unit-iso-descends-to-bounded-family", desc, {
        "kind": "implication",
        "premise_group_iso": premise_group,
        "premise_subquotients_iso": premise_subs,
        "subquotient_types": sub_types,
        "conclusion_bounded_iso": bool(reports["X3"]["is_isomorphism"]),
        "vacuous": not (premise_group and premise_subs)}))
    return rows


# ---------------------------------------------------------------------------
# probe campaign


def _probe_rows(desc: str, cfg: RunConfig) -> list[dict]:
    G = parse_descriptor(desc, cfg.p)
    label = "E" if G.is_abelian else "X"
    system = coefficient_system(G, label, "K")
    rep = counit_kernel_report(system)
    rows = []

    status = "verified" if rep["counit_surjective"] else "refuted"
    witness = {"kind": "counit-surjectivity", "family": "X",
               "generators": int(rep["generators"]),
               "base_rank": int(rep["base_rank"])}
    if not rep["counit_surjective"]:
        witness["hnf_diagonal"] = [int(d) for d in rep["hnf_diagonal"]]
    rows.append(_row("probe", "counit-surjective", desc, status, witness))

    rows.append(_judged("probe", "counit-kernel-finite", desc, {
        "kind": "counit-kernel", "family": "X",
        "generators": int(rep["generators"]),
        "relation_rank": int(rep["relation_rank"]),
        "base_rank": int(rep["base_rank"]),
        "invariants": [int(d) for d in rep["kernel_invariants"]],
        "trivial": bool(rep["kernel_trivial"])}))
    return rows


# ---------------------------------------------------------------------------
# appendix campaign: concrete-biset case engines


def _census(claim: str, desc: str, cases: int, small: bool,
            extra: dict | None = None) -> list[dict]:
    """The verified row of one appendix claim, a census of its cases, if
    it has any."""
    if not cases:
        return []
    witness = {"kind": "case-census", "cases": int(cases),
               "mode": "exhaustive" if small else "sampled"}
    witness.update(extra or {})
    return [_row("appendix", claim, desc, "verified", witness)]


def _fail_row(claim: str, desc: str, case: dict, left, right) -> list[dict]:
    """The refuted row of one appendix claim at its first failing case."""
    witness = {"kind": "case-failure", "case": case,
               "left": left, "right": right}
    return [_row("appendix", claim, desc, "refuted", witness)]


def _closed(table, left, right, into) -> np.ndarray:
    """Per row of three stacked (rows x group) masks: table[a, b] lies in
    `into` for every a in `left` and b in `right`."""
    at = np.arange(len(into))[:, None, None]
    return ~(left[:, :, None] & right[:, None, :] & ~into[at, table]).any(axis=(1, 2))


def _through(A, B, C) -> np.ndarray:
    """out[i, x]: B[i, g] == C[i, x] for some g with A[i, g], one bool
    product over the middle group per row: with B[i], C[i] a biset's two
    actions at one point, the transporter of the set A[i] through it."""
    out = np.empty(C.shape, dtype=bool)
    for rows in _batches(np.arange(len(A)), B.shape[1] * C.shape[1]):
        out[rows] = (A[rows, :, None]
                     & (B[rows, :, None] == C[rows, None, :])).any(axis=1)
    return out


def _fingerprint(ana, ti: int, si: int) -> tuple:
    """Order, commutativity and sorted element orders of the quotient of
    section (ti, si), read on the ambient group: the coset tS has order
    the least p^k with t^(p^k) in S, and each coset has |S| members."""
    in_s = ana.member_mask[si]
    x = np.asarray(ana.subgroup_members[ti])
    orders = np.ones(len(x), dtype=np.int64)
    live = ~in_s[x]
    while live.any():
        orders[live] *= ana.group.prime
        x = ana.pth_power[x]
        live = ~in_s[x]
    return (int(ana.sizes[ti] // ana.sizes[si]),
            bool(ana.leq[ana.derived[ti], si]),
            tuple(np.sort(orders)[::ana.sizes[si]].tolist()))


def _subquotient_fps(ana, ti: int, si: int) -> set:
    """Fingerprints of every section of the quotient T/S: those of the
    sections (T', S') of the ambient group with S <= S' and T' <= T."""
    tops = np.flatnonzero(ana.leq[si] & ana.leq[:, ti])
    return {_fingerprint(ana, t, s) for t in tops.tolist()
            for s in np.flatnonzero(ana.normal[:, t] & ana.leq[si]).tolist()}


def _conjugation_row(claim, desc, transporters, checks, small) -> list[dict]:
    """Row of one transporter side: for each (biset U, subgroup members,
    points us, elements gs, conj, moved), row us[i] of the transporter
    mask read through conj[i] must equal its row moved[i]."""
    cases = 0
    for U, members, us, gs, conj, moved in checks:
        mask = transporters(U, members)
        lhs, rhs = mask[us[:, None], conj], mask[moved]
        i = _first((lhs != rhs).any(axis=1))
        if i is not None:
            case = {"biset": U.name, "point": int(us[i]),
                    "element": int(gs[i]), "subgroup": _ints(members)}
            return _fail_row(claim, desc, case, _members(lhs[i]),
                             _members(rhs[i]))
        cases += len(us)
    return _census(claim, desc, cases, small)


def _appendix_transporter_rows(desc, G, ana, pool, small, rng) -> list[dict]:
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

    # every biset's points are drawn before any check runs; z lies in
    # T^(u.x) iff x z x^-1 lies in T^u, and in ^(y.u)S iff y^-1 z y lies
    # in ^uS
    right, left = [], []
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
            pts = [(rng.integers(U.size), rng.integers(Q.order))
                   for _ in range(10)]
            lefts = [(rng.integers(U.size), rng.integers(G.order))
                     for _ in range(10)]
        us, xs = np.array(pts).T
        conj = Q.table[Q.table[xs], Q.inv[xs][:, None]]
        right += [(U, tmem, us, xs, conj, U.right[us, xs])
                  for tmem in t_choices[:2]]
        us, ys = np.array(lefts).T
        conj = G.table[G.table[G.inv[ys]], ys[:, None]]
        left += [(U, smem, us, ys, conj, U.left[ys, us]) for smem in s_choices]
    return (_conjugation_row("transporter-conjugation-right", desc,
                             right_transporters, right, small)
            + _conjugation_row("transporter-conjugation-left", desc,
                               left_transporters, left, small))


def _appendix_section_transport_rows(desc, ana, pool, secs_x3, small,
                                     rng) -> list[dict]:
    """Both claims share one count: a case is a point whose transported
    pair is a section and whose quotient is a subquotient."""
    sec_choices = [(ti, si, _subquotient_fps(ana, ti, si))
                   for ti, si in _signature_reps(ana, secs_x3, 3)]
    pair = "transported-pair-is-section"
    quotient = "transported-quotient-is-subquotient"
    cases = 0
    for U in pool:
        Q = U.right_group
        ana_q = analysis(Q)
        if small:
            pts = list(range(U.size))
        else:
            pts = _sample_indices(rng, U.size, 4)
        conj = Q.table[Q.table, Q.inv[:, None]]         # conj[t, s] = t s t^-1
        for ti, si, fps in sec_choices:
            tmem, smem = ana.subgroup_members[ti], ana.subgroup_members[si]
            tq, sq = (right_transporters(U, m)[pts] for m in (tmem, smem))
            ok = (tq[:, 0] & sq[:, 0] & ~(sq & ~tq).any(axis=1)
                  & _closed(Q.table, tq, tq, tq) & _closed(Q.table, sq, sq, sq)
                  & _closed(conj, tq, sq, sq))
            # only the pairs that passed are subgroups to locate
            moved = np.zeros((2, len(pts)), dtype=np.intp)
            moved[:, ok] = ana_q.locate(np.vstack([tq[ok], sq[ok]])).reshape(2, -1)
            for i, u in enumerate(pts):
                case = {"biset": U.name, "point": int(u),
                        "top_order": len(tmem), "bottom_order": len(smem)}
                if not ok[i]:
                    return (_fail_row(pair, desc, case, _members(sq[i]),
                                      _members(tq[i]))
                            + _census(quotient, desc, cases, small))
                fp = _fingerprint(ana_q, moved[0, i], moved[1, i])
                if fp not in fps:
                    return (_census(pair, desc, cases + 1, small)
                            + _fail_row(quotient, desc, case,
                                        [fp[0], fp[1], list(fp[2])],
                                        sorted([f[0], f[1], list(f[2])]
                                               for f in fps)))
                cases += 1
    return (_census(pair, desc, cases, small)
            + _census(quotient, desc, cases, small))


def _appendix_composite_transporter_rows(desc, pool, small, rng) -> list[dict]:
    claim = "transporter-through-composite"
    cases = 0
    for U in pool[:2]:
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
            pvu = [(rng.integers(V.size), rng.integers(U.size))
                   for _ in range(18)]
        vs, us = np.array(pvu).T
        ws = pairs[vs, us]
        # (T^v)^u: the x with g.u = u.x for some g in T^v, and ^v(^uS)
        chain = _through(right_transporters(V, tmem)[vs], U.left[:, us].T,
                         U.right[us])
        direct = right_transporters(W, tmem)[ws]
        lchain = _through(left_transporters(U, smem)[us], V.right[vs],
                          V.left[:, vs].T)
        ldirect = left_transporters(W, smem)[ws]
        bad_right = (chain != direct).any(axis=1)
        i = _first(bad_right | (lchain != ldirect).any(axis=1))
        if i is not None:
            case = {"biset": U.name, "v": int(vs[i]), "u": int(us[i]),
                    "w": int(ws[i])}
            lhs, rhs = (chain, direct) if bad_right[i] else (lchain, ldirect)
            return _fail_row(claim, desc, case, _members(lhs[i]),
                             _members(rhs[i]))
        cases += 2 * len(pvu)
    return _census(claim, desc, cases, small)


def _appendix_quotient_collapse_rows(desc, G, ana, secs_x3, small,
                                     rng) -> list[dict]:
    top = ana.n_sub - 1
    normal_cands = []
    for si in range(ana.n_sub):
        m = ana.subgroup_members[si]
        if 1 < len(m) < G.order and ana.is_normal_in(si, top):
            normal_cands.append(list(m))
    if small:
        picks = normal_cands[:3]
        sec_limit = 2
    else:
        picks = [normal_cands[i]
                 for i in _sample_indices(rng, len(normal_cands), 10)]
        sec_limit = 4
    sec_picks = _signature_reps(
        ana, [(t, s) for t, s in secs_x3
             if ana.sizes[s] > 1 or ana.sizes[t] < G.order],
        sec_limit)
    built = {}              # ts -> outer biset, [(inner biset, composite)]
    cases = 0
    for cmem in picks:
        for ts in sec_picks:
            if ts not in built:
                V = indinf_biset(ana.section_at(*ts))
                inner = _x3_quotients(V.right_group, 2 if small else 4)
                built[ts] = V, [(U, compose(V, U)) for U in map(indinf_biset, inner)]
            V, inner = built[ts]
            Vq = left_quotient_biset(V, cmem)
            ak = np.flatnonzero((Vq.right == np.arange(Vq.size)[:, None])
                                .all(axis=0)).tolist()
            for U, VU in inner:
                lhs = compose(Vq, left_quotient_biset(U, ak))
                rhs = left_quotient_biset(VU, cmem)
                if not is_biset_iso(lhs, rhs):
                    case = {"collapsed": _ints(cmem), "outer": V.name,
                            "inner": U.name}
                    return _fail_row("quotient-collapse-composition", desc,
                                     case, [lhs.size], [rhs.size])
                cases += 1
    return _census("quotient-collapse-composition", desc, cases, small)


def _appendix_unit_component_rows(desc, G, small) -> list[dict]:
    claim = "whole-group-unit-component-identity"
    labels = ("E", "E3", "X", "X3") if small else ("E", "X")
    cases = 0
    combos = []
    for label in labels:
        if not small and G.is_abelian and label == "X":
            # identical section family; the E pass already covers it
            continue
        slot = section_family(G, label).whole_pos
        if slot is None:
            continue
        for functor in ("B", "K", "Kdual"):
            system = coefficient_system(G, label, functor)
            block = np.asarray(system.defres_from_base(slot), dtype=object)
            eye = obj_eye(system.base_rank)
            if not np.array_equal(block, eye):
                case = {"family": label, "functor": functor}
                return _fail_row(claim, desc, case, _ints(block), _ints(eye))
            cases += system.base_rank
            combos.append(f"{label}/{functor}")
    return _census(claim, desc, cases, small, {"combos": combos})


def _appendix_limit_action_rows(desc, G, ana, secs_x3, small,
                                rng) -> list[dict]:
    claim = "limit-image-stays-compatible"
    functors = ("B", "K") if small else ("K",)
    sizes = ana.sizes
    proper = [(t, s) for t, s in secs_x3
              if sizes[t] // sizes[s] < G.order or sizes[s] == 1]
    if small:
        sec_picks = _signature_reps(ana, proper, 4)
    else:
        reps = _signature_reps(ana, proper, 8)
        sec_picks = [reps[i] for i in _sample_indices(rng, len(reps), 3)]
    sec_picks = [ana.section_at(ti, si) for ti, si in sec_picks]

    cases = 0
    for functor in functors:
        sys_p = coefficient_system(G, "X3", functor)
        if sys_p.total == 0:
            continue
        lim_p = inverse_limit(sys_p)
        if lim_p.rank == 0:
            continue
        for sec in sec_picks:
            U = defres_biset(sec)
            sys_q = coefficient_system(sec.group, "X3", functor)
            A = act_on_limit_matrix(U, sys_q, sys_p)
            img = _exact_matmul(A, lim_p.basis)
            case = {"functor": functor, "top_order": len(sec.top),
                    "bottom_order": len(sec.bottom)}
            try:
                residual_check(sys_q, img)
            except ConstraintViolation as err:
                return _fail_row(claim, desc, case, err.edge, err.residual)
            lim_q = inverse_limit(sys_q)
            jbad = _first(~lim_q.lattice.members(img))
            if jbad is not None:
                return _fail_row(claim, desc, case, _ints(img[:, jbad]),
                                 [_ints(col) for col in lim_q.basis.T])
            cases += lim_p.rank
    return _census(claim, desc, cases, small)


def _appendix_identity_action_rows(desc, G, small) -> list[dict]:
    functors = ("B", "K") if small else ("K",)
    cases = 0
    for functor in functors:
        system = coefficient_system(G, "X3", functor)
        if system.total == 0:
            continue
        A = act_on_limit_matrix(identity_biset(G), system, system)
        eye = obj_eye(system.total)
        if not np.array_equal(A, eye):
            i, j = np.argwhere(A != eye)[0].tolist()
            return _fail_row("identity-biset-acts-trivially", desc,
                             {"functor": functor, "cell": [i, j]},
                             [int(A[i, j])], [int(eye[i, j])])
        cases += system.total
    return _census("identity-biset-acts-trivially", desc, cases, small)


def _appendix_composite_action_rows(desc, G, ana, secs_x3, small,
                                    rng) -> list[dict]:
    functors = ("B", "K") if small else ("K",)
    outer_all = [(t, s) for t, s in secs_x3
                 if ana.sizes[t] // ana.sizes[s] < G.order]
    if small:
        outers = _signature_reps(ana, outer_all, 3)
    else:
        reps = _signature_reps(ana, outer_all, 6)
        outers = [reps[i] for i in _sample_indices(rng, len(reps), 2)]
    outers = [ana.section_at(ti, si) for ti, si in outers]

    cases = 0
    pairs = 0
    for functor in functors:
        sys0 = coefficient_system(G, "X3", functor)
        if sys0.total == 0:
            continue
        lim0 = inverse_limit(sys0)
        for sec1 in outers:
            Q1 = sec1.group
            U = defres_biset(sec1)
            sys1 = coefficient_system(Q1, "X3", functor)
            M1 = act_on_limit_matrix(U, sys1, sys0)
            for sec2 in _x3_quotients(Q1, 2):
                V = defres_biset(sec2)
                sys2 = coefficient_system(sec2.group, "X3", functor)
                M2 = act_on_limit_matrix(V, sys2, sys1)
                W = compose(V, U)
                MW = act_on_limit_matrix(W, sys2, sys0)
                got = _exact_matmul(M2, M1)
                if not np.array_equal(got, MW):
                    i, j = np.argwhere(got != MW)[0].tolist()
                    case = {"functor": functor,
                            "outer_quotient": Q1.order,
                            "inner_quotient": sec2.group.order,
                            "cell": [i, j]}
                    return _fail_row("action-matches-composite", desc, case,
                                     [int(got[i, j])], [int(MW[i, j])])
                pairs += 1
                cases += max(lim0.rank, 1)
    return _census("action-matches-composite", desc, cases, small,
                   {"pairs": pairs})


def _appendix_adjunction_rows(desc, G, small, rng) -> list[dict]:
    claim = "adjunction-round-trips"
    combos = [("X3", "B"), ("X3", "Kdual")] if small else [("E", "Kdual")]
    group_cases = 0
    limit_cases = 0
    for label, functor in combos:
        slot = section_family(G, label).whole_pos
        if slot is None:
            continue
        system = coefficient_system(G, label, functor)
        scalars = (1, 2, -1, 3) if small else tuple(
            c for c in rng.integers(-4, 5, 6) if c != 0) or (2,)
        for c in scalars:
            comps = [c * obj_eye(d) for d in system.dims]
            stacked = adjunction_plus(system, system, comps)
            back = adjunction_minus(system, stacked)
            want = c * obj_eye(system.base_rank)
            if not np.array_equal(back, want):
                case = {"family": label, "functor": functor, "scalar": int(c)}
                return _fail_row(claim, desc, case, _ints(back), _ints(want))
            group_cases += 1
        lim = inverse_limit(system)
        if lim.rank == 0:
            continue
        unit = np.asarray(system.unit_matrix(), dtype=object)
        off = system.offsets[slot]
        d0 = system.dims[slot]
        columns = [lim.basis]
        if not small:
            mix = np.array(rng.integers(-3, 4, lim.rank * 40),
                           dtype=object).reshape(lim.rank, 40)
            columns.append(_exact_matmul(lim.basis, mix))
        for mat in columns:
            completed = _exact_matmul(unit, mat[off:off + d0, :])
            if not np.array_equal(completed, mat):
                jbad = _first((completed != mat).any(axis=0)) or 0
                case = {"family": label, "functor": functor, "column": jbad}
                return _fail_row(claim, desc, case, _ints(completed[:, jbad]),
                                 _ints(mat[:, jbad]))
            limit_cases += mat.shape[1]
    if not group_cases + limit_cases:
        return []
    witness = {"kind": "adjunction-census",
               "groupwise_cases": group_cases,
               "limitwise_cases": limit_cases,
               "mode": "exhaustive" if small else "sampled"}
    return [_row("appendix", claim, desc, "verified", witness)]


def _appendix_rows(desc: str, cfg: RunConfig) -> list[dict]:
    G = parse_descriptor(desc, cfg.p)
    ana = analysis(G)
    small = G.order <= 27
    secs_x3 = section_family(G, "X3").sections
    # a few induce-after-inflate bisets with varied shapes
    pool = [indinf_biset(sec) for sec in _x3_quotients(G, 4)]
    rows = []
    rows += _appendix_transporter_rows(
        desc, G, ana, pool, small, _engine_rng(cfg, desc, 1))
    rows += _appendix_section_transport_rows(
        desc, ana, pool, secs_x3, small, _engine_rng(cfg, desc, 2))
    rows += _appendix_composite_transporter_rows(
        desc, pool, small, _engine_rng(cfg, desc, 3))
    rows += _appendix_quotient_collapse_rows(
        desc, G, ana, secs_x3, small, _engine_rng(cfg, desc, 4))
    rows += _appendix_unit_component_rows(desc, G, small)
    rows += _appendix_limit_action_rows(
        desc, G, ana, secs_x3, small, _engine_rng(cfg, desc, 5))
    rows += _appendix_identity_action_rows(desc, G, small)
    rows += _appendix_composite_action_rows(
        desc, G, ana, secs_x3, small, _engine_rng(cfg, desc, 6))
    rows += _appendix_adjunction_rows(
        desc, G, small, _engine_rng(cfg, desc, 7))
    return rows


# ---------------------------------------------------------------------------
# campaign driver


_WORKERS = {
    "induction": _induction_rows,
    "exact": _exact_rows,
    "main": _main_rows,
    "probe": _probe_rows,
    "appendix": _appendix_rows,
}


def _task(args) -> list[dict]:
    campaign, desc, cfg_dict = args
    cfg = RunConfig(**cfg_dict)
    return _WORKERS[campaign](desc, cfg)


def _bounds_rows(campaign: str, cfg: RunConfig) -> list[dict]:
    """Skipped rows for claims whose scoped group lies beyond the bound."""
    rows = []
    if campaign != "induction":
        return rows
    p = cfg.p
    if cfg.max_order < p ** 2:
        witness = {"kind": "bounds",
                   "reason": f"scoped group of order {p ** 2} exceeds "
                             f"max_order {cfg.max_order}"}
        rows.append(_row("induction", "induction-eps-generates-rank-two-kernel",
                         f"elab:{p}:2", "skipped", witness))
    if cfg.max_order < p ** 3:
        witness = {"kind": "bounds",
                   "reason": f"scoped group of order {p ** 3} exceeds "
                             f"max_order {cfg.max_order}"}
        rows.append(_row("induction", "induction-difference-is-scaled-delta",
                         f"xsp:{p}", "skipped", witness))
    return rows


def run_campaign(campaign: str, cfg: RunConfig) -> dict:
    if campaign not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {campaign!r}")
    tasks = [(campaign, desc, cfg._asdict())
             for _, desc in catalog_groups(cfg.p, cfg.max_order)]
    if cfg.jobs > 1 and len(tasks) > 1:
        # imported here: a serial run should not pay for loading it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(_task, tasks))
    else:
        chunks = [_task(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.extend(_bounds_rows(campaign, cfg))
    rows.sort(key=lambda r: (r["claim"], r["group"]))
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "campaign": f"{campaign}-p{cfg.p}-max{cfg.max_order}-seed{cfg.seed}",
        "config": cfg.config_block(),
        "rows": rows,
    }


def emit_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def emit_csv(doc: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["campaign", "claim", "group", "status", "witness",
                     "wall_time"])
    for row in doc["rows"]:
        writer.writerow([
            doc["campaign"],
            row["claim"],
            row["group"],
            row["status"],
            json.dumps(row["witness"], sort_keys=True,
                       separators=(",", ":")),
            "" if row["wall_time"] is None else row["wall_time"],
        ])
    return out.getvalue()


def exit_code(doc: dict) -> int:
    statuses = {row["status"] for row in doc["rows"]}
    if "refuted" in statuses:
        return EXIT_REFUTED
    if "skipped" in statuses:
        return EXIT_SKIPPED
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# witness kinds: the statuses a row of each kind may carry, and whether
# the claim holds by the witness's own fields


def _counts(*keys, least=0):
    return lambda w: all(int(w[k]) >= least for k in keys)


def _inside(w) -> bool:
    vec = [int(v) for v in w["vector"]]
    return IntegerLattice(len(vec), w["basis"]).member(vec)


def _onto(w) -> bool:
    # the pivots of a row HNF in Z^base_rank: onto iff it is the identity;
    # only refuted rows record them
    r = int(w["base_rank"])
    diagonal = [int(d) for d in w.get("hnf_diagonal", [1] * r)]
    if (int(w["generators"]) < 0 or len(diagonal) > r
            or min(diagonal, default=1) < 1):
        raise ValueError("no row HNF in Z^base_rank")
    return diagonal == [1] * r


def _finite(w) -> bool:
    # only rows whose unit misses the limit record unit_in_limit
    return w.get("unit_in_limit", True) and int(w["free_rank"]) == 0


_VERIFIED, _REFUTED, _EITHER = ("verified",), ("refuted",), ("verified", "refuted")

_KINDS = {
    "bounds": (("skipped",), lambda w: bool(w["reason"])),
    "lattice-identity": (_VERIFIED, _counts("rank", "ambient")),
    "scaled-membership": (_VERIFIED, _counts("scale", "checked")),
    "dual-descent": (_VERIFIED, _counts("bisets", "cases")),
    "unit-in-limit": (_VERIFIED, _counts("columns")),
    "generator-span": (_VERIFIED, _counts("rank")),
    "case-census": (_VERIFIED, _counts("cases", least=1)),
    "adjunction-census": (_VERIFIED, lambda w: int(w["groupwise_cases"])
                          + int(w["limitwise_cases"]) >= 1),
    # reading "B" is the one that fails (transfers.retraction_matrix)
    "retraction-scale": (_VERIFIED, lambda w: w["reading"] == "A"
                         and int(w["scale"]) >= 1),
    "membership-failure": (_REFUTED, _inside),
    "constraint-violation": (_REFUTED, lambda w: not any(
        int(v) for v in w["residual"])),
    "case-failure": (_REFUTED, lambda w: w["left"] == w["right"]),
    "vector-identity": (_EITHER, lambda w: list(w["left"]) == list(w["right"])),
    "rank-additivity": (_EITHER, lambda w: int(w["basis_rank"])
                        == int(w["character_rank"]) + int(w["kernel_rank"])),
    "free-quotient": (_EITHER, lambda w: not w["nontrivial_invariants"]
                      and int(w["free_rank"]) == int(w["kernel_rank"])),
    "unit-iso": (_EITHER, lambda w: not w["nontrivial_invariants"]
                 and int(w["kernel_rank"]) == int(w["cokernel_free_rank"]) == 0
                 and int(w["rank"]) == int(w["value_rank"]) == int(w["limit_rank"])),
    "cokernel-bound": (_EITHER, lambda w: _finite(w) and all(
        d > 0 and int(w["order"]) % int(d) == 0 for d in w["invariants"])),
    "cokernel-data": (_EITHER, _finite),
    "implication": (_EITHER, lambda w: not (w["premise_group_iso"]
                                            and w["premise_subquotients_iso"])
                    or w["conclusion_bounded_iso"]),
    "counit-surjectivity": (_EITHER, _onto),
    "counit-kernel": (_EITHER, lambda w: int(w["relation_rank"])
                      + int(w["base_rank"]) == int(w["generators"])),
}


def recheck(row: dict) -> bool:
    """One-pass confirmation that a row's witness supports its status.

    The row's status must be one its witness kind may carry (only
    `bounds` rows are skipped), and the kind's predicate must hold
    exactly when the row is not refuted: a skipped row needs a reason,
    a verified row the arithmetic its witness makes possible, and a
    refuted row must show its failure from recorded data alone.  No
    solving happens here beyond back-substitution against a recorded
    basis.
    """
    try:
        w = row["witness"]
        statuses, holds = _KINDS[w["kind"]]
        status = row["status"]
        return status in statuses and bool(holds(w)) == (status != "refuted")
    except (KeyError, TypeError, ValueError):
        return False
