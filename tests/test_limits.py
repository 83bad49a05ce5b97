import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfk.campaigns import catalog_groups
from bfk.zlinalg import (IntegerLattice, _exact_matmul, _restrict_moves, coords_in_hnf,
                         hnf, hnf_pivots, kernel_basis, obj_matrix, sparse_kernel_basis,
                         unit_elimination)
from bfk.groups import (
    analysis,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    extraspecial_group,
    group_from_spec,
)
from bfk import limits
from bfk.burnside import ring_data
from bfk.limits import (
    FAMILY_LABELS,
    FUNCTOR_NAMES,
    CoefficientSystem,
    ConstraintViolation,
    FamilyError,
    SectionFamily,
    _mark_rows,
    _selection_matrix,
    _sparse_rows,
    coefficient_system,
    comparison_report,
    counit_kernel_report,
    family_contains,
    inverse_limit,
    residual_check,
    section_family,
)
from helpers import (DenseFamily, _direct_limit_basis, _restrict_to_kernels,
                     colimit_relations,
                     conj_edges_by_loops, constraint_violation_by_edges,
                     counit_columns, counit_matrix, counit_report_by_relations,
                     defres_by_double_cosets, maps_by_edges, mark_rows_by_loops,
                     per_column_restrict, relation_rows_by_columns,
                     sections_by_loops, slot_classes_by_union_find, slots_of,
                     spans_everything, spans_everything_dense, sparse_kernel)

C3 = cyclic_group(3)
C9 = cyclic_group(9)
C27 = cyclic_group(27)
V2 = elementary_abelian_group(3, 2)
V3 = elementary_abelian_group(3, 3)
X27 = extraspecial_group(3)
C9x3 = direct_product(C9, C3)
C9x9 = direct_product(C9, C9)


# ---------------------------------------------------------------------------
# families


def _edges(fam, kind: str) -> list:
    """The family's edges of one kind, "cover" or "conj", in order."""
    return [e for e in fam.edges if e[2][0] == kind]


def test_lean_family_matches_the_dense_family():
    # the flat arrays against the former dense family, on every label and
    # every catalog group at p = 3 to order 81 and p = 5 to order 125: the
    # same sections, slot classes, class positions of interval members and
    # kernels, and the same edges in the same order
    for p, max_order in ((3, 81), (5, 125)):
        for _, spec in catalog_groups(p, max_order):
            G = group_from_spec(spec, p)
            for label in FAMILY_LABELS:
                fam, dense = section_family(G, label), DenseFamily(G, label)
                assert fam.sections == dense.sections, (spec, label)
                assert fam.whole_pos == dense.whole_pos, (spec, label)
                for i, slot in enumerate(dense.slots):
                    assert fam.classes(i).tolist() == slot.classes, (spec, label, i)
                    members, pos = fam._interval(i)
                    assert members.tolist() == np.flatnonzero(slot.class_pos >= 0).tolist()
                    assert pos.tolist() == slot.class_pos[members].tolist()
                    assert np.array_equal(fam.class_positions(i), slot.class_pos)
                    assert np.array_equal(fam._locate(i, np.arange(fam.ana.n_sub)),
                                          slot.class_pos)
                for got, (kern, piv) in zip(fam.kernels, dense.kernels()):
                    assert np.array_equal(got.basis, kern), (spec, label)
                    assert got.piv.tolist() == list(piv), (spec, label)
                assert fam.edges == dense.edges(), (spec, label)


def test_section_family_build_stays_small():
    # the E family of elab:3:4 (2,193 sections, 10,640 edges) with its
    # slot kernels and edges stays under a traced 3 MB; the former dense
    # family reached 6.0 MB
    G = group_from_spec("elab:3:4", 3)
    ring_data(G).kernel()            # the analysis and the base kernel first
    tracemalloc.start()
    try:
        fam = SectionFamily(G, "E")
        fam.kernels, fam.edge_arrays
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak
    assert (len(fam.sections), len(fam.edge_arrays[0])) == (2193, 10640)


def test_family_counts_on_x27():
    for label, expect in (("E", 57), ("E2", 57), ("E3", 57), ("X3", 58), ("X", 58)):
        assert len(section_family(X27, label).sections) == expect


def test_family_counts_order_81():
    fam = section_family(C9x9, "X3")
    assert len(fam.sections) == 69
    assert len(_edges(fam, "cover")) == 128
    xfam = section_family(direct_product(X27, C3), "X3")
    assert len(xfam.sections) == 581
    assert len(_edges(xfam, "cover")) == 1848
    assert len(_edges(xfam, "conj")) == 636


def test_systems_share_the_family_edges():
    # each edge is built once, into the family's edge arrays, and every
    # functor's system reads them decoded through the family's tags
    fam = section_family(X27, "X")
    arrays = fam.edge_arrays
    assert all(coefficient_system(X27, "X", f).family.edges == fam.edges
               for f in FUNCTOR_NAMES)
    assert fam.edge_arrays is arrays
    assert [a.dtype for a in arrays] == [np.int32, np.int32, np.int8]
    assert len(fam.edges) == len(arrays[0])
    cover = _edges(fam, "cover")
    assert fam.edges == cover + _edges(fam, "conj")
    assert {tag for _, _, tag in cover} == {("cover", "def"), ("cover", "res")}
    assert fam.cover_edges == cover and fam.conj_edges == _edges(fam, "conj")
    # one tag tuple per kind of move, shared by its edges
    assert (len({id(tag) for _, _, tag in fam.edges})
            == len({tag for _, _, tag in fam.edges}))


def test_sections_and_cover_edges_match_the_pair_loops():
    # the normality-matrix reads against the former per-pair loops, on
    # every catalog group at p = 3 to order 81 and p = 5 to order 125
    for p, max_order in ((3, 81), (5, 125)):
        for _, spec in catalog_groups(p, max_order):
            G = group_from_spec(spec, p)
            for label in FAMILY_LABELS:
                fam = section_family(G, label)
                secs, pos, cover = sections_by_loops(analysis(G), label)
                assert (fam.sections, _edges(fam, "cover")) == (secs, cover), (spec, label)
                assert {ts: fam.index(*ts) for ts in secs} == pos, (spec, label)


def test_conj_edges_match_the_generator_loop():
    # the mask read against the former per-section x generator loop, on
    # every catalog group at p = 3 to order 81 and p = 5 to order 125
    for p, max_order in ((3, 81), (5, 125)):
        for _, spec in catalog_groups(p, max_order):
            G = group_from_spec(spec, p)
            for label in FAMILY_LABELS:
                fam = section_family(G, label)
                assert _edges(fam, "conj") == conj_edges_by_loops(fam), (spec, label)


def test_slot_classes_and_mark_rows_match_the_loops():
    # the reads off the conjugation table against union-find over the
    # generators of T and mark rows by walking T, for every slot
    for p, max_order in ((3, 81), (5, 125)):
        for _, spec in catalog_groups(p, max_order):
            G = group_from_spec(spec, p)
            ana = analysis(G)
            for label in FAMILY_LABELS:
                fam = section_family(G, label)
                for slot, rows in zip(slots_of(fam), _mark_rows(fam)):
                    reps, pos = slot_classes_by_union_find(ana, slot.ti, slot.si)
                    inside = np.flatnonzero(slot.class_pos >= 0).tolist()
                    assert slot.classes == reps, (spec, label)
                    assert {w: slot.class_pos[w] for w in inside} == pos
                    if slot.index(ana) > p:
                        assert np.array_equal(rows, mark_rows_by_loops(ana, slot))
                    else:
                        assert rows is None


@pytest.mark.parametrize("spec,p,label", [
    ("xsp:3", 3, "X"), ("prod:cyclic:9,cyclic:3", 3, "X"),
    ("elab:3:3", 3, "E"), ("xsp:5", 5, "X3")])
def test_defres_counts_match_the_double_coset_loops(spec, p, label):
    system = coefficient_system(group_from_spec(spec, p), label, "B")
    ana, slots = system.ana, slots_of(system.family)
    for src, dst, _ in _edges(system.family, "cover"):
        want = defres_by_double_cosets(ana, slots[src].ti, slots[src].classes,
                                       slots[dst])
        assert np.array_equal(system._b_defres_between(src, dst), want)
    for i, slot in enumerate(slots):
        want = defres_by_double_cosets(ana, ana.n_sub - 1, ana.class_reps, slot)
        assert np.array_equal(system._b_defres_from_base(i), want)


def test_c3_slot_dimensions():
    fam = section_family(C3, "E")
    assert fam.sections == [(0, 0), (1, 0), (1, 1)]
    assert fam.dims.tolist() == [1, 2, 1]


def test_slots_with_equal_mark_rows_share_one_kernel():
    for G in (X27, direct_product(X27, C3)):
        system = coefficient_system(G, "X", "K")
        fam = system.family
        distinct, kernels, empty = set(), set(), {}
        for i, (slot, rows) in enumerate(zip(slots_of(fam), _mark_rows(fam))):
            if slot.index(fam.ana) > 3:
                distinct.add((rows.shape, rows.tobytes()))
                kernels.add(id(system._kernels[i]))
                fresh = kernel_basis(obj_matrix(rows.tolist(), slot.dim))
                assert np.array_equal(system._kernels[i].basis, fresh)
            else:
                # one empty kernel per dimension
                assert system._kernels[i] is empty.setdefault(slot.dim, system._kernels[i])
                assert system._kernels[i].basis.shape == (0, slot.dim)
        # one kernel object per distinct set of mark rows
        assert len(kernels) == len(distinct)


def test_whole_group_slot_takes_the_base_kernel():
    for G in (X27, V2, V3):
        system = coefficient_system(G, "X", "K")
        fam = system.family
        i = fam.index(fam.ana.n_sub - 1, 0)
        # the slot reuses the system's base kernel instead of eliminating
        # again
        assert system._kernels[i] is system.base_kernel
        rows = list(_mark_rows(fam))[i]
        assert np.array_equal(kernel_basis(rows), system.base_kernel.basis)


@pytest.mark.parametrize("p,max_order", [(3, 27), (5, 25)])
def test_both_lattice_routes_give_fixed_points_of_hnf(p, max_order):
    # lattice equality compares arrays, so the kernel route (kernel_basis)
    # must give the array the span route (hnf) gives: every family kernel,
    # the base kernel and every limit lattice of the catalog groups
    for _, spec in catalog_groups(p, max_order):
        G = group_from_spec(spec, p_default=p)
        lats = [ring_data(G).kernel()]
        for label in FAMILY_LABELS:
            lats += section_family(G, label).kernels
            lats += [inverse_limit(coefficient_system(G, label, functor)).lattice
                     for functor in FUNCTOR_NAMES]
        for lat in {id(lat): lat for lat in lats}.values():
            assert np.array_equal(hnf(lat.basis), lat.basis), (spec, lat)


@pytest.mark.parametrize("dst_rows", [[[1, 0, 2], [0, 1, -3]], [[2, 1, 0]]],
                         ids=["unit-pivots", "pivot-2"])
@pytest.mark.parametrize("scale", [1, 2**70], ids=["int64", "exact"])
def test_restrict_to_kernels_matches_per_column_coords(dst_rows, scale):
    H = np.asarray(IntegerLattice(3, dst_rows).basis, dtype=np.int64)
    piv = hnf_pivots(H)
    src = np.array([[1, 0, 1], [0, 1, 2]], dtype=np.int64)
    src_t_inv = obj_matrix([[1, 0, 0], [0, 1, 0]])    # src_t_inv @ src.T == 1
    coords = obj_matrix([[1, -2], [3, 5]][:H.shape[0]]) * scale
    images = np.asarray(H.T, dtype=object) @ coords
    dtype = np.int64 if scale == 1 else object
    M = np.asarray(images @ src_t_inv, dtype=dtype)
    got = _restrict_to_kernels(M, src, H, piv)
    assert np.array_equal(got, coords)
    assert np.array_equal(got, per_column_restrict(M, src, H))
    kernels = [IntegerLattice(3, src), IntegerLattice(3, H)]
    assert np.array_equal(kernels[0].basis, src)
    assert np.array_equal(_restrict_moves([(M, 0, 1)], kernels)[0], coords)
    # an image off the lattice is refused, by the exact product check
    # whether or not a pivot divides it
    for off in ([0, 0, 1], [1, 0, 0]):
        bad = images.copy()
        bad[:, 1] += np.array(off, dtype=object)
        assert coords_in_hnf(H.astype(object), bad)[1].tolist() == [True, False]
        M_bad = np.asarray(bad @ src_t_inv, dtype=dtype)
        with pytest.raises(AssertionError, match="image left the mark kernel"):
            _restrict_to_kernels(M_bad, src, H, piv)
        with pytest.raises(AssertionError, match="image left the mark kernel"):
            per_column_restrict(M_bad, src, H)
        with pytest.raises(AssertionError, match="image left the mark kernel"):
            _restrict_moves([(M_bad, 0, 1)], kernels)


def _batched_cases():
    for _, spec in catalog_groups(3, 27):
        for label in FAMILY_LABELS:
            for functor in ("K", "Kdual"):
                yield spec, label, functor
    for functor in ("K", "Kdual"):
        yield "prod:xsp:3,cyclic:3", "X3", functor
    yield "elab:3:4", "E", "K"


def test_batched_maps_match_the_per_edge_restriction():
    for spec, label, functor in _batched_cases():
        system = coefficient_system(group_from_spec(spec, 3), label, functor)
        want = maps_by_edges(system)
        per_slot = 2 if functor == "K" else 1
        assert len(want) == len(system.family.edges) + per_slot * len(system.dims)
        for key, M in want.items():
            if key[0] == "down":
                got = system.defres_from_base(key[1])
            elif key[0] == "up":
                got = system.indinf_to_base(key[1])
            else:
                got = system.edge_matrix(*key)
            assert got.dtype == np.int64, (spec, label, functor, key)
            assert np.array_equal(got, M), (spec, label, functor, key)
        if functor == "K":
            # the colimit reads its cover maps as the dual cover edges
            # before their transpose, and its conjugation maps as K edges;
            # the relation rows of the reference report show it
            dual = maps_by_edges(coefficient_system(system.group, label, "Kdual"))
            rows = []
            for s, d, tag in system.family.edges:
                if tag[0] == "cover" and system.dims[d]:
                    a, b, M = d, s, dual[(s, d, tag)].T
                elif tag[0] == "conj" and system.dims[s]:
                    a, b, M = s, d, want[(s, d, tag)]
                else:
                    continue
                ao, bo = system.offsets[a], system.offsets[b]
                for j in range(M.shape[1]):
                    row = {ao + j: 1}
                    for i in np.flatnonzero(M[:, j]).tolist():
                        row[bo + i] = row.get(bo + i, 0) - int(M[i, j])
                    rows.append({c: v for c, v in row.items() if v})
            assert colimit_relations(system) == rows, (spec, label)


@pytest.mark.parametrize("spec,label", [
    ("elab:3:3", "E"), ("xsp:3", "X"), ("prod:xsp:3,cyclic:3", "X3")])
def test_relation_rows_match_the_column_loop(spec, label):
    system = coefficient_system(group_from_spec(spec, 3), label, "K")
    got = colimit_relations(system)
    want = relation_rows_by_columns(system)
    # the same rows with their keys in the same order, which sets the
    # Markowitz pivot order of the Smith invariants
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]


def _forced_kernels():
    """Canonical HNF bases: source kernels 0-2 with even entries in column
    0, one past 2**55 and one past the int64 range; target kernels 3 and 4
    with unit pivots (one shape) and 5 with a pivot 2; source kernel 6
    with an odd entry."""
    kernels = [np.array([[2, 1], [0, 3]], dtype=np.int64),
               np.array([[2**56, 3], [0, 5]], dtype=np.int64),
               obj_matrix([[2**70, 1], [0, 3]])]
    kernels += [np.array(IntegerLattice(3, rows).basis, dtype=np.int64)
                for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]],
                             [[2, 0, 0], [0, 1, 0]])]
    kernels.append(np.array([[1, 0, 1], [0, 1, 2]], dtype=np.int64))
    return kernels, [hnf_pivots(k) for k in kernels]


def _lattices(kernels):
    lats = [IntegerLattice(k.shape[1], k) for k in kernels]
    assert all(np.array_equal(lat.basis, k) for lat, k in zip(lats, kernels))
    return lats


def test_batched_restriction_matches_per_move_on_forced_kernels():
    kernels, pivots = _forced_kernels()
    assert pivots[5] == [0, 1] and kernels[5][0, 0] == 2
    # selection moves whose images stay in each target lattice
    into = {3: ([0, 1], [1, 1]), 4: ([0, 2], [2, 2]), 5: ([0, 1], [1, 1])}
    moves = [(np.array(rows), s, d) for s in (0, 1, 2) for d in (3, 4, 5)
             for rows in into[d]]
    # full moves onto chosen coordinates, in int64 and past it
    coords = obj_matrix([[1, -2], [3, 5]])
    H = np.asarray(kernels[3], dtype=object)
    src_t_inv = obj_matrix([[1, 0, 0], [0, 1, 0]])   # src_t_inv @ kernels[6].T == 1
    for scale in (1, 2**70):
        M = H.T @ (coords * scale) @ src_t_inv
        moves.append((np.asarray(M, dtype=np.int64 if scale == 1 else object), 6, 3))
    # all at once, one target kernel at a time, and one move at a time
    batches = [moves] + [[m for m in moves if m[2] == d] for d in (3, 4, 5)]
    batches += [[m] for m in moves]
    for batch in batches:
        for (B, s, d), C in zip(batch, _restrict_moves(batch, _lattices(kernels))):
            full = _selection_matrix(B, 3) if B.ndim == 1 else B
            want = _restrict_to_kernels(full, kernels[s], kernels[d], pivots[d])
            assert C.shape == want.shape and np.array_equal(C, want), (B, s, d)
            assert np.array_equal(C, per_column_restrict(full, kernels[s],
                                                         kernels[d]))
    got = _restrict_moves(moves, _lattices(kernels))
    # entries past the working range come back exact, as Python ints
    assert got[12].dtype == object and got[12][0, 0] == 2**70
    assert got[-1].dtype == object and got[-1].tolist() == (coords * 2**70).tolist()
    # an image off the target lattice is refused by the product check, on a
    # unit-pivot target and where the pivot 2 does not divide
    for bad in ((np.array([2, 0]), 0, 3), (np.array([0, 1, 1]), 6, 5)):
        for batch in ([bad], moves[:6] + [bad]):
            with pytest.raises(AssertionError, match="image left the mark kernel"):
                _restrict_moves(batch, _lattices(kernels))


def test_exact_matmul_takes_int64_only_under_both_bounds():
    A = np.array([[3, -2], [1, 4]], dtype=np.int64)
    B = np.array([[5], [-7]], dtype=object)
    got = _exact_matmul(A, B)
    assert got.dtype == np.int64 and got.tolist() == [[29], [-23]]
    # entries within 2**55 whose products could wrap: amax * bmax * k >= 2**62
    big = np.array([[2**31, 2**31]], dtype=np.int64)
    got = _exact_matmul(big, big.T)
    assert got.dtype == object and got.tolist() == [[2**63]]
    # one entry above 2**55, even with a tiny partner
    wide = np.array([[2**55 + 1]], dtype=np.int64)
    got = _exact_matmul(wide, np.array([[1]], dtype=np.int64))
    assert got.dtype == object and got.tolist() == [[2**55 + 1]]
    got = _exact_matmul(np.array([[-2**63]], dtype=np.int64), np.array([[1]]))
    assert got.dtype == object and got.tolist() == [[-2**63]]
    got = _exact_matmul(np.array([[2**70]], dtype=object), np.array([[2]]))
    assert got.dtype == object and got.tolist() == [[2**71]]
    # empty operands stay int64
    assert _exact_matmul(np.zeros((2, 0), dtype=object),
                         np.zeros((0, 3), dtype=np.int64)).dtype == np.int64


def object_product(A, B):
    return np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)


def test_exact_matmul_matches_object_products_at_the_float_bound():
    # amax * bmax * k == 2**53: the float64 tier, with every sum exact
    A = np.array([[2**26, 2**26], [-2**26, 2**26]], dtype=np.int64)
    B = np.array([[2**26, -2**26, 0], [2**26, 2**26, 1]], dtype=np.int64)
    got = _exact_matmul(A, B)
    assert got.dtype == np.int64 and got.tolist() == object_product(A, B).tolist()
    assert got[0, 0] == 2**53
    # amax * bmax * k == 2**53 + 1, where a float64 sum rounds to 2**53
    third = (2**53 + 1) // 3
    A = np.array([[third] * 3, [-third] * 3], dtype=np.int64)
    ones = np.ones((3, 1), dtype=np.int64)
    assert (A.astype(np.float64) @ ones.astype(np.float64))[0, 0] == 2**53
    got = _exact_matmul(A, ones)
    assert got.dtype == np.int64 and got.tolist() == [[2**53 + 1], [-2**53 - 1]]
    got = _exact_matmul(np.array([[2**53 + 1]]), np.array([[1]]))
    assert got.dtype == np.int64 and got.tolist() == [[2**53 + 1]]
    # negative entries up to the bound: 2**25 * 2**25 * 8 == 2**53
    rng = np.random.default_rng(17)
    A = rng.integers(-2**25, 2**25, size=(6, 8), endpoint=True)
    B = rng.integers(-2**25, 2**25, size=(8, 5), endpoint=True)
    A[0], B[:, 0] = -2**25, -2**25
    got = _exact_matmul(A, B)
    assert got.dtype == np.int64 and got.tolist() == object_product(A, B).tolist()
    assert got[0, 0] == 2**53
    # stacked operands, the leading axis of A broadcast over that of B
    A = rng.integers(-2**20, 2**20, size=(1, 4, 5))
    B = rng.integers(-2**20, 2**20, size=(3, 5, 2))
    got = _exact_matmul(A, B)
    assert got.shape == (3, 4, 2) and got.dtype == np.int64
    for k in range(3):
        assert got[k].tolist() == object_product(A[0], B[k]).tolist()
    # an all-zero operand beside entries above 2**53, in int64 and past it
    zero = np.zeros((2, 3), dtype=np.int64)
    for big, dtype in ((2**54 + 1, np.int64), (2**70 + 1, object)):
        B = np.full((3, 2), big, dtype=object)
        B[1, 1] = -big
        got = _exact_matmul(zero, B)
        assert got.dtype == dtype and not got.any() and got.shape == (2, 2)


def test_extraspecial_section_only_in_x_families():
    ana = analysis(X27)
    top = ana.n_sub - 1
    assert not family_contains(ana, top, 0, "E")
    assert not family_contains(ana, top, 0, "E3")
    assert family_contains(ana, top, 0, "X3")
    assert family_contains(ana, top, 0, "X")
    assert family_contains(ana, top, 0, "X2")


def test_family_label_rejected():
    with pytest.raises(FamilyError):
        section_family(C3, "Q")


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_families_closed_under_subquotients(seed):
    """Any nested pair inside a family section stays in the family."""
    rng = np.random.default_rng(seed)
    G = [V2, X27, C9x3][seed % 3]
    for label in ("E", "X3", "X"):
        fam = section_family(G, label)
        ana = fam.ana
        i = int(rng.integers(len(fam.sections)))
        ti, si = fam.sections[i]
        mids = [w for w in range(ana.n_sub)
                if ana.leq[si, w] and ana.leq[w, ti] and ana.is_normal_in(w, ti)]
        w = mids[int(rng.integers(len(mids)))]
        assert family_contains(ana, ti, w, label)
        if ana.is_normal_in(si, w):
            assert family_contains(ana, w, si, label)


# ---------------------------------------------------------------------------
# limits of the built-in functors


def test_c3_unit_is_isomorphism_for_b():
    sys_b = coefficient_system(C3, "E", "B")
    rep = comparison_report(inverse_limit(sys_b))
    assert rep["is_isomorphism"]
    assert rep["limit_rank"] == 2


def test_dual_kernel_limit_on_rank_two():
    sys_k = coefficient_system(V2, "E", "Kdual")
    lim = inverse_limit(sys_k)
    assert lim.rank == 1
    rep = comparison_report(lim)
    assert rep["is_isomorphism"]
    assert rep["unit_invariants"] == [1]


def test_dual_kernel_values_vanish_on_cyclic():
    sys_k = coefficient_system(C9, "E", "Kdual")
    assert sys_k.dims == [0] * len(sys_k.dims)


def test_x27_flagship_families():
    for label in ("X3", "X"):
        sys_k = coefficient_system(X27, label, "Kdual")
        lim = inverse_limit(sys_k)
        rep = comparison_report(lim)
        assert rep["is_isomorphism"], rep
        assert lim.rank == 5


def test_x27_dual_kernel_over_e_has_small_torsion():
    sys_k = coefficient_system(X27, "E", "Kdual")
    rep = comparison_report(inverse_limit(sys_k))
    assert not rep["is_isomorphism"]
    assert rep["unit_in_limit"]
    assert rep["cokernel_torsion"] == [3, 3, 3]
    assert rep["cokernel_free_rank"] == 0
    assert rep["kernel_rank"] == 0


def canonical_columns(basis):
    return IntegerLattice(basis.shape[0], basis.T).basis


def test_sparse_solver_and_direct_bases_identical():
    # the test-only direct sparse kernel is the reference for
    # sparse_kernel_basis, the one solver inverse_limit uses
    for G, label, functor in ((X27, "X3", "B"), (C9x3, "E", "K"), (V3, "X", "Kdual")):
        sys_f = coefficient_system(G, label, functor)
        want = canonical_columns(_direct_limit_basis(sys_f))
        assert np.array_equal(inverse_limit(sys_f).basis.T, want)


def reference_kernel(ncols, rows):
    """Canonical row basis of the kernel of rows by the xgcd fold."""
    return IntegerLattice(ncols, [[s.get(c, 0) for c in range(ncols)]
                                  for s in sparse_kernel(ncols, rows)]).basis


def test_sparse_solver_takes_python_ints_partway():
    # v[dst] = D v[src] on sections of dims 3, 3, 3, 2, 1.  The second
    # constraint has entries near 2**55, so back-substituting through it
    # and the first gives entries past the int64 range.
    N = 1 << 55
    dims = [3, 3, 3, 2, 1]
    offs = np.cumsum([0] + dims).tolist()
    cons = [
        (0, 1, [[1, 2, 0], [0, 1, 3], [1025, 0, 1]]),
        (1, 2, [[N - 3, 1, 0], [2, N - 5, 1], [0, 3, 7 - N]]),
        (3, 2, [[1, 0], [0, 2], [5, 1]]),
        (3, 4, [[1, 1]]),
        (0, 4, [[1, -1, 1]]),
    ]
    rows = []
    for src, dst, D in cons:
        for r, line in enumerate(D):
            row = {offs[src] + c: x for c, x in enumerate(line) if x}
            row[offs[dst] + r] = -1
            rows.append(row)
    got = canonical_columns(sparse_kernel_basis(rows, offs[-1]))
    assert got.shape == (1, offs[-1])
    assert max(abs(x) for x in got.flat) > 1 << 63
    assert np.array_equal(got, reference_kernel(offs[-1], rows))


def test_sparse_solver_with_dense_core_and_free_unknown():
    # one unit pivot eliminates x0; the three rows left carry no unit, so
    # kernel_basis solves them over x1..x4; x5 appears in no row
    rows = [{0: 1, 1: 3, 2: -2}, {1: 2, 3: 2}, {2: 2, 3: 4, 4: 6},
            {2: 6, 3: 12, 4: 18}]
    steps, core = unit_elimination(rows)
    assert [c for c, _ in steps] == [0] and len(core) == 3
    X = sparse_kernel_basis(rows, 6)
    assert X.shape == (6, 3)
    assert not (obj_matrix([[r.get(c, 0) for c in range(6)] for r in rows], 6) @ X).any()
    want = reference_kernel(6, rows)
    assert want[-1].tolist() == [0, 0, 0, 0, 0, 1]
    assert np.array_equal(canonical_columns(X), want)


PINNED_BASES = Path(__file__).parent / "data" / "limit_basis_sha256.json"


def basis_digest(basis) -> str:
    """SHA-256 of a limit basis: its shape, then its entries column by column."""
    rows, cols = basis.shape
    text = f"{rows} {cols}\n" + " ".join(str(int(x)) for x in basis.T.ravel())
    return hashlib.sha256(text.encode()).hexdigest()


def test_limit_bases_match_pinned_digests():
    # keys are "p descriptor label functor"; the digests were recorded from
    # earlier solvers: the catalog ones to order 27 and 125 from the
    # two-solver code, prod:xsp:3,cyclic:3 X3 and elab:3:4 E3 K / Kdual
    # from the component-merging solver, and the other order-81 systems
    # from the sparse solver that rescanned every changed row.  Every
    # order-81 system is pinned except those of elab:3:4 with functor B
    # or Bdual, which take minutes, and its X families, which equal the E
    # ones for an abelian group.
    pinned = json.loads(PINNED_BASES.read_text(encoding="utf-8"))
    want_keys = {f"{p} {spec} {label} {functor}"
                 for p, max_order in ((3, 81), (5, 125))
                 for _, spec in catalog_groups(p, max_order)
                 if spec != "elab:3:4"
                 for label in FAMILY_LABELS for functor in FUNCTOR_NAMES}
    want_keys |= {f"3 elab:3:4 {label} {functor}" for label in ("E", "E2", "E3")
                  for functor in ("K", "Kdual")}
    assert set(pinned) == want_keys
    for key, digest in sorted(pinned.items()):
        p, spec, label, functor = key.split()
        system = coefficient_system(group_from_spec(spec, int(p)), label, functor)
        assert basis_digest(inverse_limit(system).basis) == digest, key


def test_limit_ranks_frozen_at_81():
    sys_b = coefficient_system(C9x9, "X3", "B")
    assert sys_b.total == 139
    assert inverse_limit(sys_b).rank == 23
    sys_x = coefficient_system(direct_product(X27, C3), "X3", "B")
    assert sys_x.total == 1788
    assert inverse_limit(sys_x).rank == 56


def test_largest_b_system_rank():
    sys_b = coefficient_system(elementary_abelian_group(3, 4), "X3", "B")
    assert sys_b.total == 9372
    assert inverse_limit(sys_b).rank == 212


def test_limit_element_and_unit():
    sys_k = coefficient_system(X27, "X3", "Kdual")
    lim = inverse_limit(sys_k)
    f = np.zeros((sys_k.base_rank, 1), dtype=object)
    f[0, 0] = 2
    el = np.asarray(sys_k.unit_matrix(), dtype=object) @ f
    residual_check(sys_k, el)
    coords, ok = lim.lattice.coords(el)
    assert ok.tolist() == [True]
    assert np.array_equal(lim.basis @ coords, el)
    off = np.hstack([el, el])
    off[lim.lattice.piv[0], 0] += 1
    assert lim.lattice.members(off).tolist() == [False, True]


def test_residual_check_rejects_garbage():
    sys_b = coefficient_system(V2, "E", "B")
    bad = np.zeros((sys_b.total, 1), dtype=object)
    bad[sys_b.offsets[1], 0] = 1
    with pytest.raises(AssertionError):
        residual_check(sys_b, bad)


def test_residual_check_names_the_first_of_two_broken_edges():
    # the later broken edge sits in the shape group checked first, so the
    # error must not follow batch order; each must match the edge walk
    lim = inverse_limit(coefficient_system(X27, "X3", "B"))
    system = CoefficientSystem(section_family(X27, "X3"), "B")
    edges = system.family.edges
    shapes = [system.edge_matrix(*e).shape for e in edges]
    # D[0, 0] + 1 breaks an edge whose source row 0 is nonzero on the limit
    live = [e for e, (s, _, _) in enumerate(edges) if min(shapes[e])
            and lim.basis[system.offsets[s]].any()]
    first = next(e for e in live if shapes[e] != shapes[0])
    later = next(e for e in live if e > first and shapes[e] == shapes[0])
    for e in (later, first):
        D = system.edge_matrix(*edges[e]).copy()
        D[0, 0] += 1
        system._map_cache[edges[e]] = D
    for broken in (first, later):
        want = constraint_violation_by_edges(system, lim.basis)
        src, dst, tag = edges[broken]
        assert want["edge"] == [src, dst, str(tag)]
        with pytest.raises(ConstraintViolation, match=f"constraint {src}->{dst} ") as exc:
            residual_check(system, lim.basis)
        assert (exc.value.edge, exc.value.residual) == (want["edge"], want["residual"])
        system._map_cache[edges[first]] = lim.system.edge_matrix(*edges[first])


def nested_pair_check(system, mat):
    """Re-verify limit columns against every nested pair of sections, not
    only the generating moves, with the double-coset formula for B and
    its restriction to the kernels for K."""
    fam, ana = system.family, system.ana
    for i, (ti, si) in enumerate(fam.sections):
        for j, (tj, sj) in enumerate(fam.sections):
            if (i == j or system.dims[j] == 0
                    or not (ana.leq[tj, ti] and ana.leq[si, sj] and ana.leq[sj, tj])):
                continue
            D = system._b_defres_between(i, j)
            if system.functor == "K":
                D = _restrict_to_kernels(D, system._kernels[i].basis,
                                         system._kernels[j].basis, system._kernels[j].piv)
            a = mat[system.offsets[i]:system.offsets[i] + system.dims[i], :]
            b = mat[system.offsets[j]:system.offsets[j] + system.dims[j], :]
            assert not np.any(np.asarray(D, dtype=object) @ a - b), (i, j)


def test_nested_pairs_beyond_generating_moves():
    for functor in ("B", "K"):
        sys_f = coefficient_system(X27, "X", functor)
        lim = inverse_limit(sys_f)
        nested_pair_check(sys_f, lim.basis)


def test_projection_restricts_limits():
    # the X limit read on the sections of E satisfies E's constraints
    big = coefficient_system(X27, "X", "Kdual")
    small = coefficient_system(X27, "E", "Kdual")
    lim = inverse_limit(big)
    rows = []
    for ts in small.family.sections:
        i = big.family.index(*ts)
        rows.extend(range(big.offsets[i], big.offsets[i] + big.dims[i]))
    residual_check(small, lim.basis[rows, :])


# ---------------------------------------------------------------------------
# colimit probe


def test_counit_probe_rank_two():
    rep = counit_kernel_report(coefficient_system(V2, "E", "K"))
    assert rep["counit_surjective"]
    assert rep["kernel_finite"]
    assert rep["kernel_invariants"] == []


def test_counit_probe_x27_family_widens_image():
    over_e = counit_kernel_report(coefficient_system(X27, "E", "K"))
    assert not over_e["counit_surjective"]
    over_x = counit_kernel_report(coefficient_system(X27, "X", "K"))
    assert over_x["counit_surjective"]
    assert over_x["kernel_finite"]
    assert over_x["kernel_trivial"]
    assert over_x["relation_rank"] == 5


def test_counit_surjectivity_in_base_kernel_coordinates():
    # columns spanning a proper finite-index sublattice, a rank-deficient
    # set, and sets that span everything, including Z^0; the sparse test
    # and the dense HNF reference agree on each
    cases = [(np.array([[2, 0], [0, 1]]), False), (np.array([[3, 6], [1, 2]]), False),
             (np.array([[2, 3]]), True), (np.array([[2, 0, 1], [0, 1, 5]]), True),
             (np.zeros((0, 4)), True), (np.zeros((2, 0)), False)]
    for U, onto in cases:
        U = U.astype(np.int64)
        assert spans_everything(_sparse_rows(U.T), U.shape[0]) is onto
        assert spans_everything_dense(U) is onto
    # same answer as comparing the image lattice in the ambient basis,
    # on a counit that is onto and one that is not
    for label, onto in (("E", False), ("X", True)):
        system = coefficient_system(X27, label, "K")
        U = counit_matrix(system)
        base = system.base_kernel
        image = IntegerLattice(base.ambient, np.asarray(U.T, dtype=object) @ base.basis)
        assert (image == base) is onto
        assert counit_kernel_report(system)["counit_surjective"] is onto


def test_counit_columns_match_the_dense_counit():
    # every K system up to order 81 at p = 3: the columns the reference
    # report reads block by block are those of the dense counit, and the
    # probe's surjectivity verdict is the dense reference's
    for _, desc in catalog_groups(3, 81):
        G = group_from_spec(desc, 3)
        for label in FAMILY_LABELS:
            system = coefficient_system(G, label, "K")
            U = counit_matrix(system)
            cols = counit_columns(system)
            assert [list(c.items()) for c in cols] == \
                [list(c.items()) for c in _sparse_rows(U.T)], (desc, label)
            assert (counit_kernel_report(system)["counit_surjective"]
                    is spans_everything_dense(U)), (desc, label)


def _first_edge_at_flipped_class(system, ids, moves, i) -> tuple:
    """The first edge whose move the cocone check must reject when the up
    selection of section i sends its first class elsewhere: one with
    source or target i whose first-class row of H_b.T @ M (target i) less
    H_a.T (source i) is nonzero."""
    H = system._kernels[i].working_basis.T
    edges = system.family.edges
    for e, ((_, a, b), M) in enumerate(zip(moves, system._restricted(moves))):
        v = np.zeros(M.shape[1], dtype=np.int64)
        if b == i:
            v += (H @ M)[0]
        if a == i:
            v -= H[0]
        if v.any():
            return edges[ids[e]]
    raise AssertionError("no move reads the first class of section i")


def test_counit_probe_rejects_maps_that_disagree_or_miss_a_relation(monkeypatch):
    system = coefficient_system(X27, "X", "K")
    counit_kernel_report(system)
    ids, moves = limits._upward_moves(system)
    # the check reads the up selection of every class entry, and only the
    # roots have their up maps restricted, so a fault in the up map of a
    # section off the roots goes in there: its first class is sent to
    # another class of P
    fam = system.family
    cover = fam.edge_arrays[2][ids] < 2
    tree = {a for (_, a, _), c in zip(moves, cover) if c}
    i = next(i for i, d in enumerate(system.dims) if d and i in tree)
    flipped = limits._up_rows(fam).copy()
    k = fam._class_off[i]
    flipped[k] = (flipped[k] + 1) % system.base_kernel.ambient
    src, dst, tag = _first_edge_at_flipped_class(system, ids, moves, i)
    with monkeypatch.context() as m:
        m.setattr(limits, "_up_rows", lambda _: flipped)
        with pytest.raises(AssertionError,
                           match=re.escape(f"disagree along {src}->{dst} {tag}")):
            counit_kernel_report(system)
    # one flipped entry of a conjugation or a cover map gives a relation
    # the counit misses; those maps are built afresh, one batch at a time,
    # so the flip goes in through the restriction of that edge's move
    edges = system.family.edges
    edges = [edges[e] for e in ids]
    ups = system._maps([("up", i) for i in range(len(system.dims))])
    restricted = system._restricted
    for kind, pick in (("conj", min), ("cover", max)):
        e = pick(e for e, (_, _, tag) in enumerate(edges)
                 if tag[0] == kind and ups[moves[e][2]].any())
        row = np.flatnonzero(ups[moves[e][2]].any(axis=0))[0]

        def flip(batch, e=e, row=row):
            out = restricted(batch)
            for k, move in enumerate(batch):
                if move is moves[e]:
                    out[k] = out[k].copy()
                    out[k][row, 0] += 1
            return out

        src, dst, tag = edges[e]
        with monkeypatch.context() as m:
            m.setattr(limits, "_upward_moves", lambda _: (ids, moves))
            m.setattr(system, "_restricted", flip)
            with pytest.raises(AssertionError,
                               match=re.escape(f"disagree along {src}->{dst} {tag}")):
                counit_kernel_report(system)
    counit_kernel_report(system)


def _outcome(check) -> str | None:
    """The message of the AssertionError check() raises, None if none."""
    try:
        check()
    except AssertionError as err:
        return str(err)
    return None


def test_cocone_check_agrees_with_the_kernel_coordinate_check(monkeypatch):
    # every K system of every family at p = 3 up to order 81 and p = 5 up
    # to order 125: the check in P's transitive basis and the former check
    # in base kernel coordinates both pass, and in each of three trials,
    # with one seeded entry flipped in one seeded restricted move of each
    # shape, both fail at the same first edge (or both pass, where every
    # flip lies in the kernel of U_b)
    rng = np.random.default_rng(0)
    caught = 0
    for p, bound in ((3, 81), (5, 125)):
        for _, desc in catalog_groups(p, bound):
            G = group_from_spec(desc, p)
            for label in FAMILY_LABELS:
                system = coefficient_system(G, label, "K")
                ids, moves = limits._upward_moves(system)
                assert limits._check_cocone(system, ids, moves, False) == {}
                colimit_relations(system, (ids, moves))
                dims, restricted = system.dims, system._restricted
                shapes = {}
                for e, (_, a, b) in enumerate(moves):
                    if dims[b]:
                        shapes.setdefault((dims[b], dims[a]), []).append(e)
                for _ in range(3 if shapes else 0):
                    faults = {}
                    for (kb, ka), members in shapes.items():
                        faults[id(moves[rng.choice(members)])] = (rng.integers(kb),
                                                                  rng.integers(ka))

                    def flip(batch):
                        out = restricted(batch)
                        for k, move in enumerate(batch):
                            if id(move) in faults:
                                out[k] = out[k].copy()
                                out[k][faults[id(move)]] += 1
                        return out

                    with monkeypatch.context() as m:
                        m.setattr(system, "_restricted", flip)
                        new = _outcome(lambda: limits._check_cocone(system, ids, moves, False))
                        old = _outcome(lambda: colimit_relations(system, (ids, moves)))
                    assert new == old, (desc, label)
                    caught += new is not None
    assert caught >= 100, caught


def test_counit_report_matches_the_relation_rows(monkeypatch):
    # every K system at p = 3 up to order 81 and p = 5 up to order 125:
    # the forest elimination gives the rank, invariants and surjectivity
    # of the Smith form of every relation row and counit column, and it
    # forms residual rows only where the root up maps lose rank
    residual, formed = limits._residual_rows, []
    monkeypatch.setattr(limits, "_residual_rows",
                        lambda *a: formed.append(a[0]) or residual(*a))
    took = set()
    for p, bound in ((3, 81), (5, 125)):
        for _, desc in catalog_groups(p, bound):
            G = group_from_spec(desc, p)
            for label in FAMILY_LABELS:
                system = coefficient_system(G, label, "K")
                got = counit_kernel_report(system)
                assert got == counit_report_by_relations(system), (desc, label)
                if formed and formed[-1] is system:
                    took.add((desc, label))
    assert {("prod:xsp:3,cyclic:3", "X"),
            ("prod:cyclic:9,cyclic:3,cyclic:3", "E")} <= took
    assert ("elab:3:4", "E") not in took


def test_counit_probe_caches_no_up_map_and_stays_small():
    # the largest probe system: no up map enters the map cache, and the
    # traced peak of the report stays under 3 MB (7.5 MB with the relation
    # rows and cached up maps; forming its zero residuals takes it past 3)
    fam = section_family(group_from_spec("elab:3:4", 3), "E")
    fam.kernels, fam.edges
    system = CoefficientSystem(fam, "K")
    tracemalloc.start()
    try:
        rep = counit_kernel_report(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not [k for k in system._map_cache if k[0] == "up"]
    assert peak < 3_000_000, peak
    assert (rep["relation_rank"], rep["counit_surjective"], rep["kernel_trivial"]) \
        == (1900, True, True)


def test_counit_probe_needs_functor_k():
    with pytest.raises(FamilyError):
        counit_kernel_report(coefficient_system(V2, "E", "B"))
