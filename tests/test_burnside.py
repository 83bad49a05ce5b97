import numpy as np
import pytest

from bfk.bisets import ConcreteBiset, compose, defres_biset, indinf_biset
from bfk.burnside import (
    act_on_basis_element,
    biset_matrix,
    character_dual_sublattice,
    decompose_left_action,
    dual_action_matrix,
    dual_exactness_report,
    extraspecial_kernel_element,
    linearization_kernel,
    rank_two_kernel_element,
    ring_data,
    sum_of_induced_kernels,
)
from bfk.campaigns import catalog_groups
from bfk.groups import (
    _coset_ids,
    analysis,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    extraspecial_group,
    group_from_spec,
    product_members,
    trivial_group,
)
from bfk.limits import coefficient_system
from bfk.zlinalg import _restrict_moves, hnf, kernel_plan, obj_zeros
from helpers import (_restrict_to_kernels, all_sections, indinf_class_matrix, mark_count,
                     normalizer, per_column_restrict, preimage, section_transport,
                     slots_of)

X27 = extraspecial_group(3)
C9x3 = direct_product(cyclic_group(9), cyclic_group(3))
E2 = elementary_abelian_group(3, 2)


def table_of_marks(G):
    """Marks of every class representative on every one at least as large;
    the upper triangle of the table, read through mark_count."""
    rd = ring_data(G)
    n = rd.n_classes
    M = obj_zeros(n, n)
    for i, sm in enumerate(rd.reps_members):
        for j, tm in enumerate(rd.reps_members):
            if rd.orders[i] <= rd.orders[j]:
                M[i, j] = mark_count(rd.ana, sm, tm)
    return M


def point_biset(anaP, t_members):
    """Cosets of a subgroup as a biset with trivial right side; composing
    any biset with it gives a concrete one-sided oracle for the action."""
    P = anaP.group
    ids, reps = _coset_ids(P, tuple(t_members), "left")
    left = ids[P.table[:, np.asarray(reps, dtype=np.int32)]]
    right = np.arange(len(reps), dtype=np.int32)[:, None]
    return ConcreteBiset(P, trivial_group(P.prime), left, right)


def iso_class_matrix(f, src, dst):
    """Permutation of orbit bases induced by a group isomorphism."""
    ds, dd = ring_data(src), ring_data(dst)
    out = obj_zeros(dd.n_classes, ds.n_classes)
    for j, mem in enumerate(ds.reps_members):
        out[dd.class_position(sorted(int(f[m]) for m in mem)), j] = 1
    return out


def character_rank_full(G):
    rd = ring_data(G)
    return hnf(rd.linearization()).shape[0] == len(rd.cyclic_positions)


def test_marks_of_rank_two_by_hand():
    M = table_of_marks(E2)
    want = [
        [9, 3, 3, 3, 3, 1],
        [0, 3, 0, 0, 0, 1],
        [0, 0, 3, 0, 0, 1],
        [0, 0, 0, 3, 0, 1],
        [0, 0, 0, 0, 3, 1],
        [0, 0, 0, 0, 0, 1],
    ]
    assert M.tolist() == want


def test_marks_shape_and_triangularity():
    for G in (X27, C9x3, cyclic_group(27)):
        rd = ring_data(G)
        M = table_of_marks(G)
        for i in range(rd.n_classes):
            assert M[i, i] > 0
            for j in range(rd.n_classes):
                if rd.orders[i] > rd.orders[j]:
                    assert M[i, j] == 0
        # the point row counts cosets
        for j, order in enumerate(rd.orders):
            assert M[0, j] == G.order // order


def test_marks_spot_values_on_extraspecial():
    rd = ring_data(X27)
    ana = rd.ana
    zmem = analysis(X27).center_members
    z_pos = rd.class_position(zmem)
    nc = [j for j, m in enumerate(rd.reps_members)
          if len(m) == 3 and m != zmem]
    i_pos = nc[0]
    iz = product_members(X27, rd.reps_members[i_pos], zmem)
    iz_pos = rd.class_position(iz)
    other_max = next(j for j, m in enumerate(rd.reps_members)
                     if len(m) == 9 and j != iz_pos)
    M = table_of_marks(X27)
    assert M[z_pos, iz_pos] == 3
    assert M[i_pos, z_pos] == 0
    assert M[i_pos, iz_pos] == 3
    assert M[i_pos, other_max] == 0
    assert mark_count(ana, zmem, zmem) == 9


@pytest.mark.parametrize("p,max_order", [(3, 81), (5, 125)])
def test_linearization_matches_mark_counts(p, max_order):
    for _, desc in catalog_groups(p, max_order):
        rd = ring_data(group_from_spec(desc, p))
        want = [[mark_count(rd.ana, rd.reps_members[ci], tm)
                 for tm in rd.reps_members] for ci in rd.cyclic_positions]
        L = rd.linearization()
        assert L.dtype == object and L.tolist() == want, desc


def test_rank_bookkeeping():
    cases = [
        (E2, 6, 5, 1),
        (X27, 11, 6, 5),
        (C9x3, 10, 8, 2),
        (elementary_abelian_group(3, 3), 28, 14, 14),
    ]
    for G, n, r, k in cases:
        rd = ring_data(G)
        assert rd.n_classes == n
        assert len(rd.cyclic_positions) == r
        assert character_rank_full(G)
        assert rd.kernel().rank == k
        for b in rd.kernel().basis:
            assert not np.any(rd.linearization() @ b)


def test_rank_bookkeeping_at_81():
    G = elementary_abelian_group(3, 4)
    rd = ring_data(G)
    assert rd.n_classes == 212
    assert len(rd.cyclic_positions) == 41
    assert rd.kernel().rank == 171
    assert character_rank_full(G)


def test_rank_two_kernel_element_frozen():
    eps = rank_two_kernel_element(E2)
    assert tuple(int(x) for x in eps) == (1, -1, -1, -1, -1, 3)
    assert not np.any(ring_data(E2).linearization() @ eps)
    K = linearization_kernel(E2)
    assert K.rank == 1
    assert np.array_equal(K.basis[0], eps)
    with pytest.raises(ValueError):
        rank_two_kernel_element(cyclic_group(9))


def test_extraspecial_kernel_element():
    delta = extraspecial_kernel_element(X27)
    assert sorted(int(x) for x in delta) == [-1, -1, 0, 0, 0, 0, 0, 0, 0, 1, 1]
    assert not np.any(ring_data(X27).linearization() @ delta)
    with pytest.raises(ValueError):
        extraspecial_kernel_element(X27, 1, 1)
    with pytest.raises(ValueError):
        extraspecial_kernel_element(E2)


def test_induced_rank_two_element_frozen():
    rd = ring_data(X27)
    ana = rd.ana
    zmem = analysis(X27).center_members
    nc = [j for j, m in enumerate(rd.reps_members)
          if len(m) == 3 and m != zmem]
    want = [0] * rd.n_classes
    out = {}
    for which, pos in enumerate(nc[:2]):
        mem = rd.reps_members[pos]
        mz = product_members(X27, mem, zmem)
        sec = ana.section_at(ana.index_of(mz), 0)
        eps = rank_two_kernel_element(sec.group)
        out[which] = indinf_class_matrix(ana, sec) @ eps
    got = out[0]
    want[rd.class_position((0,))] = 1
    want[rd.class_position(zmem)] = -1
    want[nc[0]] = -3
    i_mz = rd.class_position(product_members(X27, rd.reps_members[nc[0]], zmem))
    want[i_mz] = 3
    assert [int(x) for x in got] == want
    # the difference of the two induced elements is p times the two-class
    # kernel element
    delta = extraspecial_kernel_element(X27, 0, 1)
    diff = out[1] - out[0]
    assert np.array_equal(diff, 3 * delta)


def test_fast_paths_match_generic_action():
    for G in (X27, C9x3):
        ana = analysis(G)
        for sec in all_sections(ana):
            assert np.array_equal(indinf_class_matrix(ana, sec),
                                  biset_matrix(indinf_biset(sec)))
        # the section families write defres in slot coordinates: one class
        # of intermediate subgroups S <= W <= T per class of W/S in T/S
        system = coefficient_system(G, "X", "B")
        for i, slot in enumerate(slots_of(system.family)):
            sec = ana.section_at(slot.ti, slot.si)
            order = [slot.class_pos[ana.index_of(preimage(sec, m))]
                     for m in ring_data(sec.group).reps_members]
            assert np.array_equal(system._b_defres_from_base(i)[order],
                                  biset_matrix(defres_biset(sec)))


def test_generic_action_against_point_biset_oracle():
    ana = analysis(X27)
    dq = ring_data(X27)
    sec = ana.section_at(ana.n_sub - 1, ana.index_of(ana.center_members))
    U = indinf_biset(sec)
    dqq = ring_data(U.left_group)
    dp = ring_data(U.right_group)
    M = biset_matrix(U)
    pa = analysis(U.right_group)
    for j, tm in enumerate(dp.reps_members):
        comp = compose(U, point_biset(pa, tm))
        col = decompose_left_action(comp.left, dqq)
        assert [int(x) for x in M[:, j]] == col


def test_biset_matrix_is_functorial():
    ana = analysis(X27)
    sec = ana.section_at(ana.n_sub - 1, ana.index_of(ana.center_members))
    U = indinf_biset(sec)
    V = defres_biset(sec)
    MV, MU = biset_matrix(V), biset_matrix(U)
    assert np.array_equal(biset_matrix(compose(V, U)), MV @ MU)


def test_iso_class_matrix_permutes():
    ana = analysis(X27)
    L = next(m for m in ana.subgroup_members
             if len(m) == 3 and m != analysis(X27).center_members)
    N = normalizer(ana, L)
    sec = ana.section_at(ana.index_of(N), ana.index_of(L))
    u = next(x for x in range(27) if x not in N)
    tgt, cu = section_transport(ana, sec, u)
    f = np.array([int(cu.right[0, a]) for a in range(sec.group.order)])
    M = iso_class_matrix(f, sec.group, tgt.group)
    nn = ring_data(sec.group).n_classes
    assert M.shape == (ring_data(tgt.group).n_classes, nn)
    assert sorted(int(x) for x in M.sum(axis=0)) == [1] * nn
    assert np.array_equal(M, biset_matrix(cu))


def test_kernel_is_preserved_by_section_maps():
    ana = analysis(X27)
    K = linearization_kernel(X27)
    for sec in all_sections(ana):
        kq = linearization_kernel(sec.group)
        down = biset_matrix(defres_biset(sec))
        up = indinf_class_matrix(ana, sec)
        # each raises if an image leaves the target kernel
        for M, src, dst in ((down, K, kq), (up, kq, K)):
            got = _restrict_moves([(M, 0, 1)], [kernel_plan(src.basis, src._piv),
                                                kernel_plan(dst.basis, dst._piv)])[0]
            assert np.array_equal(
                got, per_column_restrict(M, src.basis, dst.basis))
            assert np.array_equal(
                got, _restrict_to_kernels(M, src.basis, dst.basis, dst._piv))


def test_dual_action_of_cosets_transposes_to_the_opposite_map():
    ana = analysis(X27)
    sec = ana.section_at(ana.n_sub - 1, ana.index_of(ana.center_members))
    U = indinf_biset(sec)
    assert np.array_equal(dual_action_matrix(U),
                          biset_matrix(defres_biset(sec)).T)


def test_kernel_dual_action_commutes_with_projection():
    ana = analysis(X27)
    sec = ana.section_at(ana.n_sub - 1, ana.index_of(ana.center_members))
    for U in (indinf_biset(sec), defres_biset(sec)):
        Mstar = dual_action_matrix(U)
        kq = ring_data(U.left_group).kernel()
        kp = ring_data(U.right_group).kernel()
        # the dual action sends kernel functionals to kernel functionals
        for row in kq.basis @ Mstar:
            assert kp.member(row)


def test_dual_exactness_reports():
    for G in (cyclic_group(3), cyclic_group(27), E2, X27, C9x3,
              elementary_abelian_group(3, 3)):
        rep = dual_exactness_report(G)
        assert rep["rank_identity"]
        assert rep["dual_quotient_torsion_free"]
        assert rep["dual_quotient_free_rank"] == rep["kernel_rank"]
        assert rep["annihilator_matches"]


def test_character_dual_contains_transposed_rows():
    # every fixed-point functional itself factors through the linearization
    rstar = character_dual_sublattice(E2)
    for row in ring_data(E2).linearization():
        assert rstar.member(row)


def test_sum_of_induced_kernels():
    for G in (X27, elementary_abelian_group(3, 3), C9x3):
        K = linearization_kernel(G)
        full = sum_of_induced_kernels(G, "X2")
        assert full == K
        narrow = sum_of_induced_kernels(G, "E2")
        assert all(K.member(b) for b in narrow.basis)
        for b in K.basis:
            assert narrow.member([3 * int(x) for x in b])


def test_act_on_basis_element_identity():
    dq = ring_data(X27)
    from bfk.bisets import identity_biset
    U = identity_biset(X27)
    for j, tm in enumerate(dq.reps_members):
        col = act_on_basis_element(U, tm, dq)
        want = [0] * dq.n_classes
        want[j] = 1
        assert col == want
