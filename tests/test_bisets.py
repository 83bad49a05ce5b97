import numpy as np
import pytest

from bfk.bisets import (
    ConcreteBiset,
    canonical_stabilizer,
    compose,
    defres_biset,
    identity_biset,
    indinf_biset,
    is_biset_iso,
    left_quotient_biset,
    left_transporters,
    opposite,
    orbit_decompose,
    right_transporters,
)
from bfk.bisets import double_coset_reps as point_orbit_reps
from bfk.burnside import act_on_basis_element, decompose_left_action, ring_data
from bfk.campaigns import _x3_quotients, catalog_groups
from bfk.groups import (
    _coset_ids,
    analysis,
    cyclic_group,
    direct_product,
    extraspecial_group,
    parse_descriptor,
)
from helpers import (
    all_sections,
    compose_by_loop,
    coset_ids_by_loop,
    deflation_biset,
    double_coset_reps,
    induction_biset,
    inflation_biset,
    left_transport,
    left_transporter,
    normalizer,
    quotient_ids_by_loop,
    restriction_biset,
    right_transporter,
    section_transport,
    subgroup_generators,
    transport_subgroup,
    validate_biset,
)


X27 = extraspecial_group(3)
C9x3 = direct_product(cyclic_group(9), cyclic_group(3))


def test_constructors_validate_everywhere():
    for G in (X27, C9x3):
        ana = analysis(G)
        validate_biset(identity_biset(G))
        for sec in all_sections(ana):
            validate_biset(indinf_biset(sec))
            validate_biset(defres_biset(sec))
            validate_biset(inflation_biset(ana, sec))
            validate_biset(deflation_biset(ana, sec))


def test_validate_catches_bad_tables():
    U = identity_biset(cyclic_group(3))
    shifted = ConcreteBiset(U.left_group, U.right_group, U.left,
                            U.right[:, [1, 0, 2]])
    with pytest.raises(ValueError):
        validate_biset(shifted)
    # right action written on the wrong side fails in a nonabelian group
    wrong_side = ConcreteBiset(X27, X27, X27.table, X27.table.T.copy())
    with pytest.raises(ValueError):
        validate_biset(wrong_side)


def test_indinf_of_whole_group_is_identity():
    ana = analysis(X27)
    sec = ana.section_at(ana.n_sub - 1, 0)
    assert is_biset_iso(indinf_biset(sec), identity_biset(X27))


def test_full_deflation_has_one_point():
    ana = analysis(X27)
    sec = ana.section_at(ana.n_sub - 1, ana.n_sub - 1)
    U = defres_biset(sec)
    assert U.size == 1 and U.left_group.order == 1


def test_opposite_of_induction_is_restriction():
    ana = analysis(X27)
    for ci in ana.class_reps:
        mem = ana.subgroup_members[ci]
        ind = induction_biset(ana, mem)
        res = restriction_biset(ana, mem)
        assert is_biset_iso(opposite(ind), res)
        assert is_biset_iso(opposite(res), ind)


def test_opposite_is_an_involution():
    ana = analysis(X27)
    sec = ana.section_at(ana.n_sub - 1, ana.index_of(ana.center_members))
    U = indinf_biset(sec)
    UU = opposite(opposite(U))
    assert np.array_equal(UU.left, U.left)
    assert np.array_equal(UU.right, U.right)


def test_identity_composition():
    ana = analysis(C9x3)
    for sec in all_sections(ana)[:10]:
        U = indinf_biset(sec)
        assert is_biset_iso(compose(identity_biset(C9x3), U), U)
        assert is_biset_iso(compose(U, identity_biset(sec.group)), U)


def test_indinf_factors_through_induction_and_inflation():
    for G in (X27, C9x3):
        ana = analysis(G)
        for sec in all_sections(ana):
            whole = indinf_biset(sec)
            steps = compose(induction_biset(ana, sec.top),
                            inflation_biset(ana, sec))
            assert whole.size == steps.size
            assert is_biset_iso(whole, steps)


def test_defres_factors_through_deflation_and_restriction():
    for G in (X27, C9x3):
        ana = analysis(G)
        for sec in all_sections(ana):
            whole = defres_biset(sec)
            steps = compose(deflation_biset(ana, sec),
                            restriction_biset(ana, sec.top))
            assert is_biset_iso(whole, steps)


def test_mackey_orbit_count():
    for G in (X27, C9x3):
        ana = analysis(G)
        for ti in ana.class_reps:
            for wi in ana.class_reps:
                T = ana.subgroup_members[ti]
                W = ana.subgroup_members[wi]
                U = compose(restriction_biset(ana, T), induction_biset(ana, W))
                want = len(double_coset_reps(G, T, W))
                assert len(orbit_decompose(U)) == want


def test_orbit_sizes_match_stabilizers():
    ana = analysis(X27)
    T = next(m for m in ana.subgroup_members if len(m) == 9)
    U = compose(restriction_biset(ana, T), induction_biset(ana, T))
    total = 0
    for rep, orbit, stab in orbit_decompose(U):
        assert len(orbit) * len(stab) == U.left_group.order * U.right_group.order
        assert rep == orbit[0] == min(orbit)
        total += len(orbit)
    assert total == U.size


def test_opposite_reverses_composition():
    ana = analysis(X27)
    z = ana.index_of(ana.center_members)
    m = next(i for i, mem in enumerate(ana.subgroup_members) if len(mem) == 9)
    V = defres_biset(ana.section_at(ana.n_sub - 1, z))
    U = indinf_biset(ana.section_at(m, z))
    lhs = opposite(compose(V, U))
    rhs = compose(opposite(U), opposite(V))
    assert is_biset_iso(lhs, rhs)


def test_composition_is_associative_up_to_iso():
    ana = analysis(X27)
    z = ana.index_of(ana.center_members)
    m = next(i for i, mem in enumerate(ana.subgroup_members) if len(mem) == 9)
    sec_m = ana.section_at(m, z)
    W = defres_biset(ana.section_at(ana.n_sub - 1, z))  # quotient <- X
    V = induction_biset(ana, sec_m.top)                 # X <- M
    U = inflation_biset(ana, sec_m)                    # M <- M/Z
    left = compose(compose(W, V), U)
    right = compose(W, compose(V, U))
    assert is_biset_iso(left, right)


def test_coset_counts():
    ana = analysis(X27)
    for sec in all_sections(ana):
        ns = len(sec.bottom)
        assert indinf_biset(sec).size == 27 // ns
        assert defres_biset(sec).size == 27 // ns


def test_section_transport_and_cocycle():
    ana = analysis(X27)
    L = next(m for m in ana.subgroup_members
             if len(m) == 3 and m != analysis(X27).center_members)
    N = normalizer(ana, L)
    sec = ana.section_at(ana.index_of(N), ana.index_of(L))
    u = next(x for x in range(27) if x not in N)
    tgt, cu = section_transport(ana, sec, u)
    assert (tgt.top, tgt.bottom) != (sec.top, sec.bottom)
    validate_biset(cu)
    # transporting twice by u lands at the conjugate by u.u
    tgt2, cuu = section_transport(ana, sec, X27.mul(u, u))
    mid, cu2 = section_transport(ana, tgt, u)
    assert (mid.top, mid.bottom) == (tgt2.top, tgt2.bottom)
    assert is_biset_iso(compose(cu2, cu), cuu)


def test_non_isomorphic_transitive_bisets_detected():
    ana = analysis(X27)
    z = ana.index_of(ana.center_members)
    m1, m2 = [i for i, mem in enumerate(ana.subgroup_members) if len(mem) == 9][:2]
    U1 = indinf_biset(ana.section_at(m1, z))
    U2 = indinf_biset(ana.section_at(m2, z))
    assert U1.size == U2.size == 9
    assert np.array_equal(U1.right_group.table, U2.right_group.table)
    assert not is_biset_iso(U1, U2)


def test_transport_compatible_with_indinf():
    ana = analysis(X27)
    L = next(m for m in ana.subgroup_members
             if len(m) == 3 and m != analysis(X27).center_members)
    N = normalizer(ana, L)
    sec = ana.section_at(ana.index_of(N), ana.index_of(L))
    u = next(x for x in range(27) if x not in N)
    tgt, cu = section_transport(ana, sec, u)
    assert is_biset_iso(compose(indinf_biset(tgt), cu), indinf_biset(sec))


def test_canonical_stabilizer_is_conjugation_invariant():
    ana = analysis(X27)
    L = next(m for m in ana.subgroup_members
             if len(m) == 3 and m != analysis(X27).center_members)
    U = induction_biset(ana, L)
    labels = set()
    for rep, _, stab in orbit_decompose(U):
        labels.add(canonical_stabilizer(U.left_group, U.right_group, stab))
    assert len(labels) == 1


def _row(mask, u: int) -> list:
    return np.flatnonzero(mask[u]).tolist()


def test_trivial_transporters_are_stabilizers():
    ana = analysis(X27)
    U = indinf_biset(ana.section_at(ana.n_sub - 1, ana.index_of(ana.center_members)))
    left, right = left_transporters(U, [0]), right_transporters(U, [0])
    for u in range(U.size):
        assert _row(left, u) == [y for y in range(27) if U.left[y, u] == u]
        assert _row(right, u) == \
            [x for x in range(U.right_group.order) if U.right[u, x] == u]


def test_left_transporter_of_induction_is_conjugation():
    # induction points are the parent's elements in their own labels
    ana = analysis(X27)
    M = next(m for m in ana.subgroup_members if len(m) == 9)
    U = induction_biset(ana, M)
    T = U.right_group
    emb = [int(U.right[0, t]) for t in range(T.order)]
    mask = left_transporters(U, range(T.order))
    for u in (0, 4, 11, 25):
        want = sorted(X27.mul(X27.mul(u, m), X27.inv_of(u)) for m in emb)
        assert _row(mask, u) == want


def test_transporters_move_with_the_point():
    ana = analysis(X27)
    Z = analysis(X27).center_members
    M = next(m for m in ana.subgroup_members if len(m) == 9)
    U = induction_biset(ana, M)
    Q, T = U.left_group, U.right_group
    S = [t for t in range(T.order) if int(U.right[0, t]) in set(Z)]
    L = next(m for m in ana.subgroup_members
             if len(m) == 3 and m != Z)
    right, left = right_transporters(U, L), left_transporters(U, S)
    for u in (1, 7, 20):
        A, B = _row(right, u), _row(left, u)
        for x in (1, 2, 5):
            moved = _row(right, int(U.right[u, x]))
            assert sorted(T.mul(T.mul(T.inv_of(x), a), x) for a in A) == moved
        for y in (1, 4, 9):
            moved = _row(left, int(U.left[y, u]))
            assert sorted(Q.mul(Q.mul(y, b), Q.inv_of(y)) for b in B) == moved


def test_composite_transporters_through_pair_map():
    ana = analysis(X27)
    Z = analysis(X27).center_members
    M = next(m for m in ana.subgroup_members if len(m) == 9)
    U = induction_biset(ana, M)
    V = opposite(U)
    W, pairs = compose(V, U, return_pairs=True)
    assert pairs.shape == (V.size, U.size)
    assert sorted(set(pairs.ravel().tolist())) == list(range(W.size))
    S = [t for t in range(U.right_group.order) if int(U.right[0, t]) in set(Z)]
    right_w, left_w = right_transporters(W, S), left_transporters(W, S)
    right_v, left_u = right_transporters(V, S), left_transporters(U, S)
    for v in (0, 3, 12):
        for u in (0, 5, 17):
            w = int(pairs[v, u])
            step = right_transporters(U, _row(right_v, v))[u]
            assert np.array_equal(step, right_w[w])
            step = left_transporters(V, _row(left_u, u))[v]
            assert np.array_equal(step, left_w[w])


# -- whole-biset arrays against the per-point and loop references ------------

SMALL_CATALOG = ([(3, d) for o, d in catalog_groups(3, 27)]
                 + [(5, d) for o, d in catalog_groups(5, 25)])


def _pool(p: int, desc: str) -> list:
    G = parse_descriptor(desc, p)
    return [indinf_biset(sec) for sec in _x3_quotients(G, 4)]


def _member_lists(G) -> list:
    """Every subgroup of G, and {1, 2} (no identity, so no subgroup)."""
    return list(analysis(G).subgroup_members) + [list(range(1, min(3, G.order)))]


@pytest.mark.parametrize("p,desc", SMALL_CATALOG)
def test_transporter_masks_match_per_point_reference(p, desc):
    checked = 0
    for U in _pool(p, desc):
        for T in _member_lists(U.left_group):
            mask = right_transporters(U, T)
            assert mask.shape == (U.size, U.right_group.order)
            for u in range(U.size):
                assert _row(mask, u) == right_transporter(U, T, u)
                assert tuple(_row(mask, u)) == transport_subgroup(U, u, T)
            checked += 1
        for S in _member_lists(U.right_group):
            mask = left_transporters(U, S)
            assert mask.shape == (U.size, U.left_group.order)
            for u in range(U.size):
                assert _row(mask, u) == left_transporter(U, u, S)
                T = range(1, U.left_group.order, 2)
                assert tuple(y for y in _row(mask, u) if y in T) == \
                    left_transport(U, u, T, S)
            checked += 1
    assert checked


@pytest.mark.parametrize("p,desc", SMALL_CATALOG)
def test_orbit_ids_match_the_loops(p, desc):
    G = parse_descriptor(desc, p)
    ana = analysis(G)
    for members in ana.subgroup_members:
        for side in ("left", "right"):
            ids, reps = _coset_ids(G, members, side)
            want_ids, want_reps = coset_ids_by_loop(G, members, side)
            assert np.array_equal(ids, want_ids) and reps.tolist() == want_reps
    pool = _pool(p, desc)
    for U in pool:
        for si, members in enumerate(ana.subgroup_members):
            if not ana.normal[si, ana.n_sub - 1]:
                continue
            got = left_quotient_biset(U, members)
            ids, reps = quotient_ids_by_loop(U, members)
            assert np.array_equal(got.left, ids[U.left[:, reps]])
            assert np.array_equal(got.right, ids[U.right[reps, :]])
    for V, U in [(opposite(U), U) for U in pool] + [(pool[0], opposite(pool[0]))]:
        W, pairs = compose(V, U, return_pairs=True)
        left, right, want_pairs = compose_by_loop(V, U)
        assert np.array_equal(W.left, left) and np.array_equal(W.right, right)
        assert np.array_equal(pairs, want_pairs)


def test_compose_in_several_chunks_of_the_middle_group():
    # 125 x 125 pairs over a middle group of order 125: chunks of 4 elements
    U = _pool(5, "xsp:5")[0]
    V = opposite(U)
    W, pairs = compose(V, U, return_pairs=True)
    left, right, want_pairs = compose_by_loop(V, U)
    assert np.array_equal(W.left, left) and np.array_equal(W.right, right)
    assert np.array_equal(pairs, want_pairs)


def test_point_orbit_reps_match_group_double_cosets():
    for G in (X27, C9x3):
        ana = analysis(G)
        for ti in ana.class_reps:
            for wi in ana.class_reps:
                T = ana.subgroup_members[ti]
                W = ana.subgroup_members[wi]
                U = induction_biset(ana, W)
                reps = point_orbit_reps(U, T)
                assert reps[0] == 0
                assert len(reps) == len(double_coset_reps(G, T, W))


def test_left_quotient_validates_and_rejects():
    ana = analysis(X27)
    M = next(m for m in ana.subgroup_members if len(m) == 9)
    U = induction_biset(ana, M)
    Z = analysis(X27).center_members
    Wq = validate_biset(left_quotient_biset(U, Z))
    assert Wq.size == 9
    same = left_quotient_biset(U, [0])
    assert np.array_equal(same.left, U.left)
    with pytest.raises(ValueError, match="must contain the identity"):
        left_quotient_biset(U, Z[1:])
    # one element of order 3 without its inverse, and a set closed under
    # inverses but not under products
    x = next(m for m in ana.subgroup_members if len(m) == 3 and m != Z)[1]
    for members in ([0, x], [0, x, X27.inv_of(x), Z[1], Z[2]]):
        with pytest.raises(ValueError, match="members do not form a subgroup"):
            left_quotient_biset(U, members)
    L = next(m for m in ana.subgroup_members
             if len(m) == 3 and m != Z)
    with pytest.raises(ValueError, match="subgroup is not normal"):
        left_quotient_biset(U, L)
    # the table checks agree with the group's own normality flags
    for si, members in enumerate(ana.subgroup_members):
        normal = bool(ana.normal[si, ana.n_sub - 1])
        try:
            left_quotient_biset(U, members)
        except ValueError as err:
            assert not normal and "not normal" in str(err)
        else:
            assert normal


def test_quotient_interchanges_with_composition():
    # collapsing before or after composing agrees once the middle group
    # acts trivially on the collapsed side
    a9 = analysis(cyclic_group(9))
    V = induction_biset(a9, [0, 3, 6])
    Wq = left_quotient_biset(V, [0, 3, 6])
    B = V.right_group
    A = [b for b in range(B.order)
         if all(int(Wq.right[x, b]) == x for x in range(Wq.size))]
    assert A == [0, 1, 2]
    U = identity_biset(B)
    lhs = compose(Wq, left_quotient_biset(U, A))
    rhs = left_quotient_biset(compose(V, U), [0, 3, 6])
    assert is_biset_iso(lhs, rhs)


# -- orbit labels against a union-find reference ------------------------------

class UnionFind:
    """Reference for the orbit kernels: merge along generators, keep the
    least index of each class as its root."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = sorted((self.find(a), self.find(b)))
        self.parent[rb] = ra

    def roots(self):
        return sorted({self.find(x) for x in range(len(self.parent))})


def uf_compose(V, U):
    nV, nU = V.size, U.size
    uf = UnionFind(nV * nU)
    for q in U.left_group.generators():
        for v in range(nV):
            for u in range(nU):
                uf.union(int(V.right[v, q]) * nU + u, v * nU + int(U.left[q, u]))
    index = {r: i for i, r in enumerate(uf.roots())}
    label = lambda v, u: index[uf.find(v * nU + u)]
    left = [[label(int(V.left[g, r // nU]), r % nU) for r in index]
            for g in range(V.left_group.order)]
    right = [[label(r // nU, int(U.right[r % nU, p]))
              for p in range(U.right_group.order)] for r in index]
    pairs = [[label(v, u) for u in range(nU)] for v in range(nV)]
    return left, right, pairs


def uf_point_orbit_reps(U, t_members):
    uf = UnionFind(U.size)
    for x in range(U.size):
        for t in t_members:
            uf.union(x, int(U.left[t, x]))
        for p in U.right_group.generators():
            uf.union(x, int(U.right[x, p]))
    return uf.roots()


def uf_act_on_basis_element(U, t_members, dq):
    uf = UnionFind(U.size)
    for t in subgroup_generators(U.right_group, t_members):
        for u in range(U.size):
            uf.union(u, int(U.right[u, t]))
    index = {r: i for i, r in enumerate(uf.roots())}
    left = np.array([[index[uf.find(int(U.left[q, r]))] for r in index]
                     for q in range(U.left_group.order)], dtype=np.int32)
    return decompose_left_action(left, dq)


def orbit_kernel_pairs(G):
    """(V, U) to compose: induction, restriction, inflation, deflation and
    transport bisets of a few sections of G, and composites of two and
    three of them."""
    ana = analysis(G)
    secs = [sec for sec in all_sections(ana)
            if len(sec.top) == 9 and len(sec.bottom) == 3][:2]
    top = ana.n_sub - 1
    secs.append(ana.section_at(top, ana.frattini_of(top)))
    out = []
    for sec in secs:
        T = sec.top
        ind, res = induction_biset(ana, T), restriction_biset(ana, T)
        inf, dfl = inflation_biset(ana, sec), deflation_biset(ana, sec)
        u = next((x for x in range(G.order) if x not in T), 1)
        target, tr = section_transport(ana, sec, u)
        ind_t = induction_biset(ana, target.top)
        inf_t = inflation_biset(ana, target)
        out += [(ind, inf), (dfl, res), (res, ind), (inf_t, tr),
                (compose(ind_t, inf_t), tr), (dfl, compose(res, ind))]
    return out


@pytest.mark.parametrize("G", [X27, C9x3], ids=["xsp:3", "prod:cyclic:9,cyclic:3"])
def test_orbit_kernels_match_union_find(G):
    bisets = []
    for V, U in orbit_kernel_pairs(G):
        W, pairs = compose(V, U, return_pairs=True)
        validate_biset(W)
        left, right, want_pairs = uf_compose(V, U)
        assert W.left.tolist() == left and W.right.tolist() == right
        assert pairs.tolist() == want_pairs
        plain = compose(V, U)
        assert np.array_equal(plain.left, W.left) and np.array_equal(plain.right, W.right)
        bisets += [V, U, W]
    for U in bisets:
        dq = ring_data(U.left_group)
        for tm in ring_data(U.right_group).reps_members:
            assert act_on_basis_element(U, tm, dq) == uf_act_on_basis_element(U, tm, dq)
        for tm in dq.reps_members:
            assert point_orbit_reps(U, tm) == uf_point_orbit_reps(U, tm)


def per_code_canonical_stabilizer(Q, P, stab):
    """The conjugation-orbit walk one code at a time through G.mul, kept as
    the reference for the table-lookup version."""
    def conj(code, a, b):
        q, p = divmod(code, P.order)
        q2 = Q.mul(Q.mul(a, q), Q.inv_of(a))
        p2 = P.mul(P.mul(P.inv_of(b), p), b)
        return q2 * P.order + p2

    start = tuple(sorted(stab))
    gens = [(a, 0) for a in Q.generators()] + [(0, b) for b in P.generators()]
    best, frontier, seen = start, [start], {start}
    while frontier:
        nxt = []
        for cur in frontier:
            for a, b in gens:
                img = tuple(sorted(conj(c, a, b) for c in cur))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
                    best = min(best, img)
        frontier = nxt
    return best


@pytest.mark.parametrize("G", [X27, C9x3], ids=["xsp:3", "prod:cyclic:9,cyclic:3"])
def test_canonical_stabilizer_matches_per_code_walk(G):
    checked = 0
    for V, U in orbit_kernel_pairs(G):
        W = compose(V, U)
        # the opposite puts each side's conjugation moves on the other side
        for B in (V, U, W, opposite(W)):
            for _, _, stab in orbit_decompose(B):
                got = canonical_stabilizer(B.left_group, B.right_group, stab)
                assert got == per_code_canonical_stabilizer(
                    B.left_group, B.right_group, stab)
                checked += 1
    assert checked == 92
