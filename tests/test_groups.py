import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from bfk.campaigns import catalog_groups
from bfk.groups import (
    DescriptorError,
    FiniteGroup,
    GroupTooLarge,
    analysis,
    cyclic_group,
    default_order_bound,
    direct_product,
    elementary_abelian_group,
    extraspecial_group,
    group_from_table,
    load_group_file,
    parse_descriptor,
    section_shape,
    trivial_group,
)
from bfk.groups import _closure
from bfk.limits import section_family
from helpers import (all_sections, center_by_loops, center_members, conjugate_members,
                     cyclic_subs_by_loops, double_coset_reps,
                     element_orders_by_loops, extraspecial_table_by_loops,
                     index_by_members, index_of, preimage,
                     section_by_loop, shapes_through_int64, table_checks_by_loops)


def naive_closure(G, gens):
    cur = {0, *gens}
    while True:
        new = {int(G.table[a, b]) for a in cur for b in cur} - cur
        if not new:
            return tuple(sorted(cur))
        cur |= new


def brute_subgroups(G):
    """Oracle independent of the layered search: close every generating set
    of size <= log_p |G|, which covers any subgroup of a p-group."""
    k = 0
    n = G.order
    while G.prime ** k < n:
        k += 1
    out = {(0,)}
    for r in range(1, k + 1):
        for gens in itertools.combinations(range(1, n), r):
            out.add(naive_closure(G, gens))
    return sorted(out, key=lambda m: (len(m), m))


def layered_closure_subgroups(G):
    """Oracle independent of index-p extension: close each subgroup H of
    one level with every element outside it and keep the closures of
    order p|H|."""
    found = {(0,)}
    current = [(0,)]
    while current and len(current[0]) * G.prime <= G.order:
        target = len(current[0]) * G.prime
        nxt = set()
        for H in current:
            for g in range(G.order):
                if g not in H:
                    K = _closure(G.table, H + (g,))
                    if len(K) == target:
                        nxt.add(K)
        found |= nxt
        current = sorted(nxt)
    return sorted(found, key=lambda m: (len(m), m))


def conjugation_classes(G, subs):
    """Oracle for the classes: conjugate each subgroup by every element."""
    index = {m: i for i, m in enumerate(subs)}
    classes, seen = [], set()
    for i, mem in enumerate(subs):
        if i not in seen:
            orbit = {index[conjugate_by(G, x, mem)] for x in range(G.order)}
            classes.append(tuple(sorted(orbit)))
            seen |= orbit
    return classes


def conjugate_by(G, x, members):
    xi = G.inv_of(x)
    return tuple(sorted(G.mul(G.mul(x, m), xi) for m in members))


def test_cyclic_basics():
    G = cyclic_group(9)
    assert G.prime == 3 and G.order == 9
    assert G.mul(4, 7) == 2
    assert G.inv_of(2) == 7
    assert G.is_abelian
    assert G.exponent == 9
    orders = G.element_orders()
    assert orders[0] == 1 and orders[3] == 3 and orders[1] == 9


def test_cyclic_rejects_bad_orders():
    with pytest.raises(ValueError):
        cyclic_group(6)
    with pytest.raises(ValueError):
        cyclic_group(8)  # even prime not allowed
    with pytest.raises(DescriptorError):
        cyclic_group(1)


def test_extraspecial_is_a_group_of_exponent_p():
    X = extraspecial_group(3)
    assert X.order == 27
    assert not X.is_abelian
    assert X.exponent == 3
    # full associativity via the ingestion validator
    group_from_table(3, X.table, name="copy")
    assert len(center_members(X)) == 3


def test_associativity_check_takes_no_cube_of_memory():
    # the check walks blocks of rows: a whole (ij)k array at order 243
    # would take 55 MiB, and two of them are compared
    table = elementary_abelian_group(3, 5).table
    tracemalloc.start()
    try:
        group_from_table(3, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_non_associative_latin_square_is_rejected():
    # swapping rows 1 and 4 of the C9 table on the coset {1, 4, 7} of <3>
    # keeps a Latin square with identity 0 and one inverse per element
    table = cyclic_group(9).table.copy()
    cols = [1, 4, 7]
    table[1, cols], table[4, cols] = table[4, cols], table[1, cols].copy()
    ident = np.arange(9)
    assert (np.sort(table, axis=0) == ident[:, None]).all()
    assert (np.sort(table, axis=1) == ident).all()
    # the cheap checks pass: only associativity fails, as (1 1) 2 != 1 (1 2)
    assert FiniteGroup(3, table).inv.tolist() == [0, 8, 7, 6, 5, 4, 3, 2, 1]
    assert table[table[1, 1], 2] != table[1, table[1, 2]]
    with pytest.raises(ValueError, match="not associative"):
        group_from_table(3, table)


def test_group_construction_matches_the_element_loops():
    # the whole-array forms of the table, the checks, the inverses, the
    # element orders, the center and the cyclic flags against the former
    # loops, for xsp:3/5/7 and every catalog group at p = 3 and p = 5
    for p in (3, 5, 7):
        assert np.array_equal(extraspecial_group(p).table, extraspecial_table_by_loops(p))
    groups = [extraspecial_group(7)] + [
        parse_descriptor(desc, p) for p, bound in ((3, 81), (5, 125))
        for _, desc in catalog_groups(p, bound)]
    for G in groups:
        assert np.array_equal(G.inv, table_checks_by_loops(G.table)), G.name
        assert np.array_equal(G.element_orders(), element_orders_by_loops(G)), G.name
        if G.order <= 125:
            ana = analysis(G)
            assert ana.subgroup_members[ana.center] == center_by_loops(G), G.name
            assert ana.is_cyclic_sub == cyclic_subs_by_loops(ana), G.name


def test_shape_table_matches_the_int64_build():
    # every catalog group at p = 3 up to order 81: the same int8 bytes as
    # the former build through int64 temporaries
    for _, spec in catalog_groups(3, 81):
        ana = analysis(parse_descriptor(spec, 3))
        assert ana.shapes.dtype == np.int8
        assert ana.shapes.tobytes() == shapes_through_int64(ana).tobytes(), spec


@pytest.mark.parametrize("table,message", [
    ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "rows must be permutations"),
    ([[0, 1, 2], [1, 1, 1], [2, 0, 1]], "rows must be permutations"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], None),
])
def test_table_checks_fail_like_the_row_loops(table, message):
    # the same message from the whole-array checks as from the row loops,
    # the permutation check before the inverse check
    if message is None:
        assert np.array_equal(FiniteGroup(3, table).inv, table_checks_by_loops(table))
        return
    with pytest.raises(ValueError, match=message):
        table_checks_by_loops(table)
    with pytest.raises(ValueError, match=message):
        FiniteGroup(3, table)


def test_inverse_check_without_validation():
    # an unvalidated table still needs exactly one identity per row
    bad = [[0, 1, 2], [1, 0, 0], [2, 1, 1]]
    with pytest.raises(ValueError, match="missing or non-unique inverse"):
        FiniteGroup(3, bad, validate=False)


def test_direct_product_and_names():
    G = direct_product(cyclic_group(9), cyclic_group(3))
    assert G.order == 27 and G.is_abelian and G.exponent == 9
    H = direct_product(cyclic_group(3), cyclic_group(3), cyclic_group(3))
    assert H.order == 27 and H.exponent == 3
    with pytest.raises(ValueError):
        direct_product(cyclic_group(9))


def test_parse_descriptor():
    assert parse_descriptor("cyclic:27").order == 27
    assert parse_descriptor("elab:3:2").order == 9
    assert parse_descriptor("xsp:3").order == 27
    G = parse_descriptor("prod:cyclic:9,elab:3:1")
    assert G.order == 27
    for bad in ["", "cyclic", "cyclic:x", "elab:3", "prod:cyclic:9", "spam:1"]:
        with pytest.raises(DescriptorError):
            parse_descriptor(bad)


def test_group_file_round_trip(tmp_path):
    X = extraspecial_group(3)
    path = tmp_path / "x27.grp"
    rows = [" ".join(str(int(x)) for x in row) for row in X.table]
    path.write_text("\n".join(["p 3", "order 27", *rows]) + "\n")
    Y = load_group_file(path)
    assert Y.prime == 3 and Y.order == 27
    assert np.array_equal(Y.table, X.table)


def test_group_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("p 3\norder 2\n0 1\n1 0\n")
    with pytest.raises(ValueError):
        load_group_file(path)  # order not a power of 3
    path.write_text("p 3\norder 3\n0 1 2\n")
    with pytest.raises(DescriptorError):
        load_group_file(path)


def test_subgroups_match_brute_force_on_x27():
    X = extraspecial_group(3)
    got = analysis(X).subgroup_members
    assert got == brute_subgroups(X)
    assert len(got) == 19
    by_order = {}
    for m in got:
        by_order[len(m)] = by_order.get(len(m), 0) + 1
    assert by_order == {1: 1, 3: 13, 9: 4, 27: 1}


def test_subgroups_match_brute_force_on_c9xc3():
    G = direct_product(cyclic_group(9), cyclic_group(3))
    got = analysis(G).subgroup_members
    assert got == brute_subgroups(G)


@pytest.mark.parametrize("p,max_order", [(3, 81), (5, 125)])
def test_lattice_matches_layered_closure_oracle(p, max_order):
    for _, desc in catalog_groups(p, max_order):
        G = parse_descriptor(desc, p)
        ana = analysis(G, max_order)
        subs = layered_closure_subgroups(G)
        assert ana.subgroup_members == subs, desc
        want_leq = [[set(a) <= set(b) for b in subs] for a in subs]
        assert ana.leq.tolist() == want_leq, desc
        classes = conjugation_classes(G, subs)
        assert ana.classes == classes, desc
        assert ana.class_reps == [c[0] for c in classes], desc


@pytest.mark.parametrize("p,max_order", [(3, 81), (5, 125)])
def test_conjugation_table_matches_conjugating_members(p, max_order):
    for _, desc in catalog_groups(p, max_order):
        G = parse_descriptor(desc, p)
        ana = analysis(G, max_order)
        find = index_by_members(ana)
        want = [[find[conjugate_members(ana, x, mem)]
                 for mem in ana.subgroup_members] for x in range(G.order)]
        assert ana.conj_sub.tolist() == want, desc
        for ci, cls in enumerate(ana.classes):
            assert (ana.class_of_sub[list(cls)] == ci).all(), desc


@pytest.mark.parametrize("desc", ["xsp:3", "elab:3:3", "prod:cyclic:9,cyclic:3",
                                  "prod:xsp:3,cyclic:3", "xsp:5"])
def test_meet_and_join_tables_match_member_sets(desc):
    G = parse_descriptor(desc)
    ana = analysis(G)
    subs = ana.subgroup_members
    sets = [frozenset(m) for m in subs]
    find = index_by_members(ana)
    for a in range(ana.n_sub):
        assert [find[tuple(sorted(sets[a] & sets[b]))] for b in range(ana.n_sub)] \
            == ana.meet[a].tolist()
        assert [find[_closure(G.table, subs[a] + subs[b])]
                for b in range(ana.n_sub)] == ana.join[a].tolist()


@pytest.mark.parametrize("p,max_order", [(3, 81), (5, 125)])
def test_locate_matches_the_member_dict_and_refuses_other_sets(p, max_order):
    for _, desc in catalog_groups(p, max_order):
        G = parse_descriptor(desc, p)
        ana = analysis(G, max_order)
        find = index_by_members(ana)
        # every subgroup, in reverse lattice order so no row is its own index
        subs = ana.subgroup_members[::-1]
        masks = np.zeros((len(subs), G.order), dtype=bool)
        for row, m in zip(masks, subs):
            row[list(m)] = True
        assert ana.locate(masks).tolist() == [find[m] for m in subs], desc
        for si in range(1, ana.n_sub - 1):
            mem = ana.subgroup_members[si]
            x = next(g for g in range(G.order) if g not in mem)
            coset = np.zeros((1, G.order), dtype=bool)
            coset[0, G.table[x, list(mem)]] = True
            with pytest.raises(ValueError):
                ana.locate(coset)
            # the subgroup with one more element is no subgroup either
            with pytest.raises(ValueError):
                ana.locate(masks[[ana.n_sub - 1 - si]] | (np.arange(G.order) == x))


def test_normalizers_of_section_quotients_by_direct_conjugation():
    G = parse_descriptor("prod:xsp:3,cyclic:3")
    secs = all_sections(analysis(G))
    picked = [sec for sec in secs if not sec.group.is_abelian][::3]
    assert len({sec.group.order for sec in picked}) == 2
    picked.append(next(sec for sec in secs if sec.group.order == 9))
    for sec in picked:
        Q = sec.group
        qa = analysis(Q)
        subs = qa.subgroup_members
        for si, mem in enumerate(subs):
            stable = [x for x in range(Q.order) if conjugate_by(Q, x, mem) == mem]
            assert np.flatnonzero(qa.normalizes[si]).tolist() == stable
            for ti, tmem in enumerate(subs):
                want = set(mem) <= set(tmem) and set(tmem) <= set(stable)
                assert qa.is_normal_in(si, ti) == want


def test_subgroup_counts_elementary_abelian():
    assert analysis(elementary_abelian_group(3, 2)).n_sub == 6
    assert analysis(elementary_abelian_group(3, 3)).n_sub == 28
    ana = analysis(elementary_abelian_group(3, 4))
    assert ana.n_sub == 212
    sizes = {}
    for m in ana.subgroup_members:
        sizes[len(m)] = sizes.get(len(m), 0) + 1
    assert sizes == {1: 1, 3: 40, 9: 130, 27: 40, 81: 1}


def test_conjugacy_classes_x27():
    X = extraspecial_group(3)
    ana = analysis(X)
    assert len(ana.classes) == 11
    sizes = sorted(len(c) for c in ana.classes)
    assert sizes == [1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3]
    assert len(ana.cyclic_class_positions) == 6
    # classes are closed under conjugation and reps are lattice-least
    for cls in ana.classes:
        mem = ana.subgroup_members[cls[0]]
        orbit = {index_of(ana, conjugate_members(ana, x, mem)) for x in range(27)}
        assert tuple(sorted(orbit)) == cls


def test_abelian_classes_are_singletons():
    G = elementary_abelian_group(3, 2)
    assert all(len(c) == 1 for c in analysis(G).classes)


def test_moebius_values():
    assert moebius_of(elementary_abelian_group(3, 2)) == 3
    assert moebius_of(elementary_abelian_group(3, 3)) == -27
    assert moebius_of(cyclic_group(3)) == -1
    assert moebius_of(cyclic_group(9)) == 0
    assert moebius_of(cyclic_group(27)) == 0


def moebius_of(G):
    ana = analysis(G)
    return ana.moebius(0, ana.n_sub - 1)


def test_moebius_defining_recursion_on_x27():
    X = extraspecial_group(3)
    ana = analysis(X)
    for ti in range(ana.n_sub):
        below = [si for si in range(ana.n_sub) if ana.leq[si, ti]]
        for si in below:
            total = sum(ana.moebius(si, ui) for ui in below if ana.leq[si, ui] and ana.leq[ui, ti])
            assert total == (1 if si == ti else 0)


def frattini(G):
    ana = analysis(G)
    return ana.subgroup_members[ana.frattini_of(ana.n_sub - 1)]


def test_frattini():
    assert len(frattini(cyclic_group(9))) == 3
    assert len(frattini(cyclic_group(27))) == 9
    assert len(frattini(elementary_abelian_group(3, 3))) == 1
    X = extraspecial_group(3)
    assert frattini(X) == center_members(X)


def test_normality_and_normalizer():
    X = extraspecial_group(3)
    ana = analysis(X)
    top = ana.n_sub - 1
    z = ana.center
    assert ana.is_normal_in(z, top)
    nc = next(i for i, m in enumerate(ana.subgroup_members)
              if len(m) == 3 and i != z)
    assert not ana.is_normal_in(nc, top)
    N = np.flatnonzero(ana.normalizes[nc]).tolist()
    assert len(N) == 9
    assert ana.is_normal_in(nc, index_of(ana, N))
    y = next(x for x in range(27) if x not in N)
    assert conjugate_members(ana, y, ana.subgroup_members[nc]) != ana.subgroup_members[nc]


def whole_group_shape(G):
    ana = analysis(G)
    return section_shape(ana, ana.n_sub - 1, 0)


def test_section_shape_of_whole_groups():
    assert whole_group_shape(trivial_group(3))[1] == 0
    assert whole_group_shape(cyclic_group(3)) == whole_group_shape(cyclic_group(3))
    assert whole_group_shape(cyclic_group(3))[0] == "elab"
    assert whole_group_shape(cyclic_group(9))[0] == "other"
    assert whole_group_shape(elementary_abelian_group(3, 2))[1] == 2
    assert whole_group_shape(extraspecial_group(3))[0] == "xsp"
    assert whole_group_shape(direct_product(extraspecial_group(3), cyclic_group(3)))[0] == "other"


def test_sections_of_c3_squared():
    G = elementary_abelian_group(3, 2)
    ana = analysis(G)
    assert len(all_sections(ana)) == 15
    assert len(section_family(G, "E").sections) == 15
    assert len(section_family(G, "E2").sections) == 15
    # quotient projection is a homomorphism with identity coset first
    for sec in all_sections(ana):
        assert sec.proj[sec.top[0]] == 0 or sec.top[0] != 0
        for a in sec.top:
            for b in sec.top:
                ab = G.mul(a, b)
                assert sec.group.table[sec.proj[a], sec.proj[b]] == sec.proj[ab]
        assert sec.reps[0] == min(sec.bottom)


def test_sections_of_x27():
    X = extraspecial_group(3)
    ana = analysis(X)
    secs = section_family(X, "X3").sections
    assert len(secs) == 58
    by_top = {}
    for ti, _ in secs:
        by_top[ana.sizes[ti]] = by_top.get(ana.sizes[ti], 0) + 1
    assert by_top == {1: 1, 3: 26, 9: 24, 27: 7}
    # only the full section has an extraspecial quotient
    xsp = [(ti, si) for ti, si in secs if section_shape(ana, ti, si)[0] == "xsp"]
    assert len(xsp) == 1
    assert ana.sizes[xsp[0][0]] == 27 and ana.sizes[xsp[0][1]] == 1
    # dropping the extraspecial kind loses exactly the X/1 section,
    # and no section here has elementary abelian rank above 2
    assert len(section_family(X, "E3").sections) == 57
    assert len(section_family(X, "E2").sections) == 57
    assert len(section_family(X, "E").sections) == 57


def test_section_count_c3_4():
    G = elementary_abelian_group(3, 4)
    assert len(section_family(G, "E").sections) == 2193
    assert len(section_family(G, "E3").sections) == 2192
    assert len(section_family(G, "X3").sections) == 2192


def test_section_quotient_labels():
    X = extraspecial_group(3)
    ana = analysis(X)
    Zm = center_members(X)
    top = ana.n_sub - 1
    assert section_shape(ana, top, index_of(ana, Zm)) == ("elab", 2)
    assert section_shape(ana, top, 0) == ("xsp", None)
    full = ana.section_at(top, 0)
    assert full.group.order == 27
    assert ana.section_at(top, 0) is full
    assert full.top == tuple(range(27)) and full.bottom == (0,)
    # a subgroup that is not normal in the top is no section of it
    lone = next(si for si in range(ana.n_sub) if not ana.normal[si, top])
    with pytest.raises(ValueError):
        ana.section_at(top, lone)


def test_section_preimage_and_image():
    X = extraspecial_group(3)
    ana = analysis(X)
    sec = ana.section_at(ana.n_sub - 1, 0)
    for members in ana.subgroup_members:
        img = {int(sec.proj[m]) for m in members}
        assert preimage(sec, img) == members


def test_enumeration_bound():
    big = elementary_abelian_group(3, 5)
    with pytest.raises(GroupTooLarge):
        analysis(big)
    assert default_order_bound(3) == 81
    assert default_order_bound(5) == 125


def test_analysis_is_shared_across_threads():
    G = elementary_abelian_group(3, 3)
    seen = []

    def grab():
        seen.append(analysis(G))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(a is seen[0] for a in seen)


def test_section_quotients_match_the_coset_walk():
    # whole-array coset labels against the former walk over the top, on
    # every section of a few groups
    for desc in ("xsp:3", "prod:cyclic:9,cyclic:3", "elab:3:3", "xsp:5"):
        ana = analysis(parse_descriptor(desc))
        for sec in all_sections(ana):
            ti, si = index_of(ana, sec.top), index_of(ana, sec.bottom)
            proj, reps, qt = section_by_loop(ana, ti, si)
            assert np.array_equal(sec.proj, proj), (desc, ti, si)
            assert sec.reps.tolist() == reps
            assert np.array_equal(sec.group.table, qt)


def loop_double_coset_reps(G, left, right, within=None):
    """Reference: walk the points in order and mark the whole double coset
    of each new one, one product table per representative."""
    seen = np.zeros(G.order, dtype=bool)
    left = np.asarray(left, dtype=np.int32)
    right = np.asarray(right, dtype=np.int32)
    reps = []
    for x in (range(G.order) if within is None else within):
        if not seen[x]:
            reps.append(int(x))
            seen[G.table[np.ix_(G.table[left, x], right)].ravel()] = True
    return reps


@pytest.mark.parametrize("desc", ["xsp:3", "prod:xsp:3,cyclic:3", "elab:3:4",
                                  "prod:cyclic:9,cyclic:9"])
def test_double_coset_reps_match_the_point_loop(desc):
    G = parse_descriptor(desc)
    ana = analysis(G)
    subs = ana.subgroup_members
    rng = np.random.default_rng(len(subs))
    for _ in range(150):
        a, b, c = (subs[int(i)] for i in rng.integers(len(subs), size=3))
        assert double_coset_reps(G, a, b) == loop_double_coset_reps(G, a, b)
        # within a subgroup W, for subgroups of W
        w = index_of(ana, c)
        inside = [m for i, m in enumerate(subs) if ana.leq[i, w]]
        l, r = (inside[int(i)] for i in rng.integers(len(inside), size=2))
        assert (double_coset_reps(G, l, r, within=c)
                == loop_double_coset_reps(G, l, r, within=c))
