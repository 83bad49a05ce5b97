import numpy as np
import pytest

from bfk.bisets import identity_biset
from bfk.burnside import biset_matrix, ring_data
from bfk.zlinalg import obj_zeros
from bfk.groups import (
    analysis,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    extraspecial_group,
)
from bfk.limits import (CoefficientSystem, coefficient_system, inverse_limit,
                        section_family, FamilyError)
from bfk.transfers import (
    NaturalityError,
    act_on_limit_matrix,
    adjunction_minus,
    adjunction_plus,
    check_section_naturality,
    retraction_identity_holds,
    retraction_matrix,
)
from helpers import (
    deflation_biset,
    induction_biset,
    inflation_biset,
    iso_biset,
    per_column_restrict,
    restriction_biset,
)

C3 = cyclic_group(3)
C9 = cyclic_group(9)
C27 = cyclic_group(27)
V2 = elementary_abelian_group(3, 2)
V3 = elementary_abelian_group(3, 3)
X27 = extraspecial_group(3)
C9x3 = direct_product(C9, C3)

SMALL = (C3, C9, V2, C27, C9x3, V3, X27)


def _obj_eye(n):
    return np.identity(n, dtype=object)


# ---------------------------------------------------------------------------
# the Moebius retraction


def test_retraction_reading_a_across_small_groups():
    for G in SMALL:
        for functor in ("B", "Kdual"):
            lim = inverse_limit(coefficient_system(G, "E", functor))
            assert retraction_identity_holds(lim, "A"), (G.name, functor)


def test_retraction_reading_b_fails_on_marks():
    # the unshifted reading does not rescale the limit, already for C3
    for G in (C3, V2):
        lim = inverse_limit(coefficient_system(G, "E", "B"))
        assert not retraction_identity_holds(lim, "B")


def test_retraction_reading_b_vacuous_for_dual_on_cyclic():
    lim = inverse_limit(coefficient_system(C9, "E", "Kdual"))
    assert retraction_identity_holds(lim, "B")


def test_retraction_requires_family_e():
    with pytest.raises(FamilyError):
        retraction_matrix(coefficient_system(V2, "X", "B"))


def subfamily_retraction_matrix(system):
    """The E-retraction read on a larger family: zero on its other sections."""
    esys = coefficient_system(system.group, "E", system.functor)
    sig_e = retraction_matrix(esys, "A")
    out = obj_zeros(system.base_rank, system.total)
    for idx, ts in enumerate(esys.family.sections):
        j = system.family.index(*ts)
        d = system.dims[j]
        out[:, system.offsets[j]:system.offsets[j] + d] = \
            sig_e[:, esys.offsets[idx]:esys.offsets[idx] + d]
    return out


def test_subfamily_retraction_both_composites():
    for G in (X27, V3, C9x3):
        for functor in ("B", "Kdual"):
            sys_f = coefficient_system(G, "X", functor)
            lim = inverse_limit(sys_f)
            tau = subfamily_retraction_matrix(sys_f)
            E = np.asarray(sys_f.unit_matrix(), dtype=object)
            onto_limit = E @ (tau @ lim.basis)
            assert np.array_equal(onto_limit, G.order * lim.basis)
            through_base = tau @ E
            assert np.array_equal(through_base, G.order * _obj_eye(sys_f.base_rank))


# ---------------------------------------------------------------------------
# adjunction between groupwise maps and maps into limits


def test_adjunction_round_trips_for_scalars():
    for functor in ("B", "Kdual"):
        sys_f = coefficient_system(X27, "X3", functor)
        comps = [3 * _obj_eye(d) for d in sys_f.dims]
        stacked = adjunction_plus(sys_f, sys_f, comps)
        phi = adjunction_minus(sys_f, stacked)
        assert np.array_equal(phi, 3 * _obj_eye(sys_f.base_rank))
        again = adjunction_plus(sys_f, sys_f, comps)
        assert np.array_equal(again, stacked)


def test_adjunction_images_satisfy_constraints():
    from bfk.limits import residual_check

    sys_f = coefficient_system(V2, "E", "K")
    comps = [2 * _obj_eye(d) for d in sys_f.dims]
    stacked = adjunction_plus(sys_f, sys_f, comps)
    residual_check(sys_f, stacked)


def test_naturality_failure_names_the_edge():
    sys_f = coefficient_system(C3, "E", "B")
    comps = [_obj_eye(1), _obj_eye(2), 2 * _obj_eye(1)]
    with pytest.raises(NaturalityError) as exc:
        check_section_naturality(sys_f, sys_f, comps)
    assert exc.value.witness == (1, 2, ("cover", "def"))


def test_naturality_names_the_earlier_of_two_broken_edges():
    # two edges in different shape groups, the later one in the group
    # that is checked first, so the error must not follow batch order
    sys_f = coefficient_system(X27, "E", "B")
    sys_g = CoefficientSystem(section_family(X27, "E"), "B")
    edges = sys_g.edges()
    shapes = [sys_g.edge_matrix(*e).shape for e in edges]
    first = next(e for e in range(len(edges)) if shapes[e] != shapes[0])
    later = next(e for e in range(first + 1, len(edges)) if shapes[e] == shapes[0])
    for e in (later, first):
        D = sys_g.edge_matrix(*edges[e]).copy()
        D[0, 0] += 1
        sys_g._map_cache[edges[e]] = D
    comps = [_obj_eye(d) for d in sys_f.dims]
    with pytest.raises(NaturalityError) as exc:
        check_section_naturality(sys_f, sys_g, comps)
    assert exc.value.witness == edges[first]
    sys_g._map_cache[edges[first]] = sys_f.edge_matrix(*edges[first])
    with pytest.raises(NaturalityError) as exc:
        check_section_naturality(sys_f, sys_g, comps)
    assert exc.value.witness == edges[later]


def test_adjunction_requires_shared_family():
    sys_f = coefficient_system(V2, "E", "B")
    sys_g = coefficient_system(V2, "X", "B")
    with pytest.raises(FamilyError):
        adjunction_plus(sys_f, sys_g, [])


# ---------------------------------------------------------------------------
# biset actions on limits


def test_identity_biset_acts_as_identity():
    for functor in ("B", "K", "Kdual"):
        sys_f = coefficient_system(V2, "E", functor)
        A = act_on_limit_matrix(identity_biset(V2), sys_f, sys_f)
        assert np.array_equal(A, _obj_eye(sys_f.total))


def _unit_square(U, sys_q, sys_p):
    """A @ unit_P == unit_Q @ base-map for the downward functors."""
    A = act_on_limit_matrix(U, sys_q, sys_p)
    Ep = np.asarray(sys_p.unit_matrix(), dtype=object)
    Eq = np.asarray(sys_q.unit_matrix(), dtype=object)
    M = np.asarray(biset_matrix(U), dtype=object)
    if sys_q.functor == "K":
        M = per_column_restrict(M, ring_data(sys_p.group).kernel().basis,
                                ring_data(sys_q.group).kernel().basis)
    return np.array_equal(A @ Ep, Eq @ M)


def test_unit_naturality_for_restriction_and_induction():
    ana = analysis(V2)
    sub = ana.subgroup_members[1]
    for functor in ("B", "K"):
        big = coefficient_system(V2, "E", functor)
        res = restriction_biset(ana, sub)
        small = coefficient_system(res.left_group, "E", functor)
        assert _unit_square(res, small, big)
        ind = induction_biset(ana, sub)
        small_p = coefficient_system(ind.right_group, "E", functor)
        assert _unit_square(ind, big, small_p)


def test_unit_naturality_for_inflation_and_deflation():
    ana = analysis(C9)
    sec = ana.section_at(ana.n_sub - 1, ana.index_of([0, 3, 6]))
    infl = inflation_biset(ana, sec)
    defl = deflation_biset(ana, sec)
    for functor in ("B", "K"):
        big = coefficient_system(infl.left_group, "E", functor)
        quo = coefficient_system(infl.right_group, "E", functor)
        assert _unit_square(infl, big, quo)
        big_r = coefficient_system(defl.right_group, "E", functor)
        quo_p = coefficient_system(defl.left_group, "E", functor)
        assert _unit_square(defl, quo_p, big_r)


def test_invertible_action_preserves_the_dual_limit():
    # factor swap on C3 x C3, elements encoded as 3a + b
    f = [3 * (x % 3) + x // 3 for x in range(9)]
    U = iso_biset(V2, V2, f)
    sys_f = coefficient_system(V2, "E", "Kdual")
    lim = inverse_limit(sys_f)
    A = act_on_limit_matrix(U, sys_f, sys_f)
    X, ok = lim.lattice.coords(A @ lim.basis)
    assert ok.all()
    assert X.shape == (1, 1) and abs(int(X[0, 0])) == 1


def test_action_rejects_mismatched_systems():
    ana = analysis(V2)
    res = restriction_biset(ana, ana.subgroup_members[1])
    big = coefficient_system(V2, "E", "B")
    small_wrong = coefficient_system(res.left_group, "X", "B")
    with pytest.raises(FamilyError):
        act_on_limit_matrix(res, small_wrong, big)
