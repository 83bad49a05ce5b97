from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bfk import zlinalg
from bfk.zlinalg import (
    IntegerLattice,
    coords_in_hnf,
    hnf,
    hnf_pivots,
    kernel_basis,
    obj_matrix,
    obj_eye,
    obj_zeros,
    snf_diagonal,
    sparse_kernel_basis,
    sparse_snf_invariants,
    unit_elimination,
    xgcd,
)
from helpers import (LatticeBuilder, coords_in_hnf_by_vector, sparse_kernel,
                     unit_elimination_by_rescans)

small_mat = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    x, y, g = xgcd(a, b)
    assert a * x + b * y == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@settings(max_examples=60, deadline=None)
@given(small_mat)
def test_hnf_preserves_row_span(rows):
    A = obj_matrix(rows)
    H = hnf(A)
    lb = LatticeBuilder(A.shape[1])
    for r in H:
        lb.add(r)
    for r in A:
        assert lb.member(r)
    lb2 = LatticeBuilder(A.shape[1])
    for r in A:
        lb2.add(r)
    for r in H:
        assert lb2.member(r)
    # canonical: recomputing from the reduced rows is a fixed point
    assert np.array_equal(hnf(H), H)


@settings(max_examples=60, deadline=None)
@given(small_mat)
def test_kernel_annihilates_and_is_saturated(rows):
    A = obj_matrix(rows)
    K = kernel_basis(A)
    m, n = A.shape
    assert K.shape[0] == n - hnf(A).shape[0]
    for k in K:
        prod = [sum(int(A[i, j]) * int(k[j]) for j in range(n)) for i in range(m)]
        assert all(x == 0 for x in prod)
    if K.shape[0]:
        # saturation: 3 * v in ker-lattice implies v in ker-lattice
        v = np.sum(K, axis=0)
        lb = LatticeBuilder(n)
        for k in K:
            lb.add(k)
        assert lb.member(v)
        assert lb.member([3 * int(x) for x in v]) and lb.member(v)


def sympy_invariants(rows) -> list[int]:
    """Nonzero SNF diagonal of the integer rows, by sympy's smith_normal_form."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    if not rows or not rows[0]:
        return []
    S = smith_normal_form(sympy.Matrix([[int(x) for x in r] for r in rows]))
    return sorted(abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0)


@settings(max_examples=40, deadline=None)
@given(small_mat)
def test_snf_matches_sympy(rows):
    assert snf_diagonal(obj_matrix(rows)) == sympy_invariants(rows)


def _unimodular(rng, n: int, steps: int) -> np.ndarray:
    """A product of random elementary integer matrices of size n."""
    U = obj_eye(n)
    for _ in range(steps):
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        kind = int(rng.integers(4))
        if kind == 0:
            U[[i, j]] = U[[j, i]]
        elif kind == 1:
            U[i] = -U[i]
        else:
            U[i] = U[i] + int(rng.integers(-3, 4)) * U[j]
    return U


@pytest.mark.parametrize("m,n,diag,want", [
    (2, 2, [4, 6], [2, 12]),                    # not yet a chain
    (4, 5, [6, 4, 10], [2, 2, 60]),
    (3, 3, [], []),
    (6, 4, [2, 4], [2, 4]),                     # rank-deficient both ways
    (7, 5, [1, 3, 3 * 2**70], [1, 3, 3 * 2**70]),      # past 2**63
    (12, 9, [1, 1, 1, 2, 2, 4, 12, 12], [1, 1, 1, 2, 2, 4, 12, 12]),
    (40, 60, [1] * 30 + [3, 3, 9, 27, 81, 0, 0],
     [1] * 30 + [3, 3, 9, 27, 81]),
])
def test_snf_recovers_a_known_diagonal(m, n, diag, want):
    rng = np.random.default_rng(m * n)
    D = obj_zeros(m, n)
    for i, d in enumerate(diag):
        D[i, i] = d
    A = _unimodular(rng, m, 6 * m) @ D @ _unimodular(rng, n, 6 * n)
    assert snf_diagonal(A) == want
    rows = [{c: int(v) for c, v in enumerate(r) if v} for r in A]
    assert sparse_snf_invariants(rows) == want


def test_snf_alternates_until_the_form_is_diagonal():
    # after one row and one column HNF these are still triangular, and
    # their diagonals (1, 3, 66) and (1, 2, 4) are not the Smith forms
    A = obj_matrix([[3, -3, 2], [5, 4, -5], [6, 3, 3]])
    assert snf_diagonal(A) == [1, 1, 198]
    B = obj_matrix([[4, -6, -2, 4], [4, 6, 5, 5], [-6, 3, -3, 2]])
    assert snf_diagonal(B) == [1, 1, 8]


def test_sparse_matches_dense_snf():
    rows = [{0: 2, 2: 4}, {1: 3}, {0: 2, 1: 3, 2: 4}, {3: 6, 0: 2}]
    dense = [[2, 0, 4, 0], [0, 3, 0, 0], [2, 3, 4, 0], [2, 0, 0, 6]]
    assert sparse_snf_invariants(rows) == sympy_invariants(dense)


@st.composite
def sparse_matrices(draw):
    """Sparse rows rich in +-1 entries, with non-unit cores, repeats and empty rows."""
    ncols = draw(st.integers(min_value=1, max_value=9))
    col = st.integers(min_value=0, max_value=ncols - 1)
    unit_rows = st.dictionaries(col, st.sampled_from([1, -1, 1, -1, 2, -3]),
                                min_size=1, max_size=4)
    core_rows = st.dictionaries(col, st.sampled_from([2, -2, 3, -3, 4, 6, 9]),
                                min_size=1, max_size=3)
    rows = draw(st.lists(st.one_of(unit_rows, unit_rows, core_rows, st.just({})),
                         max_size=14))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return ncols, draw(st.permutations(rows))


@seed(20081)
@settings(max_examples=300, deadline=None, database=None)
@given(sparse_matrices())
def test_sparse_snf_matches_dense_on_unit_rich_rows(case):
    ncols, rows = case
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert sparse_snf_invariants(rows) == sympy_invariants(dense)


def solved_both_ways(rows, ncols):
    """(invariants, canonical kernel) of the sparse solvers with the lazy
    elimination, then with the rescanning reference in its place."""
    out = []
    for elim in (unit_elimination, unit_elimination_by_rescans):
        with mock.patch.object(zlinalg, "unit_elimination", elim):
            inv = sparse_snf_invariants(rows)
            out.append((inv, hnf(sparse_kernel_basis(rows, ncols).T)))
    return out


def assert_valid_elimination(rows):
    """Each pivot row holds a +-1 in its column and no earlier pivot
    column; the core holds no pivot column."""
    steps, core = unit_elimination(rows)
    done = set()
    for c, prow in steps:
        assert prow[c] in (1, -1) and not done & prow.keys()
        done.add(c)
    assert all(r and not done & r.keys() for r in core)
    return steps, core


@seed(20082)
@settings(max_examples=200, deadline=None, database=None)
@given(sparse_matrices())
def test_lazy_elimination_matches_the_rescanning_reference(case):
    ncols, rows = case
    (inv, kern), (want_inv, want_kern) = solved_both_ways(rows, ncols)
    assert inv == want_inv
    assert np.array_equal(kern, want_kern)
    assert_valid_elimination(rows)


@pytest.mark.parametrize("seed_", range(4))
def test_lazy_elimination_matches_the_reference_under_fill_in(seed_):
    # 120 x 100 rows of 2-5 entries, mostly units: eliminations fill rows
    # in, make them lose and gain units, and leave a dense core
    rng = np.random.default_rng(seed_)
    ncols = 100
    rows = []
    for _ in range(120):
        cols = rng.choice(ncols, size=int(rng.integers(2, 6)), replace=False)
        vals = rng.choice([1, -1, 1, -1, 1, -1, 1, -1, 2, 3], size=len(cols))
        rows.append(dict(zip(cols.tolist(), vals.tolist())))
    (inv, kern), (want_inv, want_kern) = solved_both_ways(rows, ncols)
    assert inv == want_inv
    assert np.array_equal(kern, want_kern)
    assert_valid_elimination(rows)


def test_row_gains_its_first_unit_after_another_pivot():
    # the second row holds no unit until the first pivot turns it into
    # {1: -1, 2: 2}; it must then be taken as a pivot, not left in the core
    rows = [{0: 1, 1: 2}, {0: 2, 1: 3, 2: 2}]
    steps, core = assert_valid_elimination(rows)
    assert [c for c, _ in steps] == [0, 1] and core == []
    assert steps[1][1] == {1: -1, 2: 2}
    # a queued row that loses its only unit is rescored and stays in the core
    steps, core = assert_valid_elimination([{0: 1, 1: 1}, {0: 1, 1: 3, 2: 2}])
    assert [c for c, _ in steps] == [0] and core == [{1: 2, 2: 2}]
    for rows in ([{0: 1, 1: 2}, {0: 2, 1: 3, 2: 2}], [{0: 1, 1: 1}, {0: 1, 1: 3, 2: 2}]):
        (inv, kern), (want_inv, want_kern) = solved_both_ways(rows, 3)
        assert inv == want_inv and np.array_equal(kern, want_kern)


def test_hnf_switches_to_python_ints_mid_insertion():
    # entries near 2**60 start in int64, and their reductions pass 2**62
    big = 1 << 60
    rows = [[big + 3, 3 * big + 1, 5, -big],
            [3 * big - 1, big + 5, -2 * big, 9],
            [2 * big + 2, -3 * big, big + 11, 3 * big - 3],
            [2, 3 * big, 7, -2 * big]]
    # a dense, tall int64 matrix whose entries stay small
    dense = np.random.default_rng(5).integers(-3, 4, size=(60, 200))
    for A in (np.array(rows, dtype=np.int64), dense):
        lb = LatticeBuilder(A.shape[1])
        for r in A:
            lb.add(r)
        H = hnf(A)
        assert H.dtype == object
        assert np.array_equal(H, lb.hnf())
        assert all(type(x) is int for x in H.ravel())


def test_sparse_kernel_agrees_with_dense():
    rows = [{0: 1, 1: -1}, {1: 2, 2: -2}, {0: 3, 3: 1}]
    A = obj_matrix([[1, -1, 0, 0], [0, 2, -2, 0], [3, 0, 0, 1]])
    sol = sparse_kernel(4, rows)
    lb = LatticeBuilder(4)
    for s in sol:
        vec = [0] * 4
        for c, v in s.items():
            vec[c] = v
        lb.add(vec)
    assert np.array_equal(lb.hnf(), kernel_basis(A))


def _col(vec):
    return np.array(vec, dtype=object)[:, None]


def test_coords_and_residue():
    H = hnf(obj_matrix([[2, 1, 0], [0, 3, 1]]))
    v = [4, 5, 1]
    C, member = coords_in_hnf(H, _col(v))
    assert member.tolist() == [True]
    back = [sum(int(C[i, 0]) * int(H[i, j]) for i in range(H.shape[0]))
            for j in range(3)]
    assert back == v
    assert coords_in_hnf(H, _col([1, 0, 0]))[1].tolist() == [False]


# an HNF whose pivots are 2, 3 and 5, in columns 0, 1 and 3
NON_UNIT_HNF = hnf(obj_matrix([[2, 1, 0, 3], [0, 3, 1, 0], [0, 0, 0, 5]]))


def test_non_unit_hnf_pivots():
    H = NON_UNIT_HNF
    assert hnf_pivots(H) == [0, 1, 3]
    assert [int(H[i, j]) for i, j in enumerate(hnf_pivots(H))] == [2, 3, 5]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_pivot_list_gives_the_same_coords_and_residue(vec, mult):
    H = NON_UNIT_HNF
    piv = hnf_pivots(H)
    member = [sum(m * int(H[i, j]) for i, m in enumerate(mult)) for j in range(4)]
    V = np.array([vec, member], dtype=object).T
    for p in (None, piv):
        C, ok = coords_in_hnf(H, V, p)
        want = coords_in_hnf_by_vector(H, vec)
        assert ok.tolist() == [want is not None, True]
        if want is not None:
            assert C[:, 0].tolist() == want
        assert C[:, 1].tolist() == mult


def test_pivot_list_rejects_a_non_member():
    H = NON_UNIT_HNF
    piv = hnf_pivots(H)
    V = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [2, 1, 0, 4], [0, 0, 1, 0]],
                 dtype=object).T
    for p in (None, piv):
        assert coords_in_hnf(H, V, p)[1].tolist() == [False] * 4


def _random_hnf(rng, k, n, pivot_max, entry_max):
    """A canonical HNF of k rows in n columns with pivots up to pivot_max
    and free entries up to entry_max in size."""
    piv = np.sort(rng.choice(n, size=k, replace=False))
    H = obj_zeros(k, n)
    for i, j in enumerate(piv):
        H[i, j] = int(rng.integers(1, pivot_max + 1))
        for c in range(j + 1, n):
            H[i, c] = int(rng.integers(-entry_max, entry_max + 1))
    return hnf(H)


def _solve_cases(rng, entry_max, scale):
    for _ in range(40):
        n = int(rng.integers(1, 8))
        H = _random_hnf(rng, int(rng.integers(0, n + 1)), n, 6, entry_max)
        k = H.shape[0]
        coeffs = [[int(x) * scale for x in rng.integers(-5, 6, size=k)]
                  for _ in range(4)]
        members = [[sum(c[i] * int(H[i, j]) for i in range(k)) for j in range(n)]
                   for c in coeffs]
        # a member moved by a small vector is mostly not a member
        near = [[x + int(d) for x, d in zip(m, rng.integers(-2, 3, size=n))]
                for m in members]
        yield H, np.array(members + near, dtype=object).T


def _check_by_column(H, V):
    C, ok = coords_in_hnf(H, V)
    assert C.shape == (H.shape[0], V.shape[1]) and ok.shape == (V.shape[1],)
    for j in range(V.shape[1]):
        want = coords_in_hnf_by_vector(H, V[:, j])
        assert bool(ok[j]) == (want is not None)
        if want is not None:
            assert [int(x) for x in C[:, j]] == want
    return C, ok


def test_batched_solve_matches_the_per_vector_reference():
    rng = np.random.default_rng(16)
    non_unit = outside = 0
    for H, V in _solve_cases(rng, 20, 1):
        C, ok = _check_by_column(H, V)
        assert C.dtype == np.int64
        non_unit += int((np.diagonal(H[:, hnf_pivots(H)]) > 1).any())
        outside += int((~ok).sum())
    # most bases have a pivot above 1, and most moved columns leave them
    assert non_unit > 20 and outside > 60


def test_batched_solve_takes_python_ints_near_two_to_the_62():
    # entries past the int64 working range: in the basis off its pivot
    # columns, where only the exact check reads them, and in the columns
    rng = np.random.default_rng(62)
    for entry_max, scale in ((1 << 62, 1), (3, 1 << 60)):
        for H, V in _solve_cases(rng, entry_max, scale):
            _check_by_column(H, V)
    # int64 columns whose substitution passes 2**62 at its second step
    c = 1 << 54
    H = obj_matrix([[1, 4095, 0], [0, 4096, 0], [0, 0, 1]])
    assert np.array_equal(hnf(H), H)
    V = np.array([[c, -c, 0], [c, -c, 1], [c, 1 - c, 0]], dtype=np.int64).T
    C, ok = _check_by_column(H, V)
    assert C.dtype == object and ok.tolist() == [True, True, False]
    assert C[:, :2].T.tolist() == [[c, -c, 0], [c, -c, 1]]


def _first_nonzero_cols(basis):
    return [next(j for j, x in enumerate(r) if x != 0) for r in basis]


@settings(max_examples=60, deadline=None)
@given(small_mat, small_mat)
def test_lattice_pivots_match_the_basis(rows_a, rows_b):
    n = len(rows_a[0])
    rows_b = [(r * n)[:n] for r in rows_b]      # resized to n columns
    # both build routes, spanning rows and the kernel of a matrix
    built = [IntegerLattice(n, rows_a), IntegerLattice(n, obj_matrix(rows_a)),
             IntegerLattice(n, rows_b), IntegerLattice(n, rows_a + rows_b),
             IntegerLattice.kernel(obj_matrix(rows_a)), IntegerLattice(n)]
    for lat in built:
        piv = _first_nonzero_cols(lat.basis)
        assert lat.piv.tolist() == piv
        assert lat.rest.tolist() == [j for j in range(n) if j not in piv]
        assert lat.ident == bool((lat.basis[:, piv] == np.eye(len(piv))).all())
        assert lat.basis64.dtype == np.int64 and np.array_equal(lat.basis64, lat.basis)
        for r in lat.basis:
            assert lat.member(r)


def test_lattice_equality_and_sum():
    a = IntegerLattice(2, [[2, 0]])
    b = IntegerLattice(2, [[0, 3]])
    c = IntegerLattice(2, np.vstack([a.basis, b.basis]))
    assert c.rank == 2 and c.member([2, 3])
    assert a == IntegerLattice(2, [[4, 0], [2, 0], [-2, 0]])
    assert a != b
    assert not b.member(a.basis[0])
    assert all(c.member(r) for r in np.vstack([a.basis, b.basis]))


def sparse_kernel_hnf(A):
    """The former kernel_basis: the test-only sparse_kernel's xgcd fold,
    then the HNF of its solution vectors through LatticeBuilder; kept as
    the reference."""
    m, n = A.shape
    rows = [{j: int(A[i, j]) for j in range(n) if A[i, j] != 0} for i in range(m)]
    lb = LatticeBuilder(n)
    for sol in sparse_kernel(n, rows):
        vec = [0] * n
        for c, v in sol.items():
            vec[c] = v
        lb.add(vec)
    return lb.hnf()


@st.composite
def kernel_inputs(draw):
    """Small matrices with dependent rows, zero rows and zero columns, and
    entries from 2**55 up that overflow int64 during or before elimination."""
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=7))
    small = st.integers(min_value=-9, max_value=9)
    wide = st.builds(lambda e, s, d: s * (1 << e) + d, st.integers(55, 70),
                     st.sampled_from([1, -1]), st.integers(-3, 3))
    if draw(st.booleans()):
        entry = st.one_of(small, small, small, st.just(0), wide)
    else:
        entry = st.one_of(small, st.just(0))
    A = obj_zeros(m, n)
    for i in range(m):
        kind = draw(st.sampled_from(["free", "free", "zero", "dependent"]))
        if kind == "dependent" and i:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            A[i] = a * A[draw(st.integers(0, i - 1))] + b * A[draw(st.integers(0, i - 1))]
        elif kind != "zero":
            A[i] = draw(st.lists(entry, min_size=n, max_size=n))
    if n:
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            A[:, j] = 0
    return A


@seed(20082)
@settings(max_examples=400, deadline=None, database=None)
@given(kernel_inputs())
def test_kernel_basis_matches_the_sparse_fold(A):
    want = sparse_kernel_hnf(A)
    got = kernel_basis(A)
    assert got.dtype == object and got.shape == want.shape
    assert np.array_equal(got, want)
    assert all(type(x) is int for x in got.flat)


def test_kernel_basis_switches_to_python_ints_mid_elimination():
    # int64 inputs whose elimination needs products past 2**62
    big = (1 << 61) + 1
    A = np.array([[big, 3, 0], [2, big, 5]], dtype=np.int64)
    assert np.array_equal(kernel_basis(A), sparse_kernel_hnf(A.astype(object)))
    assert np.array_equal(kernel_basis(np.zeros((0, 3), dtype=np.int64)),
                          obj_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
