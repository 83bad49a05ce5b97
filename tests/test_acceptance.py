"""End-to-end acceptance checks, one test per shipped guarantee.

Each test drives the public surface (campaigns, reports, exit codes) at
the full default bound and pins exact integer outcomes; the two checks
with wall-clock budgets assert them from their own measurements.
"""

import time

import numpy as np
import pytest

from bfk.burnside import (
    extraspecial_kernel_element,
    linearization_kernel,
    rank_two_kernel_element,
    ring_data,
)
from bfk.campaigns import (
    RunConfig,
    catalog_groups,
    emit_json,
    exit_code,
    recheck,
    run_campaign,
)
from bfk.claims import CLAIMS
from bfk.groups import parse_descriptor
from bfk.zlinalg import IntegerLattice, hnf


@pytest.fixture(scope="session")
def cfg81():
    return RunConfig(max_order=81)


def _timed(campaign, cfg):
    t0 = time.perf_counter()
    doc = run_campaign(campaign, cfg)
    return doc, time.perf_counter() - t0


@pytest.fixture(scope="session")
def induction81(cfg81):
    return _timed("induction", cfg81)


@pytest.fixture(scope="session")
def exact81(cfg81):
    return _timed("exact", cfg81)


@pytest.fixture(scope="session")
def main81(cfg81):
    return _timed("main", cfg81)


@pytest.fixture(scope="session")
def probe81(cfg81):
    return _timed("probe", cfg81)


@pytest.fixture(scope="session")
def appendix81(cfg81):
    return _timed("appendix", cfg81)


def _rows(doc, claim):
    return [r for r in doc["rows"] if r["claim"] == claim]


ALL_DESCRIPTORS = [d for _, d in catalog_groups(3, 81)]
ORDER_OF = {d: o for o, d in catalog_groups(3, 81)}


def test_01_rank_bookkeeping_at_the_rank_two_group():
    t0 = time.perf_counter()
    G = parse_descriptor("elab:3:2", 3)
    rd = ring_data(G)
    assert rd.n_classes == 6
    assert hnf(np.asarray(rd.linearization(), dtype=object)).shape[0] == 5
    kern = linearization_kernel(G)
    assert kern.rank == 1
    eps = np.asarray(rank_two_kernel_element(G), dtype=object)
    assert IntegerLattice(kern.ambient, [eps]) == kern
    assert time.perf_counter() - t0 < 1.0


def test_02_induced_difference_equals_scaled_kernel_element():
    from bfk.campaigns import _delta_identity_row
    t0 = time.perf_counter()
    row = _delta_identity_row(RunConfig())
    assert row["status"] == "verified"
    w = row["witness"]
    assert w["left"] == w["right"]
    X = parse_descriptor("xsp:3", 3)
    delta = [int(v) for v in extraspecial_kernel_element(X, 0, 1)]
    assert w["right"] == [3 * v for v in delta]
    assert w["right"] == [0, 3, -3, 0, 0, 0, -3, 3, 0, 0, 0]
    assert time.perf_counter() - t0 < 1.0


def test_03_kernel_is_the_induced_sum_on_every_catalog_group(induction81):
    doc, elapsed = induction81
    assert exit_code(doc) == 0
    for claim in ("induction-kernel-matches-x2-sum",
                  "induction-eps-part-matches-e2-sum",
                  "induction-scaling-lands-in-eps-part"):
        rows = _rows(doc, claim)
        assert {r["group"] for r in rows} == set(ALL_DESCRIPTORS)
        assert all(r["status"] == "verified" and recheck(r) for r in rows)
    assert elapsed < 600.0


def test_04_dual_quotient_is_free_of_kernel_rank(exact81):
    doc, _ = exact81
    assert exit_code(doc) == 0
    rows = _rows(doc, "dual-quotient-free")
    assert {r["group"] for r in rows} == set(ALL_DESCRIPTORS)
    for r in rows:
        assert r["status"] == "verified"
        assert r["witness"]["nontrivial_invariants"] == []
        assert r["witness"]["free_rank"] == r["witness"]["kernel_rank"]
    assert all(r["status"] == "verified"
               for r in _rows(doc, "dual-rank-additivity"))


def test_05_comparison_units_are_isomorphisms_everywhere(main81):
    doc, elapsed = main81
    assert exit_code(doc) == 0
    for claim in ("unit-iso-x", "unit-iso-x3"):
        rows = _rows(doc, claim)
        groups = {r["group"] for r in rows}
        assert groups == set(ALL_DESCRIPTORS)
        assert "xsp:3" in groups
        assert sum(1 for g in groups if ORDER_OF[g] == 81) >= 3
        assert all(r["status"] == "verified" and recheck(r) for r in rows)
    assert elapsed < 1800.0


def test_06_cokernel_invariants_divide_the_group_order(main81):
    doc, _ = main81
    for claim in ("unit-cokernel-divides-order-e",
                  "unit-cokernel-divides-order-x"):
        rows = _rows(doc, claim)
        assert {r["group"] for r in rows} == set(ALL_DESCRIPTORS)
        for r in rows:
            assert r["status"] == "verified"
            order = r["witness"]["order"]
            assert all(order % d == 0 for d in r["witness"]["invariants"])
            assert r["witness"]["free_rank"] == 0


def test_07_retraction_scales_by_the_group_order(main81):
    doc, _ = main81
    rows = _rows(doc, "unit-retraction-scales-by-order")
    expected = {d for d in ALL_DESCRIPTORS if ORDER_OF[d] <= 27}
    assert {r["group"] for r in rows} == expected
    for r in rows:
        assert r["status"] == "verified"
        assert r["witness"]["reading"] == "A"
        assert r["witness"]["scale"] == ORDER_OF[r["group"]]


def test_08_case_engines_cover_every_lemma_without_failures(appendix81):
    doc, _ = appendix81
    assert exit_code(doc) == 0
    small_doc = run_campaign("appendix", RunConfig(max_order=27))
    assert exit_code(small_doc) == 0
    for c in (c for c in CLAIMS if c.campaign == "appendix"):
        small_rows = _rows(small_doc, c.id)
        assert small_rows, c.id
        assert any(r["witness"].get("mode") == "exhaustive"
                   for r in small_rows), c.id
        big = [r for r in _rows(doc, c.id) if ORDER_OF[r["group"]] == 81]
        cases = sum(r["witness"].get("cases", 0)
                    + r["witness"].get("groupwise_cases", 0)
                    + r["witness"].get("limitwise_cases", 0) for r in big)
        assert cases >= 200, (c.id, cases)
        assert all(r["status"] == "verified" and recheck(r)
                   for r in small_rows + big), c.id


def test_09_counit_surjective_and_kernel_finite_with_data(probe81):
    doc, _ = probe81
    assert exit_code(doc) == 0
    sur = _rows(doc, "counit-surjective")
    fin = _rows(doc, "counit-kernel-finite")
    assert {r["group"] for r in sur} == set(ALL_DESCRIPTORS)
    assert all(r["status"] == "verified" for r in sur + fin)
    by_group = {r["group"]: r["witness"] for r in fin}
    # kernel contents are reported, not asserted; pin the observed data
    assert by_group["prod:xsp:3,cyclic:3"]["invariants"] == [3] * 27
    assert by_group["elab:3:4"]["invariants"] == []
    assert by_group["xsp:3"]["invariants"] == []
    assert all("invariants" in w for w in by_group.values())


def test_10_identical_config_and_seed_reproduce_bytes(cfg81, appendix81):
    doc, _ = appendix81
    again = run_campaign("appendix", cfg81)
    assert emit_json(doc) == emit_json(again)


def test_11_every_row_rechecks_and_its_flipped_copy_does_not(
        induction81, exact81, main81, probe81, appendix81):
    for doc, _ in (induction81, exact81, main81, probe81, appendix81):
        for row in doc["rows"]:
            flipped = dict(row, status="refuted" if row["status"] == "verified"
                           else "verified")
            assert recheck(row) and not recheck(flipped), (row["claim"], row["group"])
