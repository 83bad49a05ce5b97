import gc
import json
import weakref
from importlib import resources

import jsonschema
import numpy as np
import pytest

import bfk.campaigns as campaigns
from bfk.bisets import ConcreteBiset, identity_biset, indinf_biset
from bfk.campaigns import (
    RunConfig,
    _appendix_composite_transporter_rows,
    _appendix_identity_action_rows,
    _appendix_section_transport_rows,
    _appendix_transporter_rows,
    _delta_identity_row,
    _engine_rng,
    _membership_row,
    _probe_rows,
    _x3_quotients,
    catalog_groups,
    emit_csv,
    emit_json,
    exit_code,
    recheck,
    run_campaign,
)
from bfk.burnside import ring_data
from bfk.claims import CAMPAIGNS, CLAIMS
from bfk.groups import analysis, parse_descriptor
from bfk.limits import (CoefficientSystem, InverseLimit, coefficient_system, inverse_limit,
                         section_family)
from bfk.zlinalg import IntegerLattice
from helpers import (
    composite_transporter_rows_by_points,
    constraint_violation_by_edges,
    section_transport_rows_by_points,
    transporter_rows_by_points,
)

CATALOG_81 = [
    (1, "cyclic:1"),
    (3, "cyclic:3"),
    (9, "cyclic:9"),
    (9, "elab:3:2"),
    (27, "cyclic:27"),
    (27, "elab:3:3"),
    (27, "prod:cyclic:9,cyclic:3"),
    (27, "xsp:3"),
    (81, "cyclic:81"),
    (81, "elab:3:4"),
    (81, "prod:cyclic:27,cyclic:3"),
    (81, "prod:cyclic:9,cyclic:3,cyclic:3"),
    (81, "prod:cyclic:9,cyclic:9"),
    (81, "prod:xsp:3,cyclic:3"),
]


def load_schema():
    text = (resources.files("bfk") / "schemas" / "report.schema.json").read_text()
    return json.loads(text)


def test_catalog_is_frozen_at_the_default_bound():
    assert catalog_groups(3, 81) == CATALOG_81


def test_catalog_descriptors_parse_to_the_listed_orders():
    for order, desc in catalog_groups(3, 81):
        assert parse_descriptor(desc, 3).order == order


def test_catalog_at_another_prime():
    assert catalog_groups(5, 25) == [
        (1, "cyclic:1"), (5, "cyclic:5"), (25, "cyclic:25"), (25, "elab:5:2")]


def test_run_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(p=2)
    with pytest.raises(ValueError):
        RunConfig(p=9)
    with pytest.raises(ValueError):
        RunConfig(max_order=10)
    with pytest.raises(ValueError):
        RunConfig(max_order=0)
    with pytest.raises(ValueError):
        RunConfig(klass="Y")
    with pytest.raises(ValueError):
        RunConfig(functor="Q")
    with pytest.raises(ValueError):
        RunConfig(jobs=0)
    with pytest.raises(ValueError):
        RunConfig(fmt="xml")


def test_run_config_echo_hides_scheduling_fields():
    cfg = RunConfig(jobs=4, fmt="csv", seed=9)
    assert cfg.config_block() == {
        "p": 3, "max_order": 81, "class": "X", "functor": "Kdual", "seed": 9}


def test_custom_class_is_a_library_only_route():
    # "custom" is no campaign class: RunConfig turns it away before a run
    with pytest.raises(ValueError):
        run_campaign("main", RunConfig(klass="custom"))


def test_unknown_campaign_rejected():
    with pytest.raises(ValueError):
        run_campaign("bogus", RunConfig())


def test_induction_campaign_small_bound_all_verified():
    doc = run_campaign("induction", RunConfig(max_order=27))
    assert exit_code(doc) == 0
    assert len(doc["rows"]) == 26
    assert all(r["status"] == "verified" for r in doc["rows"])
    assert all(recheck(r) for r in doc["rows"])
    jsonschema.validate(doc, load_schema())


def test_bounds_below_scoped_groups_skip_with_exit_three():
    doc = run_campaign("induction", RunConfig(max_order=3))
    assert exit_code(doc) == 3
    skipped = {(r["claim"], r["group"]) for r in doc["rows"]
               if r["status"] == "skipped"}
    assert skipped == {
        ("induction-difference-is-scaled-delta", "xsp:3"),
        ("induction-eps-generates-rank-two-kernel", "elab:3:2")}
    assert all(recheck(r) for r in doc["rows"])


def test_exact_campaign_small_bound_all_verified():
    doc = run_campaign("exact", RunConfig(max_order=27))
    assert exit_code(doc) == 0
    assert all(r["status"] == "verified" and recheck(r) for r in doc["rows"])


def test_main_campaign_small_bound_all_verified():
    doc = run_campaign("main", RunConfig(max_order=9))
    assert exit_code(doc) == 0
    assert all(r["status"] == "verified" and recheck(r) for r in doc["rows"])
    claims = {r["claim"] for r in doc["rows"]}
    assert "unit-iso-x3" in claims
    assert "unit-retraction-scales-by-order" in claims
    jsonschema.validate(doc, load_schema())


def test_probe_rows_record_kernel_invariants_as_data():
    rows = _probe_rows("prod:xsp:3,cyclic:3", RunConfig(max_order=81))
    by_claim = {r["claim"]: r for r in rows}
    fin = by_claim["counit-kernel-finite"]
    assert fin["status"] == "verified"
    assert fin["witness"]["invariants"] == [3] * 27
    assert fin["witness"]["trivial"] is False
    sur = by_claim["counit-surjective"]
    assert sur["status"] == "verified"
    assert all(recheck(r) for r in rows)


def test_injected_delta_mismatch_is_refuted_with_checkable_witness(monkeypatch):
    # a doubled kernel element puts the right side at 2p delta
    real = campaigns.extraspecial_kernel_element
    monkeypatch.setattr(campaigns, "extraspecial_kernel_element",
                        lambda G, a, b: [2 * x for x in real(G, a, b)])
    row = _delta_identity_row(RunConfig())
    assert row["status"] == "refuted"
    assert row["witness"]["right"] == [2 * x for x in row["witness"]["left"]]
    assert recheck(row)
    tampered = dict(row, witness=dict(row["witness"],
                                      right=row["witness"]["left"]))
    assert not recheck(tampered)
    doc = {"rows": [row]}
    assert exit_code(doc) == 2


def test_recheck_membership_failure_from_recorded_data_alone():
    row = {"status": "refuted",
           "witness": {"kind": "membership-failure", "vector": [1, 0],
                       "basis": [[2, 0]], "ambient": 2}}
    assert recheck(row)
    inside = {"status": "refuted",
              "witness": {"kind": "membership-failure", "vector": [2, 0],
                          "basis": [[2, 0]], "ambient": 2}}
    assert not recheck(inside)


def test_recheck_rejects_unknown_kinds_and_malformed_rows():
    assert not recheck({"status": "verified", "witness": {"kind": "mystery"}})
    assert not recheck({"status": "verified", "witness": {}})
    assert not recheck({"status": "verified"})


def test_recheck_accepts_only_the_retraction_reading_the_engine_writes():
    # reading "B" is the one transfers.retraction_matrix keeps to fail
    row = {"status": "verified",
           "witness": {"kind": "retraction-scale", "reading": "A", "scale": 9}}
    assert recheck(row)
    assert not recheck(dict(row, witness=dict(row["witness"], reading="B")))


def test_reports_are_byte_identical_across_runs():
    cfg = RunConfig(max_order=27, seed=5)
    a = emit_json(run_campaign("appendix", cfg))
    b = emit_json(run_campaign("appendix", cfg))
    assert a == b


def test_parallel_run_matches_serial_run():
    serial = emit_json(run_campaign("appendix", RunConfig(max_order=27)))
    parallel = emit_json(run_campaign("appendix",
                                      RunConfig(max_order=27, jobs=2)))
    assert serial == parallel


def test_rows_sorted_by_claim_then_group():
    doc = run_campaign("exact", RunConfig(max_order=27))
    keys = [(r["claim"], r["group"]) for r in doc["rows"]]
    assert keys == sorted(keys)


def test_csv_emission_shape():
    doc = run_campaign("induction", RunConfig(max_order=9))
    lines = emit_csv(doc).splitlines()
    assert lines[0] == "campaign,claim,group,status,witness,wall_time"
    assert len(lines) == len(doc["rows"]) + 1
    assert all(line.endswith(",") for line in lines[1:])  # wall_time empty


def test_refuted_unit_row_names_the_first_violated_edge(monkeypatch):
    # the unit matrix is seeded with two faults after the report is taken
    real = campaigns.comparison_report
    seeded = []

    def faulty_report(lim):
        rep = dict(real(lim), unit_in_limit=False)
        system = lim.system
        E = system.unit_matrix().copy()
        if min(E.shape) > 1:
            E[system.offsets[len(system.dims) // 2], 0] += 1
            E[-1, -1] -= 2
            monkeypatch.setattr(system, "unit_matrix", lambda: E)
            seeded.append((system, E))
        return rep

    monkeypatch.setattr(campaigns, "comparison_report", faulty_report)
    rows = campaigns._main_rows("prod:xsp:3,cyclic:3", RunConfig())
    rows = [r for r in rows if r["witness"]["kind"] == "constraint-violation"]
    # the first four seeded systems are the group's E, E3, X and X3
    assert len(rows) == 4 and len(seeded) >= 4
    for row, (system, E) in zip(rows, seeded):
        assert row["status"] == "refuted" and recheck(row)
        want = constraint_violation_by_edges(system, E)
        assert row["witness"] == dict(want, family=system.family.label)
        assert row["witness"]["edge"] is not None


def test_unit_faulty_before_the_report_gives_refuted_rows(monkeypatch):
    # every unit matrix carries a +1 from the start: the comparison report
    # takes it as it is, and each unit row names the constraint it breaks
    real = CoefficientSystem.unit_matrix

    def faulty(system):
        E = real(system).copy()
        if system.group.order == 81:
            E[system.offsets[len(system.dims) // 2], 0] += 1
        return E

    monkeypatch.setattr(CoefficientSystem, "unit_matrix", faulty)
    rows = campaigns._main_rows("prod:xsp:3,cyclic:3", RunConfig())
    unit = [r for r in rows if r["claim"].startswith("unit-lands-in-limit")]
    assert len(unit) == 4
    for row in unit:
        assert row["status"] == "refuted" and recheck(row)
        assert row["witness"]["kind"] == "constraint-violation"


def test_lattice_past_int64_stays_exact():
    # no int64 holds 2**63 + 1, and float64 reads 2**63 + 2 as 2**63
    big = 2**63 + 1
    lat = IntegerLattice(2, [[big, 0], [0, 1]])
    assert lat.basis64 is None and lat.basis[0, 0] == big
    cols = np.array([[big, 3 * big, 0, big + 1, big - 1], [5, -7, 1, 0, 0]], dtype=object)
    assert lat.members(cols).tolist() == [True, True, True, False, False]
    assert lat.member([2 * big, -1]) and not lat.member([big + 1, 1])
    assert lat == IntegerLattice(2, [[2 * big, 0], [big, 1], [0, 1]])
    assert lat != IntegerLattice(2, [[big + 1, 0], [0, 1]])
    # a witness carrying that basis is confirmed exactly, and one whose
    # vector lies in the lattice is not
    for vec, outside in (([big + 1, 1], True), ([big - 1, 0], True),
                         ([big, -1], False), ([2 * big, 1], False)):
        row = _membership_row("induction", "induction-kernel-matches-x2-sum",
                              "elab:3:2", vec, lat)
        assert row["witness"]["basis"] == [[big, 0], [0, 1]]
        assert recheck(row) is outside, vec


def test_per_group_results_are_shared_and_freed_with_the_group():
    G = parse_descriptor("xsp:3", 3)
    builders = (analysis, ring_data, lambda H: section_family(H, "X3"),
                lambda H: inverse_limit(coefficient_system(H, "X3", "Kdual")))
    results = [build(G) for build in builders]
    assert all(build(G) is got for build, got in zip(builders, results))
    refs = [weakref.ref(got) for got in results]
    del G, results
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_main_worker_unit_matrix_matches_systems():
    # the kept limit and a freshly built system agree on shape
    G = parse_descriptor("xsp:3", 3)
    lim = inverse_limit(coefficient_system(G, "X3", "Kdual"))
    system = coefficient_system(G, "X3", "Kdual")
    assert lim.basis.shape == (system.total, lim.rank)


def _tampered_pool(G):
    """The appendix pool of G with one right-action entry of its second
    biset pointed at another point."""
    pool = [indinf_biset(sec) for sec in _x3_quotients(G, 4)]
    U = pool[1]
    right = U.right.copy()
    right[1, 1] = (right[1, 1] + 1) % U.size
    pool[1] = ConcreteBiset(U.left_group, U.right_group, U.left, right,
                            name=U.name + "*")
    return pool


@pytest.mark.parametrize("p,desc", [(3, "xsp:3"), (3, "elab:3:3"), (5, "xsp:5")])
def test_biset_engines_fail_like_the_reference_loops(p, desc):
    G = parse_descriptor(desc, p)
    ana = analysis(G)
    cfg = RunConfig(p=p, max_order=G.order)
    small = G.order <= 27
    pool = _tampered_pool(G)
    secs_x3 = section_family(G, "X3").sections
    engines = [
        (_appendix_transporter_rows, transporter_rows_by_points, 1,
         (desc, G, ana, pool, small)),
        (_appendix_section_transport_rows, section_transport_rows_by_points,
         2, (desc, ana, pool, secs_x3, small)),
        (_appendix_composite_transporter_rows,
         composite_transporter_rows_by_points, 3, (desc, pool, small)),
    ]
    rows = []
    for engine, reference, salt, args in engines:
        got = engine(*args, _engine_rng(cfg, desc, salt))
        want = reference(*args, _engine_rng(cfg, desc, salt))
        assert got == want
        rows += got
    refuted = {r["claim"] for r in rows if r["status"] == "refuted"}
    if small:
        assert {"transporter-conjugation-right", "transporter-conjugation-left",
                "transported-pair-is-section",
                "transporter-through-composite"} <= refuted
        assert all(recheck(r) for r in rows if r["status"] == "refuted")


def test_section_transport_refutes_a_pair_that_is_no_section():
    # transport keeps subgroups, so only a bottom that is not normal in
    # its top reaches the normality read
    G = parse_descriptor("xsp:3", 3)
    ana = analysis(G)
    top = ana.n_sub - 1
    bottom = next(si for si in range(ana.n_sub) if not ana.normal[si, top])
    cfg = RunConfig(p=3, max_order=27)
    args = ("xsp:3", ana, [identity_biset(G)], [(top, bottom)], True)
    got = _appendix_section_transport_rows(*args, _engine_rng(cfg, "xsp:3", 2))
    want = section_transport_rows_by_points(*args, _engine_rng(cfg, "xsp:3", 2))
    assert got == want
    assert got[0]["claim"] == "transported-pair-is-section"
    assert got[0]["status"] == "refuted"


def test_identity_action_names_the_first_wrong_cell(monkeypatch):
    act = campaigns.act_on_limit_matrix

    def tampered(U, sys_q, sys_p):
        A = act(U, sys_q, sys_p).copy()
        A[2, 1] += 3
        A[3, 0] += 1
        return A

    monkeypatch.setattr(campaigns, "act_on_limit_matrix", tampered)
    G = parse_descriptor("elab:3:2", 3)
    row, = _appendix_identity_action_rows("elab:3:2", G, True)
    assert row["status"] == "refuted"
    assert row["witness"]["case"] == {"functor": "B", "cell": [2, 1]}
    assert (row["witness"]["left"], row["witness"]["right"]) == ([3], [0])
    assert recheck(row)


# ---------------------------------------------------------------------------
# refuted paths: each check is fed one fault through a name it reads from
# bfk.campaigns, and its refuted row must name the first failing case with
# a witness recheck confirms; no catalog run refutes, so these pin the bytes


def _eye_ints(n, shift=0):
    return [int(v) for v in (np.eye(n, dtype=int) * (1 + shift)).ravel()]


def test_induced_sums_that_miss_the_kernel_are_refuted(monkeypatch):
    real = campaigns.sum_of_induced_kernels

    def doubled(G, label):
        lat = real(G, label)
        return IntegerLattice(lat.ambient, 2 * lat.basis)

    monkeypatch.setattr(campaigns, "sum_of_induced_kernels", doubled)
    rows = {r["claim"]: r for r in campaigns._induction_rows("elab:3:2", RunConfig())}
    for claim in ("induction-kernel-matches-x2-sum",
                  "induction-eps-part-matches-e2-sum"):
        row = rows[claim]
        assert row["status"] == "refuted" and recheck(row)
        assert row["witness"] == {
            "kind": "membership-failure", "vector": [1, -1, -1, -1, -1, 3],
            "basis": [[2, -2, -2, -2, -2, 6]], "ambient": 6}
    assert rows["induction-scaling-lands-in-eps-part"]["status"] == "verified"


def test_eps_outside_the_kernel_is_refuted(monkeypatch):
    real = campaigns.rank_two_kernel_element

    def shifted(G):
        eps = np.array(real(G), dtype=object)
        eps[0] += 1
        return eps

    monkeypatch.setattr(campaigns, "rank_two_kernel_element", shifted)
    row = campaigns._eps_generator_row(RunConfig())
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "membership-failure", "vector": [2, -1, -1, -1, -1, 3],
        "basis": [[1, -1, -1, -1, -1, 3]], "ambient": 6, "rank": 1}


def test_scaled_kernel_outside_the_eps_part_is_refuted(monkeypatch):
    real = campaigns._induced_rank_two
    monkeypatch.setattr(campaigns, "_induced_rank_two",
                        lambda ana, classes, si: 2 * real(ana, classes, si))
    rows = {r["claim"]: r for r in campaigns._induction_rows("elab:3:2", RunConfig())}
    row = rows["induction-scaling-lands-in-eps-part"]
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "membership-failure", "vector": [3, -3, -3, -3, -3, 9],
        "basis": [[2, -2, -2, -2, -2, 6]], "ambient": 6}


def test_dual_action_leaving_the_characters_is_refuted(monkeypatch):
    real = campaigns.dual_action_matrix

    def shifted(biset):
        M = np.array(real(biset), dtype=object)
        M[0, :] += 1
        return M

    monkeypatch.setattr(campaigns, "dual_action_matrix", shifted)
    rows = {r["claim"]: r for r in campaigns._exact_rows("elab:3:2", RunConfig())}
    row = rows["dual-action-descends"]
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "membership-failure", "vector": [10, 3, 3, 3, 3, 1],
        "basis": [[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 2, 1], [0, 0, 1, 0, 2, 1],
                  [0, 0, 0, 1, 2, 1], [0, 0, 0, 0, 3, 1]],
        "ambient": 6}


def _appendix_args(desc):
    G = parse_descriptor(desc, 3)
    return G, analysis(G), section_family(G, "X3").sections


def test_transported_quotient_outside_the_subquotients_is_refuted(monkeypatch):
    # each section of order > 1 loses its own fingerprint, so the first
    # point that transports it whole fails; the pair claim keeps its count
    real = campaigns._subquotient_fps

    def without_self(ana, ti, si):
        fps = real(ana, ti, si)
        if ana.sizes[ti] > ana.sizes[si]:
            fps.discard(campaigns._fingerprint(ana, ti, si))
        return fps

    monkeypatch.setattr(campaigns, "_subquotient_fps", without_self)
    G, ana, secs = _appendix_args("elab:3:2")
    pool = [indinf_biset(sec) for sec in _x3_quotients(G, 4)]
    rows = _appendix_section_transport_rows(
        "elab:3:2", ana, pool, secs, True,
        _engine_rng(RunConfig(max_order=27), "elab:3:2", 2))
    assert [(r["claim"], r["status"]) for r in rows] == [
        ("transported-pair-is-section", "verified"),
        ("transported-quotient-is-subquotient", "refuted")]
    assert rows[0]["witness"] == {"kind": "case-census", "cases": 37,
                                  "mode": "exhaustive"}
    assert rows[1]["witness"] == {
        "kind": "case-failure",
        "case": {"biset": "indinf[((0, 1, 2), (0,))]", "point": 0,
                 "top_order": 3, "bottom_order": 1},
        "left": [3, True, [1, 3, 3]], "right": [[1, True, [1]]]}
    assert all(recheck(r) for r in rows)


def test_section_transport_refutes_a_transporter_that_is_no_subgroup(monkeypatch):
    # the last point's transporter of every nontrivial subgroup gains or
    # loses the last element, so it is no subgroup: the engine locates only
    # the pairs that passed, and that point gives the refuted row instead
    # of an error
    real = campaigns.right_transporters

    def toggled(U, members):
        mask = real(U, members)
        if len(members) > 1:
            mask = mask.copy()
            mask[-1, -1] ^= True
        return mask

    monkeypatch.setattr(campaigns, "right_transporters", toggled)
    G, ana, secs = _appendix_args("elab:3:2")
    pool = [indinf_biset(sec) for sec in _x3_quotients(G, 4)]
    rows = _appendix_section_transport_rows(
        "elab:3:2", ana, pool, secs, True,
        _engine_rng(RunConfig(max_order=27), "elab:3:2", 2))
    assert [(r["claim"], r["status"]) for r in rows] == [
        ("transported-pair-is-section", "refuted"),
        ("transported-quotient-is-subquotient", "verified")]
    case = rows[0]["witness"]["case"]
    assert case["point"] == pool[0].size - 1 and case["top_order"] > 1
    top = rows[0]["witness"]["right"]
    mask = np.zeros((1, pool[0].right_group.order), dtype=bool)
    mask[0, top] = True
    with pytest.raises(ValueError):
        analysis(pool[0].right_group).locate(mask)
    assert all(recheck(r) for r in rows)
    assert not recheck(dict(rows[0], status="verified"))


def test_collapse_skipped_after_composing_is_refuted(monkeypatch):
    real = campaigns.left_quotient_biset
    monkeypatch.setattr(campaigns, "left_quotient_biset",
                        lambda U, members: U if ")o(" in U.name else real(U, members))
    G, ana, secs = _appendix_args("elab:3:2")
    row, = campaigns._appendix_quotient_collapse_rows(
        "elab:3:2", G, ana, secs, True,
        _engine_rng(RunConfig(max_order=27), "elab:3:2", 4))
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "case-failure",
        "case": {"collapsed": [0, 1, 2], "outer": "indinf[((0,), (0,))]",
                 "inner": "indinf[((0,), (0,))]"},
        "left": [3], "right": [9]}


def test_unit_component_off_the_identity_is_refuted(monkeypatch):
    real = campaigns.obj_eye
    monkeypatch.setattr(campaigns, "obj_eye", lambda n: 2 * real(n))
    G = parse_descriptor("elab:3:2", 3)
    row, = campaigns._appendix_unit_component_rows("elab:3:2", G, True)
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "case-failure", "case": {"family": "E", "functor": "B"},
        "left": _eye_ints(6), "right": _eye_ints(6, shift=1)}


def test_limit_image_off_the_constraints_is_refuted(monkeypatch):
    real = campaigns.act_on_limit_matrix

    def shifted(U, sys_q, sys_p):
        A = real(U, sys_q, sys_p).copy()
        A[0, 0] += 1
        return A

    monkeypatch.setattr(campaigns, "act_on_limit_matrix", shifted)
    G, ana, secs = _appendix_args("elab:3:2")
    row, = campaigns._appendix_limit_action_rows(
        "elab:3:2", G, ana, secs, True,
        _engine_rng(RunConfig(max_order=27), "elab:3:2", 5))
    assert row["status"] == "refuted" and recheck(row)
    # the trivial quotient has no edge; the first edge of C3 breaks
    assert row["witness"] == {
        "kind": "case-failure",
        "case": {"functor": "B", "top_order": 3, "bottom_order": 1},
        "left": [1, 0, "('cover', 'res')"], "right": [-1, 0, 0, 0, 0, 0]}


def test_limit_image_outside_the_target_limit_is_refuted(monkeypatch):
    # the limit of each proper nontrivial quotient is replaced by twice it,
    # so a compatible image falls outside it
    real = campaigns.inverse_limit
    G, ana, secs = _appendix_args("elab:3:2")

    def doubled(system):
        lim = real(system)
        if system.group.order in (1, G.order):
            return lim
        return InverseLimit(system, IntegerLattice(system.total, 2 * lim.lattice.basis))

    monkeypatch.setattr(campaigns, "inverse_limit", doubled)
    row, = campaigns._appendix_limit_action_rows(
        "elab:3:2", G, ana, secs, True,
        _engine_rng(RunConfig(max_order=27), "elab:3:2", 5))
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "case-failure",
        "case": {"functor": "B", "top_order": 3, "bottom_order": 1},
        "left": [1, 0, 1, 1], "right": [[2, 0, 2, 2], [0, 2, -6, -4]]}


def test_composite_action_off_by_one_cell_is_refuted(monkeypatch):
    # only products with more than one row are touched, so the pairs
    # through the trivial quotient pass first
    real = campaigns._exact_matmul

    def shifted(A, B):
        C = real(A, B)
        if C.shape[0] > 1:
            C = C.copy()
            C[1, 2] += 1
        return C

    monkeypatch.setattr(campaigns, "_exact_matmul", shifted)
    G, ana, secs = _appendix_args("elab:3:2")
    row, = campaigns._appendix_composite_action_rows(
        "elab:3:2", G, ana, secs, True,
        _engine_rng(RunConfig(max_order=27), "elab:3:2", 6))
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "case-failure",
        "case": {"functor": "B", "outer_quotient": 3, "inner_quotient": 3,
                 "cell": [1, 2]},
        "left": [1], "right": [0]}


def test_groupwise_round_trip_off_the_scalar_is_refuted(monkeypatch):
    real = campaigns.adjunction_minus

    def shifted(system, stacked):
        back = real(system, stacked).copy()
        back[0, -1] += 1
        return back

    monkeypatch.setattr(campaigns, "adjunction_minus", shifted)
    G = parse_descriptor("elab:3:2", 3)
    row, = campaigns._appendix_adjunction_rows(
        "elab:3:2", G, True, _engine_rng(RunConfig(max_order=27), "elab:3:2", 7))
    assert row["status"] == "refuted" and recheck(row)
    left = _eye_ints(6)
    left[5] = 1
    assert row["witness"] == {
        "kind": "case-failure",
        "case": {"family": "X3", "functor": "B", "scalar": 1},
        "left": left, "right": _eye_ints(6)}


def test_limitwise_round_trip_off_the_limit_is_refuted(monkeypatch):
    real = campaigns._exact_matmul

    def shifted(A, B):
        C = real(A, B).copy()
        C[-1, -1] += 1
        return C

    monkeypatch.setattr(campaigns, "_exact_matmul", shifted)
    G = parse_descriptor("elab:3:2", 3)
    row, = campaigns._appendix_adjunction_rows(
        "elab:3:2", G, True, _engine_rng(RunConfig(max_order=27), "elab:3:2", 7))
    assert row["status"] == "refuted" and recheck(row)
    lim = inverse_limit(coefficient_system(G, "X3", "B"))
    right = [int(v) for v in lim.basis[:, -1]]
    left = right[:-1] + [right[-1] + 1]
    assert row["witness"] == {
        "kind": "case-failure",
        "case": {"family": "X3", "functor": "B", "column": lim.rank - 1},
        "left": left, "right": right}


def _probe_over(monkeypatch, label: str) -> None:
    """Run the probe's engine over the K system of another family."""
    real = campaigns.counit_kernel_report
    monkeypatch.setattr(campaigns, "counit_kernel_report", lambda system: real(
        coefficient_system(system.group, label, "K")))


def test_counit_that_misses_the_extraspecial_section_is_refuted(monkeypatch):
    # over E, the sections of xsp:3 miss the whole group, and the root up
    # maps span a sublattice of index 27
    _probe_over(monkeypatch, "E")
    rows = {r["claim"]: r for r in _probe_rows("xsp:3", RunConfig(max_order=27))}
    row = rows["counit-surjective"]
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {"kind": "counit-surjectivity", "family": "X",
                              "generators": 5, "base_rank": 5,
                              "hnf_diagonal": [1, 3, 3, 3, 1]}
    onto = dict(row, witness=dict(row["witness"], hnf_diagonal=[1] * 5))
    assert not recheck(onto)
    # more pivots than the base rank is no HNF in Z^base_rank
    assert not recheck(dict(row, witness=dict(row["witness"], base_rank=4)))


def test_counit_kernel_under_a_rank_cap_of_two_is_refuted(monkeypatch):
    # over X2, prod:xsp:3,cyclic:3 loses the sections of rank three, and
    # the relations fall 36 short of a finite kernel
    _probe_over(monkeypatch, "X2")
    rows = {r["claim"]: r for r in _probe_rows("prod:xsp:3,cyclic:3",
                                               RunConfig(max_order=81))}
    row = rows["counit-kernel-finite"]
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {"kind": "counit-kernel", "family": "X",
                              "generators": 183, "relation_rank": 108, "base_rank": 39,
                              "invariants": [3] * 16, "trivial": False}
    assert not recheck(dict(row, witness=dict(row["witness"], relation_rank=144)))


def _swapped(monkeypatch, swap: dict) -> None:
    """Build the systems of the order-27 group under the labels in swap;
    its sections keep theirs."""
    real = campaigns.coefficient_system
    monkeypatch.setattr(campaigns, "coefficient_system", lambda G, label, functor: real(
        G, swap.get(label, label) if G.order == 27 else label, functor))


def _doubled(monkeypatch, label: str) -> None:
    """Solve the order-27 group's limit over one family as twice itself:
    every constraint still holds on the unit, but it leaves the lattice."""
    real = campaigns.inverse_limit

    def doubled(system):
        lim = real(system)
        if system.group.order == 27 and system.family.label == label:
            return InverseLimit(system, IntegerLattice(system.total, 2 * lim.lattice.basis))
        return lim

    monkeypatch.setattr(campaigns, "inverse_limit", doubled)


def _reading_b(monkeypatch) -> None:
    for name in ("retraction_matrix", "retraction_identity_holds"):
        real = getattr(campaigns, name)
        monkeypatch.setattr(campaigns, name,
                            lambda x, reading, real=real: real(x, "B"))


def _kernel_rank_up(monkeypatch) -> None:
    real = campaigns.dual_exactness_report
    monkeypatch.setattr(campaigns, "dual_exactness_report", lambda G: dict(
        real(G), kernel_rank=real(G)["kernel_rank"] + 1))


CAMPAIGN_OF = {c.id: c.campaign for c in CLAIMS}


@pytest.mark.parametrize("fault,desc,claims", [
    (lambda mp: _swapped(mp, {"X3": "X2", "E3": "E2"}), "elab:3:3",
     ["unit-iso-x3", "unit-iso-descends-to-bounded-family",
      "unit-cokernel-finite-e3"]),
    (lambda mp: _swapped(mp, {"X": "E"}), "xsp:3", ["unit-iso-x"]),
    (lambda mp: _doubled(mp, "E"), "xsp:3", ["unit-cokernel-divides-order-e"]),
    (lambda mp: _doubled(mp, "X"), "xsp:3", ["unit-cokernel-divides-order-x"]),
    (_reading_b, "elab:3:2", ["unit-retraction-scales-by-order"]),
    (_kernel_rank_up, "elab:3:2", ["dual-rank-additivity", "dual-quotient-free"]),
], ids=["rank-two-bounded-families", "x-as-e", "doubled-e-limit",
        "doubled-x-limit", "reading-b", "kernel-rank-off-by-one"])
def test_seeded_fault_is_refuted_with_a_witness_recheck_confirms(
        monkeypatch, fault, desc, claims):
    fault(monkeypatch)
    rows = {r["claim"]: r
            for r in campaigns._WORKERS[CAMPAIGN_OF[claims[0]]](desc, RunConfig())}
    for claim in claims:
        row = rows[claim]
        assert row["status"] == "refuted" and recheck(row), claim
        assert not recheck(dict(row, status="verified")), claim


def test_subquotient_verdicts_do_not_outlive_their_group(monkeypatch):
    # the descent premise solves the order-27 quotients of the group; a
    # verdict reached under a fault must be gone once the fault is
    desc = "prod:cyclic:9,cyclic:3,cyclic:3"
    claim = "unit-iso-descends-to-bounded-family"

    def descent():
        return {r["claim"]: r for r in campaigns._main_rows(desc, RunConfig())}[claim]

    _swapped(monkeypatch, {"X3": "X2", "E3": "E2"})
    faulted = descent()
    assert faulted["witness"]["premise_subquotients_iso"] is False
    assert "elab:3:3" in faulted["witness"]["subquotient_types"]
    monkeypatch.undo()
    row = descent()
    assert row == descent()
    assert row["witness"]["premise_subquotients_iso"] is True
    assert row["witness"]["vacuous"] is False and recheck(row)


def test_unit_inside_every_constraint_but_outside_the_limit_is_refuted(monkeypatch):
    # no edge is violated, so the row names a unit column off the lattice
    _doubled(monkeypatch, "E")
    rows = {r["claim"]: r for r in campaigns._main_rows("xsp:3", RunConfig())}
    row = rows["unit-lands-in-limit-e"]
    assert row["status"] == "refuted" and recheck(row)
    assert row["witness"] == {
        "kind": "membership-failure", "vector": [1, 1, 1, 1, 0],
        "basis": [[2 * (i == j) for j in range(5)] for i in range(5)],
        "ambient": 5, "family": "E"}
    cokernel = rows["unit-cokernel-divides-order-e"]["witness"]
    assert cokernel["free_rank"] == 5 and cokernel["unit_in_limit"] is False


def test_cokernel_rows_record_a_unit_outside_the_limit(monkeypatch):
    # the report says the unit misses the limit while its cokernel counts
    # pass: only the recorded flag refutes the cokernel rows
    real = campaigns.comparison_report
    monkeypatch.setattr(campaigns, "comparison_report",
                        lambda lim: dict(real(lim), unit_in_limit=False))
    rows = {r["claim"]: r for r in campaigns._main_rows("xsp:3", RunConfig())}
    for claim in ("unit-cokernel-divides-order-e", "unit-cokernel-divides-order-x",
                  "unit-cokernel-finite-e3"):
        row = rows[claim]
        assert row["status"] == "refuted" and recheck(row), claim
        assert row["witness"]["unit_in_limit"] is False
        assert row["witness"]["free_rank"] == 0
        assert not recheck(dict(row, status="verified")), claim
    # the unit does lie in the limit, so recheck refuses the rows that say
    # it does not
    assert not any(recheck(rows[c]) for c in campaigns._UNIT_LANDS.values())


def test_report_claims_match_the_registry():
    for name in CAMPAIGNS:
        doc = run_campaign(name, RunConfig(max_order=27))
        assert ({r["claim"] for r in doc["rows"]}
                == {c.id for c in CLAIMS if c.campaign == name}), name
