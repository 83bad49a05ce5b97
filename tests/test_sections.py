"""The one section classifier against the rule on built quotient groups.

`section_shape` and `family_contains` read a section's shape off power
and derived closures on the ambient group; the references build every
quotient T/S as a group of its own and classify it by its table.  The
slot-based induced kernel sums and rank-two generators are checked
against the per-quotient products in the same pass.
"""

import numpy as np

from bfk.burnside import rank_two_kernel_element, ring_data, sum_of_induced_kernels
from bfk.campaigns import _induced_rank_two, catalog_groups
from bfk.groups import analysis, group_from_spec, section_shape
from bfk.limits import FAMILY_LABELS, family_contains, section_family
from bfk.zlinalg import lattice_from_rows
from helpers import QUOTIENT_CLASSES, all_sections, classify_quotient, indinf_class_matrix


def _groups():
    for p, max_order in ((3, 27), (5, 125)):
        for _, spec in catalog_groups(p, max_order):
            yield group_from_spec(spec, p)
    yield group_from_spec("prod:xsp:3,cyclic:3", 3)


def _induced_sum_by_quotients(G, ana, images, label):
    """Span of the quotient kernels of a family, induced one built
    quotient at a time."""
    rows = []
    for ts in section_family(G, label).sections:
        sec, M = images[ts]
        rows.extend(M @ b for b in ring_data(sec.group).kernel().basis)
    return lattice_from_rows(len(ana.classes), rows)


def test_one_classifier_matches_the_quotient_rule():
    checked = 0
    for G in _groups():
        ana = analysis(G)
        images = {}
        for sec in all_sections(ana):
            ti, si = ana.index_of(sec.top), ana.index_of(sec.bottom)
            shape = classify_quotient(sec.group)
            assert section_shape(ana, ti, si) == shape, (G.name, ti, si)
            for label in FAMILY_LABELS:
                assert family_contains(ana, ti, si, label) == \
                    QUOTIENT_CLASSES[label](*shape), (G.name, ti, si, label)
            if QUOTIENT_CLASSES["X2"](*shape):
                images[(ti, si)] = (sec, indinf_class_matrix(ana, sec))
            checked += 1
        for label in ("X2", "E2"):
            assert sum_of_induced_kernels(G, label) == \
                _induced_sum_by_quotients(G, ana, images, label), (G.name, label)
        p = G.prime
        fam = section_family(G, "E2")
        for i, (ti, si) in enumerate(fam.sections):
            if ana.sizes[ti] // ana.sizes[si] != p * p:
                continue
            sec, M = images[(ti, si)]
            want = M @ rank_two_kernel_element(sec.group)
            assert np.array_equal(_induced_rank_two(ana, fam.classes(i), si), want)
    assert checked == 1428
