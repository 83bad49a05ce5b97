"""Exact Burnside-module and section-limit computations for small odd
p-groups, with batch verification campaigns over a group catalog."""

import os

# BLAS runs only on small exact products (the float64 tier of
# zlinalg._exact_matmul), where a threaded OpenBLAS costs more than it
# saves; this must run before numpy is first imported.  A value already
# in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .campaigns import (
    RunConfig,
    VerificationReport,
    catalog_groups,
    emit_csv,
    emit_json,
    exit_code,
    recheck,
    run_campaign,
)
from .claims import CAMPAIGNS, CLAIMS, Claim, claim
from .groups import (
    FiniteGroup,
    analysis,
    cyclic_group,
    direct_product,
    elementary_abelian_group,
    extraspecial_group,
    group_from_spec,
    parse_descriptor,
)
from .limits import (
    CoefficientSystem,
    InverseLimit,
    SectionFamily,
    coefficient_system,
    comparison_report,
    counit_kernel_report,
    inverse_limit,
    section_family,
)

__all__ = [
    "CAMPAIGNS",
    "CLAIMS",
    "Claim",
    "CoefficientSystem",
    "FiniteGroup",
    "InverseLimit",
    "RunConfig",
    "SectionFamily",
    "VerificationReport",
    "analysis",
    "catalog_groups",
    "claim",
    "coefficient_system",
    "comparison_report",
    "counit_kernel_report",
    "cyclic_group",
    "direct_product",
    "elementary_abelian_group",
    "emit_csv",
    "emit_json",
    "exit_code",
    "extraspecial_group",
    "group_from_spec",
    "inverse_limit",
    "parse_descriptor",
    "recheck",
    "run_campaign",
    "section_family",
]
