"""The static registry of claims the verification campaigns check, and
the scope they run over.

Every report row points at one entry here by id.  Ids are descriptive and
stable; statements say what is computed and what must hold, in terms of
the package's own operations.  Campaign runners own the scheduling; this
module owns the meaning: the claims, the section classes and functors a
run may name, the run configuration and the catalog of groups.  It
imports no numpy, so the CLI parses its arguments and lists the catalog
without loading the numeric layers.  Its records are named tuples, not
dataclasses: importing dataclasses, and inspect through it, was the
largest cost of the catalog command after interpreter start-up.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


CAMPAIGNS = ("induction", "exact", "main", "probe", "appendix")

Claim = namedtuple("Claim", ("id", "campaign", "statement", "scope"))


CLAIMS: tuple[Claim, ...] = (
    # ------------------------------------------------------------------
    # induction: the linearization kernel as a sum of induced kernels
    Claim(
        "induction-kernel-matches-x2-sum",
        "induction",
        "The kernel of the linearization map on the virtual-set lattice "
        "equals the sum, over the X2 family of sections, of the "
        "induce-after-inflate images of the sections' own kernels, as an "
        "exact lattice identity in Hermite normal form.",
        "every catalog group",
    ),
    Claim(
        "induction-eps-part-matches-e2-sum",
        "induction",
        "The sublattice generated by inducing the documented rank-two "
        "kernel generator from every rank-two elementary abelian section "
        "equals the sum of induced kernels over the E2 family.",
        "every catalog group",
    ),
    Claim(
        "induction-eps-generates-rank-two-kernel",
        "induction",
        "For the rank-two elementary abelian group the linearization "
        "kernel is infinite cyclic and the documented generator spans it "
        "exactly.",
        "the rank-two elementary abelian catalog group",
    ),
    Claim(
        "induction-scaling-lands-in-eps-part",
        "induction",
        "Multiplying any kernel element by p lands it inside the "
        "sublattice induced from the rank-two elementary abelian "
        "sections.",
        "every catalog group",
    ),
    Claim(
        "induction-difference-is-scaled-delta",
        "induction",
        "At the extraspecial group of order p^3, the induced kernel "
        "generators of two distinct noncentral order-p subquotients "
        "differ by exactly p times the documented kernel element of the "
        "whole group.",
        "the extraspecial catalog group of order 27",
    ),
    # ------------------------------------------------------------------
    # exact: the dual module against the character functionals
    Claim(
        "dual-rank-additivity",
        "exact",
        "The rank of the full dual lattice equals the rank of the "
        "character-side functionals plus the rank of the kernel, for "
        "each group.",
        "every catalog group",
    ),
    Claim(
        "dual-quotient-free",
        "exact",
        "The quotient of the full dual lattice by the character-side "
        "functionals is free; every invariant factor is 1 and the free "
        "rank equals the kernel rank.",
        "every catalog group",
    ),
    Claim(
        "dual-action-descends",
        "exact",
        "Sampled elementary biset actions on dual lattices map "
        "character-side functionals to character-side functionals, so "
        "the actions descend to the free quotient.",
        "every catalog group, sampled bisets",
    ),
    # ------------------------------------------------------------------
    # main: the unit from the kernel dual into section-family limits
    Claim(
        "unit-lands-in-limit-e",
        "main",
        "Over the family E, every column of the unit map satisfies all "
        "compatibility constraints of the limit lattice.",
        "every catalog group",
    ),
    Claim(
        "unit-lands-in-limit-e3",
        "main",
        "Over the family E3, every column of the unit map satisfies all "
        "compatibility constraints of the limit lattice.",
        "every catalog group",
    ),
    Claim(
        "unit-lands-in-limit-x",
        "main",
        "Over the family X, every column of the unit map satisfies all "
        "compatibility constraints of the limit lattice.",
        "every catalog group",
    ),
    Claim(
        "unit-lands-in-limit-x3",
        "main",
        "Over the family X3, every column of the unit map satisfies all "
        "compatibility constraints of the limit lattice.",
        "every catalog group",
    ),
    Claim(
        "unit-iso-x",
        "main",
        "Over the family X the unit map from the kernel dual into the "
        "limit is an isomorphism: its invariant factors are all 1 and "
        "kernel and cokernel vanish.",
        "every catalog group",
    ),
    Claim(
        "unit-iso-x3",
        "main",
        "Over the family X3 the unit map from the kernel dual into the "
        "limit is an isomorphism: its invariant factors are all 1 and "
        "kernel and cokernel vanish.",
        "every catalog group",
    ),
    Claim(
        "unit-cokernel-divides-order-e",
        "main",
        "Over the family E every invariant factor of the cokernel of the "
        "unit map divides the group order, and the cokernel has no free "
        "part.",
        "every catalog group",
    ),
    Claim(
        "unit-cokernel-divides-order-x",
        "main",
        "Over the family X every invariant factor of the cokernel of the "
        "unit map divides the group order, and the cokernel has no free "
        "part.",
        "every catalog group",
    ),
    Claim(
        "unit-cokernel-finite-e3",
        "main",
        "Over the family E3 the cokernel of the unit map is finite; its "
        "invariant factors are recorded as observed data, not asserted.",
        "every catalog group",
    ),
    Claim(
        "unit-retraction-scales-by-order",
        "main",
        "Composing the unit with the Moebius-weighted retraction, under "
        "the documented shifted-section reading, multiplies the whole "
        "limit lattice over the family E by the group order; the passing "
        "reading is recorded.",
        "catalog groups of order at most 27",
    ),
    Claim(
        "unit-iso-descends-to-bounded-family",
        "main",
        "If the unit is an isomorphism over the family X at a group and "
        "over the family X3 at every proper section quotient arising in "
        "its X family, then it is an isomorphism over X3 at the group "
        "itself; the implication is checked on the computed rows.",
        "every catalog group",
    ),
    # ------------------------------------------------------------------
    # probe: the counit from glued section kernels onto the kernel
    Claim(
        "counit-surjective",
        "probe",
        "The summed upward maps from the X-family section kernels cover "
        "the kernel of the whole group exactly.",
        "every catalog group",
    ),
    Claim(
        "counit-kernel-finite",
        "probe",
        "The kernel of the counit, presented by the colimit relations, "
        "is a finite group; its invariant factors are recorded as "
        "observed data, not asserted.",
        "every catalog group",
    ),
    # ------------------------------------------------------------------
    # appendix: set-level laws checked against concrete bisets
    Claim(
        "transporter-conjugation-right",
        "appendix",
        "Transporting a left-side subgroup through a point and then "
        "conjugating by a right-group element equals transporting "
        "through the shifted point.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "transporter-conjugation-left",
        "appendix",
        "Conjugating by a left-group element and then transporting a "
        "right-side subgroup through a point equals transporting through "
        "the shifted point.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "transported-pair-is-section",
        "appendix",
        "Transporting the two subgroups of a section through any point "
        "yields a subgroup and a normal subgroup of it, so the image "
        "pair is again a section.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "transported-quotient-is-subquotient",
        "appendix",
        "The quotient of a transported section is isomorphic, by order "
        "and element-order fingerprint, to a subquotient of the original "
        "section's quotient.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "transporter-through-composite",
        "appendix",
        "Transporting twice, through a point of each factor of a "
        "composite biset, equals transporting once through the matching "
        "point of the composite, on both sides.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "quotient-collapse-composition",
        "appendix",
        "Collapsing a normal subgroup's orbits before composing agrees "
        "with collapsing after composing, whenever the middle group's "
        "collapsed part acts trivially on the first factor.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "whole-group-unit-component-identity",
        "appendix",
        "Whenever a family contains the section with full top and "
        "trivial bottom, the unit map's component there is the identity "
        "on the value at the whole group.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "limit-image-stays-compatible",
        "appendix",
        "For the downward functors, acting on a limit element by a "
        "restriction-deflation biset produces a tuple that satisfies "
        "every compatibility constraint of the target group's limit.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "identity-biset-acts-trivially",
        "appendix",
        "The identity biset of a group acts as the identity matrix on "
        "the stacked section values for each functor.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "action-matches-composite",
        "appendix",
        "Acting by two bisets in sequence equals acting by their "
        "composite, with the composite computed on concrete points.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
    Claim(
        "adjunction-round-trips",
        "appendix",
        "Turning a natural groupwise map into a limit-valued map and "
        "reading back the whole-group component returns the original "
        "map, and completing the whole-group component of a limit-valued "
        "map by descent returns that map.",
        "exhaustive at order <= 27, seeded at order 81",
    ),
)


# ---------------------------------------------------------------------------
# the scope of a run: section classes, functors, configuration, catalog

FAMILY_LABELS = ("E", "E2", "E3", "X", "X2", "X3")
FUNCTOR_NAMES = ("B", "K", "Bdual", "Kdual")
FORMAT_CHOICES = ("json", "csv")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RunConfig(namedtuple("RunConfig",
                           ("p", "max_order", "klass", "functor", "seed", "jobs", "fmt"),
                           defaults=(3, 81, "X", "Kdual", 0, 1, "json"))):
    """One campaign invocation: bounds, selectors, io and scheduling,
    checked when it is made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        m = self.max_order
        if m < 1:
            raise ValueError("max_order must be positive")
        while m % self.p == 0:
            m //= self.p
        if m != 1:
            raise ValueError(
                f"max_order must be a power of p={self.p}, got {self.max_order}")
        if self.klass not in FAMILY_LABELS:
            raise ValueError(f"unknown section class {self.klass!r}")
        if self.functor not in FUNCTOR_NAMES:
            raise ValueError(f"unknown functor {self.functor!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.fmt not in FORMAT_CHOICES:
            raise ValueError(f"unknown output format {self.fmt!r}")
        return self

    def config_block(self) -> dict:
        # jobs and fmt do not influence report content, so they stay out
        # of the emitted config echo
        return {
            "p": self.p,
            "max_order": self.max_order,
            "class": self.klass,
            "functor": self.functor,
            "seed": self.seed,
        }


@lru_cache(maxsize=None)
def _partitions(n: int, largest: int | None = None) -> tuple:
    """Partitions of n with parts bounded by largest, descending tuples."""
    if largest is None:
        largest = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def abelian_descriptor(p: int, part: tuple) -> str:
    if not part:
        return "cyclic:1"
    if len(part) == 1:
        return f"cyclic:{p ** part[0]}"
    if all(a == 1 for a in part):
        return f"elab:{p}:{len(part)}"
    return "prod:" + ",".join(f"cyclic:{p ** a}" for a in part)


def catalog_groups(p: int, max_order: int) -> list[tuple[int, str]]:
    """(order, descriptor) pairs covered by the descriptor grammar.

    Every abelian p-group up to the bound, plus the extraspecial group of
    exponent p and its direct products with abelian groups.  Sorted by
    order then descriptor so every run lists groups identically.
    """
    out = []
    n = 0
    while p ** n <= max_order:
        q = p ** n
        for part in _partitions(n):
            out.append((q, abelian_descriptor(p, part)))
        if n == 3:
            out.append((q, f"xsp:{p}"))
        if n >= 4:
            for part in _partitions(n - 3):
                tail = ",".join(f"cyclic:{p ** a}" for a in part)
                out.append((q, f"prod:xsp:{p},{tail}"))
        n += 1
    out.sort()
    return out
