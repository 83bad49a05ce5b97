"""Command line front end.

`bfk catalog` lists the groups a run would cover, `bfk verify <campaign>`
and `bfk probe m` execute claim campaigns and print a report, and
`bfk limit` computes one inverse limit basis for a chosen group, section
class and functor.

Exit codes from verification commands: 0 when every row is verified,
2 when any row is refuted, 3 when rows were skipped because a scoped
group lies beyond the order bound.  Operational failures (bad
descriptor, bad flags) exit 1.

Each command imports only the modules it runs: `catalog`, `--help` and
argument errors load no numpy, and `limit` loads no campaign engine.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .claims import (FAMILY_LABELS, FORMAT_CHOICES, FUNCTOR_NAMES, RunConfig,
                     catalog_groups)

CATALOG_FORMAT = "bfk-catalog"
CATALOG_VERSION = 1
LIMIT_FORMAT = "bfk-limit-basis"
LIMIT_VERSION = 1


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, default=3,
                    help="odd prime (default 3)")
    sp.add_argument("--max-order", type=int, default=81, dest="max_order",
                    help="largest group order, a power of p (default 81)")
    # ignored (bfk keeps no disk cache); perfbench/run.py still passes it
    sp.add_argument("--cache-dir", help=argparse.SUPPRESS)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for sampled case engines (default 0)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes across groups (default 1)")
    sp.add_argument("--format", choices=FORMAT_CHOICES, default="json",
                    dest="fmt", help="output format (default json)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfk",
        description="Exact verification runs over a catalog of small "
                    "odd p-groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="list the groups a run would cover")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run a claim campaign")
    vsub = sp.add_subparsers(dest="campaign", required=True)
    for name, blurb in (
            ("induction", "kernel lattices against induced sums"),
            ("exact", "dual lattice ranks and quotients"),
            ("main", "comparison units into section limits"),
            ("appendix", "concrete-biset case checks")):
        vp = vsub.add_parser(name, help=blurb)
        _add_common(vp)

    sp = sub.add_parser("probe", help="report finiteness data")
    psub = sp.add_subparsers(dest="target", required=True)
    pp = psub.add_parser("m", help="counit kernel of the linearized limit")
    _add_common(pp)

    sp = sub.add_parser("limit", help="compute one inverse limit basis")
    sp.add_argument("--group", required=True,
                    help="group descriptor (e.g. xsp:3, prod:cyclic:9,cyclic:3) "
                         "or a path to a group file: 'p <prime>', 'order <n>', "
                         "then n rows of the multiplication table")
    sp.add_argument("--class", dest="klass", choices=FAMILY_LABELS,
                    required=True, help="section class")
    sp.add_argument("--functor", choices=FUNCTOR_NAMES, required=True,
                    help="coefficient functor")
    _add_common(sp)
    return parser


def _cmd_catalog(args) -> int:
    cfg = _config(args)
    groups = catalog_groups(cfg.p, cfg.max_order)
    if cfg.fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["order", "descriptor"])
        for order, desc in groups:
            writer.writerow([order, desc])
        sys.stdout.write(out.getvalue())
        return 0
    doc = {
        "format": CATALOG_FORMAT,
        "version": CATALOG_VERSION,
        "p": cfg.p,
        "max_order": cfg.max_order,
        "groups": [{"order": order, "descriptor": desc}
                   for order, desc in groups],
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0


def _cmd_campaign(campaign: str, args) -> int:
    cfg = _config(args)
    # imported once the arguments are valid, as in _cmd_limit
    from .campaigns import emit_csv, emit_json, exit_code, run_campaign
    doc = run_campaign(campaign, cfg)
    sys.stdout.write(emit_csv(doc) if cfg.fmt == "csv" else emit_json(doc))
    return exit_code(doc)


def limit_payload(lim, label: str, functor: str) -> dict:
    """The `bfk limit` document of an InverseLimit: one basis column per
    row of "basis"."""
    system = lim.system
    return {
        "format": LIMIT_FORMAT,
        "version": LIMIT_VERSION,
        "group_order": system.group.order,
        "label": label,
        "functor": functor,
        "total": system.total,
        "rank": lim.rank,
        "basis": [[int(lim.basis[i, j]) for i in range(system.total)]
                  for j in range(lim.rank)],
    }


def _cmd_limit(args) -> int:
    cfg = _config(args)
    # imported here, once the arguments are valid: a limit needs groups
    # and limits but none of the campaign engines
    from .groups import group_from_spec
    from .limits import coefficient_system, inverse_limit
    G = group_from_spec(args.group, p_default=cfg.p)
    lim = inverse_limit(coefficient_system(G, args.klass, args.functor))
    payload = limit_payload(lim, args.klass, args.functor)
    payload["group"] = G.name
    if cfg.fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in payload["basis"]:
            writer.writerow(row)
        sys.stdout.write(out.getvalue())
        return 0
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


def _config(args) -> RunConfig:
    return RunConfig(
        p=args.p,
        max_order=args.max_order,
        klass=getattr(args, "klass", "X"),
        functor=getattr(args, "functor", "Kdual"),
        seed=args.seed,
        jobs=args.jobs,
        fmt=args.fmt,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "verify":
            return _cmd_campaign(args.campaign, args)
        if args.command == "probe":
            return _cmd_campaign("probe", args)
        return _cmd_limit(args)
    except (ValueError, OSError) as exc:
        print(f"bfk: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
