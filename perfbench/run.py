"""Catalog benchmark for bfk: serial CLI campaigns with a per-row gate.

    python3 perfbench/run.py --workload catalog-p5 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout.  Every command is a fresh
``python -m bfk.cli`` process with ``--jobs 1`` that imports ``bfk`` from
the checkout's ``src`` by absolute path.  With ``--trace 0`` the run sets
up (median of fresh ``bfk catalog`` processes), then repeats the
workload's commands until ``--seconds`` have passed and reports medians
over those iterations.  With ``--trace 1`` it runs the commands once
untraced and twice under ``traced.py``, and reports per-layer self times
and exact counts.  Every report row is gated: status ``verified``,
accepted by ``bfk.campaigns.recheck``, and the digest of its canonical
projection equal to ``reference.json``.  The last line of stdout is the
result object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

# The CLI receives seed mod REFERENCE_SEEDS, so every seeded run has a
# recorded reference digest for every row.
REFERENCE_SEEDS = 16
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 9
TRACED_PASSES = 2

# Workloads.  A step is (metric stem, CLI argv, kind); kind "report" yields
# report rows, "limit" one limit payload.  Why each exists is in README.md.
_CAMPAIGN_STEPS = (
    ("induction", ("verify", "induction"), "report"),
    ("exact", ("verify", "exact"), "report"),
    ("probe", ("probe", "m"), "report"),
    ("main", ("verify", "main"), "report"),
    ("appendix", ("verify", "appendix"), "report"),
)
# solved into a fresh private cache (limit), then loaded back (limit_warm)
_LIMIT81 = ("limit", "--group", "prod:xsp:3,cyclic:3", "--class", "X3",
            "--functor", "Kdual")
WORKLOADS = {
    "catalog-p5": {"p": 5, "max_order": 125, "steps": _CAMPAIGN_STEPS},
    "order81": {"p": 3, "max_order": 81, "steps": (
        _CAMPAIGN_STEPS[2], ("limit", _LIMIT81, "limit"),
        ("limit_warm", _LIMIT81, "limit"))},
}
SEEDED_STEPS = frozenset({"appendix"})   # the only sampled engines

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class Failure(Exception):
    """The checkout cannot be benchmarked (no source, foreign import)."""


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BFK_CACHE_DIR", "PYTHONPATH", "PYTHONHOME",
                        "PYTHONSTARTUP")}
    env["PYTHONPATH"] = SRC
    env["PYTHONNOUSERSITE"] = "1"
    return env


class Runner:
    """Runs child processes under one deadline and tallies their usage."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv, out_path: str) -> dict:
        """One child process: wall and CPU seconds, exit code, timeout."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with open(out_path, "wb") as out, \
                open(out_path + ".err", "wb") as err:
            try:
                rc = subprocess.run(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err,
                                    timeout=timeout).returncode
                timed_out = False
            except subprocess.TimeoutExpired:
                rc, timed_out = None, True
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = ((after.ru_utime - before.ru_utime)
               + (after.ru_stime - before.ru_stime))
        return {"wall_s": wall, "cpu_s": cpu, "rc": rc, "timed_out": timed_out}

    def bfk(self, args, out_path: str) -> dict:
        return self.run([sys.executable, "-m", "bfk.cli", *args], out_path)


def peak_rss_mb() -> float:
    # ru_maxrss of waited children is the largest of any one child, in KiB
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# correctness gate


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def row_key(row: dict) -> str:
    return f"{row['claim']}|{row['group']}"


def row_digest(row: dict) -> str:
    """Digest of the canonical projection; config and wall_time stay out."""
    return _digest({k: row[k] for k in
                    ("campaign", "claim", "group", "status", "witness")})


def limit_digest(payload: dict) -> str:
    return _digest({k: payload[k] for k in
                    ("group", "label", "functor", "total", "rank", "basis")})


def step_ref_key(stem: str, argv) -> str:
    """Reference key of a step; the warm limit load shares the cold key."""
    if argv[0] == "limit":
        return "limit " + " ".join(argv[2:6:2])
    return stem


def expected_digests(reference: dict, workload: str, stem: str, argv,
                     cli_seed: int):
    ref = reference["digests"][workload][step_ref_key(stem, argv)]
    if stem in SEEDED_STEPS:
        ref = ref[str(cli_seed)]
    return ref


class Gate:
    """Counts operations and failures over every checked output."""

    def __init__(self, recheck):
        self.recheck = recheck
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def problem(self, why: str) -> None:
        """A failed check that is not one operation (counts as one)."""
        self.attempted += 1
        self.fail(1, why)

    def report(self, label: str, res: dict, path: str, expected: dict) -> None:
        rows = None
        if res["rc"] == 0:
            try:
                with open(path, encoding="utf-8") as fh:
                    rows = json.load(fh)["rows"]
            except (OSError, ValueError, KeyError, TypeError):
                rows = None
        if rows is None:
            self.attempted += len(expected)
            self.fail(len(expected), f"{label}: exit {res['rc']}, "
                      f"timed out {res['timed_out']}, or unreadable report")
            return
        seen = set()
        for row in rows:
            self.attempted += 1
            try:
                key, digest = row_key(row), row_digest(row)
            except (KeyError, TypeError):
                self.fail(1, f"{label}: malformed row")
                continue
            if key in seen or key not in expected:
                self.fail(1, f"{label}: unexpected row {key}")
            elif row["status"] != "verified":
                self.fail(1, f"{label}: {key} is {row['status']}")
            elif not self.recheck(row):
                self.fail(1, f"{label}: recheck rejects {key}")
            elif digest != expected[key]:
                self.fail(1, f"{label}: {key} differs from the reference")
            seen.add(key)
        missing = set(expected) - seen
        if missing:
            self.attempted += len(missing)
            self.fail(len(missing), f"{label}: {len(missing)} rows missing")

    def limit(self, label: str, res: dict, path: str, expected: str,
              same_as: str | None) -> None:
        self.attempted += 1
        try:
            if res["rc"] != 0:
                raise ValueError(f"exit {res['rc']}")
            with open(path, "rb") as fh:
                blob = fh.read()
            if limit_digest(json.loads(blob)) != expected:
                raise ValueError("payload differs from the reference")
            if same_as is not None:
                with open(same_as, "rb") as fh:
                    if fh.read() != blob:
                        raise ValueError("warm payload differs from cold")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(1, f"{label}: {exc}")


# ---------------------------------------------------------------------------
# one pass over a workload's commands


def common_flags(spec: dict, cli_seed: int) -> list[str]:
    return ["--p", str(spec["p"]), "--max-order", str(spec["max_order"]),
            "--seed", str(cli_seed), "--jobs", "1"]


def run_pass(runner: Runner, gate: Gate, reference: dict, workload: str,
             cli_seed: int, tag: str, launch) -> dict:
    """Run every step once through launch(args, out_path); gate the outputs.

    Returns per-step results and outputs.  Limit steps get a fresh private
    cache directory per pass, removed when the pass ends.
    """
    spec = WORKLOADS[workload]
    flags = common_flags(spec, cli_seed)
    cache = os.path.join(runner.workdir, f"{tag}-cache")
    shutil.rmtree(cache, ignore_errors=True)
    cold_out: dict[str, str] = {}
    steps = []
    try:
        for k, (stem, argv, kind) in enumerate(spec["steps"]):
            out = os.path.join(runner.workdir, f"{tag}-{k}.out")
            args = list(argv) + flags
            if kind == "limit":
                args += ["--cache-dir", cache]
            res = launch(args, out)
            expected = expected_digests(reference, workload, stem, argv,
                                        cli_seed)
            label = f"{workload} {tag} {' '.join(argv)}"
            if kind == "report":
                gate.report(label, res, out, expected)
            else:
                ref_key = step_ref_key(stem, argv)
                gate.limit(label, res, out, expected, cold_out.get(ref_key))
                cold_out.setdefault(ref_key, out)
            steps.append({"stem": stem, "out": out, **res})
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return {"steps": steps,
            "wall_s": sum(s["wall_s"] for s in steps),
            "cpu_s": sum(s["cpu_s"] for s in steps)}


def stem_times(passed: dict) -> dict:
    out: dict[str, float] = {}
    for s in passed["steps"]:
        key = f"campaign.{s['stem']}_s"
        out[key] = out.get(key, 0.0) + s["wall_s"]
    return out


# ---------------------------------------------------------------------------
# machine record


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop; recorded, never applied."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bfk")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_record(calibration_s: float) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": _git_revision(), "source_digest": _source_digest(),
            "calibration_s": calibration_s}


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(runner: Runner, gate: Gate, reference: dict, workload: str,
            cli_seed: int, seconds: float) -> dict:
    """Set-up repeats, then whole iterations until seconds have passed."""
    spec = WORKLOADS[workload]
    setup = []
    for k in range(SETUP_REPEATS):
        res = runner.bfk(["catalog", "--p", str(spec["p"]), "--max-order",
                          str(spec["max_order"])],
                         os.path.join(runner.workdir, f"setup-{k}.out"))
        if res["rc"] != 0:
            gate.problem(f"{workload}: bfk catalog exit {res['rc']}")
        setup.append(res["wall_s"])
    iterations = []
    start = time.perf_counter()
    while True:
        done = run_pass(runner, gate, reference, workload, cli_seed,
                        f"it{len(iterations)}", runner.bfk)
        iterations.append(done)
        now = time.perf_counter()
        if (now - start >= seconds
                or now + done["wall_s"] > runner.deadline):
            break
    metrics = {
        "wall_s": statistics.median(i["wall_s"] for i in iterations),
        "cpu_s": statistics.median(i["cpu_s"] for i in iterations),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"setup_s": setup,
              "iterations": [{"wall_s": i["wall_s"], "cpu_s": i["cpu_s"],
                              **stem_times(i)} for i in iterations]}
    return {"metrics": {k: (metrics[k], u) for k, u in END_TO_END},
            "detail": detail}


def trace(runner: Runner, gate: Gate, reference: dict, workload: str,
          cli_seed: int) -> dict:
    """One untraced pass, then TRACED_PASSES traced ones; per-layer metrics."""
    import traced as tracer_mod

    plain = run_pass(runner, gate, reference, workload, cli_seed, "plain",
                     runner.bfk)
    trace_dir = os.path.join(WORK, "trace", workload)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    passes = []
    for n in range(TRACED_PASSES):
        summaries = []

        def launch(args, out, n=n):
            k = len(summaries)
            summary = os.path.join(runner.workdir, f"traced{n}-{k}.summary")
            run_id = f"{workload}-seed{cli_seed}-pass{n}-step{k}"
            res = runner.run(
                [sys.executable, tracer_mod.__file__, "--src", SRC,
                 "--report", out, "--summary", summary, "--spans",
                 os.path.join(trace_dir, f"{run_id}.jsonl.gz"),
                 "--run-id", run_id, "--", *args],
                out + ".launcher")
            try:
                with open(summary, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
            except (OSError, ValueError):
                summaries.append(None)
            return res

        done = run_pass(runner, gate, reference, workload, cli_seed,
                        f"traced{n}", launch)
        passes.append((done, summaries))
    # tracing must leave every output byte unchanged
    for done, _ in passes:
        for a, b in zip(plain["steps"], done["steps"]):
            if a["rc"] == 0 and not _same_file(a["out"], b["out"]):
                gate.problem(f"{workload}: traced output of {b['stem']} "
                             "differs from the untraced one")
    summaries = [s for _, sums in passes for s in sums]
    if any(s is None for s in summaries):
        gate.problem(f"{workload}: a traced command left no summary")
        return {"metrics": {}, "detail": {}}
    first, second = (sums for _, sums in passes)
    for a, b in zip(first, second):
        if _counts(a) != _counts(b):
            gate.problem(f"{workload}: counts differ between traced runs "
                         f"of {a['run']} and {b['run']}")
    layers = tracer_mod.per_layer_metrics(
        [sums for _, sums in passes], stem_times(plain),
        plain_wall=plain["wall_s"],
        traced_walls=[done["wall_s"] for done, _ in passes])
    return {"metrics": {k: v for k, v in layers.items()
                        if tracer_mod.in_result(k)},
            "detail": {"layers": layers,
                       "untraced_wall_s": plain["wall_s"],
                       "traced_wall_s": [d["wall_s"] for d, _ in passes],
                       "trace_dir": os.path.relpath(trace_dir, ROOT)}}


def _same_file(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def _counts(summary: dict) -> tuple:
    return (summary["calls"], summary["counters"], summary["spans"])


# ---------------------------------------------------------------------------
# entry point


def load_bfk():
    """Import the checkout's bfk by absolute path; returns its recheck."""
    if not os.path.isfile(os.path.join(SRC, "bfk", "cli.py")):
        raise Failure(f"no bfk sources under {SRC}")
    sys.path.insert(0, SRC)
    import bfk
    from bfk.campaigns import recheck
    if not os.path.abspath(bfk.__file__).startswith(SRC + os.sep):
        raise Failure(f"bfk imported from {bfk.__file__}, not from {SRC}")
    return recheck


def check_child_import(runner: Runner) -> None:
    out = os.path.join(runner.workdir, "import-check.out")
    res = runner.run([sys.executable, "-c",
                      "import bfk, os; print(os.path.abspath(bfk.__file__))"],
                     out)
    with open(out, encoding="utf-8") as fh:
        where = fh.read().strip()
    if res["rc"] != 0 or not where.startswith(SRC + os.sep):
        raise Failure(f"child processes import bfk from {where!r}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 recheck, reference: dict) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    calibration = calibrate()
    cli_seed = seed % REFERENCE_SEEDS
    workdir = os.path.join(WORK, f"run-{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir, deadline)
    gate = Gate(recheck)
    try:
        check_child_import(runner)
        if traced:
            got = trace(runner, gate, reference, workload, cli_seed)
        else:
            got = measure(runner, gate, reference, workload, cli_seed,
                          seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "cli_seed": cli_seed,
              "trace": int(traced), "machine": machine_record(calibration),
              "attempted": gate.attempted, "failed": gate.failed,
              "problems": gate.problems, "detail": got["detail"]}
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results, f"{workload}-seed{seed}-trace"
                           f"{int(traced)}-{stamp}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**record, "metrics": got["metrics"]}, fh, indent=1,
                  sort_keys=True)
    return {"record": record, "metrics": got["metrics"],
            "correct": gate.failed == 0 and gate.attempted > 0,
            "attempted": max(gate.attempted, 1), "failed": gate.failed}


def print_table(workload: str, got: dict) -> None:
    rec = got["record"]
    ratio = got["failed"] / got["attempted"]
    print(f"# {workload} seed {rec['seed']} (cli seed {rec['cli_seed']}), "
          f"calibration {rec['machine']['calibration_s']:.3f} s",
          file=sys.stderr)
    for name, (value, unit) in rec["detail"].get("layers",
                                                 got["metrics"]).items():
        print(f"  {name:40s} {value:14.6f} {unit}", file=sys.stderr)
    for it in rec["detail"].get("iterations", []):
        parts = ", ".join(f"{k} {v:.3f}" for k, v in it.items())
        print(f"  iteration: {parts}", file=sys.stderr)
    print(f"  {'failed_ratio':40s} {ratio:14.6f} ({got['failed']} of "
          f"{got['attempted']} rows)", file=sys.stderr)
    for why in rec["problems"]:
        print(f"  FAILED: {why}", file=sys.stderr)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        recheck = load_bfk()
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (Failure, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            got = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), recheck, reference)
        except Failure as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print_table(name, got)
        print(json.dumps({"workload": name, "machine": got["record"]["machine"]}))
        results[name] = got
    correct = all(g["correct"] for g in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, g in results.items()
                   for k, v in g["metrics"].items()}
    print(result_line(correct, sum(g["attempted"] for g in results.values()),
                      sum(g["failed"] for g in results.values()), metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
