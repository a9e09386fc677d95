"""Whole-process benchmark of the reproduction's paper cells.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --trace 1 [--record]

Each workload is one ``python -m repro ...`` command (:data:`WORKLOADS`),
run as a whole process through ``perfbench/child.py`` against the
``src`` tree next to this directory.  A run repeats the command for at
least ``--seconds`` seconds and at least :data:`MIN_REPS` times and
reports medians over the repetitions.

``--trace 0`` prints the end-to-end metrics: process wall time, set-up
time (launch until the engine first advances or ``Campaign.run`` is
entered), peak RSS of the largest process of the workload (the
campaign's worker included) and the paper's utility U.  The process tree's
CPU time (user + system, from ``wait4``) is kept with each repetition in
``.perfbench/<workload>/result.json`` and printed as a share of the wall
time.  The workloads are CPU-bound (CPU time is 94-99% of wall time on a
2-CPU x86-64 VM), so a wall time that moves together with CPU time is
the host's speed moving, not the program waiting.
``--trace 1`` makes the same untraced repetitions, then one traced
repetition with the spans of ``perfbench/layers.py`` installed, one
``-X importtime`` import and, for ``run`` workloads, one
``--audit strict`` repetition; it prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Checks (any failure makes ``correct`` false): every repetition exits 0
and writes an export, all exports of a run are byte-identical, each
workload exercises the layer it is meant to stress (see ``guard``), and
in a traced run the traced export matches the untraced one, strict
audit reports no violations and a passing oracle, and interpreter
start-up, import, the self times of the named layer spans and teardown
add up to the traced wall within 5% (the catch-all span around
``repro.cli.main`` is left out, so unmeasured time shows as a gap).  The
export's sha256, U, BSD and cost are printed and compared with
``perfbench/reference.json`` (informational; ``--record`` rewrites it).

The program's seed is fixed at :data:`PROGRAM_SEED` for every workload.
Synthetic DAS2-fs0 traces are heavy-tailed: over 40 seeds a 48 h trace
holds 388 to 2546 jobs (IQR 62% of the median), and the 48 h portfolio
cell's wall time ranged 3.1-9.4 s and its U 2.9-12.7 over five seeds.
Any regression bound would drown in that, so ``--seed`` is recorded with
the result but does not change the program's inputs.  The campaign
command has no seed option at all.  ``PYTHONHASHSEED`` is fixed as well,
so every repetition iterates its string-keyed sets and dicts in the same
order and does the same work.

Two workloads, each run long (8-15 repetitions): on a shared 2-CPU host
the speed of the CPU itself drifts by 20-40% over minutes (user CPU
time follows wall time, system time stays near 2%, and a pure-Python
loop on either CPU slows with it), and only few, long runs fit the time
the benchmark may take.  ``hostile-kth-48h`` runs every
in-process layer (selection, online simulation, engine, policies,
cloud, resilience, spot, metrics, export); ``campaign-fig7-das2`` adds
``repro.parallel`` and, with 60 of its 61 cells on a fixed policy, is
the workload where policy evaluation is nearly absent.

The campaign runs one pool worker, not one per CPU: on a shared 2-CPU
host its wall time with two workers spread 26.5% (IQR over median, ten
20 s runs) against 11.8% with one, and the pool, spawn-time imports and
result pickling are exercised either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

PROGRAM_SEED = "13"
MIN_REPS = 3
#: Wall-clock budget of one run; each child is killed past it.
DEADLINE_S = 170.0
COHERENCE_TOLERANCE = 0.05
CAMPAIGN_CELLS = 61

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "utility": "U"}


def _hostile_guard(export: dict, _stderr: str, layer: dict | None) -> list[str]:
    problems = []
    kills = export["resilience"]["job_kills"]
    preemptions = (export.get("spot") or {}).get("preemptions", 0)
    if kills == 0 or preemptions == 0:
        problems.append(f"job_kills = {kills}, preemptions = {preemptions}")
    if export["portfolio_invocations"] == 0:
        problems.append("portfolio_invocations = 0")
    if layer is not None and layer["online_sim.evaluations"][0] == 0:
        problems.append("online_sim.evaluations = 0")
    return problems


def _campaign_guard(_export: dict, stderr: str, layer: dict | None) -> list[str]:
    expected = f"{CAMPAIGN_CELLS} cells: {CAMPAIGN_CELLS} computed, 0 from cache"
    problems = [] if expected in stderr else [f"stderr lacks {expected!r}"]
    if layer is not None and layer["campaign.cells_computed"][0] != CAMPAIGN_CELLS:
        problems.append(f"campaign.cells_computed = {layer['campaign.cells_computed'][0]}")
    return problems


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    #: Why the workload exists and which layer it stresses.
    why: str
    #: (export, stderr, per-layer metrics or None) -> problems found.
    guard: Callable[[dict, str, dict | None], list[str]]


WORKLOADS = {
    "campaign-fig7-das2": Workload(
        ("campaign", "fig7", "--trace", "DAS2-fs0", "--scale", "0.25",
         "--workers", "1"),
        "61 short cells, 60 on a fixed policy, on a spawn worker: start-up, "
        "per-cell set-up, result pickling, repro.parallel; policy evaluation "
        "nearly absent",
        _campaign_guard,
    ),
    "hostile-kth-48h": Workload(
        ("run", "--model", "KTH-SP2", "--hours", "48", "--seed", PROGRAM_SEED,
         "--mtbf", "43200", "--lease-fault-rate", "0.05",
         "--max-job-retries", "3", "--spot-fraction", "0.5"),
        "portfolio selection, online simulation and engine under VM failures, "
        "lease faults and spot preemption: every in-process layer, kill/requeue "
        "paths too",
        _hostile_guard,
    ),
}


@dataclass
class Rep:
    """One workload process."""

    tag: str
    launched: float
    wall_s: float
    returncode: int
    rss_mb: float
    cpu_s: float = 0.0
    marks: dict = field(default_factory=dict)
    setup_s: float | None = None
    export: dict | None = None
    export_bytes: int = 0
    digest: str | None = None
    stderr: str = ""
    problem: str | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, workdir: Path, tag: str, deadline: float,
              traced: bool = False, extra: tuple[str, ...] = ()) -> Rep:
    """Run ``repro <argv> <extra> --export-json ...`` once through child.py."""
    export_path = workdir / f"{tag}.export.json"
    marks_path = workdir / f"{tag}.marks.json"
    mode = ["--layers", str(workdir / f"{tag}.layers.json")] if traced else []
    cmd = [sys.executable, str(HERE / "child.py"), "--marks", str(marks_path),
           *mode, "--", *argv, *extra, "--export-json", str(export_path)]
    with open(workdir / f"{tag}.out", "wb") as out, \
            open(workdir / f"{tag}.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        watchdog = threading.Timer(max(1.0, deadline - start), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing the workload started outlives it
    rep = Rep(tag, start, wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6,
              usage.ru_utime + usage.ru_stime)
    rep.stderr = (workdir / f"{tag}.err").read_text(errors="replace")
    if rep.returncode != 0:
        last = rep.stderr.strip().splitlines()[-1:] or [""]
        rep.problem = f"{tag}: exit {rep.returncode}: {last[0]}"
        return rep
    rep.marks = json.loads(marks_path.read_text())
    if rep.marks["setup_mark"] is None:
        rep.problem = f"{tag}: the engine never advanced"
        return rep
    rep.setup_s = rep.marks["setup_mark"] - start
    if not export_path.is_file():
        rep.problem = f"{tag}: no export written"
        return rep
    raw = export_path.read_bytes()
    rep.export_bytes = len(raw)
    rep.digest = hashlib.sha256(raw).hexdigest()
    rep.export = json.loads(raw)
    return rep


def import_self_times(stderr: str) -> dict[str, float]:
    """Sum ``-X importtime`` self times (seconds) by top-level package."""
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        package = name.strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + int(self_us) / 1e6
    return totals


def summary(export: dict) -> dict:
    """U, BSD and cost of the cell whose behaviour the digest pins."""
    if "rows" in export:  # campaign: the portfolio row
        row = next(r for r in export["rows"] if r["scheduler"] == "PORTFOLIO")
        return {"utility": row["utility"], "bsd": row["BSD"],
                "cost_vmh": row["cost[VMh]"]}
    return {"utility": export["utility"], "bsd": export["avg_bounded_slowdown"],
            "cost_vmh": export["charged_hours"]}


def host_info(numpy_version: str | None) -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def measure(name: str, seconds: float, traced: bool) -> dict:
    """Run one workload; return its result record (see module docstring)."""
    workload = WORKLOADS[name]
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    begin = time.monotonic()
    deadline = begin + DEADLINE_S

    reps: list[Rep] = []
    while len(reps) < MIN_REPS or time.monotonic() - begin < seconds:
        reps.append(run_child(workload.argv, workdir, f"rep{len(reps)}", deadline))
    problems = [rep.problem for rep in reps if rep.problem]
    good = [rep for rep in reps if rep.problem is None]
    digest = good[0].digest if good else None
    for rep in good[1:]:
        if rep.digest != digest:
            rep.problem = f"{rep.tag}: export differs from {good[0].tag}"
            problems.append(rep.problem)
    good = [rep for rep in good if rep.problem is None]
    failed = len(reps) - len(good)
    base = good[0] if good else None
    cell = {}
    if base is not None:
        problems += workload.guard(base.export, base.stderr, None)
        cell = summary(base.export)

    timed = good or reps
    setups = [rep.setup_s for rep in timed if rep.setup_s is not None]
    untraced_wall = statistics.median(rep.wall_s for rep in timed)
    record: dict = {
        "workload": name,
        "argv": list(workload.argv),
        "why": workload.why,
        "repetitions": len(reps),
        "failed": failed,
        "walls_s": [rep.wall_s for rep in reps],
        "cpus_s": [rep.cpu_s for rep in reps],
        "cpu_frac": statistics.median(rep.cpu_s / rep.wall_s for rep in timed),
        "setups_s": setups,
        "export_sha256": digest,
        **cell,
        "host": host_info(base.marks.get("numpy") if base else None),
        "end_to_end": {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(rep.rss_mb for rep in timed),
            "utility": cell.get("utility", 0.0),
        },
    }
    if traced:
        record["per_layer"] = layer_metrics(workload, workdir, deadline, good,
                                            untraced_wall, problems)
    record["problems"] = problems
    return record


def coherence(rep: Rep, named_self_s: float) -> tuple[float, float, float]:
    """(start-up, teardown, unaccounted seconds) of a traced repetition.

    The traced wall is interpreter start-up, the import of ``repro.cli``,
    the self times of the named layer spans (*named_self_s*, see
    :meth:`layers.Tracer.named_self_s`), and teardown; what is left is
    time no layer accounts for.
    """
    startup = rep.marks["started"] - rep.launched
    teardown = rep.launched + rep.wall_s - rep.marks["finished"]
    gap = rep.wall_s - startup - rep.marks["import_s"] - named_self_s - teardown
    return startup, teardown, gap


def layer_metrics(workload: Workload, workdir: Path, deadline: float,
                  good: list[Rep], untraced_wall: float,
                  problems: list[str]) -> dict:
    """The traced, importtime and audit passes of a ``--trace 1`` run."""
    rep = run_child(workload.argv, workdir, "traced", deadline, traced=True)
    if rep.problem:
        problems.append(rep.problem)
        return {}
    if good and rep.digest != good[0].digest:
        problems.append("traced export differs from the untraced export")
    report = json.loads((workdir / "traced.layers.json").read_text())
    metrics = report["metrics"]
    problems += workload.guard(rep.export, rep.stderr, metrics)

    startup, teardown, gap = coherence(rep, report["self_sum_s"])
    if abs(gap) > COHERENCE_TOLERANCE * rep.wall_s:
        problems.append(
            f"layers cover {rep.wall_s - gap:.3f} s of a "
            f"{rep.wall_s:.3f} s traced wall")

    importtime = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=workdir, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if importtime.returncode != 0:
        problems.append("python -X importtime -c 'import repro.cli' failed")
    packages = import_self_times(importtime.stderr)

    if workload.argv[0] == "run":
        audit = run_child(workload.argv, workdir, "audit", deadline,
                          extra=("--audit", "strict", "--audit-report"))
        if audit.problem:
            problems.append(audit.problem)
        else:
            verdict = audit.export.pop("audit")
            if verdict["violations_total"] != 0 or not verdict["oracle"]["ok"]:
                problems.append(
                    f"strict audit: {verdict['violations_total']} violations, "
                    f"oracle ok = {verdict['oracle']['ok']}")
            if good and audit.export != good[0].export:
                problems.append("strict-audit export differs from the plain export")

    source = good or [rep]
    metrics.update({
        "import.total_s": [statistics.median(r.marks["import_s"] for r in source), "s"],
        "import.numpy_s": [packages.get("numpy", 0.0), "s"],
        "import.networkx_s": [packages.get("networkx", 0.0), "s"],
        "export.bytes": [rep.export_bytes, "bytes"],
        "campaign.worker_peak_rss_mb": [
            statistics.median(r.marks["children_maxrss_kb"] for r in source)
            * 1024 / 1e6 if workload.argv[0] == "campaign" else 0.0, "MB"],
        "process.startup_s": [startup, "s"],
        "process.teardown_s": [teardown, "s"],
        "trace.wall_s": [rep.wall_s, "s"],
        "trace.overhead_frac": [rep.wall_s / untraced_wall - 1.0, "1"],
        "trace.coherence_gap_frac": [gap / rep.wall_s, "1"],
    })
    return metrics


def report(record: dict, traced: bool, seed: int) -> dict:
    """Print the record for a reader; return the benchmark's result object."""
    name = record["workload"]
    attempted = record["repetitions"]
    print(f"# {name}: repro {' '.join(record['argv'])}")
    print(f"# why: {record['why']}")
    print(f"# seed {seed} (inputs fixed, see run.py); host {json.dumps(record['host'])}")
    for metric, value in record["end_to_end"].items():
        print(f"{name} {metric} = {value:.6g} {END_TO_END[metric]}")
    print(f"{name} cpu_s / wall_s = {record['cpu_frac']:.3f} "
          f"(CPU time of the process tree over its wall time, median)")
    print(f"{name} failed_frac = {record['failed']}/{attempted} "
          f"= {record['failed'] / attempted:.3g}")
    if record["export_sha256"]:
        print(f"{name} export sha256 {record['export_sha256']} utility "
              f"{record['utility']!r} BSD {record['bsd']!r} "
              f"cost {record['cost_vmh']!r} VMh")
    reference = {}
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())["workloads"].get(name, {})
    if reference:
        same = reference.get("export_sha256") == record["export_sha256"]
        print(f"{name} reference export: "
              f"{'match' if same else 'DIFFERS from ' + reference['export_sha256']}")
        if reference.get("argv") != record["argv"]:
            print(f"{name} reference was recorded for other arguments: "
                  f"{' '.join(reference.get('argv', []))}")
    metrics = {}
    if traced:
        for metric, (value, unit) in sorted(record.get("per_layer", {}).items()):
            print(f"{name} {metric} = {value:.6g} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        metrics = {metric: {"value": value, "unit": END_TO_END[metric]}
                   for metric, value in record["end_to_end"].items()}
    for problem in record["problems"]:
        print(f"{name} CHECK FAILED: {problem}")
    return {
        "correct": not record["problems"],
        "attempted": attempted,
        "failed": record["failed"],
        "metrics": metrics,
    }


def record_reference(record: dict) -> None:
    data = {"workloads": {}}
    if REFERENCE.is_file():
        data = json.loads(REFERENCE.read_text())
    data["workloads"][record["workload"]] = {
        "argv": record["argv"],
        "export_sha256": record["export_sha256"],
        "utility": record["utility"],
        "bsd": record["bsd"],
        "cost_vmh": record["cost_vmh"],
        "host": record["host"],
    }
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the export digests to perfbench/reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        capture_output=True, text=True, timeout=120)
    if build.returncode != 0:
        print(f"perfbench: compileall failed:\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        record = measure(name, args.seconds, bool(args.trace))
        OUT.joinpath(name, "result.json").write_text(json.dumps(record, indent=2))
        results.append(report(record, bool(args.trace), args.seed))
        if args.record and record["export_sha256"]:
            record_reference(record)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
