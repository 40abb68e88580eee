"""The repo benchmark: what users run, timed by phase and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold-bfs --seed 1 --seconds 20 --trace 0

One client in a closed loop: rounds of the workload run back to back in
this process until ``--seconds`` is spent (at least two, so that repeats
can be compared).  ``--trace 0`` reports the end-to-end metrics of the
untraced rounds; ``--trace 1`` adds one traced round and reports the
per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
repeat every metric by name with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # spans, temporary caches and history stores
MIN_ROUNDS = 2
SETUP_SAMPLES = 3  # this process plus fresh interpreters
DEFAULT_SEED = 1
#: Debugging paths; no reported number may come from one of them.
DEBUG_ENV = ("REPRO_SCALAR_FRONTEND", "REPRO_NAIVE_SCORER", "REPRO_CHAOS")

E2E_UNITS = {"wall_s": "s", "sim_req_per_s": "req/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "analysis.job_overhead_s": "s",
    "analysis.jobs": "count",
    "analysis.retries": "count",
    "gpu.construct_s": "s",
    "gpu.sm_s": "s",
    "gpu.sm_events": "count",
    "gpu.partition_s": "s",
    "gpu.partition_events": "count",
    "engine.run_s": "s",
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.dispatch_s": "s",
    "engine.trace_overhead": "ratio",
    "mc.pump_s": "s",
    "mc.pumps": "count",
    "mc.pump_share": "ratio",
    "mc.cmds_per_pump": "ratio",
    "mc.scores_per_read": "ratio",
    "mc.coord_msgs": "count",
    "mc.coord_s": "s",
    "mc.wgw_promotions": "count",
    "dram.reads": "count",
    "dram.writes": "count",
    "dram.activates": "count",
    "dram.row_hit_rate": "ratio",
    "dram.bw_util": "ratio",
    "sim.ipc": "winst/ns",
    "sim.divergence_ns": "ns",
}


def parse_args(argv):
    from bench_workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def refuse(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_from_checkout() -> None:
    """Make ``repro`` importable from this checkout's ``src`` and only there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        refuse(f"no program sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        refuse(f"repro imported from {repro.__file__}, not from {SRC}")


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus fresh interpreters doing the same."""
    samples = [first]
    cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, traced, rounds) -> dict:
    """Per-layer metrics: times from the traced round, counts from records."""
    recs = [j.record for j in traced.jobs]
    total = lambda key: sum(r.get(key, 0.0) for r in recs)  # noqa: E731
    mean = lambda key: ratio(total(key), len(recs))  # noqa: E731
    untraced_run_s = statistics.median(sum(j.run_s for j in r.jobs) for r in rounds)
    builds, build_s = tracer.total("workloads.build")
    jobs, _ = tracer.total("analysis.job")
    _, construct_s = tracer.total("gpu.construct")
    _, run_s = tracer.total("gpu.run")
    sm_events, sm_s = tracer.components("SMCore.")
    part_events, part_s = tracer.components("MemoryPartition.")
    pumps, pump_s = tracer.components("MemoryController._pump")
    _, coord_s = tracer.components("WGMController.receive_coordination")
    events = sum(j.events for j in traced.jobs)
    return {
        "workloads.build_s": build_s,
        "workloads.builds": builds,
        "analysis.job_overhead_s": tracer.self_time("analysis.job"),
        "analysis.jobs": jobs,
        "analysis.retries": sum(j.retries for j in traced.jobs),
        "gpu.construct_s": construct_s,
        "gpu.sm_s": sm_s,
        "gpu.sm_events": sm_events,
        "gpu.partition_s": part_s,
        "gpu.partition_events": part_events,
        "engine.run_s": untraced_run_s,
        "engine.events": events,
        "engine.events_per_s": ratio(events, untraced_run_s),
        "engine.dispatch_s": run_s - tracer.profiler.total_seconds(),
        "engine.trace_overhead": ratio(run_s, untraced_run_s),
        "mc.pump_s": pump_s,
        "mc.pumps": pumps,
        "mc.pump_share": ratio(pump_s, run_s),
        "mc.cmds_per_pump": ratio(total("activates") + total("reads") + total("writes"), pumps),
        "mc.scores_per_read": ratio(tracer.score_calls, total("reads")),
        "mc.coord_msgs": total("coord_msgs"),
        "mc.coord_s": coord_s,
        "mc.wgw_promotions": total("wgw_promotions"),
        "dram.reads": total("reads"),
        "dram.writes": total("writes"),
        "dram.activates": total("activates"),
        "dram.row_hit_rate": mean("row_hit_rate"),
        "dram.bw_util": mean("bandwidth_utilization"),
        "sim.ipc": mean("ipc"),
        "sim.divergence_ns": mean("divergence_ns"),
    }


def why_checks(w, layer, rounds, traced) -> list[tuple[str, bool]]:
    """The traced figures that justify choosing this workload."""
    if w.name == "sweep-cold-bfs":
        job_wall = statistics.median(sum(j.wall_s for j in r.jobs) for r in rounds)
        return [("workloads.build_s >= 1/3 of summed untraced job wall",
                 layer["workloads.build_s"] >= job_wall / 3)]
    if w.name == "mc-saturated-spmv":
        return [("mc.pump_s >= 1/2 of traced run time", layer["mc.pump_share"] >= 0.5),
                ("no trace build inside wall_s", layer["workloads.builds"] == 0)]
    return [("dram.writes > 0 on every job",
             all(j.record.get("writes", 0.0) > 0 for j in traced.jobs))]


def main(argv=None) -> int:
    from time import perf_counter

    args = parse_args(argv)
    armed = [name for name in DEBUG_ENV if os.environ.get(name)]
    if armed:
        refuse(f"refusing to measure a debugging path: {', '.join(armed)} set")
    os.environ["REPRO_HISTORY"] = "1"
    os.environ["REPRO_GIT_SHA"] = "perfbench"  # no git lookup outside the checkout

    from bench_workloads import WORKLOADS, check_job, run_round, setup

    w = WORKLOADS[args.workload]
    t0 = perf_counter()
    import_from_checkout()
    state = setup(w, args.seed)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = setup_samples(args, setup_s)

    OUT.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        rounds = []
        t0 = perf_counter()
        while True:
            gc.collect()
            rounds.append(run_round(w, state, args.seed, tmp_dir))
            typical = statistics.median(r.wall_s for r in rounds)
            if len(rounds) >= MIN_ROUNDS and perf_counter() - t0 + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = tracer = None
        if args.trace:
            from bench_trace import Tracer, installed

            gc.collect()
            with installed(Tracer()) as tracer:
                traced = run_round(w, state, args.seed, tmp_dir, tracer=tracer)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    reference = {j.job: j.record for j in rounds[0].jobs if j.ok}
    failures = []
    for r in rounds + ([traced] if traced else []):
        for j in r.jobs:
            why = check_job(w, j, reference.get(j.job) if r is not rounds[0] else None)
            if why:
                failures.append(f"{j.job}: {why}")
    if tracer is not None:
        failures += [f"{job}: not every warp retired" for job in tracer.unretired]
    attempted = sum(len(r.jobs) for r in rounds) + (len(traced.jobs) if traced else 0)
    digest = hashlib.sha256(
        json.dumps(reference, sort_keys=True).encode()
    ).hexdigest()[:16]

    if args.trace:
        metrics = layer_metrics(tracer, traced, rounds)
        units = LAYER_UNITS
        checks = why_checks(w, metrics, rounds, traced)
        spans_path = OUT / f"spans-{w.name}-s{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"workload": w.name, "seed": args.seed, **tracer.to_json()}
        ))
    else:
        walls = [r.wall_s for r in rounds]
        metrics = {
            "wall_s": statistics.median(walls),
            "sim_req_per_s": statistics.median(r.requests / r.wall_s for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
        checks = []

    for f in failures:
        print(f"FAILED {f}")
    print(f"workload {w.name} seed {args.seed}: {len(rounds)} untraced round(s)"
          f"{' + 1 traced' if traced else ''}, {attempted} jobs")
    print("round_wall_s " + " ".join(f"{r.wall_s:.3f}" for r in rounds))
    print(f"sim_digest {digest}")
    print(f"failed_frac {len(failures) / attempted:.4f}")
    for text, ok in checks:
        print(f"chosen-because {'ok' if ok else 'NOT MET'}: {text}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
