"""The benchmark's workloads: one-time set-up and one timed round each.

A *round* is what a user waits for: a cold-cache inline ``run_sweep``
(``workers=0``) for the sweep workloads, or ``GPUSystem`` construct +
run + summary on a trace built during set-up for the single-simulation
workload.  Every round returns the simulated record of each job, so the
caller can check that repeats (and the traced pass) agree exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

#: Fields of a cached sweep result that describe the simulator, not the
#: simulated machine: host time, and engine events (a perf-only change may
#: remove redundant events).  Everything else must repeat exactly.
HOST_TIME_KEY, EVENTS_KEY = "sim_wall_s", "sim_events"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "sweep": cold inline run_sweep | "single": one prebuilt trace
    kind: str  # ExperimentRunner workload kind
    benches: tuple[str, ...]
    schedulers: tuple[str, ...]
    scale: str  # repro.workloads.suite.Scale member name
    needs_writes: bool = False  # correctness: every job must issue DRAM writes


#: Why each workload was chosen: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-cold-bfs",
            "sweep",
            "algorithmic",
            ("bfs",),
            ("gmc", "wg", "wg-m", "wg-bw", "wg-w"),
            "QUICK",
        ),
        Workload(
            "mc-saturated-spmv",
            "single",
            "algorithmic",
            ("spmv",),
            ("wg-m",),
            "QUICK",
        ),
        Workload(
            "writes-synthetic",
            "sweep",
            "synthetic",
            ("nw", "SS"),
            ("gmc", "wg-w"),
            "PAPER",
            needs_writes=True,
        ),
    )
}


@dataclass
class State:
    """What set-up leaves for the rounds."""

    config: object  # SimConfig
    trace: object = None  # KernelTrace, "single" mode only


@dataclass
class JobOutcome:
    job: str  # "bench/scheduler"
    ok: bool
    error: str = ""
    record: dict = field(default_factory=dict)  # simulated statistics only
    run_s: float = 0.0  # GPUSystem.run wall (stats.wall_seconds)
    events: float = 0.0  # engine events processed
    wall_s: float = 0.0  # whole-job wall as the program measured it
    retries: int = 0


@dataclass
class Round:
    wall_s: float
    jobs: list[JobOutcome]

    @property
    def requests(self) -> float:
        return sum(j.record.get("requests_issued", 0.0) for j in self.jobs)


def setup(w: Workload, seed: int) -> State:
    """Import every module a round calls into and prepare the workload."""
    import repro.analysis.sweep  # noqa: F401
    from repro.core.config import SimConfig
    from repro.workloads.suite import Scale, build_benchmark

    config = SimConfig()
    if w.mode == "sweep":
        return State(config)
    (bench,) = w.benches
    (sched,) = w.schedulers
    trace = build_benchmark(bench, config, Scale[w.scale], seed=seed)
    return State(config.with_scheduler(sched), trace)


def job_record(stats) -> dict:
    """``SimStats.summary()`` plus the per-channel counters the sweep
    runner caches next to it (same keys, so both modes read alike)."""
    record = stats.summary()
    chans = stats.channels
    record["activates"] = float(sum(c.activates for c in chans))
    record["reads"] = float(sum(c.reads for c in chans))
    record["writes"] = float(sum(c.writes for c in chans))
    record["coord_msgs"] = float(sum(c.coordination_msgs_applied for c in chans))
    record["wgw_promotions"] = float(sum(c.wgw_promotions for c in chans))
    return record


def run_round(
    w: Workload, state: State, seed: int, tmp_dir: str, tracer=None
) -> Round:
    """One timed round; ``tmp_dir`` receives this round's cache and history.

    ``tracer`` opens the job span of a single simulation; a sweep's job
    spans come from the shim on ``run_one_job``.
    """
    if w.mode == "single":
        return _single_round(w, state, tracer)
    return _sweep_round(w, state, seed, tmp_dir)


def _single_round(w: Workload, state: State, tracer) -> Round:
    from repro.gpu.system import GPUSystem

    outcome = JobOutcome(f"{w.benches[0]}/{w.schedulers[0]}", False)
    t0 = perf_counter()
    try:
        with tracer.span("analysis.job", job=outcome.job) if tracer else nullcontext():
            system = GPUSystem(state.config, state.trace)
            stats = system.run()
            outcome.record = job_record(stats)
    except Exception as exc:  # a failed job is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
    else:
        retired, total = system.warps_done, len(state.trace.warps)
        outcome.ok = retired == total
        outcome.error = "" if outcome.ok else f"{retired}/{total} warps retired"
        outcome.run_s = stats.wall_seconds
        outcome.events = float(stats.events_processed)
    outcome.wall_s = perf_counter() - t0
    return Round(outcome.wall_s, [outcome])


def _sweep_round(w: Workload, state: State, seed: int, tmp_dir: str) -> Round:
    from repro.analysis.runner import ExperimentRunner
    from repro.analysis.sweep import run_sweep
    from repro.workloads.suite import Scale

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp_dir)
    # History ingestion stays in the measured cost, into a throwaway store.
    os.environ["REPRO_HISTORY_DIR"] = tempfile.mkdtemp(prefix="history-", dir=tmp_dir)
    t0 = perf_counter()
    runner = ExperimentRunner(
        config=state.config,
        scale=Scale[w.scale],
        seeds=(seed,),
        kind=w.kind,
        cache_dir=cache_dir,
    )
    report = run_sweep(runner, w.benches, w.schedulers, workers=0)
    wall = perf_counter() - t0

    jobs = []
    for res in report.results:
        j = res.job
        outcome = JobOutcome(
            f"{j.bench}/{j.scheduler}", res.status == "done", res.error,
            wall_s=res.wall_s, retries=res.retries,
        )
        if outcome.ok:
            path = os.path.join(
                cache_dir, runner.cache_name(j.bench, j.scheduler, j.seed, j.perfect)
            )
            with open(path) as fh:
                outcome.record = json.load(fh)
            outcome.run_s = outcome.record.pop(HOST_TIME_KEY)
            outcome.events = outcome.record.pop(EVENTS_KEY)
        jobs.append(outcome)
    return Round(wall, jobs)


def check_job(w: Workload, outcome: JobOutcome, reference: Optional[dict]) -> str:
    """Why ``outcome`` fails a correctness check ("" when it passes)."""
    if not outcome.ok:
        return outcome.error or "job failed"
    rec = outcome.record
    if rec.get("requests_issued", 0.0) <= 0:
        return "no memory requests issued"
    if w.needs_writes and rec.get("writes", 0.0) <= 0:
        return "no DRAM writes"
    if reference is not None and rec != reference:
        diff = sorted(k for k in set(rec) | set(reference) if rec.get(k) != reference.get(k))
        return f"simulated statistics differ from the first round: {diff}"
    return ""
