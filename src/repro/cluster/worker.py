"""Worker agents: claim, heartbeat, simulate, publish — repeat.

A worker is any process pointed at a run directory.  Workers never talk
to each other and never hold in-memory state another worker needs: the
whole protocol is the files in :mod:`repro.cluster.store`, which is why
SIGKILLing one (the chaos harness does, on purpose) costs at most one
lease-expiry of latency and zero correctness.

Per claimed job a worker:

1. atomically claims the lease (``attempt`` = failures so far + 1);
2. starts a heartbeat thread renewing the lease every ``heartbeat_s``
   — a renewal that discovers the lease was reclaimed (this worker
   stalled past the expiry) marks the job *lost* so the worker knows
   its result is a duplicate;
3. runs the job through the exact single-process path
   (:func:`repro.analysis.runner.run_one_job`): same content-hash
   result cache, same checkpoint/resume — a job reclaimed from a
   crashed worker resumes from the victim's last snapshot and is
   bit-identical to an uninterrupted run (PR 3's restore guarantee);
4. publishes the terminal outcome exclusively (first publisher wins)
   and releases the lease.

Failures append per-attempt records; the job retries under seeded
backoff (:class:`~repro.cluster.retry.RetryPolicy`) until its budget is
spent — or until ``quarantine_owners`` *distinct* workers have failed
it, at which point it is quarantined as poison: one pathological config
stops costing the fleet anything, instead of wedging every worker that
touches it in turn.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.chaos import chaos_point
from repro.cluster.store import JobStore
from repro.core.atomic import atomic_write_json

if TYPE_CHECKING:
    from repro.analysis.runner import JobSpec

__all__ = ["ClusterWorker", "WorkerStats", "default_worker_id"]

_POLL_S = 0.2  # idle wait between claim scans


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one drain loop did (the CLI prints this as JSON)."""

    worker_id: str = ""
    claims: int = 0
    reclaims: int = 0  # claims that took over an expired/corrupt lease
    done: int = 0
    failed_attempts: int = 0
    quarantined: int = 0
    lost_leases: int = 0  # finished a job whose lease had been taken over
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "claims": self.claims,
            "reclaims": self.reclaims,
            "done": self.done,
            "failed_attempts": self.failed_attempts,
            "quarantined": self.quarantined,
            "lost_leases": self.lost_leases,
            "wall_s": round(self.wall_s, 4),
        }


class _Heartbeat(threading.Thread):
    """Renews one lease until stopped; detects takeover and chaos.

    ``REPRO_CHAOS="heartbeat=freeze"`` makes this thread silently stop
    renewing while the simulation keeps running — the live-but-stalled
    worker the expiry/reclaim path exists for.  ``heartbeat=stall:S``
    delays renewals; ``heartbeat=kill`` dies mid-simulation.
    """

    def __init__(self, lease, owner: str, attempt: int, period_s: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{owner}")
        self.lease = lease
        self.owner = owner
        self.attempt = attempt
        self.period_s = period_s
        self.lost = threading.Event()
        # NB: not named _stop — Thread.join() calls an internal _stop().
        self._halt = threading.Event()
        self._frozen = False

    def run(self) -> None:
        while not self._halt.wait(self.period_s):
            action = chaos_point("heartbeat")
            if action == "freeze":
                self._frozen = True
            if self._frozen:
                continue
            if not self.lease.renew(self.owner, self.attempt):
                self.lost.set()
                return  # ownership gone: stop touching the file

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.period_s + 5.0)


class ClusterWorker:
    """One agent draining a run directory (in-process or via the CLI)."""

    def __init__(
        self,
        store: JobStore,
        worker_id: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self._say = progress if progress is not None else (lambda _m: None)
        self.stats = WorkerStats(worker_id=self.worker_id)
        self._config = None  # reconstructed lazily from run.json
        self._naming_runner = None
        # Anything this worker writes to the run-history store carries
        # its identity (docs/distributed.md, docs/observability.md).
        os.environ.setdefault("REPRO_WORKER_ID", self.worker_id)

    # ------------------------------------------------------------------
    # payload reconstruction
    # ------------------------------------------------------------------
    def _build_config(self):
        if self._config is None:
            from repro.fuzz.artifact import config_from_dict

            self._config = config_from_dict(self.store.meta["config"])
        return self._config

    def _runner(self):
        """A runner used only for cache/checkpoint *naming*."""
        if self._naming_runner is None:
            from repro.analysis.runner import ExperimentRunner
            from repro.workloads.suite import Scale

            meta = self.store.meta
            self._naming_runner = ExperimentRunner(
                config=self._build_config(),
                scale=Scale[meta["scale"]],
                seeds=(1,),
                kind=meta["kind"],
                cache_dir=meta["cache_dir"],
                checkpoint_period_ns=float(meta.get("checkpoint_period_ns", 0.0)),
                trace_paths=meta.get("trace_paths") or None,
            )
        return self._naming_runner

    def _payload(self, record: dict) -> JobSpec:
        from repro.analysis.runner import JobSpec

        meta = self.store.meta
        return JobSpec(
            config=self._build_config(),
            scale=record["scale"],
            kind=record["kind"],
            bench=record["bench"],
            scheduler=record["scheduler"],
            seed=record["seed"],
            perfect=record["perfect"],
            cache_dir=meta["cache_dir"],
            checkpoint_period_ns=float(meta.get("checkpoint_period_ns", 0.0)),
            trace_paths=meta.get("trace_paths") or None,
        )

    def _checkpoint_of(self, record: dict) -> str:
        path = self._runner().checkpoint_path(
            record["bench"], record["scheduler"], record["seed"],
            record["perfect"],
        )
        return path if path and os.path.exists(path) else ""

    # ------------------------------------------------------------------
    # one job
    # ------------------------------------------------------------------
    def _run_job(self, job_id: str, attempt: int) -> None:
        from repro.analysis.runner import run_one_job

        store, say = self.store, self._say
        record = store.job_record(job_id)
        if record is None:
            return  # record vanished/corrupt: the enqueuer will heal it
        lease = store.lease(job_id)
        chaos_point("worker-claimed")  # crash window: owned, nothing run yet
        heartbeat = _Heartbeat(
            lease, self.worker_id, attempt, store.heartbeat_s
        )
        heartbeat.start()
        t0 = time.time()
        say(f"[cluster {self.worker_id}] attempt {attempt} on {job_id}")
        try:
            _key, _summary, meta = run_one_job(self._payload(record))
        except Exception as exc:  # noqa: BLE001 - every job error is data
            heartbeat.stop()
            self._record_failure(
                job_id, record, attempt, time.time() - t0,
                str(exc), type(exc).__name__,
            )
            lease.release(self.worker_id)
            return
        heartbeat.stop()
        if heartbeat.lost.is_set():
            # We stalled past the expiry and someone reclaimed the job.
            # Publishing is still safe (deterministic result, exclusive
            # create, first winner keeps the file) — but count it: the
            # chaos tests assert takeovers are *detected*, not silent.
            self.stats.lost_leases += 1
            say(f"[cluster {self.worker_id}] lease lost mid-job on {job_id}")
        outcome = {
            "status": "done",
            "simulated": bool(meta["simulated"]),
            "resumed": bool(meta.get("resumed", False)),
            "wall_s": round(time.time() - t0, 4),
            "sim_events": meta["sim_events"],
            "sim_wall_s": meta["sim_wall_s"],
            "retries": attempt - 1,
            "error": "",
            "error_type": "",
            "checkpoint": "",
            "worker": self.worker_id,
            "ts": time.time(),
        }
        if store.publish_outcome(job_id, outcome):
            self.stats.done += 1
        lease.release(self.worker_id)

    def _record_failure(
        self, job_id: str, record: dict, attempt: int, wall_s: float,
        error: str, error_type: str,
    ) -> None:
        store, say = self.store, self._say
        self.stats.failed_attempts += 1
        checkpoint = self._checkpoint_of(record)
        store.record_failure(job_id, {
            "owner": self.worker_id,
            "ts": time.time(),
            "attempt": attempt,
            "wall_s": round(wall_s, 4),
            "error": error,
            "error_type": error_type,
            "checkpoint": checkpoint,
        })
        fails = store.failures(job_id)
        owners = {f.get("owner", "") for f in fails}
        if len(owners) >= store.quarantine_owners:
            # Poison: the job fails under *distinct* workers, so the
            # problem travels with the config, not the host.  Freeze it.
            store.quarantine_mark(job_id, {
                "error": error,
                "error_type": error_type,
                "failures": len(fails),
                "owners": sorted(owners),
                "ts": time.time(),
            })
            self.stats.quarantined += 1
            say(f"[cluster {self.worker_id}] QUARANTINED {job_id} "
                f"({len(owners)} distinct owners failed it)")
        elif len(fails) > store.retries:
            store.publish_outcome(job_id, {
                "status": "failed",
                "simulated": False,
                "wall_s": round(wall_s, 4),
                "sim_events": 0.0,
                "sim_wall_s": 0.0,
                "retries": len(fails) - 1,
                "error": error,
                "error_type": error_type,
                "checkpoint": checkpoint,
                "worker": self.worker_id,
                "ts": time.time(),
            })
            say(f"[cluster {self.worker_id}] FAILED {job_id}: {error}")
        else:
            say(f"[cluster {self.worker_id}] attempt {attempt} failed on "
                f"{job_id} (will back off): {error}")

    # ------------------------------------------------------------------
    # drain loop
    # ------------------------------------------------------------------
    def drain(
        self,
        max_jobs: Optional[int] = None,
        wait: bool = True,
        poll_s: float = _POLL_S,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> WorkerStats:
        """Claim-and-run until the sweep is terminal (or budget spent).

        ``wait=False`` returns as soon as nothing is claimable (useful
        for opportunistic helpers); the default keeps polling through
        other workers' leases and backoff windows so the last agent
        standing always finishes the sweep.  ``should_stop`` is checked
        between jobs (the orchestrator threads one through to bail out
        when its harvest completes).
        """
        t0 = time.time()
        store = self.store
        while True:
            if should_stop is not None and should_stop():
                break
            now = time.time()
            open_jobs = [
                j for j in store.job_ids()
                if store.outcome(j) is None and store.quarantined(j) is None
            ]
            if not open_jobs:
                break
            claimed = False
            for job_id in open_jobs:
                if store.state(job_id, now) != "pending":
                    continue
                lease = store.lease(job_id)
                was_held = lease.read() is not None  # expired or corrupt
                attempt = len(store.failures(job_id)) + 1
                if not lease.try_claim(self.worker_id, attempt):
                    continue
                self.stats.claims += 1
                if was_held:
                    self.stats.reclaims += 1
                    self._say(
                        f"[cluster {self.worker_id}] reclaimed expired "
                        f"lease on {job_id}"
                    )
                self._run_job(job_id, attempt)
                claimed = True
                break
            if claimed:
                if max_jobs is not None and self.stats.claims >= max_jobs:
                    break
                continue
            if not wait:
                break
            time.sleep(poll_s)
        self.stats.wall_s = time.time() - t0
        return self.stats

    def write_stats(self, path: str) -> None:
        atomic_write_json(path, self.stats.to_dict())
