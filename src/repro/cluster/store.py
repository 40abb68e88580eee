"""Shared-filesystem job store: the only coordination the fleet has.

A *run directory* is the whole database of one distributed sweep.  No
orchestrator process is required for correctness — every decision a
worker makes is a function of these files, and every mutation is a
single atomic filesystem operation:

======================  ================================================
path                    meaning
======================  ================================================
``run.json``            immutable run manifest: the resolved config
                        (as a dict), cache dir, checkpoint period,
                        lease timings, retry policy, quarantine bound
``jobs/<slug>.json``    one record per grid cell (written once by the
                        enqueuer; re-written only to heal corruption)
``leases/<slug>.lease`` claim + heartbeat (:mod:`repro.cluster.lease`)
``outcomes/<slug>.json``terminal result meta, published exclusively by
                        the finishing worker (first publisher wins)
``failures/<slug>/``    one numbered file per failed attempt — append-
                        only, so concurrent failers never read-modify-
                        write a shared counter
``quarantine/<slug>``   poison marker: N distinct owners failed this
                        job; no worker may claim it again
======================  ================================================

Per-job files are the point: concurrent writers touch *different*
paths, so nothing here ever contends on one manifest.  The classic
``sweep-manifest.json`` still exists for compatibility and resume — it
is produced by **compaction** (:func:`compact_manifest`), a read-only
fold over these records performed by whoever wants the summary.

Every read path in this module treats a corrupt file as a *recoverable
state*, never an error: corrupt job records are re-written from the
grid, corrupt outcomes are moved aside and the job re-earns one,
corrupt leases age out by mtime.  The chaos tests
(``tests/test_cluster_chaos.py``) hold the store to that contract.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Optional

from repro.cluster.lease import Lease
from repro.cluster.retry import RetryPolicy
from repro.core.atomic import atomic_write_json

__all__ = [
    "ClusterError",
    "JobStore",
    "RUN_META_NAME",
    "compact_manifest",
    "job_slug",
]

RUN_META_NAME = "run.json"
_RUN_SCHEMA = 1

#: run.json keys a store cannot operate without.
_REQUIRED_META = ("config", "cache_dir", "kind", "scale")


class ClusterError(RuntimeError):
    """The run directory is missing, foreign, or unusable."""


def job_slug(job_id: str) -> str:
    """Filesystem-safe name for one job id (ids are ``/``-separated)."""
    return job_id.replace("/", "~")


def _read_json(path: str) -> Optional[dict]:
    """Parse ``path``; ``None`` for missing *or corrupt* files."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _publish_exclusive(path: str, doc: dict) -> bool:
    """Atomically create ``path`` with full content; first writer wins.

    The document is written to a temp file and *linked* into place, so
    ``path`` either does not exist or holds a complete document — a
    publisher killed mid-write leaves only a temp orphan.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        return True
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


class JobStore:
    """One distributed sweep's shared state, rooted at a directory."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.leases_dir = os.path.join(self.root, "leases")
        self.outcomes_dir = os.path.join(self.root, "outcomes")
        self.failures_dir = os.path.join(self.root, "failures")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        self._meta: Optional[dict] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str, meta: dict) -> "JobStore":
        """Initialize (or re-open) a run directory with ``meta``.

        Idempotent: an existing compatible ``run.json`` is kept as-is so
        late-joining enqueuers cannot re-key a run mid-flight; an
        existing *incompatible* one raises.
        """
        store = cls(root)
        for d in (store.jobs_dir, store.leases_dir, store.outcomes_dir,
                  store.failures_dir, store.quarantine_dir):
            os.makedirs(d, exist_ok=True)
        existing = _read_json(store._meta_path())
        if existing is None:
            doc = {"schema_version": _RUN_SCHEMA, "created": time.time(), **meta}
            atomic_write_json(store._meta_path(), doc)
        else:
            store._check_meta(existing)
            if existing.get("config_hash") != meta.get("config_hash"):
                raise ClusterError(
                    f"{root} already hosts a run for config "
                    f"{existing.get('config_hash')!r}; refusing to enqueue "
                    f"config {meta.get('config_hash')!r} into it"
                )
        store._meta = None  # force re-read
        return store

    @classmethod
    def open(cls, root: str) -> "JobStore":
        """Open an existing run directory (raises if absent/foreign)."""
        store = cls(root)
        store.meta  # noqa: B018 - validates eagerly
        return store

    def _meta_path(self) -> str:
        return os.path.join(self.root, RUN_META_NAME)

    @staticmethod
    def _check_meta(doc: dict) -> None:
        if doc.get("schema_version") != _RUN_SCHEMA:
            raise ClusterError(
                f"run manifest schema {doc.get('schema_version')!r} is not "
                f"{_RUN_SCHEMA} (created by an incompatible version?)"
            )
        missing = [k for k in _REQUIRED_META if k not in doc]
        if missing:
            raise ClusterError(
                f"run manifest is missing {', '.join(missing)}"
            )

    @property
    def meta(self) -> dict:
        if self._meta is None:
            doc = _read_json(self._meta_path())
            if doc is None:
                raise ClusterError(
                    f"{self.root} has no readable {RUN_META_NAME} "
                    "(not a cluster run directory?)"
                )
            self._check_meta(doc)
            self._meta = doc
        return self._meta

    @property
    def heartbeat_s(self) -> float:
        return float(self.meta.get("heartbeat_s", 2.0))

    @property
    def lease_expiry_s(self) -> float:
        return float(self.meta.get("lease_expiry_s", 10.0))

    @property
    def retries(self) -> int:
        return int(self.meta.get("retries", 1))

    @property
    def quarantine_owners(self) -> int:
        return int(self.meta.get("quarantine_owners", 3))

    @property
    def policy(self) -> RetryPolicy:
        return RetryPolicy.from_dict(self.meta.get("policy") or {})

    # ------------------------------------------------------------------
    # job records
    # ------------------------------------------------------------------
    def ensure_jobs(self, records: list[dict]) -> int:
        """Write any missing/corrupt job records; returns how many.

        Healing is idempotent and safe under concurrency: records are
        pure functions of the grid, so the last full write of one
        record equals every other.
        """
        n = 0
        for record in records:
            path = self._job_path(record["id"])
            if _read_json(path) is None:
                atomic_write_json(path, record)
                n += 1
        return n

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_slug(job_id) + ".json")

    def job_ids(self) -> list[str]:
        """Every enqueued job id (from readable records), sorted."""
        out = []
        try:
            names = os.listdir(self.jobs_dir)
        except OSError:
            return []
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            doc = _read_json(os.path.join(self.jobs_dir, name))
            if doc and "id" in doc:
                out.append(doc["id"])
        return out

    def job_record(self, job_id: str) -> Optional[dict]:
        return _read_json(self._job_path(job_id))

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------
    def lease(self, job_id: str) -> Lease:
        return Lease(
            os.path.join(self.leases_dir, job_slug(job_id) + ".lease"),
            self.lease_expiry_s,
        )

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------
    def _outcome_path(self, job_id: str) -> str:
        return os.path.join(self.outcomes_dir, job_slug(job_id) + ".json")

    def outcome(self, job_id: str) -> Optional[dict]:
        """The job's terminal outcome, healing corruption on the way.

        A torn outcome file is moved aside (atomic rename, so racing
        readers heal exactly once) and reported as absent — the job
        becomes claimable again and re-earns a complete outcome; the
        rerun is cheap because its summary is already in the result
        cache.
        """
        path = self._outcome_path(job_id)
        doc = _read_json(path)
        if doc is not None:
            return doc
        if os.path.exists(path):
            grave = f"{path}.corrupt-{os.getpid()}-{time.time_ns()}"
            try:
                os.rename(path, grave)
            except OSError:
                pass  # someone else healed it first
        return None

    def publish_outcome(self, job_id: str, doc: dict) -> bool:
        """Record the terminal outcome; ``False`` if someone beat us.

        Duplicate publishers are expected (duplicate claims, reclaimed
        stalls): simulation is deterministic and results content-hash
        cached, so every would-be publisher holds equivalent meta and
        first-wins is safe.
        """
        return _publish_exclusive(self._outcome_path(job_id), doc)

    # ------------------------------------------------------------------
    # failures & quarantine
    # ------------------------------------------------------------------
    def _failure_dir(self, job_id: str) -> str:
        return os.path.join(self.failures_dir, job_slug(job_id))

    def failures(self, job_id: str) -> list[dict]:
        """Readable failure records of one job, oldest first."""
        directory = self._failure_dir(job_id)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return []
        out = []
        for name in names:
            if not name.endswith(".json"):
                continue
            doc = _read_json(os.path.join(directory, name))
            if doc is not None:
                out.append(doc)
        return out

    def record_failure(self, job_id: str, doc: dict) -> int:
        """Append one failure record; returns the total failure count.

        Records get their sequence number by exclusive creation, so two
        workers failing the same job concurrently (a duplicate-claim
        pathology) both land — there is no shared counter to corrupt.
        """
        directory = self._failure_dir(job_id)
        os.makedirs(directory, exist_ok=True)
        # Count records only: a concurrent publisher's temp file would
        # start the scan past the first free number and leave a gap.
        seq = sum(1 for n in os.listdir(directory) if not n.startswith(".")) + 1
        while True:
            path = os.path.join(directory, f"{seq:04d}.json")
            if _publish_exclusive(path, {**doc, "seq": seq}):
                return seq
            seq += 1

    def quarantine_mark(self, job_id: str, doc: dict) -> None:
        atomic_write_json(
            os.path.join(self.quarantine_dir, job_slug(job_id) + ".json"), doc
        )

    def quarantined(self, job_id: str) -> Optional[dict]:
        return _read_json(
            os.path.join(self.quarantine_dir, job_slug(job_id) + ".json")
        )

    # ------------------------------------------------------------------
    # scheduling queries
    # ------------------------------------------------------------------
    def next_eligible_s(self, job_id: str) -> float:
        """Unix time before which this job must not be retried."""
        fails = self.failures(job_id)
        if not fails:
            return 0.0
        last_ts = max(float(f.get("ts", 0.0)) for f in fails)
        return last_ts + self.policy.delay_s(len(fails), token=job_id)

    def state(self, job_id: str, now: Optional[float] = None) -> str:
        """One job's lifecycle state, derived purely from files."""
        now = time.time() if now is None else now
        outcome = self.outcome(job_id)
        if outcome is not None:
            return str(outcome.get("status", "done"))
        if self.quarantined(job_id) is not None:
            return "quarantined"
        lease = self.lease(job_id)
        info = lease.read()
        if info is not None and not lease.expired(info, now):
            return "running"
        if now < self.next_eligible_s(job_id):
            return "backoff"
        return "pending"

    def snapshot(self, now: Optional[float] = None) -> dict:
        """{state: [job_id, ...]} over every enqueued job."""
        now = time.time() if now is None else now
        out: dict[str, list[str]] = {}
        for job_id in self.job_ids():
            out.setdefault(self.state(job_id, now), []).append(job_id)
        return out

    def all_terminal(self) -> bool:
        """True when every job is done, failed, or quarantined."""
        for job_id in self.job_ids():
            if self.outcome(job_id) is None and self.quarantined(job_id) is None:
                return False
        return True


def compact_manifest(store: JobStore, manifest_name: Optional[str] = None) -> dict:
    """Fold per-job outcome records into the classic sweep manifest.

    The manifest (``sweep-manifest.json`` in the run's *cache dir*) is
    what ``run_sweep(resume=True)`` and every existing tool read; in
    cluster mode nobody writes it during the drain — concurrent workers
    only touch their per-job files — and this compaction derives it
    afterwards.  Any process may compact at any time: the fold is
    deterministic over the store, so concurrent compactors write
    equivalent documents.  Returns the manifest jobs mapping.
    """
    # Local import: sweep pulls in the full analysis stack, which the
    # store's other callers (workers, status) do not need.
    from repro.analysis.sweep import MANIFEST_NAME, _save_manifest, load_manifest

    name = manifest_name or store.meta.get("manifest_name") or MANIFEST_NAME
    cache_dir = store.meta["cache_dir"]
    manifest = load_manifest(cache_dir, name)
    for job_id in store.job_ids():
        outcome = store.outcome(job_id)
        if outcome is None:
            quarantine = store.quarantined(job_id)
            if quarantine is None:
                continue  # still pending/running: not manifest material
            outcome = {
                "status": "failed",
                "error": quarantine.get("error", "quarantined"),
                "error_type": "Quarantined",
                "retries": quarantine.get("failures", 0),
            }
        manifest[job_id] = {
            "status": outcome.get("status", "done"),
            "simulated": outcome.get("simulated", False),
            "wall_s": outcome.get("wall_s", 0.0),
            "sim_events": outcome.get("sim_events", 0.0),
            "sim_wall_s": outcome.get("sim_wall_s", 0.0),
            "retries": outcome.get("retries", 0),
            "error": outcome.get("error", ""),
            "error_type": outcome.get("error_type", ""),
            "checkpoint": outcome.get("checkpoint", ""),
            "worker": outcome.get("worker", ""),
        }
    _save_manifest(cache_dir, manifest, name)
    return manifest
