"""The placement engine: the façade every stored run submits through.

``PlacementEngine`` composes the job store, the result cache, an
execution backend and the scheduler into one object with two modes:

- **Spooled** (``submit`` + ``wait``/``serve``): jobs execute as
  :func:`~repro.service.worker.execute_job` payloads on the backend —
  the ``sweep`` and ``serve`` paths.
- **Inline** (``run_inline``): the caller's own netlist/config/spec
  objects run on the calling thread, with job bookkeeping wrapped
  around the same placer call a storeless ``place`` makes — the
  ``place --jobs-dir/--cache-dir`` path.

A one-shot ``place`` with neither flag never builds an engine: it runs
``Placer3D`` directly, writing no spool and no cache entry.  With a
store, either mode publishes through
:func:`~repro.service.worker.publish_result` into the
content-addressed cache, so a ``place --cache-dir`` today seeds a
cache hit for a ``sweep`` point tomorrow.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro import obs
from repro.core.config import PlacementConfig
from repro.core.pipeline import (PipelineHalted, PipelineSpec,
                                 default_pipeline_spec)
from repro.core.placer import Placer3D
from repro.core.result import PlacementResult
from repro.netlist.netlist import Netlist
from repro.obs.manifest import config_hash, content_hash
from repro.parallel import create_backend
from repro.service.cache import (CacheEntry, ResultCache, cache_key,
                                 netlist_hash)
from repro.service.jobstore import JobRequest, JobStateError, JobStore
from repro.service.scheduler import Scheduler, fulfil_from_cache
from repro.service.worker import load_job_netlist, publish_result

__all__ = ["PlacementEngine"]


class PlacementEngine:
    """Job store + cache + backend + scheduler behind one interface.

    Args:
        jobs_dir: the job-store root (spool directories live here).
        cache_dir: the result-cache root; defaults to
            ``<jobs_dir>/cache``.
        workers: execution-backend worker count (``0``/``None`` =
            auto, same resolution as ``--workers``).
        recorder: service telemetry recorder; a private one is created
            when omitted (counters surface via :meth:`counters`).
        poll_seconds: scheduler pump cadence.
    """

    def __init__(self, jobs_dir: Union[str, Path],
                 cache_dir: Optional[Union[str, Path]] = None,
                 workers: Optional[int] = None,
                 recorder: Optional[obs.Recorder] = None,
                 poll_seconds: float = 0.05) -> None:
        self.jobs_dir = Path(jobs_dir)
        self.store = JobStore(self.jobs_dir)
        self.cache = ResultCache(cache_dir if cache_dir is not None
                                 else self.jobs_dir / "cache")
        self.backend = create_backend(workers)
        self.recorder = recorder if recorder is not None \
            else obs.Recorder()
        self.scheduler = Scheduler(self.store, self.cache, self.backend,
                                   recorder=self.recorder,
                                   poll_seconds=poll_seconds)

    # -- submission ----------------------------------------------------
    def job_hashes(self, request: JobRequest,
                   netlist: Optional[Netlist] = None,
                   netlist_digest: Optional[str] = None,
                   ) -> Dict[str, str]:
        """The identity hash triple (plus cache key) of a request.

        Args:
            request: the submission payload.
            netlist: an already-loaded netlist to hash (avoids
                reloading when the caller has one — e.g. a sweep
                hashing one circuit for every point).
            netlist_digest: a precomputed netlist hash (strongest
                form of the same shortcut).
        """
        config = PlacementConfig.from_dict(request.config)
        spec_doc = (request.spec if request.spec is not None
                    else default_pipeline_spec(config).to_dict())
        if netlist_digest is None:
            if netlist is None:
                netlist = load_job_netlist(request, config.seed)
            netlist_digest = netlist_hash(netlist)
        cfg_hash = config_hash(config)
        spec_hash = content_hash(spec_doc)
        return {"config": cfg_hash, "spec": spec_hash,
                "netlist": netlist_digest,
                "cache_key": cache_key(cfg_hash, spec_hash,
                                       netlist_digest)}

    def submit(self, request: JobRequest,
               netlist: Optional[Netlist] = None,
               netlist_digest: Optional[str] = None) -> str:
        """Spool a new queued job; returns its job id."""
        hashes = self.job_hashes(request, netlist=netlist,
                                 netlist_digest=netlist_digest)
        document = self.store.create(request, hashes)
        self.recorder.count("jobs/submitted")
        return str(document["id"])

    # -- inline execution (the `place` path with a store) --------------
    def run_inline(self, job_id: str, *, netlist: Netlist,
                   config: PlacementConfig, spec: PipelineSpec,
                   recorder: Optional[obs.Recorder] = None,
                   check: bool = False,
                   checkpoint_dir: Optional[Union[str, Path]] = None,
                   resume: bool = False,
                   halt_after: Optional[str] = None,
                   ) -> PlacementResult:
        """Run a queued job on the calling thread with the caller's
        own objects.

        ``repro place`` takes this path only when ``--jobs-dir`` or
        ``--cache-dir`` asks for a store; without one it makes the
        same ``Placer3D(...).run(...)`` call directly.  The placer
        invocation here is that call — same netlist/config/spec/
        recorder instances, same keyword values — so the placement is
        bit-identical either way; the engine only wraps state
        transitions and result/cache publication around it.

        Raises:
            PipelineHalted: ``halt_after`` boundary reached (job parks
                as ``cancelled``, resumable).
            CheckpointError: resume mismatch (job parks as ``failed``,
                as on any other exception).
        """
        self.store.transition(job_id, "running", expect=("queued",))
        self.recorder.count("cache/miss")
        placer = Placer3D(netlist, config, recorder=recorder, spec=spec)
        try:
            result = placer.run(check=check,
                                checkpoint_dir=checkpoint_dir,
                                resume=resume, halt_after=halt_after)
        except PipelineHalted:
            # halted at a boundary with its checkpoint behind: park as
            # cancelled (the resumable parking state)
            self.store.transition(job_id, "cancelled",
                                  expect=("running",))
            raise
        except Exception as exc:
            self.store.transition(job_id, "failed", expect=("running",),
                                  error=str(exc))
            raise
        document = self.store.load(job_id)
        result_dir = self.store.result_dir(job_id)
        manifest, manifest_path, summary = publish_result(
            result_dir, document, netlist, config, spec, result)
        self.store.transition(job_id, "done", expect=("running",),
                              result=summary,
                              manifest_path=manifest_path)
        self.recorder.count("jobs/done")
        self.cache.store(str(document["hashes"]["cache_key"]),
                         result_dir / "placement.npz", manifest, summary)
        return result

    def try_cache(self, job_id: str) -> Optional[CacheEntry]:
        """Short-circuit a queued job if its key is already cached."""
        document = self.store.load(job_id)
        if document["state"] != "queued":
            return None
        entry = self.cache.fetch(str(document["hashes"]["cache_key"]))
        if entry is None:
            return None
        fulfil_from_cache(self.store, document, entry, self.recorder)
        return entry

    # -- lifecycle operations ------------------------------------------
    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current document."""
        return self.store.load(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        """All job documents in submission order."""
        return self.store.list_jobs()

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation (cooperative for running jobs).

        A queued job parks as ``cancelled`` immediately; a running job
        keeps going until its next stage boundary, where the worker's
        preemption hook sees the sentinel and stops (the scheduler
        then parks it).  Either way the checkpoint state supports a
        bit-identical :meth:`resume`.
        """
        document = self.store.request_cancel(job_id)
        if document["state"] == "queued":
            try:
                document = self.store.transition(job_id, "cancelled",
                                                 expect=("queued",))
            except JobStateError:
                # raced the scheduler's dispatch; the sentinel still
                # preempts the now-running job at its next boundary
                document = self.store.load(job_id)
        return document

    def resume(self, job_id: str) -> Dict[str, Any]:
        """Requeue a cancelled/failed job to resume from its
        checkpoint."""
        return self.store.requeue(job_id)

    def job_section(self, job_id: str) -> Dict[str, Any]:
        """The manifest ``job`` section for this job."""
        document = self.store.load(job_id)
        return {"id": str(document["id"]),
                "cache": str(document["cache"]),
                "preemptions": int(document["preemptions"])}

    def outcome(self, job_id: str) -> Optional[Dict[str, Any]]:
        """In-memory worker outcome (telemetry included), if any."""
        return self.scheduler.outcome(job_id)

    def counters(self) -> Dict[str, float]:
        """Service telemetry counters (``cache/hit`` …)."""
        return dict(self.recorder.snapshot().counters)

    # -- waiting -------------------------------------------------------
    def wait(self, job_ids: Optional[Iterable[str]] = None,
             timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Block until the given jobs (default: all) leave the active
        states; pumps the scheduler inline unless its thread runs.

        Returns:
            The final job documents, in the order requested.

        Raises:
            TimeoutError: active jobs remain after ``timeout`` seconds.
        """
        wanted = (list(job_ids) if job_ids is not None
                  else [d["id"] for d in self.store.list_jobs()])
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            if not self.scheduler.running:
                self.scheduler.pump()
            states = {job_id: self.store.load(job_id)["state"]
                      for job_id in wanted}
            if all(state not in ("queued", "running")
                   for state in states.values()):
                return [self.store.load(job_id) for job_id in wanted]
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"jobs still active after {timeout:.1f}s: "
                    + ", ".join(sorted(j for j, s in states.items()
                                       if s in ("queued", "running"))))
            time.sleep(self.scheduler.poll_seconds)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop the scheduler thread and release the backend."""
        self.scheduler.stop()
        self.backend.close()
        self.recorder.close()

    def __enter__(self) -> "PlacementEngine":
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
