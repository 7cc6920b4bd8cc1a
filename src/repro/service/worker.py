"""The job execution payload: what runs on a backend worker.

:func:`execute_job` is a module-level function of one picklable
``{"job_dir": ...}`` payload, so the scheduler can dispatch it through
either execution backend unchanged — inline on
:class:`~repro.parallel.SerialBackend`, in a separate process on
:class:`~repro.parallel.ProcessPoolBackend`.  Everything it needs is
(re)built from the spooled ``job.json``: the netlist from the request
descriptor, the config from its dict form, the pipeline spec from its
serialized form.

Cancellation and resume both ride the checkpoint substrate: the run
always checkpoints into the job's ``checkpoint/`` directory, the
preemption hook polls the job's ``CANCEL`` sentinel at every stage
boundary, and a requeued job resumes from the last checkpoint —
finishing bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.checkpoint import has_checkpoint
from repro.core.config import PlacementConfig
from repro.core.pipeline import (PipelinePreempted, PipelineSpec,
                                 default_pipeline_spec)
from repro.core.placer import Placer3D
from repro.core.result import PlacementResult
from repro.metrics.report import PlacementReport, evaluate_placement
from repro.netlist import bookshelf
from repro.netlist.cache import (benchmark_key, bookshelf_key,
                                 cached_netlist)
from repro.netlist.netlist import Netlist
from repro.netlist.suite import load_benchmark
from repro.service.jobstore import JobRequest

__all__ = ["execute_job", "load_job_netlist", "publish_result",
           "result_summary"]


def load_job_netlist(request: JobRequest, seed: int) -> Netlist:
    """Rebuild the netlist a job request describes.

    Loads go through the content-keyed netlist cache: a sweep's
    per-alpha jobs and service resubmissions of one circuit parse or
    generate it once and unpickle pristine copies after that.
    Bookshelf circuits use the streaming reader, so full-size files
    parse in bounded memory.
    """
    if request.circuit is not None:
        circuit = request.circuit
        return cached_netlist(
            benchmark_key(circuit, request.scale, seed),
            lambda: load_benchmark(circuit, scale=request.scale,
                                   seed=seed))
    assert request.bookshelf is not None
    prefix = request.bookshelf
    return cached_netlist(
        bookshelf_key(prefix),
        lambda: bookshelf.read_bookshelf_streaming(prefix))


def result_summary(result: Any,
                   report: PlacementReport) -> Dict[str, Any]:
    """The compact result section stored on job documents.

    Wirelength/ILV come from the metric ``report`` (the evaluated
    placement, what ``sweep`` tables print), the objective and wall
    time from the placer ``result``.
    """
    return {
        "objective": float(result.objective),
        "wirelength": float(report.wirelength),
        "ilv": int(report.ilv),
        "ilv_density": float(report.ilv_density),
        "wall_seconds": float(result.runtime_seconds),
    }


def publish_result(result_dir: Path, document: Dict[str, Any],
                   netlist: Netlist, config: PlacementConfig,
                   spec: PipelineSpec, result: PlacementResult,
                   trace_path: Optional[str] = None,
                   ) -> Tuple[Dict[str, Any], str, Dict[str, Any]]:
    """Write a finished job's ``placement.npz`` and ``manifest.json``
    into ``result_dir``.

    Args:
        result_dir: the job's result directory (created if missing).
        document: the job document (its ``id`` and ``preemptions``
            fill the manifest's ``job`` section).
        trace_path: the JSONL trace the run wrote, if any.

    Returns:
        ``(manifest, manifest_path, summary)``, the summary being
        :func:`result_summary` of the evaluated placement.
    """
    report = evaluate_placement(result.placement, config.tech,
                                thermal=False)
    result_dir.mkdir(exist_ok=True)
    np.savez_compressed(result_dir / "placement.npz",
                        x=result.placement.x, y=result.placement.y,
                        z=result.placement.z)
    manifest = obs.build_manifest(
        netlist, config, result, trace_path=trace_path,
        pipeline=spec.to_dict(),
        job={"id": str(document["id"]), "cache": "miss",
             "preemptions": int(document.get("preemptions", 0))})
    manifest_path = obs.write_manifest(result_dir / "manifest.json",
                                       manifest)
    return manifest, manifest_path, result_summary(result, report)


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one spooled job to its next boundary: done or preempted.

    Args:
        payload: ``{"job_dir": <path>}`` — the job's spool directory
            (must contain ``job.json``).

    Returns:
        ``{"state": "preempted", "unit": ...}`` when the cancel
        sentinel stopped the run at a stage boundary (checkpoint
        already saved), else ``{"state": "done", "summary": ...,
        "manifest_path": ..., "manifest_errors": [...],
        "telemetry": Telemetry | None}``.  Exceptions propagate to the
        handle and park the job as ``failed``.
    """
    job_dir = Path(payload["job_dir"])
    with open(job_dir / "job.json", "r", encoding="utf-8") as fh:
        document = json.load(fh)
    request = JobRequest.from_dict(document["request"])
    config = PlacementConfig.from_dict(request.config)
    netlist = load_job_netlist(request, config.seed)
    spec = (PipelineSpec.from_dict(request.spec)
            if request.spec is not None
            else default_pipeline_spec(config))

    recorder: Optional[obs.Recorder] = None
    trace_path: Optional[str] = None
    if request.want_telemetry or request.telemetry_prefix:
        sink = None
        if request.telemetry_prefix:
            trace_path = f"{request.telemetry_prefix}.trace.jsonl"
            sink = obs.EventSink(trace_path)
        recorder = obs.Recorder(sink=sink)

    checkpoint_dir = job_dir / "checkpoint"
    cancel_path = job_dir / "CANCEL"

    def preempt() -> bool:
        return cancel_path.exists()

    placer = Placer3D(netlist, config, recorder=recorder, spec=spec)
    try:
        result = placer.run(check=request.check,
                            checkpoint_dir=checkpoint_dir,
                            resume=has_checkpoint(checkpoint_dir),
                            preempt=preempt)
    except PipelinePreempted as stopped:
        if recorder is not None:
            recorder.close()
        return {"state": "preempted", "unit": stopped.unit}
    if recorder is not None:
        recorder.close()

    manifest, manifest_path, summary = publish_result(
        job_dir / "result", document, netlist, config, spec, result,
        trace_path=trace_path)
    errors = list(obs.validate_manifest(manifest))
    if request.telemetry_prefix:
        obs.write_manifest(f"{request.telemetry_prefix}.manifest.json",
                           manifest)
    return {
        "state": "done",
        "summary": summary,
        "manifest_path": manifest_path,
        "manifest_errors": errors,
        "telemetry": result.telemetry,
    }
