"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of a timed, untraced run;
``--trace 1`` prints the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every workload
and every traced run executes in fresh interpreters (``session.py``),
so peak RSS, set-up time and the program's process-wide caches never
carry over from one workload to another.  Scratch files go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import UNITS  # noqa: E402
from stats import median, tail_percentile  # noqa: E402

WORKLOADS = ("flow", "thermal", "global-large", "jobs")
#: Fresh-interpreter set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fresh interpreters timing ``import repro.cli`` (``cli.import_s``).
IMPORT_REPEATS = 3
#: A session that has not finished by then is killed.
CHILD_TIMEOUT_S = 170.0

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - t)")


#: A run's metrics, ``name -> (value, unit, note)``, and its session
#: document.
Result = Tuple[Dict[str, Any], Dict[str, Any]]


class BenchError(Exception):
    """The benchmark itself could not run (not a failed job)."""


def checkout_root() -> str:
    """The checkout the benchmark runs in: the working directory, which
    must hold the program's sources."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError(f"{root} holds no src/repro; run from the root of "
                         f"a checkout of the repository")
    return root


def child_env(root: str, scratch: str) -> Dict[str, str]:
    env = dict(os.environ)
    for key in ("REPRO_WORKERS", "REPRO_PROFILE", "REPRO_PROFILE_ALLOC",
                "REPRO_CONTRACTS"):
        env.pop(key, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = os.path.join(scratch, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build(root: str, env: Dict[str, str]) -> None:
    """Byte-compile the sources once, so no set-up pays compilation."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(root, "src", "repro")],
                   env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)


def session(args: argparse.Namespace, mode: str, scratch: str,
            env: Dict[str, str], tag: str,
            extra: List[str]) -> Tuple[float, Dict[str, Any]]:
    """Run one ``session.py`` interpreter; returns (spawn time, result)."""
    out = os.path.join(scratch, f"{tag}.json")
    work = os.path.join(scratch, tag)
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--scratch", work, "--out", out] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} session exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(out, "r", encoding="utf-8") as fh:
        return spawned, json.load(fh)


def import_seconds(env: Dict[str, str]) -> List[float]:
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              check=True, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(float(proc.stdout.strip()))
    return samples


def timed_metrics(args: argparse.Namespace, scratch: str,
                  env: Dict[str, str]) -> Result:
    setups = []
    for k in range(SETUP_REPEATS - 1):
        spawned, doc = session(args, "setup", scratch, env, f"setup-{k}", [])
        setups.append(doc["ready_monotonic"] - spawned)
    spawned, doc = session(args, "timed", scratch, env, "timed",
                           ["--seconds", str(args.seconds)])
    setups.append(doc["ready_monotonic"] - spawned)

    jobs = doc["jobs"]
    good = [j for j in jobs if not j["error"]]
    times = [j["seconds"] for j in jobs]
    tail, tail_pct, n = tail_percentile(times)
    q = doc["quality"]
    metrics = {
        "setup_s": (median(setups), "s", f"median of {len(setups)}"),
        "cells_per_s": (sum(j["cells"] for j in good) / doc["wall_s"],
                        "1/s", f"{len(good)} checked jobs in "
                               f"{doc['wall_s']:.2f} s"),
        "job_s_p50": (median(times), "s", f"n={n}"),
        "job_s_p90": (tail, "s", f"p{tail_pct:.0f}, n={n}"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB", "VmHWM"),
        "objective": (q["objective"], "m", f"mean of {len(good)}"),
        "hpwl_m": (q["hpwl_m"], "m", f"mean of {len(good)}"),
        "ilv": (q["ilv"], "count", f"mean of {len(good)}"),
        "peak_temp_k": (q["peak_temp_k"], "K", f"mean of {len(good)}"),
    }
    return metrics, doc


def traced_metrics(args: argparse.Namespace, scratch: str,
                   env: Dict[str, str]) -> Result:
    """Untraced jobs for half of ``--seconds``, then the same jobs traced
    in another fresh interpreter; their ``job_s_p50`` ratio is the
    tracing overhead."""
    _, base = session(args, "timed", scratch, env, "untraced",
                      ["--seconds", str(args.seconds / 2)])
    count = len(base["jobs"])
    _, doc = session(args, "traced", scratch, env, "traced",
                     ["--jobs", str(count)])
    layers = doc["layers"]
    untraced = median([j["seconds"] for j in base["jobs"]])
    traced = doc["traced_p50"]
    layers["obs.trace_overhead_pct"] = {
        "value": 100.0 * (traced - untraced) / untraced, "unit": "%",
        "base": f"traced p50 {traced:.4f} s vs untraced p50 "
                f"{untraced:.4f} s, {count} jobs each"}
    doc["jobs"] = base["jobs"] + doc["jobs"]
    if args.workload == "jobs":
        samples = import_seconds(env)
        layers["cli.import_s"] = {"value": median(samples), "unit": "s",
                                  "base": f"median of {len(samples)} "
                                          f"fresh interpreters"}
    else:
        layers["cli.import_s"] = {"value": 0.0, "unit": "s", "base": ""}
    metrics = {name: (layers[name]["value"], unit,
                      layers[name]["base"] or "bypassed")
               for name, unit in UNITS.items()}
    return metrics, doc


def tally(jobs: List[Dict[str, Any]]) -> Tuple[int, int]:
    """(attempted, failed): a job fails when it raised or failed its
    output check."""
    return len(jobs), sum(1 for j in jobs if j["error"])


def report(args: argparse.Namespace, metrics: Dict[str, Any],
           doc: Dict[str, Any], attempted: int, failed: int) -> None:
    fp = doc["fingerprint"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"machine: nproc {fp['nproc']}, {fp['cpu_model']}, python "
          f"{fp['python']}, numpy {fp['numpy']}, scipy {fp['scipy']}, "
          f"workers {fp['workers']}"
          + ("  WARNING: more workers than CPUs" if fp["oversubscribed"]
             else ""))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<28} {rate:>14.6g} ratio  "
          f"{failed} failed / {attempted} attempted")
    for job in doc["jobs"]:
        if job["error"]:
            print(f"  failed job {job['phase']}/{job['index']}: "
                  f"{job['error'].strip().splitlines()[-1]}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = checkout_root()
        scratch = os.path.join(root, ".perfbench",
                               f"{args.workload}-{args.seed}-{args.trace}")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        env = child_env(root, scratch)
        build(root, env)
        if args.trace:
            metrics, doc = traced_metrics(args, scratch, env)
        else:
            metrics, doc = timed_metrics(args, scratch, env)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = tally(doc["jobs"])
    report(args, metrics, doc, attempted, failed)
    with open(os.path.join(scratch, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "session": doc}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
