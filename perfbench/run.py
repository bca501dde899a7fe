"""Benchmark erasurelab on one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload verify-pass --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: the package under test is imported
from the ``src`` directory next to this one, and the run stops with exit
code 2 when there is none. Workloads: verify-pass, verify-fail, search,
stream (README.md says why each exists).

Each workload is a closed loop, one caller in one process, no threads and no
worker pool: the next operation starts when the previous one returns.
Inputs come from ``--seed`` before the clock starts. With ``--trace 0`` the
loop runs whole rounds of operations until ``--seconds`` of operation time
are spent and reports the end-to-end metrics, with times scaled to a fixed
machine speed (:mod:`speed`; the times as measured go to the run record).
With ``--trace 1`` it runs the
first round once plainly and once under :class:`tracing.Tracer`, and reports
the per-layer metrics; a fixed round keeps every counter repeatable.

Every output is checked against brute-force references; a mismatch or an
exception counts as a failed operation and makes the exit code 1. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the output
digest and the machine is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 9
# Runs in a fresh interpreter; times from its first statement to the point
# where the workload's modules are imported and its fields are built, then
# takes the machine-speed reference in the same process.
SETUP_PROGRAM = """\
import time
t0 = time.perf_counter()
import importlib, sys
sys.path.insert(0, {src!r})
for name in {modules!r}:
    importlib.import_module(name)
from erasurelab import field_make
for q in {fields!r}:
    field_make(q)
setup = time.perf_counter() - t0
sys.path.insert(0, {here!r})
import speed
print(setup, sum(speed.sample() for _ in range(5)) / 5)
"""


def measure_setup(modules, fields) -> list[tuple[float, float]]:
    """(set-up seconds, mean reference seconds) from SETUP_SAMPLES interpreters."""
    program = SETUP_PROGRAM.format(
        src=str(SRC), here=str(HERE), modules=list(modules), fields=list(fields)
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", program], cwd=ROOT, capture_output=True, text=True, check=True
        )
        setup, ref = done.stdout.split()
        samples.append((float(setup), float(ref)))
    return samples


def run_rounds(wl, rounds, seconds: float, sample_every: float | None = speed.REFERENCE_EVERY_S):
    """Run whole rounds until ``seconds`` of operation time are spent.

    Returns (latencies, records, ops in the first round, peak RSS in MB at
    the end of the first round, machine-speed reference samples, and for
    each operation the index of the last sample taken before it). A sample
    is taken before the first operation and then every ``sample_every``
    seconds; None takes none. Only the call into erasurelab is timed, not the
    samples and not turning its result into a record. The peak is read after
    a fixed amount of work so that it does not grow with the number of
    rounds.
    """
    perf = time.perf_counter
    latencies, records, first, peak_mb = [], [], None, None
    reference, marks, next_sample = [], [], 0.0 if sample_every else math.inf
    spent = 0.0
    for ops in rounds:
        for op in ops:
            if perf() >= next_sample:
                reference.append(speed.sample())
                next_sample = perf() + sample_every
            t0 = perf()
            try:
                out, err = wl.run(op), None
            except Exception as exc:  # a raising operation is a failed one
                out, err = None, exc
            dt = perf() - t0
            spent += dt
            latencies.append(dt)
            marks.append(len(reference) - 1)
            if err is None:
                try:
                    records.append(wl.record(op, out))
                    continue
                except Exception as exc:  # malformed output
                    err = exc
            records.append(["error", repr(op[:2]), type(err).__name__, str(err)])
        if first is None:
            first = len(records)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if spent >= seconds:
            break
    return latencies, records, first, peak_mb, reference, marks


def check(wl, records) -> list[str]:
    """One message per failed operation."""
    failures = []
    for rec in records:
        if rec[0] == "error":
            failures.append(f"{rec[1]} raised {rec[2]}: {rec[3]}")
            continue
        problems = list(wl.check(rec))
        if problems:
            failures.append("; ".join(problems))
    return failures


def digest(records) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def time_metrics(setup, latencies, completed):
    """The end-to-end times from (set-up seconds, factor) pairs and
    (latency, factor) pairs; the factors turn measured seconds into seconds
    at the reference speed, and 1 keeps them as measured."""
    latencies = [t * f for t, f in latencies]
    return {
        "setup_s": (statistics.median(s * f for s, f in setup), "s"),
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(wl, seconds: float):
    setup = measure_setup(wl.modules, wl.fields)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    latencies, records, first, peak_mb, reference, marks = run_rounds(wl, wl.rounds(), seconds)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    failures = check(wl, records)
    completed = sum(1 for rec in records if rec[0] != "error")
    factors = speed.local_factors(reference)
    metrics = time_metrics(
        [(s, speed.REFERENCE_S / ref) for s, ref in setup],
        [(t, factors[m]) for t, m in zip(latencies, marks)], completed,
    )
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    measured = time_metrics([(s, 1.0) for s, _ in setup], [(t, 1.0) for t in latencies], completed)
    extra = {
        "measured_metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        "reference_s_mean": statistics.mean(reference),
        "reference_samples": len(reference),
        "setup_samples_s": setup,
        "latency_samples": len(latencies),
        "child_cpu_s_during_ops": (after.ru_utime + after.ru_stime)
        - (children.ru_utime + children.ru_stime),
    }
    return metrics, records, first, failures, extra


def layer_by_layer(wl):
    from workloads import cli_output_bytes

    # each operation of the first round runs once plainly, then once traced,
    # so both passes see the same warm state
    tracer = Tracer()
    plain, plain_records, traced, records = [], [], [], []
    for op in next(wl.rounds()):
        lat, rec, *_ = run_rounds(wl, [[op]], 0.0, sample_every=None)
        plain += lat
        plain_records += rec
        with tracer:
            lat, rec, *_ = run_rounds(wl, [[op]], 0.0, sample_every=None)
        traced += lat
        records += rec
    first = len(records)
    failures = check(wl, records)
    if digest(plain_records) != digest(records):
        failures.append("traced outputs differ from untraced outputs")
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = (cli_output_bytes(records), "bytes")
    # untraced ops/s over traced ops/s on the same round
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    extra = {"untraced_s": sum(plain), "traced_s": sum(traced), "latency_samples": len(traced)}
    return metrics, records, first, failures, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "erasurelab" / "__init__.py").is_file():
        print(f"perfbench: no erasurelab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # inputs are written under relative paths, so outputs do not name the checkout
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        wl = WORKLOADS[args.workload](args.seed, Path(work).relative_to(ROOT))
        if args.trace:
            metrics, records, first, failures, extra = layer_by_layer(wl)
        else:
            metrics, records, first, failures, extra = end_to_end(wl, args.seconds)

    attempted, failed = len(records), len(failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ERASURELAB_THREADS": os.environ.get("ERASURELAB_THREADS"),
        "search_workers": 1,
        "workload_shape": wl.shape,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest": digest(records[:first]),
        "digest_ops": first,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "failures": failures[:20],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':36s} {failed / attempted:14.6g} ({failed}/{attempted})")
    print(f"{'latency_samples':36s} {extra['latency_samples']:14d}")
    print(f"digest {record['digest']} over the first {first} operations")
    for msg in failures[:5]:
        print(f"FAILED: {msg}")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
