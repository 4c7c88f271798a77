#!/usr/bin/env python3
"""Exact-answer benchmark of qipsim, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Runs one workload's job list in repeated passes for about --seconds seconds,
in one single-threaded process, and checks every answer against its frozen
exact value. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics. The line
before it records the environment. --smoke runs every workload at its
smallest size. perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 7   # fresh processes timed per run for setup_s
MIN_PASSES = 3       # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2  # two traced passes, so counts can be compared
UNTRACED_SHARE = 1 / 3  # of --seconds, spent untraced in a --trace 1 run


def import_qipsim():
    """Import qipsim from this checkout's src/, and from nowhere else."""
    pkg = SRC / "qipsim"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no qipsim sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import qipsim

    if Path(qipsim.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported qipsim from {qipsim.__file__}, not {pkg}")
    return qipsim


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(qipsim) -> dict:
    import mpmath
    import numpy

    return {
        "backend": qipsim._kernels.backend_name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def measure_setup(args, launches: int) -> float:
    """Median time from launching a fresh interpreter to its first job being
    ready: start-up, ``import qipsim``, parsing and Field/schedule set-up.
    The probe process times the reference routine on its own core before
    and after that work; each launch is scaled by those two times, which are
    not counted in it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            words = proc.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if status != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed with status {status}")
        before, after = float(words[1]), float(words[2])
        times.append(hostspeed.scale(elapsed - before - after, before, after))
    return statistics.median(times)


def run_passes(jobs, deadline: float, min_passes: int, smoke: bool, tracer=None) -> list[dict]:
    """Answer the whole job list once per pass, until one more pass would end
    after the deadline. A pass's time is the sum of its jobs' run times, raw
    (``wall``) and scaled to reference host speed (``scaled``). A job that
    raises or answers wrong counts as failed and is reported on stderr; the
    pass goes on."""
    passes: list[dict] = []
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        failed = 0
        wall = scaled = slowest = slowest_scaled = 0.0
        before = hostspeed.reference()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            t0 = time.perf_counter()
            try:
                value = job.run()
            except Exception as exc:  # a crash is a wrong answer, not the end of the run
                reason = f"raised {exc!r}"
            else:
                reason = None
            took = time.perf_counter() - t0
            after = hostspeed.reference()
            took_scaled = hostspeed.scale(took, before, after)
            before = after
            wall += took
            scaled += took_scaled
            slowest = max(slowest, took)
            slowest_scaled = max(slowest_scaled, took_scaled)
            if reason is None:
                reason = job.check(value)
            if reason is not None:
                failed += 1
                print(f"perfbench: FAIL {job.name}: {reason}", file=sys.stderr)
            elif tracer is not None and job.counts is not None:
                tracer.stats.update(job.counts(value))
        print(f"perfbench: pass {len(passes) + 1}{' traced' if tracer else ''} "
              f"{wall:.4f} s ({scaled:.4f} s at reference speed), "
              f"slowest job {slowest:.4f} s ({slowest_scaled:.4f} s)", file=sys.stderr)
        record = {"wall": wall, "scaled": scaled, "max_job": slowest_scaled,
                  "failed": failed}
        if tracer is not None:
            tracer.job = "-"
            record["layers"] = tracer.pass_metrics(wall)
            if not passes:
                record["spans"] = list(tracer.spans)
        passes.append(record)
        if len(passes) >= min_passes:
            typical = statistics.median(p["wall"] for p in passes)
            if smoke or time.perf_counter() + typical > deadline:
                return passes


def end_to_end(args, workloads) -> tuple[dict, list[dict], int]:
    setup_s = measure_setup(args, 1 if args.smoke else SETUP_LAUNCHES)
    start = time.perf_counter()
    jobs = workloads.prepare(args.workload, args.seed, args.smoke)
    passes = run_passes(jobs, start + args.seconds, 1 if args.smoke else MIN_PASSES,
                        args.smoke)
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["scaled"] for p in passes),
        "max_job_s": statistics.median(p["max_job"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, passes, len(jobs)


def per_layer(args, workloads, header: dict) -> tuple[dict, list[dict], int, bool]:
    import tracing

    start = time.perf_counter()
    jobs = workloads.prepare(args.workload, args.seed, args.smoke)
    untraced = run_passes(jobs, start + args.seconds * UNTRACED_SHARE, 1, args.smoke)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_jobs = workloads.prepare(args.workload, args.seed, args.smoke)
        setup = tracer.setup_metrics()
        setup_spans = list(tracer.spans)
        traced = run_passes(traced_jobs, start + args.seconds, MIN_TRACED_PASSES,
                            args.smoke, tracer)
    finally:
        tracer.uninstall()

    first = traced[0]["layers"]
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    repeats = True
    for n, p in enumerate(traced[1:], start=2):
        again = {k: v for k, v in p["layers"].items() if not k.endswith("_s")}
        for key in sorted(k for k in counts if counts[k] != again[k]):
            repeats = False
            print(f"perfbench: FAIL traced pass {n} {key} = {again[key]}, "
                  f"pass 1 gave {counts[key]}", file=sys.stderr)
    values = dict(counts)
    for key in first:
        if key.endswith("_s"):
            values[key] = statistics.median(p["layers"][key] for p in traced)
    values.update(setup)
    values["trace.overhead"] = (statistics.median(p["scaled"] for p in traced)
                                / statistics.median(p["scaled"] for p in untraced))

    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    tracing.write_spans(
        OUT_DIR / f"{args.workload}-seed{args.seed}{suffix}.spans.jsonl",
        header, {"setup": setup_spans, "pass1": traced[0]["spans"]},
    )
    return values, untraced + traced, len(jobs), repeats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size of every job, one pass (two traced)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    probe_reference = hostspeed.reference() if args.setup_probe else None
    qipsim = import_qipsim()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, args.smoke)
        print(f"ready {probe_reference!r} {hostspeed.reference()!r}", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(qipsim)
    header = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}
    print("perfbench " + json.dumps(header, sort_keys=True), flush=True)

    repeats = True
    if args.trace:
        values, passes, n_jobs, repeats = per_layer(args, workloads, header)
    else:
        values, passes, n_jobs = end_to_end(args, workloads)
    names = {m["name"] for m in declared}
    if names != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(names ^ set(values))}")
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0 and repeats,
        "attempted": n_jobs * len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
