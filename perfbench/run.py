"""omlat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, single-threaded, against the sources in
`src/omlat` of the checkout it sits in.  Set-up (a fresh import of omlat plus
building the workload's inputs with it) is repeated SETUP_REPEATS times and
its median reported.  Then whole passes over the workload's operations run
until S seconds have gone by; every result is checked against an oracle
outside the timed region.  Every time reported is scaled to a fixed
reference speed by `speed.Scaler`, because other tenants' load changes this
machine's speed by more than any bound; the record keeps unscaled figures.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 passes
alternate between untraced and traced, and the metrics are per-pass calls
and self times of omlat's public functions, a few ratios, and the tracing
overhead.  `--workload all` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts operations whose result
disagrees with the oracle or from which an exception escaped; `correct` is
false when any result disagreed with an oracle (set-up outputs included).
A summary goes to standard error, and the full record (seed, environment,
tail percentile, failures by name) to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
import stats
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def _forget_omlat() -> None:
    for name in [n for n in sys.modules if n == "omlat" or n.startswith("omlat.")]:
        del sys.modules[name]


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}


def _timings(setup: list[float], passes: list[list[float]]) -> dict[str, float]:
    """The timed end-to-end metrics from set-up times and per-pass latencies.

    Every pass runs the same operations in the same order, so each operation
    has one latency per pass; its median over passes is its typical latency.
    Throughput and tail come from these typical latencies: on a shared host
    a few operations in every pass are stretched by other tenants, and those
    stretches, not the program, would otherwise set the tail.  The tail is
    the highest percentile with at least ten operations beyond it.
    """
    typical = sorted(statistics.median(op) for op in zip(*passes))
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(x for p in passes for x in p) * 1e3,
        "op_tail_ms": stats.nearest_rank(typical, stats.tail_percentile(len(typical)))
        * 1e3,
    }


def measure(spec, seed: int, seconds: int, spans_path: Path | None, work: Path) -> dict:
    scaler = speed.Scaler()
    for _ in range(SETUP_REPEATS):
        _forget_omlat()
        start = time.perf_counter()
        raw = spec.build(seed)
        scaler.add(time.perf_counter() - start)
        scaler.close("setup")
    ops, setup_errors = spec.prepare(raw, seed, work)
    tracer = tracing.Tracer() if spans_path else None
    # The inputs held for the whole run are the benchmark's, not the program's:
    # keep them out of the collector's full scans, whose cost would otherwise
    # grow with the corpus and swing with memory contention.
    gc.collect()
    gc.freeze()

    wrong: Counter = Counter()
    escaped: Counter = Counter()
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                escape = None
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:
                    escape = type(exc).__name__
                scaler.add(time.perf_counter() - start)
                if escape is not None:
                    escaped[f"{op.label}: {escape} escaped"] += 1
                else:
                    mismatch = op.check(result)
                    if mismatch is not None:
                        wrong[f"{op.label}: {mismatch}"] += 1
        finally:
            if traced:
                tracer.uninstall()
        scaler.close(traced)
        passes += 1
        if time.perf_counter() >= deadline and (tracer is None or passes >= 2):
            break

    # (kind, unscaled, scaled) per set-up and per pass; kind is "setup" or traced
    groups = [(key, raw, [r * scale for r in raw]) for key, raw, scale in scaler.groups]
    setup = [(raw[0], scaled[0]) for key, raw, scaled in groups if key == "setup"]
    attempted = passes * len(ops)
    failed = sum(wrong.values()) + sum(escaped.values())
    record = {
        "correct": not wrong and not setup_errors,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "ops_per_pass": len(ops),
        "fail_ratio": failed / attempted,
        "reference_ms": {
            "nominal": speed.REFERENCE_S * 1e3,
            "median": statistics.median(scaler.references) * 1e3,
            "min": min(scaler.references) * 1e3,
            "max": max(scaler.references) * 1e3,
        },
        "setup_runs_s": setup,
        "setup_errors": setup_errors,
        "wrong": dict(wrong),
        "escaped": dict(escaped),
    }
    if tracer is None:
        runs = [(raw, scaled) for key, raw, scaled in groups if key is False]
        timings = _timings([s for _, s in setup], [s for _, s in runs])
        metrics = {k: (v, UNITS[k]) for k, v in timings.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
        record.update(
            op_tail_pct=stats.tail_percentile(len(ops)),
            unscaled=_timings([r for r, _ in setup], [r for r, _ in runs]),
        )
    else:
        pass_time = {False: [], True: []}
        for key, _, scaled in groups:
            if key != "setup":
                pass_time[key].append(sum(scaled))
        metrics = tracing.layer_metrics(tracer.spans, len(pass_time[True]))
        metrics["trace.overhead_ratio"] = (
            statistics.median(pass_time[True]) / statistics.median(pass_time[False]) - 1.0,
            "ratio",
        )
        tracer.write(spans_path)
        record.update(absent=tracer.absent, spans=str(spans_path))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def run_one(args) -> int:
    spec = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}-spans.jsonl.gz" if args.trace else None
    OUT.mkdir(exist_ok=True)
    try:
        record = measure(spec, args.seed, args.seconds, spans_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(
        workload=args.workload,
        why=spec.why,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        git_sha=_git_sha(),
        nproc=len(os.sched_getaffinity(0)),
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    log = sys.stderr
    print(f"{args.workload} seed={args.seed}: {record['why']}", file=log)
    print(
        f"  {record['passes']} passes x {record['ops_per_pass']} ops; "
        f"fail_ratio {record['fail_ratio']:.6g} ({record['failed']}/{record['attempted']})",
        file=log,
    )
    if not args.trace:
        print(
            f"  op_tail_ms is p{record['op_tail_pct']:g} of the ops' typical latencies",
            file=log,
        )
    for kind in ("setup_errors", "wrong", "escaped", "absent"):
        for item in record.get(kind) or ():
            print(f"  {kind}: {item}", file=log)
    for metric, m in record["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}", file=log)
    print(
        json.dumps(
            {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name}\t{metric}\t{m['value']:.6g}\t{m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "omlat" / "__init__.py").is_file():
        print(f"error: no omlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
