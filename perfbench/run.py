"""schurlat benchmark: time to a certified answer, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-d2r3 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 2 --trace 0

A run first times SETUP_REPEATS fresh set-up processes, then repeats passes
while the next one, at the mean pass time so far, would end within
``--seconds`` of the run's start; it makes at least one. ``--trace 0``
repeats untraced passes and reports the end-to-end metrics as medians over
the passes, each time scaled by the host speed probe sampled during its pass
(see hostspeed.py). ``--trace 1`` repeats rounds of an untraced and a traced
pass and reports the per-layer metrics and the tracing overhead. A run fails
unless it emits exactly the metrics that BENCHMARK.json declares for its
mode. ``--smoke`` swaps in tiny parameters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment is
printed on a ``# env`` line above it. Scratch files, span dumps and the
record of exact counts live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3

# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = ("cdcl.conflicts", "lattice.tuples", "encoder.clauses",
                "cdcl.clauses_in", "cdcl.kept_ratio", "search.probes")


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    """Digest of the package source and of the benchmark's own code, which
    fixes the workloads' parameters."""
    h = hashlib.sha256()
    paths = [*SRC.rglob("*"), *BENCH.glob("*.py"), ROOT / "BENCHMARK.json"]
    for path in sorted(paths):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def measure_setup(args, work: Path) -> tuple[float, float, Path]:
    """Median scaled and raw wall time of fresh processes that import
    schurlat and build the workload's inputs, and the last process's input
    directory. Each process reports its own host speed probe."""
    times: list[float] = []
    scaled: list[float] = []
    for i in range(SETUP_REPEATS):
        out = work / f"inputs{i}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-into", str(out),
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, timeout=150, stdout=subprocess.PIPE,
                              text=True)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * json.loads(proc.stdout.splitlines()[-1])["scale"])
        if i:
            shutil.rmtree(work / f"inputs{i - 1}", ignore_errors=True)
    return statistics.median(scaled), statistics.median(times), out


def no_span(name: str):
    return contextlib.nullcontext()


def guarded_pass(spec, loaded, work, span, checks):
    """One pass; an exception fails a check and ends the run's passes."""
    try:
        return spec.run_pass(loaded, work, span, checks)
    except Exception as e:  # the program under test failed; report it
        traceback.print_exc()
        checks.check(False, f"pass raised {e!r}")
        return None


def another_pass(start: float, passes_start: float, done: int, seconds: float) -> bool:
    """Whether a pass that takes the mean time of the ``done`` passes since
    ``passes_start`` ends within ``seconds`` of the run's ``start``."""
    now = time.perf_counter()
    return now + (now - passes_start) / done <= start + seconds


def untraced_metrics(spec, loaded, work, start, seconds, checks) -> dict[str, float]:
    passes = []
    passes_start = time.perf_counter()
    while not passes or another_pass(start, passes_start, len(passes), seconds):
        with HostSpeed() as speed:
            p = guarded_pass(spec, loaded, work, no_span, checks)
        if p is None:
            break
        passes.append((p, speed))
    if not passes:
        return {}
    print(f"# {len(passes)} passes; raw answer_s "
          + " ".join(f"{p.answer[1] - p.answer[0]:.3f}" for p, _ in passes)
          + "; host scale " + " ".join(f"{speed.scale(*p.answer):.3f}" for p, speed in passes))

    def median_scaled(phase: str) -> float:
        return statistics.median(speed.scaled(getattr(p, phase)) for p, speed in passes)

    return {
        "answer_s": median_scaled("answer"),
        "final_probe_s": median_scaled("final_probe"),
        "verify_s": median_scaled("verify"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(args, env, spec, loaded, work, start, checks) -> dict[str, float]:
    """Rounds of one untraced and one traced pass. Per-layer metrics come
    from the traced pass with the median (low) traced answer time, so that
    its layer self times still add up to its answer time. The overhead is the
    median scaled traced answer time minus the median scaled untraced one.
    The untraced passes' median raw and scaled answer times are reported too,
    so that a change the host speed scaling absorbs still shows in the raw
    time."""
    import tracer as tracing
    from workloads import ANSWER_ROOT, VERIFY_ROOT

    untraced, untraced_raw, traced, tracers = [], [], [], []
    rounds_start = time.perf_counter()
    while not tracers or another_pass(start, rounds_start, len(tracers), args.seconds):
        with HostSpeed() as speed:
            plain = guarded_pass(spec, loaded, work, no_span, checks)
        if plain is None:
            return {}
        untraced.append(speed.scaled(plain.answer))
        untraced_raw.append(plain.answer[1] - plain.answer[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with HostSpeed() as speed:
                p = guarded_pass(spec, loaded, work, tracer.span, checks)
        finally:
            tracer.uninstall()
        if p is None:
            return {}
        traced.append(speed.scaled(p.answer))
        tracers.append(tracer)
    runs = [tracing.layer_metrics(t.spans, ANSWER_ROOT, VERIFY_ROOT) for t in tracers]
    counts = [{k: m[k] for k in EXACT_COUNTS} for m in runs]
    checks.check(all(c == counts[0] for c in counts),
                 f"exact counts differ between traced passes: {counts}")
    m = dict(statistics.median_low(
        (r["trace.answer_s"], i, r) for i, r in enumerate(runs))[2])
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    m["untraced.answer_s"] = statistics.median(untraced)
    m["untraced.answer_raw_s"] = statistics.median(untraced_raw)
    suffix = "-smoke" if args.smoke else ""
    path = STATE / "traces" / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "env": env,
        "metrics": m,
        "passes": [[s.to_json() for s in t.spans] for t in tracers],
    }) + "\n")
    check_counts(env, counts[0], checks)
    return m


def check_counts(env: dict, counts: dict, checks) -> None:
    """Compare exact counts with the first run of the same code, workload,
    seed and size recorded in this checkout; record them if there is none."""
    path = STATE / "counts.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{env['source_digest']}/{env['workload']}/{env['seed']}/{int(env['smoke'])}"
    if key not in record:
        record[key] = counts
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return
    checks.check(record[key] == counts,
                 f"exact counts differ from an earlier run of the same code and "
                 f"seed: {counts} != {record[key]}")


def run_workload(args) -> int:
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload]
    spec = workload.smoke if args.smoke else workload.full
    env = environment(args)
    checks = Checks()
    work = STATE / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        setup_s, setup_raw_s, inputs = measure_setup(args, work)
        print(f"# setup_s raw {setup_raw_s:.4f}")
        loaded = spec.load(inputs)
        if args.trace:
            metrics = traced_metrics(args, env, spec, loaded, work, start, checks)
        else:
            metrics = untraced_metrics(spec, loaded, work, start, args.seconds, checks)
            if metrics:
                metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if not metrics:
        print("perfbench: no pass completed; nothing to report", file=sys.stderr)
        return 1

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"perfbench: metrics do not match BENCHMARK.json: missing "
              f"{sorted(set(units) - set(metrics))}, undeclared "
              f"{sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 1
    print("# env " + json.dumps(env, sort_keys=True))
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units[name]}")
    failed = len(checks.failures)
    print(f"fail_ratio {failed / checks.attempted} ({failed} of {checks.attempted} "
          f"checks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny parameters, for testing the harness")
    parser.add_argument("--setup-into", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "schurlat" / "__init__.py").is_file():
        print(f"perfbench: no schurlat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_into is not None:
        with HostSpeed() as speed:
            from workloads import WORKLOADS

            w = WORKLOADS[args.workload]
            (w.smoke if args.smoke else w.full).setup(args.seed, args.setup_into)
        print(json.dumps({"scale": speed.scale()}))
        return 0
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
