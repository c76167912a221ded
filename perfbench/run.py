"""Benchmark runner for waveslab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/` next to this directory.  One invocation runs one workload as a
closed loop in this process: full passes back to back, at least three,
and no further pass once one as long as the last would end after
`--seconds`.  Every operation of every pass is checked against
`reference.json`.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics, measured with tracing off and with
  times moved to the machine's reference speed (see speed.py);
- `--trace 1`: the per-layer metrics, from traced passes that alternate
  with untraced ones, plus the tracing overhead.

Details of each run (problem size, environment, failures) are printed above
that line and written to `perfbench/out/`; traced runs also write their
spans there.  `--smoke` runs the same workloads at tiny sizes against their
own reference, and `--record-reference` rewrites `reference.json` from one
pass of every workload at both sizes.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
SETUP_KERNEL_SAMPLES = 100
MIN_PASSES = 3
ADDR_NO_RANDOMIZE = 0x0040000
STEADY_MARK = "PERFBENCH_STEADY"

# A float output agrees with its reference when |x - ref| <= rtol |ref| + atol.
# Re-solving every workload with another sparse-LU column ordering moved no
# output by more than 3.6e-7 relative or 8e-13 absolute; rtol keeps a factor
# of about 30 above that.  atol only matters for outputs that are round-off
# sized themselves (osc of a zero forcing).  See NOTES.md.
TOLERANCE = {"rtol": 1e-5, "atol": 1e-14, "nodes_rtol": 1e-12}


# One BLAS thread: the dense operands here are small, and with two threads
# passes ran about 10% slower, set-up paid for the thread pool and peak RSS
# varied with which thread touched its buffer.
BLAS_THREADS = 1


def pin_threads() -> None:
    """Pin the BLAS pools before numpy is first imported."""
    count = str(BLAS_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = count


def personality(persona: int) -> int:
    """The process's `personality(2)` call; -1 where it is unavailable."""
    try:
        return ctypes.CDLL(None, use_errno=True).personality(persona)
    except (OSError, AttributeError):
        return -1


def steady_layout(argv) -> None:
    """Re-execute once with a fixed hash seed and no address randomization.

    Peak RSS of the small workloads moved by up to 15% between identical runs
    with a randomized address layout, and repeats to the byte without it.
    Where the personality call is refused, the run goes on as it is.
    """
    if os.environ.get(STEADY_MARK):
        return
    current = personality(0xFFFFFFFF)
    if current == -1 or personality(current | ADDR_NO_RANDOMIZE) == -1:
        return
    env = dict(os.environ, PYTHONHASHSEED="0", **{STEADY_MARK: "1"})
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def address_layout_fixed() -> bool:
    current = personality(0xFFFFFFFF)
    return current != -1 and bool(current & ADDR_NO_RANDOMIZE)


def import_package():
    """Import waveslab from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "waveslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'waveslab'}")
    sys.path.insert(0, str(SRC))
    import waveslab

    if Path(waveslab.__file__).resolve().parent != (SRC / "waveslab").resolve():
        raise SystemExit(f"perfbench: imported waveslab from {waveslab.__file__}")
    return waveslab


def time_setup(workload: str, smoke: bool, seed: int) -> float:
    """Import plus workload construction, in this (fresh) process."""
    started = time.perf_counter()
    import_package()
    import workloads

    workloads.WORKLOADS[workload][0](smoke, seed, OUT)
    return time.perf_counter() - started


def setup_samples(workload: str, smoke: bool, seed: int) -> list[list[float]]:
    """Set-up time measured in fresh interpreters, several times; each
    sample is [set-up seconds, mean kernel seconds right after it]."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def no_region(name):
    """Stands in for `Tracer.region` in untraced passes."""
    return contextlib.nullcontext()


def run_pass(run, state, region, probe=None):
    """One full pass; returns (wall seconds, mean kernel seconds or None,
    [(label, outputs, size)], error).  With a `probe`, the wall time leaves
    out the probe's own time."""
    results = []

    def block():
        try:
            for item in run(state, region):
                results.append(item)
        except Exception as exc:  # counted as failed operations, reported below
            return f"{type(exc).__name__}: {exc}"
        return None

    gc.collect()
    if probe is None:
        started = time.perf_counter()
        error = block()
        return time.perf_counter() - started, None, results, error
    error, wall, kernel_mean = probe.measure(block)
    return wall, kernel_mean, results, error


def check_pass(results, error, reference, failures):
    """Compare one pass with the reference; returns (attempted, failed)."""
    import workloads

    seen = set()
    failed = 0
    for label, outputs, _ in results:
        seen.add(label)
        problems = (workloads.check(outputs, reference[label], TOLERANCE)
                    if label in reference else ["no reference for this operation"])
        if problems:
            failed += 1
            failures.append({"op": label, "problems": problems})
    missing = [label for label in reference if label not in seen]
    for label in missing:
        failures.append({"op": label, "problems": [error or "operation not run"]})
    return len(seen) + len(missing), failed + len(missing)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "address_layout_fixed": address_layout_fixed(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def problem_size(results) -> dict:
    sizes = [size for _, _, size in results]
    return {
        "d": sorted({s["d"] for s in sizes}),
        "marches": len(sizes),
        "N": sum(s["N"] for s in sizes),
        "p_t": [min(s["p_min"] for s in sizes), max(s["p_max"] for s in sizes)],
        "spacetime_dofs": sum(s["dofs"] for s in sizes),
    }


def metric_units(kind: str) -> dict:
    """Names and units of the metrics BENCHMARK.json lists under `kind`."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, reference):
    import speed
    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    state = setup(args.smoke, args.seed, OUT)
    inprocess_setup = time.perf_counter() - started

    tracer = tracing.Tracer() if args.trace else None
    probe = None if args.trace else speed.Probe()
    untraced, traced, kernel_means = [], [], []
    attempted = failed = 0
    failures = []
    size = None
    peak_rss_mb = None
    loop_start = time.perf_counter()
    last_pass = 0.0
    min_passes = MIN_PASSES if not args.trace else 2
    # stop before a pass that would end after `--seconds`
    while (len(untraced) + len(traced) < min_passes
           or time.perf_counter() - loop_start + last_pass <= args.seconds):
        pass_start = time.perf_counter()
        if tracer is not None and len(untraced) > len(traced):
            with tracer.installed():
                with tracer.region("bench.setup"):
                    pass_state = setup(args.smoke, args.seed, OUT)
                wall, _, results, error = run_pass(run, pass_state, tracer.region)
            traced.append(wall)
        else:
            wall, kernel_mean, results, error = run_pass(run, state, no_region, probe)
            untraced.append(wall)
            kernel_means.append(kernel_mean)
        n, f = check_pass(results, error, reference, failures)
        attempted += n
        failed += f
        if results and size is None:
            size = problem_size(results)
        if len(untraced) + len(traced) == MIN_PASSES:
            # later passes depend on timing, and the heap keeps growing a
            # little with each one
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last_pass = time.perf_counter() - pass_start
    size = size or {}

    info = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "seconds": args.seconds,
        "loop": "closed, one process, passes back to back",
        "passes_untraced": untraced, "passes_traced": traced,
        "passes_kernel_mean_s": kernel_means,
        "size": size, "environment": environment(),
        "inprocess_setup_s": inprocess_setup, "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    if tracer is None:
        metrics = end_to_end_metrics(args, untraced, kernel_means, size, peak_rss_mb, info)
    else:
        metrics = per_layer_metrics(tracer, untraced, traced, info)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    info["metrics"] = metrics
    tag = "smoke-" if args.smoke else ""
    (OUT / f"result-{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1))
    info["wall_s"] = statistics.median(untraced)
    print(json.dumps({k: info[k] for k in ("size", "environment", "failed_frac", "wall_s")}))
    for item in failures[:5]:
        print(f"mismatch {item['op']}: {'; '.join(item['problems'][:3])}", file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def end_to_end_metrics(args, untraced, kernel_means, size, peak_rss_mb, info) -> dict:
    import speed

    setups = setup_samples(args.workload, args.smoke, args.seed)
    info["setup_runs_s"] = [seconds for seconds, _ in setups]
    info["setup_runs_kernel_mean_s"] = [kernel for _, kernel in setups]
    info["reference_kernel_s"] = speed.REFERENCE_KERNEL_S
    info["passes_scaled_s"] = [speed.scaled(wall, kernel)
                               for wall, kernel in zip(untraced, kernel_means)]
    wall = statistics.median(info["passes_scaled_s"])
    values = {
        "wall_s_norm": wall,
        "dofs_per_s_norm": size.get("spacetime_dofs", 0) / wall,
        "setup_s": statistics.median(speed.scaled(*sample) for sample in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: metric(values[name], unit)
            for name, unit in metric_units("end_to_end").items()}


def per_layer_metrics(tracer, untraced, traced, info) -> dict:
    per_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
    overhead = statistics.median(traced) / statistics.median(untraced)
    for values in per_pass:
        values["trace.overhead_ratio"] = overhead
    units = metric_units("per_layer")
    info["per_pass_counts_repeat"] = all(
        values[name] == per_pass[0][name] for values in per_pass
        for name, unit in units.items() if unit == "count")
    # counts repeat exactly from pass to pass; times take the median
    return {
        name: metric(per_pass[0][name] if unit == "count"
                     else statistics.median(values[name] for values in per_pass), unit)
        for name, unit in units.items()
    }


def record_reference() -> None:
    """Rewrite reference.json from one untraced pass of every workload."""
    import workloads

    OUT.mkdir(exist_ok=True)
    payload = {}
    for label, smoke in (("full", False), ("smoke", True)):
        payload[label] = {}
        for name, (setup, run) in workloads.WORKLOADS.items():
            state = setup(smoke, 0, OUT)
            wall, _, results, error = run_pass(run, state, no_region)
            if error:
                raise SystemExit(f"perfbench: {name} failed while recording: {error}")
            payload[label][name] = {lab: out for lab, out, _ in results}
            print(f"recorded {label} {name}: {len(results)} operations, {wall:.2f} s")
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fine_space", "many_slabs", "adaptive"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not args.setup_only:
        steady_layout(argv)
    pin_threads()
    if args.setup_only:
        seconds = time_setup(args.workload, args.smoke, args.seed)
        import speed

        print(json.dumps([seconds, speed.mean_kernel_seconds(SETUP_KERNEL_SAMPLES)]))
        return 0
    import_package()
    if args.record_reference:
        record_reference()
        return 0
    if not REFERENCE.is_file():
        raise SystemExit(f"perfbench: no reference outputs at {REFERENCE}")
    recorded = json.loads(REFERENCE.read_text())
    reference = recorded["smoke" if args.smoke else "full"][args.workload]
    result = measure(args, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
