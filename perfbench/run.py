#!/usr/bin/env python3
"""The repository benchmark: one command that builds the measuring program,
makes the seed's inputs, runs a workload, checks the outputs and prints every
metric with its unit.

    python3 perfbench/run.py --workload paper-grid-threads --seed 1 \
        --seconds 50 --trace 0

Run it from the repository root. Workloads: paper-grid-threads, paper-serve.
--trace 0 prints the end-to-end metrics; --trace 1 adds the traced per-layer
replay and prints the per-layer metrics (spans land in
.bench_build/work/<pid>/trace.jsonl, kept with --keep-work). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Any failed correctness gate exits 1.

Everything the benchmark builds or writes stays under .bench_build/ in the
repository root: the CMake build of perfbench/ (against the repository's own
sources), input caches keyed by the program's hash and the seed, and per-run
work directories.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"

WORKLOADS = ("paper-grid-threads", "paper-serve")
# ci/check.sh exports these for its tier-1 passes; a measurement must run the
# program's defaults.
PINNED_ENV = ("CELLGAN_TENSOR_KERNEL", "CELLGAN_DATA_PLANE", "CELLGAN_EXCHANGE",
              "CELLGAN_PREFETCH_THREADS")
KEPT_SEEDS = 12         # input caches kept (about 64 MB each)
DEADLINE_S = 170.0      # a run after the build must end within 180 s

# Gated end-to-end metrics (BENCHMARK.json). Serving latency and the error
# rate are reported too, but as ungated diagnostics: see PER_LAYER.
END_TO_END = {
    "cell_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "serve_capacity_rps": "1/s",
}

PER_LAYER = {
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "error_rate": "share",
    "tensor.gemm_gflops": "GFLOP/s",
    "tensor.gemm_ms_per_cell_step": "ms",
    "tensor.act_ms_per_cell_step": "ms",
    "tensor.flops_per_cell_step": "count",
    "tensor.achieved_gflops": "GFLOP/s",
    "nn.forward_ms.g": "ms",
    "nn.forward_ms.d": "ms",
    "nn.backward_ms.g": "ms",
    "nn.backward_ms.d": "ms",
    "nn.adam_ms": "ms",
    "nn.load_params_ms": "ms",
    "core.d_step_ms": "ms",
    "core.g_step_ms": "ms",
    "core.fitness_eval_ms": "ms",
    "core.cell_step_ms": "ms",
    "core.routine_share.train": "share",
    "core.routine_share.gather": "share",
    "core.routine_share.update_genomes": "share",
    "core.routine_share.mutate": "share",
    "core.epoch_ms_p50": "ms",
    "core.epoch_ms_p90": "ms",
    "core.lane_efficiency": "share",
    "evolve.genome_bytes": "B",
    "evolve.export_ms": "ms",
    "evolve.install_ms": "ms",
    "minimpi.allgather_ms": "ms",
    "minimpi.bytes_per_epoch": "B",
    "minimpi.msgs_per_epoch": "count",
    "datastore.ingest_ms": "ms",
    "datastore.batch_us": "us",
    "datastore.bytes_mapped": "B",
    "data.downsample_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.forward_us_per_batch": "us",
    "serve.queue_us_per_request": "us",
    "serve.requests_per_batch": "count",
    "serve.unattributed_ms": "ms",
    "trace.coverage": "share",
    "trace.overhead": "share",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, log, timeout):
    with open(log, "w") as out:
        done = subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if done.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        fail(f"{' '.join(map(str, command[:2]))} failed:\n" + "\n".join(tail))


def build(deadline):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the repository sources are not next to {HERE.name}/")
    build_dir = BINARY.parent
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   build_dir / "configure.log", deadline - time.monotonic())
    run_logged(["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", "4"], build_dir / "build.log", deadline - time.monotonic())


def inputs_for(seed, deadline):
    """The seed's IDX set, rendered once per build of the program and cached."""
    cache = BUILD / "inputs"
    program = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    target = cache / f"seed-{seed}-{program}"
    if not target.is_dir():
        cache.mkdir(parents=True, exist_ok=True)
        partial = cache / f".{target.name}.{os.getpid()}"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir()
        run_logged([str(BINARY), "gen", "--seed", str(seed), "--out", str(partial)],
                   BUILD / "gen.log", deadline - time.monotonic())
        partial.rename(target)
    os.utime(target)
    kept = sorted((p for p in cache.glob("seed-*") if p.is_dir()),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in kept[KEPT_SEEDS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def cpu_times():
    """Aggregate jiffies of /proc/stat's cpu line (empty where absent)."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_times() readings (steal is the eighth field), or None."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def end_to_end(raw):
    """Serving figures pool every serving round of the run: each round runs
    on a fresh Server, so the pool averages over server instances."""
    rounds = raw["serve_rounds"]
    latency = [ms for r in rounds for ms in r["latency_ms"]]
    supported = stats.highest_supported_percentile(len(latency))
    if supported is None or supported < 99:
        fail(f"{len(latency)} latency samples cannot support a p99")
    setup = [r["setup_s"] for r in rounds] if raw["serving_setup"] else raw["setup_s"]
    return {
        "cell_steps_per_s": stats.median(raw["cell_steps_per_s"]),
        "setup_s": stats.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
        "serve_p50_ms": stats.percentile(latency, 50),
        "serve_p99_ms": stats.percentile(latency, 99),
        "serve_capacity_rps": stats.capacity([r["overload_recv_s"] for r in rounds]),
    }


def gates(raw, metrics):
    """Correctness gates; returns the list of failures."""
    problems = []
    if not raw["finite"]:
        problems.append("a final fitness is not finite")
    if not raw["bit_identical"]:
        problems.append("repeated runs of one seed differ")
    if not raw["parity"]:
        problems.append("served bytes differ from Session::sample_best")
    if raw["failed"] > 0:
        problems.append(f"{raw['failed']} of {raw['attempted']} operations failed")
    capacity = metrics.get("serve_capacity_rps")
    if capacity is not None and capacity > 0.95 * raw["overload_offered_rps"]:
        problems.append(f"offered {raw['overload_offered_rps']:.0f}/s is not above "
                        f"the measured capacity {capacity:.0f}/s")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep-work", action="store_true",
                        help="keep the run's work directory (trace spans)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    pinned = [name for name in PINNED_ENV if os.environ.get(name)]
    if pinned:
        fail("refusing to measure with overrides set: " + ", ".join(pinned))

    build(time.monotonic() + 900.0)
    deadline = time.monotonic() + DEADLINE_S
    inputs = inputs_for(args.seed, deadline)

    work = BUILD / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpu_before = cpu_times()
    try:
        run_logged([str(BINARY), "run", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--inputs", str(inputs),
                    "--work", str(work), "--out", str(work / "raw.json")],
                   work / "run.log", max(1.0, deadline - time.monotonic()))
        raw = json.loads((work / "raw.json").read_text())
        steal = steal_share(cpu_before, cpu_times())
    finally:
        if not args.keep_work:
            shutil.rmtree(work, ignore_errors=True)

    measured = end_to_end(raw)
    problems = gates(raw, measured)
    measured["error_rate"] = raw["failed"] / raw["attempted"]
    if args.trace:
        metrics = {**measured, **raw["layers"], **raw["training_layers"],
                   **raw["serving_layers"]}
        units = PER_LAYER
    else:
        metrics = measured
        units = END_TO_END

    machine = raw["machine"]
    print(f"workload {args.workload} seed {args.seed} on {machine['nproc']} cores, "
          f"{machine['simd']} {machine['kernel']} kernel, {machine['build_type']}, "
          f"data plane {machine['data_plane']}, exchange {machine['exchange']}, "
          f"host steal {'n/a' if steal is None else f'{steal:.3f}'} of CPU time")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"  diagnostics: serve_p50_ms {measured['serve_p50_ms']:.4g} ms, "
          f"serve_p99_ms {measured['serve_p99_ms']:.4g} ms, error_rate "
          f"{measured['error_rate']:.4g} ({raw['failed']} failed of {raw['attempted']} "
          f"operations)")
    print(f"  best cell final G/D loss {raw['best_g_loss']:.4f} / {raw['best_d_loss']:.4f}; "
          f"sender max lag {raw['max_send_lag_ms']:.2f} ms; "
          f"{len(raw['serve_rounds'])} serving rounds at {raw['latency_offered_rps']:.0f}/s "
          f"and {raw['overload_offered_rps']:.0f}/s offered")
    if args.trace and metrics["trace.coverage"] < 0.9:
        print(f"  warning: trace.coverage {metrics['trace.coverage']:.3f} is below 0.9")
    for problem in problems:
        print(f"  GATE FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
