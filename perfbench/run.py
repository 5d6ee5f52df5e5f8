"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric with ``--trace 0``; with ``--trace 1``
every per-layer metric plus the tracing overhead, taken from an untraced and
then a traced pass, each half the seconds, over the same inputs; their
fingerprints must agree.
Earlier lines carry the run metadata and the output fingerprints.

The nets that some workloads load are trained by the first run in a
checkout and cached under ``.bench_cache/``; that run takes about a minute
longer. Everything else runs in this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, set before numpy loads. The matrices here are small: a
# second thread made distillation steps slower (about 93 against 70 ms on a
# 2-core Xeon), and a free core keeps runs steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _import_library():
    """Import the library from this checkout's sources, never another copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "distilldet", "__init__.py")):
        sys.exit(f"perfbench: no distilldet sources under {src}")
    sys.path.insert(0, src)
    import distilldet

    if os.path.dirname(os.path.dirname(os.path.abspath(distilldet.__file__))) != src:
        sys.exit(f"perfbench: distilldet was imported from {distilldet.__file__}, not {src}")


def blas_info() -> tuple[str, int]:
    """(library, thread count) of the OpenBLAS numpy loaded, read through
    its own API; ("unknown", -1) where that is not available."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), int(get_threads())
    return "unknown", -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision(root: str) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(workload, seed, seconds, trace, scale, config_sha) -> dict:
    """The fixed metadata schema every run records."""
    import numpy as np

    from workloads import source_digest

    blas, threads = blas_info()
    return {
        "schema": "perfbench.run/1",
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "cpu_model": cpu_model(), "nproc": NPROC, "blas": blas, "blas_threads": threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_rev": git_revision(ROOT), "source_sha256": source_digest(ROOT),
        "run_config_sha256": config_sha,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        cache_root: str | None = None, in_process_build: bool = False):
    """Measure one workload; returns (result, metadata, fingerprints)."""
    import shutil
    import tempfile

    from probe import LAYER_METRICS
    from workloads import CLASSES, SIZES, config_sha256, end_to_end_metrics, ensure_build, measure

    cache_root = cache_root or os.path.join(ROOT, ".bench_cache")
    build = ensure_build(cache_root, scale, ROOT, in_process_build)
    os.makedirs(cache_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=cache_root)
    try:
        wl = CLASSES[workload](seed, scale, work_dir, build)
        setups = SIZES[scale]["setups"]
        # A traced run splits its seconds between the untraced and traced passes.
        pass_seconds = seconds / 2 if trace else seconds
        phase, _ = measure(wl, pass_seconds, setups, traced=False)
        metrics = end_to_end_metrics(phase)
        problems, attempted, failed = list(phase.problems), phase.attempted, phase.failed
        fingerprint = phase.fingerprint()
        # The p50 and p90 metrics are over these items, each a median over the repeats.
        firsts = [phase.timings[k][0] for k in sorted(phase.timings)]
        counts = {"repeats_per_scene_set": [len(phase.timings[k]) for k in sorted(phase.timings)],
                  "timed_items": {"steps": sum(len(t.steps) for t in firsts),
                                  **{role: sum(len(t.detect.get(role, [])) for t in firsts)
                                     for role in ("student", "teacher")}}}
        if trace:
            traced, tracer = measure(wl, pass_seconds, setups, traced=True)
            if traced.fingerprint() != fingerprint:
                problems.append("traced fingerprints differ from untraced ones")
            untraced_wall = metrics["wall_s"]["value"]
            overhead = end_to_end_metrics(traced)["wall_s"]["value"] - untraced_wall
            problems += traced.problems
            attempted += traced.attempted
            failed += traced.failed
            layer = tracer.metrics()
            layer["trace.overhead_s"] = overhead
            layer["trace.overhead_frac"] = overhead / untraced_wall
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            units.update({"trace.overhead_s": "s", "trace.overhead_frac": "frac"})
            metrics = {name: {"value": float(layer[name]), "unit": unit} for name, unit in units.items()}
            counts["traced_repeats_per_scene_set"] = [len(traced.timings[k]) for k in sorted(traced.timings)]
        result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        meta = run_metadata(workload, seed, seconds, int(trace), scale, config_sha256(wl.config()))
        meta["samples"] = counts
        return result, meta, {"fingerprint": fingerprint, "problems": problems}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--cache-root", default=None, help="where built nets and scratch files go")
    parser.add_argument("--build", action="store_true", help="only train and cache the loaded nets")
    args = parser.parse_args(argv)

    if args.build:
        from workloads import ensure_build

        ensure_build(args.cache_root or os.path.join(ROOT, ".bench_cache"), args.scale, ROOT,
                     in_process=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    result, meta, fingerprint = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                    args.scale, args.cache_root)
    for problem in fingerprint["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"fingerprint": fingerprint["fingerprint"]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    _import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
