"""smallscat benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 34 --trace 0

Run from the repository root; the program is imported from ``src/``.  Whole
passes of the workload run serially in this process; another pass starts
only while it is expected to end within half a pass of ``--seconds`` of pass
time, so a run measures ``--seconds`` give or take half a pass.  The workload
is set up SETUP_REPEATS times, before the first passes in turn, and
``setup_s`` is the median.  Every pass is checked against its correctness
gates; a pass that fails one yields no timing.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes (at least one of each)
and reports the per-layer metrics of the traced ones, per pass, plus
``trace.overhead_s``: median traced minus median untraced pass wall time.

The last line of standard output is the result object; the line before it
holds the environment facts and the per-pass record.
"""

from __future__ import annotations

import argparse
import ctypes
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
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
# One BLAS thread: on a 2-vCPU Xeon virtual machine (2.1 GHz), two OpenBLAS
# threads made a 16-node sweep at N = 800 about a fifth slower, and less
# steady, than one.
BLAS_THREADS = 1


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_program() -> None:
    """Import smallscat from this checkout's src/, and nowhere else."""
    if os.environ.get("SMALLSCAT_WORKERS"):
        raise BenchmarkError("SMALLSCAT_WORKERS is set; it silently overrides the configured "
                             "workers = 1, so the benchmark refuses to run")
    src = ROOT / "src"
    if not (src / "smallscat" / "__init__.py").is_file():
        raise BenchmarkError(f"no smallscat sources under {src}")
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)    # read when OpenBLAS loads
    sys.path.insert(0, str(src))
    import smallscat
    if Path(smallscat.__file__).resolve().parent != (src / "smallscat").resolve():
        raise BenchmarkError(f"smallscat was imported from {smallscat.__file__}, not {src}")
    threads = {lib.get("threads") for lib in _blas_libraries()}
    if threads != {BLAS_THREADS}:
        raise BenchmarkError(f"BLAS thread counts {threads}, expected {BLAS_THREADS}: "
                             "was numpy imported before the benchmark set them?")


# ---------------------------------------------------------------------------
# environment facts
# ---------------------------------------------------------------------------
def _blas_libraries() -> list:
    """Each loaded OpenBLAS: file, build configuration and thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_config{suffix}"):
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = get_threads()
        found.append(entry)
    return found


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    from workloads import WORKERS
    return {"nproc": len(os.sched_getaffinity(0)), "blas": _blas_libraries(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(), "workers": WORKERS}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
@dataclass
class PassRecord:
    wall_s: float
    traced: bool
    attempted: int
    failed: int
    oracle_err: float
    tail_warnings: int
    gate_errors: list


def run_pass(workload, state, tracer=None):
    """One timed pass, then its gates.  Returns (record, raw output)."""
    gc.collect()        # every pass starts from the same heap state
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            raw = workload.run(state)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
    outcome = workload.check(state, raw)
    tail = sum("frequency tail not resolved" in str(w.message) for w in caught)
    if tracer is not None:
        tracer.passes += 1
        tracer.counters["synthesis.tail_warnings"] += tail
    record = PassRecord(wall, tracer is not None, outcome.attempted, outcome.failed,
                        outcome.oracle_err, tail, outcome.gate_errors)
    return record, raw


def measure(name: str, seed: int, seconds: float, trace: bool, size: dict | None = None):
    """Set up, run passes for about `seconds`, and return (result, details)."""
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    setup_times, passes = [], []

    def timed_setup():
        start = time.perf_counter()
        state = workload.setup(seed, work_dir, **(size or {}))
        setup_times.append(time.perf_counter() - start)
        return state

    try:
        # set-ups alternate with the first passes, so that setup_s samples
        # the machine at several moments of the run, as the passes do
        state = timed_setup()
        while True:
            traced = trace and len(passes) % 2 == 1
            record, _ = run_pass(workload, state, tracer if traced else None)
            passes.append(record)
            both_kinds = not trace or len({p.traced for p in passes}) == 2
            walls = [p.wall_s for p in passes]
            if both_kinds and sum(walls) + statistics.median(walls) / 2 > seconds:
                break
            if len(setup_times) < SETUP_REPEATS:
                state = timed_setup()
        while len(setup_times) < SETUP_REPEATS:
            timed_setup()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    good = [p for p in passes if not p.gate_errors]
    untraced = [p for p in good if not p.traced]
    traced_walls = [p.wall_s for p in good if p.traced]
    correct = len(good) == len(passes)
    metrics = {}
    if correct and not trace:
        rates = [(p.attempted - p.failed) / p.wall_s for p in untraced]
        metrics = {
            "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "oracle_err": {"value": max(p.oracle_err for p in passes), "unit": "1"},
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    elif correct:
        metrics = tracer.metrics()
        overhead = statistics.median(traced_walls) - statistics.median(p.wall_s for p in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    details = {"workload": name, "seed": seed, "seed_effect": workload.seed_effect,
               "unit_of_work": workload.unit_of_work, "size": size or "full",
               "setup_s_each": setup_times, "passes": [asdict(p) for p in passes],
               "environment": environment()}
    if tracer is not None:
        WORK_ROOT.mkdir(exist_ok=True)
        spans_path = WORK_ROOT / f"spans-{name}-seed{seed}.json"
        tracer.write_spans(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {"correct": correct, "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes), "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {', '.join(WORKLOADS)}")
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
