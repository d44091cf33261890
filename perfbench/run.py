"""lrvb benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; lrvb is imported from ./src.
Each run sets up its workload several times (the median is ``setup_s``),
then repeats whole rounds of the workload's operations, each issued only
after the previous one returned, until ``--seconds`` have passed, then
checks the outputs.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
The line before it is the run record (versions, BLAS threads, per-op
sample counts, check results), also written to
``.perfbench_out/records/``.  ``--smoke`` runs one round of every
workload with its checks and prints one line per workload.
"""

import os

# Fixed before numpy loads: one BLAS thread (nproc is 2 on the reference
# machine), so timings do not depend on how OpenBLAS splits small solves.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


def import_lrvb():
    """Import lrvb from this checkout's src/ and return the seconds it took
    (numpy and scipy load here too)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lrvb", "__init__.py")):
        sys.exit(f"perfbench: no lrvb sources under {src}; run from a checkout")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import lrvb  # noqa: F401
    elapsed = time.perf_counter() - start
    if not os.path.abspath(lrvb.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported lrvb from {lrvb.__file__}, not {src}")
    return elapsed


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_thread_counts():
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes
    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def environment():
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads_requested": BLAS_THREADS,
            "blas_threads": blas_thread_counts()}


def run(workload, seed, seconds, trace, import_s):
    """One benchmark run; returns (result line, run record)."""
    from spans import Tracer

    workdir = os.path.join(OUT_DIR, "work", f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            st = workload.setup(ROOT, workdir, seed)
            setup_times.append(time.perf_counter() - start)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        workload.prepare(st, tracer)
        ops = workload.operations(st)

        attempted = failed = 0
        errors = []
        rounds, op_times = [], []
        begin = time.perf_counter()
        while True:
            round_time = 0.0
            for label, op in ops:
                attempted += 1
                start = time.perf_counter()
                try:
                    op()
                except Exception as exc:  # a failed operation, counted and reported
                    failed += 1
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                elapsed = time.perf_counter() - start
                round_time += elapsed
                op_times.append((label, elapsed))
            rounds.append(round_time)
            if failed == 0:
                workload.after_round(st)
            if time.perf_counter() - begin >= seconds:
                break

        by_label = {}
        for label, elapsed in op_times:
            by_label.setdefault(label, []).append(elapsed)
        if tracer is not None:
            metrics = tracer.layer_metrics(
                len(rounds), {k: sum(v) for k, v in by_label.items()})
            spans = tracer.span_summary()
            tracer.uninstall()
        else:
            metrics = {
                "setup_s": {"value": import_s + statistics.median(setup_times),
                            "unit": "s"},
                "round_s": {"value": statistics.median(rounds), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
            spans = None
        problems = errors or workload.check(st)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, **environment(),
              "import_s": import_s, "setup_repeats_s": setup_times,
              "rounds_s": rounds,
              "ops": {k: {"n": len(v), "median_s": statistics.median(v),
                          "max_s": max(v)} for k, v in by_label.items()},
              "problems": problems, "spans": spans, "result": result}
    return result, record


def save_record(record):
    folder = os.path.join(OUT_DIR, "records")
    os.makedirs(folder, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(folder, f"{record['workload']}-seed{record['seed']}"
                        f"-trace{record['trace']}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload, with checks")
    args = parser.parse_args()

    import_s = import_lrvb()
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name, cls in WORKLOADS.items():
            start = time.perf_counter()
            result, record = run(cls(), args.seed, 0.0, 0, import_s)
            save_record(record)
            ok &= result["correct"] and result["failed"] == 0
            print(json.dumps({"workload": name, "wall_s": time.perf_counter() - start,
                              "correct": result["correct"], "failed": result["failed"],
                              "problems": record["problems"]}), flush=True)
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, record = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                         args.trace, import_s)
    save_record(record)
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
