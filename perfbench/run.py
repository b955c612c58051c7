"""Run one rmtkit benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 20 --trace 0

Workloads: cli_panel, solvers, track (see perfbench/README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Details (machine facts, every sample, every check) go to
``.perfbench-run/<workload>-seed<seed>-trace<0|1>.json``, and the spans of a
traced pass to ``...-spans.json`` beside it.
"""

import os
import sys
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402  (standard library only)

# The BLAS pool is pinned before NumPy loads: timings taken with different
# pool sizes are not comparable.  One thread is at most nproc everywhere.
BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-run"
SETUP_REPEATS = 3
# err_max is floored here so that it is never 0 and round-off below it does
# not read as a change
ERR_FLOOR = 1e-10
WORKLOAD_NAMES = ("cli_panel", "solvers", "track")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time: whole passes run while the next "
                        "one fits, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_pools():
    """Thread-pool size of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "/" in line}
    libs = sorted(p for p in paths
                  if "openblas" in os.path.basename(p) and ".so" in p)
    pools = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                pools[os.path.basename(lib)] = getattr(handle, sym)()
                break
    return pools


def machine_facts():
    import numpy as np
    import scipy
    import rmtkit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_pools": blas_pools(),
        "rmtkit_backend": rmtkit.kernels.BACKEND,
    }


class Recorder:
    """Outputs, errors and times of every op over the passes of one run:
    raw, and rescaled to the reference host speed (see hostspeed.py)."""

    def __init__(self, workload, ops, sampler):
        self.workload, self.ops, self.sampler = workload, ops, sampler
        names = [name for name, _ in ops]
        self.outputs = {n: [] for n in names}
        self.errors = {n: [] for n in names}
        self.raw = {n: [] for n in names}
        self.scaled = {n: [] for n in names}
        self.pass_raw, self.pass_scaled = [], []

    def run_pass(self):
        index = len(self.pass_raw)
        raw = scaled = 0.0
        for name, op in self.ops:
            t0 = time.perf_counter()
            try:
                out = op(index)
            except Exception:  # a failing op is counted, and the pass goes on
                out = None
                self.errors[name].append(traceback.format_exc(limit=3))
            t1 = time.perf_counter()
            self.raw[name].append(t1 - t0)
            self.scaled[name].append(self.sampler.rescale(t0, t1))
            raw += self.raw[name][-1]
            scaled += self.scaled[name][-1]
            self.outputs[name].append(
                None if out is None else self.workload.keep(name, out))
        self.pass_raw.append(raw)
        self.pass_scaled.append(scaled)

    def attempted(self):
        return sum(len(v) for v in self.raw.values())


def run_checks(workload, outputs):
    import checks

    checked = {}
    for op, outs in outputs.items():
        good = [o for o in outs if o is not None]
        try:
            checked[op] = workload.check(op, good)
        except Exception:  # an output the check cannot read fails it
            failure = checks.Check(
                False, "check raised: " + traceback.format_exc(limit=3))
            checked[op] = [failure] * len(good)
    return checked


def measure(args, work, sampler):
    import layertrace
    import workloads

    t_import = time.perf_counter()
    import_s = sampler.rescale(T_START, t_import)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(work))
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
        setup_runs.append((t1 - t0, sampler.rescale(t0, t1)))
    t0 = time.perf_counter()
    wl.warm_up()
    t1 = time.perf_counter()
    warm_raw, warm_s = t1 - t0, sampler.rescale(t0, t1)
    setup_s = (import_s + statistics.median(s for _, s in setup_runs)
               + warm_s)

    rec = Recorder(wl, wl.ops(), sampler)
    tracer = None
    if args.trace:
        # one untraced pass, then one traced pass; their difference is the
        # tracing overhead
        rec.run_pass()
        tracer = layertrace.Tracer()
        patches = layertrace.instrument(tracer)
        try:
            rec.run_pass()
        finally:
            layertrace.restore(patches)
    else:
        t0 = time.perf_counter()
        while True:
            rec.run_pass()
            elapsed = time.perf_counter() - t0
            if elapsed + statistics.median(rec.pass_raw) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = run_checks(wl, rec.outputs)
    attempted = rec.attempted()
    failed = sum(len(v) for v in rec.errors.values())
    failed += sum(not c.ok for cs in checked.values() for c in cs)
    errs = [c.err for cs in checked.values() for c in cs if c.err is not None]

    op_scaled = {n: statistics.median(ts) for n, ts in rec.scaled.items()}
    if args.trace:
        # span times are rescaled by the traced pass's ratio of rescaled to
        # raw time, so that layers compare across runs as the ops do
        scale = rec.pass_scaled[1] / rec.pass_raw[1]
        metrics = {name: (value * scale if unit in ("s", "us")
                          else value / scale if unit == "MB/s" else value,
                          unit)
                   for name, (value, unit)
                   in layertrace.layer_metrics(tracer).items()}
        metrics.update(wl.layer_extras(rec.outputs, 1))
        metrics["trace.overhead_s"] = (
            rec.pass_scaled[1] - rec.pass_scaled[0], "s")
        metrics["host.loop_s"] = (sampler.median_loop_s(), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_scaled_s": (statistics.median(rec.pass_scaled), "s"),
            "op_geomean_scaled_s": (math.exp(statistics.fmean(
                math.log(t) for t in op_scaled.values())), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": ((attempted - failed) / attempted, "frac"),
            "err_max": (max([ERR_FLOOR, *errs]), "rel"),
        }
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "setup": {"import_raw_s": t_import - T_START,
                  "import_scaled_s": import_s,
                  "setup_runs_raw_s": [r for r, _ in setup_runs],
                  "setup_runs_scaled_s": [s for _, s in setup_runs],
                    "warm_up_raw_s": warm_raw, "warm_up_scaled_s": warm_s},
        "pass_raw_s": rec.pass_raw,
        "pass_scaled_s": rec.pass_scaled,
        "host_loop_s": [sampler.starts, sampler.durations],
        "ops": {n: {"median_raw_s": statistics.median(rec.raw[n]),
                    "median_scaled_s": op_scaled[n],
                    "raw_s": rec.raw[n], "scaled_s": rec.scaled[n],
                    "errors": rec.errors[n],
                    "checks": [[c.ok, c.detail, c.err]
                               for c in checked.get(n, [])]}
                for n in rec.raw},
        "peak_rss_mb": peak_rss_mb,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    return attempted, failed, metrics, details, tracer


def report(args, attempted, failed, metrics, details, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")

    print("machine " + json.dumps(details["machine"], sort_keys=True))
    print("passes (raw / rescaled to host speed): " + ", ".join(
        f"{r:.3f}s / {c:.3f}s"
        for r, c in zip(details["pass_raw_s"], details["pass_scaled_s"])))
    for name, op in details["ops"].items():
        verdicts = [("ok " if ok else "FAIL ") + detail
                    for ok, detail, _ in op["checks"]]
        verdicts += ["FAIL raised: " + e.strip().splitlines()[-1]
                     for e in op["errors"]]
        print(f"  {name:<14}{op['median_raw_s']:8.3f} s"
              f"{op['median_scaled_s']:8.3f} s  "
              + (verdicts[0] if verdicts else ""))
        for v in verdicts[1:]:
            if v.startswith("FAIL"):
                print(" " * 27 + v)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44}{value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    # One CPU for the whole process: the benchmark's BLAS pool has one thread,
    # and the host-speed sampler must time the CPU the ops run on, not share
    # the core with them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = hostspeed.Sampler()
    try:
        return run(parse_args(argv), sampler)
    finally:
        sampler.close()


def run(args, sampler):
    src = ROOT / "src"
    if not (src / "rmtkit" / "__init__.py").is_file():
        print(f"perfbench: no rmtkit sources at {src}; run from the root of "
              "an rmtkit checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import rmtkit.cli  # noqa: F401  (imports every layer before timing)

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work, sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
