"""Benchmark of sdar_glm: one workload per run, timed or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload fit-wide --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: set-up, then a closed loop (one
caller, no think time) of ops for --seconds of op time.  --trace 1 runs a
fixed list of ops once untraced and twice traced, and reports per-layer
metrics from the first traced pass; the two traced passes must agree exactly
on every deterministic metric.  Every op's output is checked outside its
timed interval.  The last line of stdout is the JSON result; the lines
before it list every metric by name with its unit, and the environment.
The full record, and the spans of a traced run, are written to .bench_out/.
"""

import os

# BLAS is pinned to one thread before numpy is imported: on a 2-core machine
# a second BLAS thread makes op latencies several times more spread out.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS in
# all, and setup_s is the median: a single set-up of sim-path is one op long.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "apdr": "ratio",
    "adr": "ratio",
}
PER_LAYER = {
    "families.x_pass.count": "count",
    "families.xt_pass.count": "count",
    "families.x_bytes.computed_mb": "MB",
    "families.x_pass.self_s": "s",
    "families.gradient.self_s": "s",
    "families.nll.count": "count",
    "families.nll.self_s": "s",
    "families.dataset.count": "count",
    "families.dataset.self_s": "s",
    "solver.fit.count": "count",
    "solver.fit.self_s": "s",
    "solver.outer_iters": "count",
    "solver.screen.count": "count",
    "solver.screen.self_s": "s",
    "solver.restricted.count": "count",
    "solver.restricted.self_s": "s",
    "solver.newton.count": "count",
    "solver.linesearch.evals": "count",
    "solver.restricted.converged_ratio": "ratio",
    "solver.cap_bound.count": "count",
    "path.levels.count": "count",
    "path.levels_after_selected.ratio": "ratio",
    "path.phantom.ratio": "ratio",
    "path.failures.count": "count",
    "path.self_pct": "%",
    "simulate.generate.self_pct": "%",
    "simulate.self_pct": "%",
    "dataio.read.self_pct": "%",
    "dataio.read.mb_per_s": "MB/s",
    "cli.self_pct": "%",
    "cli.output.bytes": "bytes",
    "peak_alloc_mb": "MB",
    "trace.overhead_ratio": "x",
}
# Metrics in these units are counts of work, not times: two traced runs of
# the same seed must give them exactly.
DETERMINISTIC_UNITS = {"count", "ratio", "MB", "bytes"}
TAIL_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with >= 10 samples above its rank.

    Returns (value, percentile, sample count).  With N samples sorted, rank
    N - 10 (1-based) is the highest rank that leaves ten samples beyond it,
    which is the percentile 100 * (N - 10) / N.  Needs N >= 11.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def import_package():
    """Import sdar_glm from this checkout's src/, never from anywhere else."""
    pkg = SRC / "sdar_glm"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sdar_glm

    if Path(sdar_glm.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported sdar_glm from {sdar_glm.__file__}, not {pkg}")


class Ledger:
    """Runs ops, times them, checks them outside the timed interval."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, wl, i, family, around=None) -> float:
        self.attempted += 1
        error = result = None
        with around(i) if around else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = wl.op(i, family)
            except Exception:  # an op failure is counted, not fatal
                error = traceback.format_exc()
            latency = time.perf_counter() - t0
        if error is None:
            error = wl.check(i, result)
        if error:
            self.failures.append(f"op {i}: {error}")
        return latency


def timed_run(wl_cls, seed, seconds, workdir, ledger, logistic):
    setup_times = []
    wl = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        if wl is not None:
            wl.cleanup()
        wl = wl_cls()  # drops the previous inputs before building the next
        t0 = time.perf_counter()
        wl.setup(seed, workdir)
        built = time.perf_counter() - t0
        setup_times.append(built + ledger.run(wl, 0, logistic))  # set-up ends warm

    min_ops = max(wl.quality_ops, TAIL_BEYOND + 1)
    latencies = []
    elapsed = 0.0
    while elapsed < seconds or len(latencies) < min_ops:
        latencies.append(ledger.run(wl, len(latencies), logistic))
        elapsed += latencies[-1]
    wl.cleanup()

    apdr, afdr = wl.quality()
    tail, tail_pct, n = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(latencies),
        "ops_per_s": n / elapsed,
        "apdr": apdr,
        "adr": apdr + 1.0 - afdr,
    }
    extra = {
        "op_tail_s": tail,
        "op_tail_pct": tail_pct,
        "op_samples": n,
        "setup_samples_s": setup_times,
        "afdr": afdr,
        "latencies_s": latencies,
    }
    return metrics, END_TO_END, extra


def traced_run(wl_cls, seed, workdir, ledger, logistic):
    wl = wl_cls()
    wl.setup(seed, workdir)
    ledger.run(wl, 0, logistic)
    ops = range(wl.traced_ops)
    untraced = [ledger.run(wl, i, logistic) for i in ops]
    tracemalloc.start()
    try:
        ledger.run(wl, 0, logistic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    passes = []
    for _ in range(2):
        t = tr.Tracer()
        family = tr.counting_logistic(t)
        with tr.installed(t, family):
            latencies = [ledger.run(wl, i, family, around=t.op) for i in ops]
        metrics = layer_metrics(t, len(ops))
        metrics["trace.overhead_ratio"] = statistics.median(latencies) / statistics.median(untraced)
        passes.append((t, metrics))
    wl.cleanup()

    (first, metrics), (_, again) = passes
    unstable = [
        f"{k}: {metrics[k]!r} then {again[k]!r}"
        for k in again
        if PER_LAYER[k] in DETERMINISTIC_UNITS and metrics[k] != again[k]
    ]
    ledger.failures.extend(f"count differs between traced passes: {u}" for u in unstable)
    metrics["peak_alloc_mb"] = peak / 1e6
    first.dump(OUT / f"{wl_cls.name}-seed{seed}-spans.jsonl")
    _, self_s, incl = span_totals(first)
    extra = {
        "traced_ops": len(ops),
        "untraced_latencies_s": untraced,
        "self_share_pct": {k: 100.0 * v / incl[tr.OP] for k, v in self_s.most_common()},
    }
    return metrics, PER_LAYER, extra


def span_totals(t):
    """Per span name: the number of spans, their self time, their duration."""
    selfs = tr.self_times(t.spans)
    count, self_s, incl = Counter(), Counter(), Counter()
    for s in t.spans:
        count[s.name] += 1
        self_s[s.name] += selfs[s.id]
        incl[s.name] += s.end - s.start
    return count, self_s, incl


def layer_metrics(t, n_ops) -> dict:
    """Per-op layer metrics from one traced pass."""
    count, self_s, incl = span_totals(t)
    op_total = incl[tr.OP]
    c = t.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def pct(name):
        return 100.0 * self_s[name] / op_total

    fitted = attempted = phantom = after = failures = 0
    for result in t.path_results:
        points = [pt for pt in result.fits if pt.t > 0]
        fitted += len(points)
        failures += len(result.failures)
        attempted += len(points) + len(result.failures)
        phantom += sum(int(pt.fit.beta_hat.nonzero()[0].size != len(pt.fit.support)) for pt in points)
        after += sum(pt.t > result.selected_t for pt in points)

    per_op = {
        "families.x_pass.count": count["families.x_pass"],
        "families.xt_pass.count": count["families.gradient"],
        "families.x_bytes.computed_mb": c["families.x_bytes"] / 1e6,
        "families.x_pass.self_s": self_s["families.x_pass"],
        "families.gradient.self_s": self_s["families.gradient"],
        "families.nll.count": count["families.nll"],
        "families.nll.self_s": self_s["families.nll"],
        "families.dataset.count": count["families.dataset"],
        "families.dataset.self_s": self_s["families.dataset"],
        "solver.fit.count": count["solver.fit"],
        "solver.fit.self_s": self_s["solver.fit"],
        "solver.outer_iters": c["solver.outer_iters"],
        "solver.screen.count": count["solver.screen"],
        "solver.screen.self_s": self_s["solver.screen"],
        "solver.restricted.count": count["solver.restricted"],
        "solver.restricted.self_s": self_s["solver.restricted"],
        "solver.newton.count": c["solver.newton"],
        "solver.linesearch.evals": c["solver.linesearch.evals"],
        "solver.cap_bound.count": c["solver.cap_bound"],
        "path.levels.count": attempted,
        "path.failures.count": failures,
        "cli.output.bytes": c["cli.output.bytes"],
    }
    metrics = {k: v / n_ops for k, v in per_op.items()}
    metrics.update({
        "solver.restricted.converged_ratio": ratio(
            c["solver.restricted.converged"], count["solver.restricted"]
        ),
        "path.levels_after_selected.ratio": ratio(after, fitted),
        "path.phantom.ratio": ratio(phantom, fitted),
        "path.self_pct": pct("path"),
        "simulate.generate.self_pct": pct("simulate.generate"),
        "simulate.self_pct": pct("simulate"),
        "dataio.read.self_pct": pct("dataio.read"),
        "dataio.read.mb_per_s": ratio(c["dataio.read.bytes"] / 1e6, incl["dataio.read"]),
        "cli.self_pct": pct("cli"),
    })
    return metrics


def _blas_threads(pkg, pattern, symbol):
    """The thread count the loaded OpenBLAS of `pkg` reports, if it can be read."""
    base = Path(pkg.__file__).resolve().parent.parent / (pkg.__name__ + ".libs")
    for lib in glob.glob(str(base / pattern)):
        try:
            fn = getattr(ctypes.CDLL(lib), symbol)
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _command(argv, cwd=None) -> str | None:
    try:
        done = subprocess.run(
            argv, cwd=cwd, capture_output=True, text=True, timeout=20,
            env={**os.environ, "LC_ALL": "C"},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(pkg):
        return pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]

    caches = {"L2 cache": "unknown", "L3 cache": "unknown"}
    for line in (_command(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    commit = _command(["git", "rev-parse", "HEAD"], cwd=ROOT) if (ROOT / ".git").exists() else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas(numpy)['name']} {blas(numpy)['version']}",
        "scipy_blas": f"{blas(scipy)['name']} {blas(scipy)['version']}",
        "blas_threads_set": int(BLAS_THREADS),
        "blas_threads_numpy": _blas_threads(numpy, "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        "blas_threads_scipy": _blas_threads(scipy, "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": caches["L2 cache"],
        "l3_cache": caches["L3 cache"],
        "git_commit": commit.strip() if commit else "unknown (not a git checkout)",
        "note": f"fit-wide's design is 160 MB and lscpu reports an L3 of {caches['L3 cache']}, "
        "so families.x_bytes.computed_mb is computed from array sizes, not measured memory "
        "traffic, and no bandwidth ratio is claimed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["fit-wide", "sim-path", "ingest-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    import workloads
    from sdar_glm import LOGISTIC

    wl_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    # The same path on every run and in every checkout, relative to the
    # checkout root: the CLI prints its --data path, so the output bytes and
    # the allocations of an ingest op depend on it.
    workdir = Path(os.path.relpath(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.work"))
    workdir.mkdir(exist_ok=True)
    ledger = Ledger()
    try:
        if args.trace:
            metrics, units, extra = traced_run(wl_cls, args.seed, workdir, ledger, LOGISTIC)
        else:
            metrics, units, extra = timed_run(wl_cls, args.seed, args.seconds, workdir, ledger, LOGISTIC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    env = environment(args)
    record = {"env": env, "failures": ledger.failures,
              "failed_ratio": failed / ledger.attempted, **extra, "result": result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for k, u in units.items():
        print(f"  {k:36s} {metrics[k]:.6g} {u}")
    print(f"  {'failed_ratio':36s} {failed / ledger.attempted:.6g} ({failed}/{ledger.attempted} ops)")
    if "self_share_pct" in extra:
        print("  self-time shares of op time: " + ", ".join(
            f"{k} {v:.1f}%" for k, v in extra["self_share_pct"].items()))
    if "op_tail_s" in extra:
        print(f"  {'op_tail_s':36s} {extra['op_tail_s']:.6g} s (p{extra['op_tail_pct']:.1f} of {extra['op_samples']} ops)")
        print(f"  {'afdr':36s} {extra['afdr']:.6g} ratio")
    for failure in ledger.failures[:20]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
