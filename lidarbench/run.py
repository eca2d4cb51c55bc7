"""lidarmix benchmark.

    python3 lidarbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process, a closed loop with one client: one
thread starts the next item only after the previous one has finished, as
a training loader does. `--workload all` runs every workload, each in a
process of its own, and prints their results one after another.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json;
with `--trace 1`, the per-layer metrics of a second, traced loop (see
tracing.py) after an untraced one. The last line of standard output is the
result as one JSON object; the lines before it are a readable report and a
`details` JSON line (sample counts, tail percentile, environment, pipeline
digest). The exit code is 1 when a correctness check fails and 2 when the
library sources are missing.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy is imported: every workload is single-threaded.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("pipeline-synth", "scan-dense", "augment-small")
SETUP_RUNS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Past p99 the tail of a shared host is its stalls, not the program's.
TAIL_MAX_PERCENTILE = 99.0

sys.dont_write_bytecode = True  # leave no caches in the checkout


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library():
    """Import lidarmix from this checkout's src/, never from elsewhere."""
    if not (SRC / "lidarmix" / "__init__.py").is_file():
        print(f"error: no lidarmix sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import lidarmix

    if Path(lidarmix.__file__).resolve().parent != SRC / "lidarmix":
        print(f"error: imported lidarmix from {lidarmix.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


class Loop:
    """Latencies, errors and check failures of the items run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.errors: Counter = Counter()
        self.failures: list[str] = []

    def item(self, workload, slot: int, oracle) -> None:
        start = time.perf_counter()
        try:
            out = workload.run(slot, oracle)
        except Exception as exc:  # counted into error_rate; the loop goes on
            self.latencies.append(time.perf_counter() - start)
            self.errors[type(exc).__name__] += 1
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            workload.check(slot, out)
        except Exception as exc:
            self.failures.append(f"slot {slot}: {type(exc).__name__}: {exc}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def items_per_s(self) -> float:
        """Completed items per second of item time; checks run between
        items and are not counted."""
        return (self.attempted - self.failed) / sum(self.latencies)

    def tail(self) -> tuple[float, float]:
        """(percentile, seconds): the highest latency percentile, at most
        TAIL_MAX_PERCENTILE, with at least TAIL_BEYOND samples above it;
        the maximum of a smaller sample."""
        ordered = sorted(self.latencies)
        n = len(ordered)
        beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_MAX_PERCENTILE) / 100.0))
        if n <= beyond:
            return 100.0, ordered[-1]
        return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def _end_to_end(loop: Loop, setup_s: float) -> dict:
    pct, tail = loop.tail()
    return {
        "items_per_s": (loop.items_per_s(), "1/s"),
        "item_p50_ms": (statistics.median(loop.latencies) * 1000.0, "ms"),
        "item_tail_ms": (tail * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, pct


def run_workload(args) -> int:
    _import_library()
    from lidarmix.oracle import GridClusterOracle

    import tracing as tr
    import workloads

    import_s = time.perf_counter() - _STARTED
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, workloads, tr, GridClusterOracle, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, workloads, tr, oracle_cls, workdir, import_s) -> int:
    cls = workloads.WORKLOADS[args.workload]
    tracer = tr.Tracer() if args.trace else None

    def traced_oracle():
        return tr.TracedOracle(oracle_cls(), tracer)

    # Set-up: input generation, input file writes and warm-up, repeated
    # so that setup_s is a median.
    setup_runs, setup_passes, workload = [], [], None
    if tracer:
        tracer.install()
    for _ in range(SETUP_RUNS):
        workload = None  # release the previous pool before building the next
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        workload = cls(args.seed, workdir)
        workload.warmup(traced_oracle() if tracer else oracle_cls())
        setup_runs.append(time.perf_counter() - start)
        if tracer:
            setup_passes.append(tracer.collect())
    if tracer:
        tracer.uninstall()
    setup_s = import_s + statistics.median(setup_runs)

    loop = Loop()
    deadline = time.perf_counter() + args.seconds
    oracle = oracle_cls()
    while not loop.latencies or time.perf_counter() < deadline:
        loop.item(workload, loop.attempted % workload.slots, oracle)
    failures = list(loop.failures)
    attempted, failed = loop.attempted, loop.failed
    e2e, tail_pct = _end_to_end(loop, setup_s)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": loop.attempted,
        "tail_percentile": round(tail_pct, 3),
        "setup_runs_s": setup_runs,
        "import_s": import_s,
        "error_rate": loop.failed / loop.attempted,
        "errors_by_type": dict(loop.errors),
        "environment": _environment(),
    }

    per_layer = None
    if tracer:
        traced = Loop()
        passes = []
        tracer.install()
        deadline = time.perf_counter() + args.seconds
        oracle = traced_oracle()
        while len(passes) < 2 or time.perf_counter() < deadline:
            for slot in range(workload.slots):
                traced.item(workload, slot, oracle)
            passes.append(tracer.collect())
        tracer.uninstall()
        failures += traced.failures
        failures += _count_mismatches(tr, passes)
        per_layer = _per_layer(tr, tracer.missing, setup_passes, passes)
        per_layer["trace.items_per_s_ratio"] = (traced.items_per_s() / loop.items_per_s(), "ratio")
        details.update(
            passes=len(passes),
            traced_samples=traced.attempted,
            traced_errors_by_type=dict(traced.errors),
            missing_entry_points=sorted(tracer.missing),
            ratio_bases={m.name: passes[0].counts.get(m.base, 0) for m in tr.PER_LAYER if m.kind == "ratio"},
        )
        attempted += traced.attempted
        failed += traced.failed

    try:
        details.update(workload.finish(oracle_cls()))
    except Exception as exc:
        failures.append(f"finish: {type(exc).__name__}: {exc}")
    details["check_failures"] = failures[:20]

    metrics = per_layer if tracer else e2e
    _report(args, e2e, details, loop, per_layer)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not failures else 1


def _count_mismatches(tr, passes) -> list[str]:
    """Counts and ratios of every pass must equal those of the first: each
    pass repeats the same items with the same generators."""
    out = []
    for m in tr.PER_LAYER:
        if m.kind == "self_ms" or m.entry in tr.SETUP_ENTRIES:
            continue
        values = {p.value(m, set()) for p in passes}
        if len(values) > 1:
            out.append(f"{m.name} differs between passes: {sorted(values)}")
    return out


def _per_layer(tr, missing, setup_passes, passes) -> dict:
    out = {}
    for m in tr.PER_LAYER:
        source = setup_passes if m.entry in tr.SETUP_ENTRIES else passes
        if m.kind == "self_ms":
            values = [p.value(m, missing) for p in source]
            value = None if values[0] is None else statistics.median(values)
        else:
            value = source[0].value(m, missing)
        out[m.name] = (value, m.unit)
    return out


def _report(args, e2e, details, loop, per_layer) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    notes = {
        "items_per_s": f"n={loop.attempted} items",
        "item_p50_ms": f"n={details['samples']}",
        "item_tail_ms": f"p{details['tail_percentile']}, n={details['samples']}",
        "setup_s": f"median of {SETUP_RUNS} set-ups",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:12.4f} {unit:<6} {notes.get(name, '')}")
    print(f"  {'error_rate':<16} {details['error_rate']:12.4f} {'ratio':<6} {loop.failed} of {loop.attempted}")
    for name, (value, unit) in (per_layer or {}).items():
        shown = "missing" if value is None else f"{value:12.4f}"
        print(f"  {name:<48} {shown:>12} {unit}")
    print("details " + json.dumps(details, sort_keys=True))


def run_all(args) -> int:
    """Each workload in a process of its own, so that peak_rss_mb is that
    workload's. With --trace 1 each runs twice, and their counts must agree."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        runs = []
        for _ in range(1 + args.trace):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            status = status or proc.returncode
            try:
                runs.append(json.loads(lines[-1]))
            except ValueError:
                runs.append(None)
        if any(r is None for r in runs):
            print(f"{name}: no result")
            continue
        if args.trace:
            import tracing as tr

            counted = [m.name for m in tr.PER_LAYER if m.kind != "self_ms"]
            first, second = ({k: r["metrics"][k]["value"] for k in counted} for r in runs)
            differ = [k for k in counted if first[k] != second[k]]
            if differ:
                print(f"{name}: counts differ between two traced runs: {differ}")
                runs[0]["correct"] = False
        results[name] = runs[0]
    correct = len(results) == len(WORKLOAD_NAMES) and all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
        )
    )
    return status or (0 if correct else 1)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
