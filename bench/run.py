"""Benchmark of t2orbits: one closed-loop workload per run, in a fresh interpreter.

    python3 bench/run.py --workload census --seed 1 --seconds 28 --trace 0

A run sets the workload up, then repeats whole rounds of its operations
until ``--seconds`` have passed, with one caller that sends the next
operation only after the previous one returned.  Every output is checked
against the benchmark's own arithmetic (bench/oracle.py).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run alternates untraced and traced rounds and reports
the per-layer metrics of the traced rounds, plus the cost of tracing.

Each round starts from the caches a fresh process has: every
``functools.lru_cache`` in t2orbits is cleared first, and a full garbage
collection resets the collector's counters, so what a round does, where its
collections fall and how much memory it holds do not depend on how many
rounds ran before.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("cli", "documents", "core", "localmodels", "equivalence", "surgery",
           "constructors")
SETUP_REPEATS = 7
CANONICAL_LENGTHS = (2, 3, 4, 8, 9, 10, 11, 12)
CANONICAL_SAMPLES = 20
CANONICAL_BUDGET_S = 1.0
SCALE = {"us": 1e6, "ms": 1e3}
# Per-layer metric, the traced statistic it reads (mean time per call), unit.
CALL_METRICS = (
    ("documents.parse_us", "documents.parse", "us"),
    ("documents.serialize_compact_us", "documents.serialize_compact", "us"),
    ("core.validate_us", "core.validate", "us"),
    ("core.require_legal_us", "core.require_legal", "us"),
    ("localmodels.space_of_directions_us", "localmodels.space_of_directions", "us"),
    ("localmodels.gluing_matrix_us", "localmodels.gluing_matrix", "us"),
    ("equivalence.is_isomorphic_strict_us", "equivalence.is_isomorphic[strict]", "us"),
    ("equivalence.canonical_form_weak_ms", "equivalence.canonical_form[weak]", "ms"),
    ("equivalence.weak_witness_ms", "equivalence.weak_witness", "ms"),
    ("surgery.decompose_us", "surgery.decompose", "us"),
    ("surgery.reassemble_us", "surgery.reassemble", "us"),
    ("constructors.enumerate_legal_us", "constructors.enumerate_legal", "us"),
)


class Clock:
    """Times the pieces of each op; opens an op region when traced.

    Latencies are summarized at the end of every round and then dropped, so
    the run's memory does not grow with the number of rounds.
    """

    now = staticmethod(time.perf_counter)

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = array.array("d")
        self.seconds = 0.0
        self.ops = 0
        self.rounds = []  # per round: (ops per second, p50, p90)
        self._start = 0.0

    def begin(self) -> float:
        if self.tracer is not None:
            self.tracer.enter("op", None)
        self._start = time.perf_counter()
        return self._start

    def end(self) -> float:
        stop = time.perf_counter()
        self.seconds += stop - self._start
        if self.tracer is not None:
            self.tracer.exit()
        return stop

    def record(self, seconds: float) -> None:
        self.latencies.append(seconds)

    def close_round(self) -> None:
        ordered = sorted(self.latencies)
        if ordered:
            self.ops += len(ordered)
            self.rounds.append((len(ordered) / self.seconds, statistics.median(ordered),
                                ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]))
        self.latencies = array.array("d")
        self.seconds = 0.0

    def medians(self) -> tuple:
        """Ops per second, p50 and p90, each the median over the rounds."""
        return tuple(statistics.median(column) for column in zip(*self.rounds))


def load_t2orbits():
    """Import t2orbits from the source tree next to the benchmark."""
    src = ROOT / "src"
    if not (src / "t2orbits" / "__init__.py").is_file():
        raise SystemExit(f"error: no t2orbits sources under {src}")
    sys.path.insert(0, str(src))
    import t2orbits
    import t2orbits.cli  # noqa: F401  (binds t2orbits.cli)
    modules = {name: getattr(t2orbits, name) for name in MODULES}
    return t2orbits, SimpleNamespace(**modules)


def set_up(args, workdir: Path):
    """Import t2orbits, build the workload's inputs and warm it up."""
    package, t = load_t2orbits()
    workload = workloads.WORKLOADS[args.workload](t, args.seed, workdir)
    workload.warm_up()
    return package, t, workload


def lru_caches(t) -> list:
    found = {}
    for module in vars(t).values():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def measure_setup(args) -> float:
    """Median of several set-ups, each in a fresh interpreter, from its start
    to the moment it could send its first op.

    The interpreters start without the site module (-S): what the machine's
    site-packages load at start-up is no part of t2orbits' set-up, and on a
    busy machine it only adds noise.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True)
        try:
            ready = child.stdout.readline()
            seconds.append(time.perf_counter() - start)
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if ready.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up of {args.workload} failed (exit {code})")
    return statistics.median(seconds)


def sample_canonical_cycle(t, workload) -> dict:
    """Median microseconds of one cycle canonicalization per cycle length.

    Timed on fresh copies of the workload's cycles, with the canonicalizer's
    lru_cache stepped around (for as long as it exists), so no cache answers.
    """
    by_length = {}
    for cycle in workload.cycles():
        bucket = by_length.setdefault(len(cycle), [])
        if len(bucket) < CANONICAL_SAMPLES:
            bucket.append(cycle)
    eq = t.equivalence
    cached = getattr(eq, "_canonical_flat", None)
    uncached = getattr(cached, "__wrapped__", None)
    if uncached is not None:
        eq._canonical_flat = uncached
    try:
        out = {}
        for r, cycles in by_length.items():
            times = []
            spent = 0.0
            for cycle in cycles:
                fresh = workloads.build_cycle(t, cycle)
                start = time.perf_counter()
                eq.canonical_cycle(fresh)
                times.append(time.perf_counter() - start)
                spent += times[-1]
                if spent > CANONICAL_BUDGET_S and len(times) >= 3:
                    break
            out[r] = statistics.median(times) * 1e6
        return out
    finally:
        if uncached is not None:
            eq._canonical_flat = cached


def per_layer(tracer, ops: int, canonical: dict, cache, overhead: float) -> dict:
    m = {f"{name}.busy_ms_per_op": (tracer.busy.get(name, 0.0) * 1e3 / ops, "ms")
         for name in MODULES}
    for name, stat, unit in CALL_METRICS:
        m[name] = (tracer.mean(stat) * SCALE[unit], unit)
    m["core.require_legal_calls_per_op"] = (
        tracer.op_calls.get("core.require_legal", 0) / ops, "count")
    for r in CANONICAL_LENGTHS:
        m[f"equivalence.canonical_cycle_us.r{r}"] = (canonical.get(r, 0.0), "us")
    hits, misses, size = (cache.hits, cache.misses, cache.currsize) if cache else (0, 0, 0)
    m["equivalence.cycle_cache_entries"] = (size, "count")
    m["equivalence.cycle_cache_hit_ratio"] = (hits / (hits + misses) if hits else 0.0, "ratio")
    m["tracing.overhead_pct"] = (overhead * 100, "%")
    return m


def run(args, workdir: Path) -> dict:
    setup_s = None if args.trace else measure_setup(args)
    package, t, workload = set_up(args, workdir)
    caches = lru_caches(t)
    tracer = spans.Tracer() if args.trace else None
    tally = workloads.Tally()
    plain, traced = Clock(), Clock(tracer)
    rounds = 0
    start = time.perf_counter()
    while True:
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        clock = traced if args.trace and rounds % 2 else plain
        with spans.traced(tracer, package, vars(t).values()) if clock is traced else nullcontext():
            workload.run_round(clock, tally)
        clock.close_round()
        rounds += 1
        if time.perf_counter() - start >= args.seconds and rounds >= (2 if args.trace else 1):
            break

    if args.trace:
        cache = getattr(t.equivalence, "_canonical_flat", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        overhead = plain.medians()[0] / traced.medians()[0] - 1
        metrics = per_layer(tracer, traced.ops, sample_canonical_cycle(t, workload), info,
                            overhead)
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    else:
        rate, p50, p90 = plain.medians()
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (rate, "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for line in (tally.failures + tally.problems)[:10]:
        print(line, file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            set_up(args, workdir)
            print("ready", flush=True)
            return 0
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
