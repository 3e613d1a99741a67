"""Benchmark of the arcsupport library: one workload per run.

    python3 bench/run.py --workload large --seed 1 --seconds 30 --trace 0

One caller drives the library's public functions in a closed loop: each
request starts when the previous one has returned.  The loop runs whole
cycles, cycle c over round ``c % len(rounds)`` of the workload's inputs,
until ``--seconds`` have passed and at least MIN_REQUESTS requests are
done.
Every answer is checked outside the timed region.

Every reported time is scaled by the machine's speed over the same
stretch, measured with a reference loop run in between (see ``pace.py``);
the raw figures are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with traced ones, and prints the per-layer metrics; the
spans are written to ``bench/out/spans-<workload>.csv``.
``--workload all`` runs each workload in its own process, one after another.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The library
is imported from ``src/`` next to this directory; without it the run
exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import answers
import pace
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("arcgen", "arcio", "geom", "hull", "guidepath", "locales",
           "schematic", "solver", "oracle", "report", "svg")
SETUP_REPS = 5
MIN_REQUESTS = 110          # so that p90 has ten samples beyond it

END_TO_END = (("setup_s", "s"), ("request_ms.p50", "ms"),
              ("request_ms.p90", "ms"), ("requests_per_s", "1/s"),
              ("checks_per_s", "1/s"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple(
    [(f"{m}.{p}.{kind}", unit) for m, p in spans.SPANS
     for kind, unit in (("self_ms", "ms"), ("calls", "count"))]
    + [(f"{m}.{p}.calls", "count") for m, p in spans.COUNTED]
    + [("arc.nodes", "count"), ("hull.k", "count"), ("locales.J", "count"),
       ("oracle.configs", "count"), ("oracle.dedup_ratio", "ratio"),
       ("arcgen.attempts", "count"), ("request.ms", "ms"),
       ("request.self_ms", "ms"), ("trace.overhead_ratio", "ratio")])


def import_library() -> SimpleNamespace:
    """A fresh import of the library under ``src/``."""
    for name in [m for m in sys.modules
                 if m == "arcsupport" or m.startswith("arcsupport.")]:
        del sys.modules[name]
    package = importlib.import_module("arcsupport")
    if Path(package.__file__).resolve().parent != SRC / "arcsupport":
        raise ImportError(f"arcsupport imported from {package.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"arcsupport.{m}")
                              for m in MODULES})


def percentile(samples, pct: int, min_beyond: int = 10):
    """Nearest-rank ``pct``-th percentile, or None when fewer than
    ``min_beyond`` samples lie beyond it."""
    xs = sorted(samples)
    rank = max(1, -(-pct * len(xs) // 100))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


class Tally:
    """Answer checks, failures, what the requests saw, and a digest of the
    text emitted by the cycles that ask for it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.comparisons = 0
        self.failures: list[str] = []
        self.seen: dict[str, int] = defaultdict(int)
        self.digest = hashlib.sha256()

    def record(self, lib, wl, item, outcome, digest=False) -> None:
        if isinstance(outcome, Exception):
            self.attempted += wl.checks
            self.failed += wl.checks
            self.failures.append(f"{item.label}: {type(outcome).__name__}: "
                                 f"{outcome}")
            return
        analysis = outcome.analysis
        tol, table = analysis.tol, analysis.table
        nodes = (item.nodes if item.nodes is not None
                 else workloads.nodes_of(analysis.arc))
        self.comparisons += len(outcome.agreements)
        for i, phi in enumerate(outcome.phis):
            self.attempted += 1
            agreement = outcome.agreements.get(i)
            if agreement is not None and not agreement.ok:
                problem = f"oracle: {agreement.message}"
            else:
                try:
                    solution = (outcome.solutions[i] if outcome.solutions
                                else lib.solver.solve_at_angle(analysis, phi))
                    problem = answers.solution_problem(
                        solution, phi, nodes, tol.eps_len, table.phi_left,
                        table.phi_right, tol.eps_angle)
                except Exception as exc:  # any failure counts against the run
                    problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{item.label} phi={phi!r}: {problem}")
        for agreement in outcome.agreements.values():
            self.seen["oracle_count"] += agreement.oracle_count
        self.seen["arc.nodes"] += len(analysis.arc.nodes)
        self.seen["hull.k"] += len(analysis.hull)
        self.seen["locales.J"] += analysis.decomposition.count
        if digest:
            for text in outcome.outputs:
                self.digest.update(text.encode())


def set_up(wl, seed: int, speed: pace.Pace):
    """SETUP_REPS full set-ups; returns the last one's library and input
    rounds, and each set-up's time in ns with its pace mark."""
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter_ns()
        lib = import_library()
        rounds = wl.build(lib, seed)
        for item in rounds[0][:wl.warmup]:
            try:
                wl.request(lib, item.data)
            except Exception:  # counted when the same input is measured
                pass
        t = perf_counter_ns() - t0
        speed.after(t)
        setups.append((t, speed.mark()))
    return lib, rounds, setups


def run_cycle(lib, wl, items, call, tally, speed,
              digest=False) -> list[tuple[int, int]]:
    """One request per input; returns each one's time in ns with the pace
    mark taken after it."""
    timed = []
    for item in items:
        t0 = perf_counter_ns()
        try:
            outcome = call(lib, item.data)
        except Exception as exc:  # any failure counts against the run
            outcome = exc
        t = perf_counter_ns() - t0
        speed.after(t)
        timed.append((t, speed.mark()))
        tally.record(lib, wl, item, outcome, digest)
    return timed


def enough(requests: int, start: float, seconds: float) -> bool:
    return perf_counter() - start >= seconds and requests >= MIN_REQUESTS


def scaled(timed, speed: pace.Pace) -> list[float]:
    return [t * speed.scale(mark) for t, mark in timed]


def measure_end_to_end(args, wl, lib, rounds, setups, tally, speed):
    timed = []
    start = perf_counter()
    cycle = 0
    while not enough(len(timed), start, args.seconds):
        timed += run_cycle(lib, wl, rounds[cycle % len(rounds)], wl.request,
                           tally, speed, digest=cycle == 0)
        cycle += 1
    times, raw = scaled(timed, speed), [t for t, _ in timed]
    setup_s, setup_raw = scaled(setups, speed), [t for t, _ in setups]
    p50, p90 = percentile(times, 50), percentile(times, 90)
    if p90 is None:
        raise RuntimeError("too few requests for p90")
    busy_s = sum(times) / 1e9
    metrics = {
        "setup_s": statistics.median(setup_s) / 1e9,
        "request_ms.p50": p50 / 1e6,
        "request_ms.p90": p90 / 1e6,
        "requests_per_s": len(times) / busy_s,
        "checks_per_s": tally.comparisons / busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"raw: setup_s {statistics.median(setup_raw) / 1e9}, "
          f"request_ms.p50 {percentile(raw, 50) / 1e6}, request_ms.p90 "
          f"{percentile(raw, 90) / 1e6}, requests_per_s "
          f"{len(raw) / sum(raw) * 1e9}; scale {sum(times) / sum(raw)}")
    samples = {"setup_s": f"median of {len(setups)} set-ups",
               "request_ms.p50": f"samples {len(times)}",
               "request_ms.p90": f"samples {len(times)}"}
    return metrics, samples, len(times)


def measure_layers(args, wl, lib, rounds, tally, speed):
    """Untraced and traced cycles, alternating, each pair over the same
    round, so that drift in machine speed cancels out of the overhead
    ratio."""
    tracer = spans.Tracer()
    root = tracer.wrap("request", wl.request)

    def call(lib, data):
        tracer.active = True
        try:
            return root(lib, data)
        finally:
            tracer.active = False

    traced_tally = Tally()
    untraced, traced = [], []
    start = perf_counter()
    cycle = 0
    while not enough(len(traced), start, args.seconds):
        items = rounds[cycle % len(rounds)]
        untraced += run_cycle(lib, wl, items, wl.request, tally, speed,
                              digest=cycle == 0)
        tracer.install()
        try:
            traced += run_cycle(lib, wl, items, call, traced_tally, speed)
        finally:
            tracer.uninstall()
        cycle += 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{wl.name}.csv"
    tracer.write_csv(str(path))
    print(f"{len(tracer)} spans written to {path.relative_to(HERE.parent)}")
    for key in ("attempted", "failed", "comparisons"):
        setattr(tally, key, getattr(tally, key) + getattr(traced_tally, key))
    tally.failures += traced_tally.failures
    times = scaled(traced, speed)
    scale = sum(times) / sum(t for t, _ in traced)
    metrics = per_layer(tracer, traced_tally, times, scaled(untraced, speed),
                        scale)
    _print_shares(metrics)
    return metrics, {}, len(traced)


def per_layer(tracer, tally, traced, untraced, scale) -> dict:
    """Per-request means over the traced requests, given their scaled
    times and the mean scale; span times are scaled by that mean."""
    requests = len(traced)
    own = spans.self_times(tracer.start, tracer.end, tracer.parent)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    attempts = 0
    generate = tracer.names.index("arcgen.generate_arc")
    validate = tracer.names.index("arcio.validate_simple")
    for i, nid in enumerate(tracer.name_of):
        name = tracer.names[nid]
        self_ns[name] += own[i]
        calls[name] += 1
        p = tracer.parent[i]
        if nid == validate and p >= 0 and tracer.name_of[p] == generate:
            attempts += 1
    out = {}
    for m, p in spans.SPANS:
        out[f"{m}.{p}.self_ms"] = (self_ns[f"{m}.{p}"] * scale / 1e6
                                   / requests)
        out[f"{m}.{p}.calls"] = calls[f"{m}.{p}"] / requests
    for m, p in spans.COUNTED:
        out[f"{m}.{p}.calls"] = tracer.calls[f"{m}.{p}"] / requests
    for key in ("arc.nodes", "hull.k", "locales.J"):
        out[key] = tally.seen[key] / requests
    out["oracle.configs"] = tracer.configs / requests
    out["oracle.dedup_ratio"] = tally.seen["oracle_count"] / tracer.configs
    out["arcgen.attempts"] = attempts / requests
    out["request.ms"] = sum(traced) / 1e6 / requests
    out["request.self_ms"] = self_ns["request"] * scale / 1e6 / requests
    out["trace.overhead_ratio"] = (percentile(traced, 50, 0)
                                   / percentile(untraced, 50, 0))
    return out


def _print_shares(metrics: dict) -> None:
    total = metrics["request.ms"]
    rows = [(metrics[f"{m}.{p}.self_ms"], f"{m}.{p}") for m, p in spans.SPANS]
    rows.append((metrics["request.self_ms"], "benchmark glue"))
    for ms, name in sorted(rows, reverse=True):
        if ms > 0:
            print(f"self {100 * ms / total:5.1f}% {ms:10.3f} ms/request  {name}")


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    speed = pace.Pace()
    lib, rounds, setups = set_up(wl, args.seed, speed)
    print(f"workload {wl.name} seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(rounds[0])} inputs, inputs sha256 "
          f"{workloads.fingerprint(rounds)}")
    tally = Tally()
    if args.trace:
        metrics, samples, requests = measure_layers(args, wl, lib, rounds,
                                                    tally, speed)
        units = dict(PER_LAYER)
    else:
        metrics, samples, requests = measure_end_to_end(
            args, wl, lib, rounds, setups, tally, speed)
        units = dict(END_TO_END)
    print(f"{requests} timed requests")
    if wl.name == "large":
        print(f"output sha256 {tally.digest.hexdigest()}")
    for name, value in metrics.items():
        extra = f" ({samples[name]})" if name in samples else ""
        print(f"{name} = {value} {units[name]}{extra}")
    print(f"fail_ratio = {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} answer checks)")
    for line in tally.failures[:20]:
        print(f"failure: {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for w in workloads.WORKLOADS)
    if not (SRC / "arcsupport" / "__init__.py").is_file():
        print(f"error: no arcsupport package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
