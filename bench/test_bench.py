"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import answers  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _large_run(lib, seed):
    rounds = workloads.build_large(lib, seed)
    tally = run.Tally()
    run.run_cycle(lib, workloads.WORKLOADS["large"], rounds[0][:2],
                  workloads.large_request, tally, pace.Pace(), digest=True)
    return workloads.fingerprint(rounds), tally.digest.hexdigest(), tally


def test_same_seed_same_inputs_and_output_digest(lib):
    first, second = _large_run(lib, 3), _large_run(lib, 3)
    assert first[:2] == second[:2]
    assert first[2].failed == 0 and first[2].attempted == 10
    assert _large_run(lib, 4)[0] != first[0]
    for build in (workloads.build_sweep, workloads.build_fuzz):
        assert (workloads.fingerprint(build(lib, 3))
                == workloads.fingerprint(build(lib, 3)))


def test_star_fan_is_simple_with_half_its_nodes_on_the_hull(lib):
    import numpy as np
    nodes = workloads.star_fan(101, np.random.default_rng(0))
    arc = lib.arcio.parse_arc(workloads.arc_json(nodes))
    assert lib.arcio.validate_simple(arc).ok
    assert len(lib.hull.convex_hull(arc.nodes)) == 51


def test_self_time_subtracts_the_children():
    #  0 root [0, 100]
    #  1   a [10, 40]    2 c [20, 30]    3 f [22, 27] (child of c)
    #  4   b [50, 90]    5 d [55, 65]    6 e [70, 80]
    start = [0, 10, 20, 22, 50, 55, 70]
    end = [100, 40, 30, 27, 90, 65, 80]
    parent = [-1, 0, 1, 2, 0, 4, 4]
    assert spans.self_times(start, end, parent) == [30, 20, 5, 5, 20, 10, 10]


def test_tracer_nests_spans_and_restores_functions(lib):
    original = lib.solver.analyze_arc
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lib.solver.analyze_arc is not original
        assert lib.oracle.convex_hull is lib.hull.convex_hull
        tracer.active = True
        arc = lib.arcgen.generate_arc(12, 5, "zigzag")
        lib.solver.analyze_arc(arc)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert lib.solver.analyze_arc is original
    restored = vars(lib.report.AnalysisReport)["from_analysis"]
    assert not hasattr(restored.__func__, "__wrapped__")
    names = [tracer.names[i] for i in tracer.name_of]
    assert names[0] == "arcgen.generate_arc"
    assert list(tracer.request) == [0] * names.index("solver.analyze_arc") + [
        1] * (len(names) - names.index("solver.analyze_arc"))
    assert tracer.calls["geom.orient"] > 0
    own = spans.self_times(tracer.start, tracer.end, tracer.parent)
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert sum(own) == sum(tracer.end[i] - tracer.start[i] for i in roots)


def test_wrong_pair_raises_fail_ratio(lib):
    arc = lib.arcgen.generate_arc(20, 9, "uncross")
    analysis = lib.solver.analyze_arc(arc)
    good = lib.solver.solve_at_angle(analysis, 30.0)
    pair = good.pairs[0]
    wrong = [dataclasses.replace(pair, v=pair.w),
             dataclasses.replace(pair, m=pair.m._replace(px=pair.m.px + 0.1)),
             dataclasses.replace(pair, n=pair.n._replace(dir_deg=pair.n.dir_deg + 1))]
    item = workloads.Item("test", None, None)
    wl = workloads.WORKLOADS["large"]
    tally = run.Tally()
    tally.record(lib, wl, item, workloads.Outcome(analysis, [30.0], {}, [good]))
    assert (tally.failed, tally.attempted) == (0, 1)
    for bad in wrong:
        solution = dataclasses.replace(good, pairs=(bad,) + good.pairs[1:])
        tally.record(lib, wl, item,
                     workloads.Outcome(analysis, [30.0], {}, [solution]))
    missing = dataclasses.replace(good, pairs=good.pairs[1:])
    tally.record(lib, wl, item, workloads.Outcome(analysis, [30.0], {}, [missing]))
    assert (tally.failed, tally.attempted) == (4, 5)
    tally.record(lib, wl, item, ValueError("boom"))
    assert (tally.failed, tally.attempted) == (4 + wl.checks, 5 + wl.checks)


def test_expected_pair_count_follows_the_aspect_angles():
    count = answers.expected_pair_count
    assert count(0.0, 100.0, -50.0, 1e-9) == 1
    assert count(40.0, 100.0, -50.0, 1e-9) == 2
    assert count(50.0, 100.0, -50.0, 1e-9) == 2
    assert count(70.0, 100.0, -50.0, 1e-9) == 1
    assert count(120.0, 100.0, -50.0, 1e-9) == 0


def test_p90_is_withheld_with_fewer_than_ten_samples_beyond():
    assert run.percentile(range(99), 90) is None
    assert run.percentile(range(100), 90) == 89
    assert run.percentile(range(1, 101), 50) == 50


def test_pace_runs_its_share_and_scales_by_the_mean_reference_time():
    speed = pace.Pace()
    speed.after(100_000_000)
    spent = sum(speed.ns)
    assert pace.SHARE * 100_000_000 <= spent < pace.SHARE * 100_000_000 + max(
        speed.ns)
    speed.ns = [100] * pace.WINDOW + [300] * pace.WINDOW + [500] * pace.WINDOW
    assert speed.scale(pace.WINDOW) == pace.REF_NS / 200
    assert speed.scale(0) == pace.REF_NS / 100
    assert speed.scale(3 * pace.WINDOW) == pace.REF_NS / 500


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
