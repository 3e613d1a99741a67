"""In-memory spans recorded around library calls, from outside the library.

``Tracer.install`` replaces each listed function by a wrapper in its
defining module and in every other ``arcsupport`` module that imported it
by name, so calls between library modules are seen as well as calls from
the benchmark.  A span is one row of parallel arrays: name, start, end,
parent span and request id.  A span opened with no span open starts a new
request.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute path) of every function that gets a span
SPANS = (
    ("arcgen", "generate_arc"),
    ("arcio", "parse_arc"),
    ("arcio", "validate_simple"),
    ("arcio", "is_segment_arc"),
    ("hull", "convex_hull"),
    ("hull", "support_contact"),
    ("guidepath", "build_guide_path"),
    ("locales", "decompose_locales"),
    ("locales", "tilt_table"),
    ("schematic", "build_schematic"),
    ("schematic", "query_angle"),
    ("solver", "analyze_arc"),
    ("solver", "solve_at_angle"),
    ("solver", "realize_solution"),
    ("oracle", "compare_with_solver"),
    ("oracle", "brute_force_configs"),
    ("report", "AnalysisReport.from_analysis"),
    ("report", "AnalysisReport.to_json"),
    ("svg", "render_scene_for"),
    ("svg", "render_schematic"),
)

# functions that are only counted: they are called millions of times, and
# their time stays in their callers' self time
COUNTED = (("geom", "orient"), ("geom", "segments_intersect"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.configs = 0        # raw configurations the oracle found
        self.active = False
        self._stack: list[int] = []
        self._requests = -1
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call while the tracer is active."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        configs = name == "oracle.brute_force_configs"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            if self._stack:
                self.parent.append(self._stack[-1])
            else:
                self.parent.append(-1)
                self._requests += 1
            self.name_of.append(nid)
            self.request.append(self._requests)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._stack.pop()
            if configs:
                self.configs += len(result)
            return result
        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls while the tracer is active."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, package: str = "arcsupport") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for kind, table in ((self.wrap, SPANS), (self.count, COUNTED)):
            for mod, path in table:
                name = f"{mod}.{path}"
                owner = sys.modules[f"{package}.{mod}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    self._patch_method(getattr(owner, cls_name), attr,
                                       kind, name)
                    continue
                original = getattr(owner, path)
                wrapper = kind(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)

    def _patch_method(self, cls, attr, kind, name) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(kind(name, raw.__func__)))
        else:
            self._set(cls, attr, kind(name, raw))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,request,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.request[i]},{self.parent[i]},"
                         f"{self.names[self.name_of[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")


def self_times(start, end, parent) -> list[int]:
    """Per span: its duration minus its children's durations.  Spans are
    opened and closed on one stack, so children nest inside their parent
    and never overlap one another."""
    out = [end[i] - start[i] for i in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
