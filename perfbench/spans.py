"""Tracing of the allotment layers from outside the package.

`install` wraps every public function of each `allotment` module, plus the
methods through which the hot paths run (`Rule.__call__`, the dataclass
`__post_init__` constructors and `disutility`). Names that other modules
re-bound at import (`from .levels import solve_min_level`, the
`CLAIMS_RULES` and `AXIOM_CHECKERS` tables, ...) are replaced as well, so
every call goes through a wrapper.

Each wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory; `write` dumps them when the run ends. A layer is a
module of the package, and its self time is the sum over its spans of the
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence

LAYERS = (
    "levels",
    "claims",
    "economy",
    "preferences",
    "rules",
    "manipulation",
    "axioms",
    "sampling",
    "rational",
    "cli",
)

# methods wrapped besides the public module-level functions
METHODS = {
    "claims": {"ClaimsProblem": ("__post_init__",)},
    "economy": {
        "Economy": ("__post_init__",),
        "Allotment": ("__post_init__",),
    },
    "preferences": {
        "SinglePeaked": ("__post_init__", "disutility"),
        "SinglePlateaued": ("__post_init__", "disutility"),
    },
    "rules": {"Rule": ("__call__",)},
}


class Tracer:
    """Flat, append-only span store for one thread."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self.raised: Counter = Counter()
        self.extra: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after=None) -> Callable:
        """fn with a span around every call; after(args, result) runs on
        each normal return to update derived counters."""
        nid = self.name_id(name)
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        raised = self.raised
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def call(self, name: str, fn: Callable[[], object]):
        """Run fn() inside a span named `name`."""
        return self.wrap(name, fn)()

    def counts(self) -> Counter:
        """Calls per span name, plus the derived counters; these depend
        only on the work done, so two runs of one input must agree."""
        counts = Counter()
        for nid, calls in Counter(self.name_col).items():
            counts[self.names[nid]] = calls
        for name, calls in self.raised.items():
            counts[name + "!raised"] = calls
        counts.update(self.extra)
        counts.update(self._child_counts())
        return counts

    def _child_counts(self) -> Counter:
        """Calls per (parent name, child name) pair, for the counters that
        are defined by where a call happens."""
        pairs = {
            (self._ids.get(parent), self._ids.get(child)): key
            for parent, child, key in CHILD_COUNTERS
        }
        found = Counter()
        names, parents = self.name_col, self.parent_col
        for index, nid in enumerate(names):
            parent = parents[index]
            if parent >= 0:
                key = pairs.get((names[parent], nid))
                if key is not None:
                    found[key] += 1
        return found

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header line, then the four columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            header = {
                "names": self.names,
                "spans": len(self.name_col),
                "columns": ["name:H", "parent:q", "start:d", "end:d"],
            }
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.name_col,
                self.parent_col,
                self.start_col,
                self.end_col,
            ):
                column.tofile(handle)


# (parent span, child span, counter): a child call counted only under that parent
CHILD_COUNTERS = (
    (
        "manipulation.find_obvious_manipulation",
        "manipulation.is_obvious_manipulation",
        "manipulation.misreports",
    ),
    (
        "manipulation.option_set_sampled",
        "rules.Rule.__call__",
        "manipulation.sampled_rule_calls",
    ),
)


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> array:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once, and a
    child sticking out of its parent counts only inside it)."""
    n = len(parents)
    order: Iterable[int] = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=starts.__getitem__)
    covered = array("d", bytes(8 * n))
    run_lo = array("d", bytes(8 * n))
    run_hi = array("d", bytes(8 * n))
    has_run = bytearray(n)
    # children of one parent arrive in start order, so their union is a
    # sequence of disjoint runs that can be merged as they come
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p])
        hi = min(ends[i], ends[p])
        if hi <= lo:
            continue
        if has_run[p] and lo <= run_hi[p]:
            if hi > run_hi[p]:
                run_hi[p] = hi
            continue
        if has_run[p]:
            covered[p] += run_hi[p] - run_lo[p]
        run_lo[p], run_hi[p], has_run[p] = lo, hi, 1
    for p in range(n):
        if has_run[p]:
            covered[p] += run_hi[p] - run_lo[p]
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


def self_by_layer(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer (module), plus "bench" for the harness."""
    own = self_times(tracer.parent_col, tracer.start_col, tracer.end_col)
    per_name = [0.0] * len(tracer.names)
    for nid, seconds in zip(tracer.name_col, own):
        per_name[nid] += seconds
    totals: Dict[str, float] = {}
    for name, seconds in zip(tracer.names, per_name):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


# ---------------------------------------------------------------------------
# installing the wrappers


def _after_hook(tracer: Tracer, layer: str, name: str):
    """The derived counter a wrapped function feeds from its arguments or
    result, if any."""
    extra = tracer.extra
    if layer == "levels" and name.startswith("solve_"):

        def after(args, result):
            extra["levels.breakpoints"] += len(args[0])

    elif layer == "axioms" and name.startswith("check_"):

        def after(args, result):
            extra["axioms.economies_checked"] += result.checked

    elif layer == "manipulation" and name == "option_set_sampled":

        def after(args, result):
            extra["manipulation.sampled_outcomes"] += len(result.outcomes)

    else:
        return None
    return after


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the package's layers; returns a function that undoes it."""
    package = importlib.import_module("allotment")
    modules = [importlib.import_module(f"allotment.{layer}") for layer in LAYERS]
    replaced: Dict[int, Callable] = {}  # id(original) -> wrapper
    undo: List[Callable[[], None]] = []

    for layer, module in zip(LAYERS, modules):
        for name, obj in list(vars(module).items()):
            if (
                name.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            replaced[id(obj)] = tracer.wrap(
                f"{layer}.{name}", obj, _after_hook(tracer, layer, name)
            )
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                original = cls.__dict__[method]
                setattr(
                    cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", original)
                )
                undo.append(
                    lambda cls=cls, method=method, original=original: setattr(
                        cls, method, original
                    )
                )

    for namespace in [package] + modules:
        for name, obj in list(vars(namespace).items()):
            if id(obj) in replaced:
                setattr(namespace, name, replaced[id(obj)])
                undo.append(
                    lambda ns=namespace, name=name, obj=obj: setattr(ns, name, obj)
                )
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
                        undo.append(
                            lambda d=obj, key=key, value=value: d.__setitem__(
                                key, value
                            )
                        )

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> Dict[str, float]:
    """The per-layer figures a traced run reports, by metric name."""
    c = tracer.counts()
    own = self_by_layer(tracer)
    total = sum(own.values())
    sampled_calls = c["manipulation.sampled_rule_calls"]
    metrics = {
        "levels.calls": sum(
            v for k, v in c.items() if k.startswith("levels.solve_") and "!" not in k
        ),
        "levels.breakpoints": c["levels.breakpoints"],
        "claims.calls": c["claims.cea"] + c["claims.cel"] + c["claims.pro"],
        "economy.built": c["economy.Economy.__post_init__"],
        "economy.partitions": c["economy.partition"] + c["economy.endowment_partition"],
        "preferences.built": c["preferences.SinglePeaked.__post_init__"]
        + c["preferences.SinglePlateaued.__post_init__"],
        "preferences.disutility_calls": c["preferences.SinglePeaked.disutility"]
        + c["preferences.SinglePlateaued.disutility"],
        "rules.calls": c["rules.Rule.__call__"],
        "rules.errors": c["rules.Rule.__call__!raised"],
        "manipulation.intervals": c["manipulation.option_set_simple"]
        + c["manipulation.option_set_endowment"],
        "manipulation.misreports": c["manipulation.misreports"],
        "manipulation.option_sets": c["manipulation.option_set_sampled"],
        "manipulation.outcome_yield": (
            c["manipulation.sampled_outcomes"] / sampled_calls if sampled_calls else 0.0
        ),
        "axioms.checks": sum(
            v for k, v in c.items() if k.startswith("axioms.check_") and "!" not in k
        ),
        "axioms.economies_checked": c["axioms.economies_checked"],
        "rational.parsed": c["rational.parse_rational"],
        "rational.formatted": c["rational.format_rational"],
        "cli.calls": c["cli.main"],
        "trace.spans": len(tracer.name_col),
        "trace.wall_s": traced_wall_s,
    }
    for layer in LAYERS + ("bench",):
        seconds = own.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.self_share"] = seconds / total if total else 0.0
    return metrics


def work_counters(tracer: Tracer) -> Dict[str, int]:
    """Every integer counter of a traced run, by name."""
    return dict(sorted(tracer.counts().items()))
