"""Benchmark of the allotment package: four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each pass is made by a fresh single-threaded child process (child.py) over
inputs generated from the seed, sized to take about S / PASSES seconds.

--trace 0  PASSES untraced passes over the same inputs, one per process.
           Every timing is scaled to the reference speed by the speed
           probes taken around it (see measure.py); an item's latency is
           the median of its PASSES scaled timings, and peak_rss_mb the
           median over the passes. setup_s is the median scaled set-up
           time of SETUPS processes: the PASSES passes and SETUPS - PASSES
           more that set up and stop. Prints the end-to-end metrics.
--trace 1  one untraced pass and two traced passes; prints the per-layer
           metrics of the first traced pass, the tracing overhead (traced
           minus untraced wall) and whether the two traced passes counted
           exactly the same work. Its times are scaled to the reference
           speed by the median speed probe of their pass.

Why scaled timings: a shared 2-vCPU Xeon VM was seen to change speed by
1.7x (at times 2.5x) for seconds to minutes at a time, CPU time included,
so a whole run can fall in a fast or a slow spell and no median over its
passes removes that. A stdlib-only Fraction loop slows with the host but
not with the package; timings divided by it and multiplied by its
reference time compare across spells. Raw pass walls and the pass speeds
are in the record.

Every item's output is checked against facts from the paper (facts.py); a
failed check counts toward error_rate and does not stop the run. The line
before the last is a record: environment, Fraction-probe timings before and
after the run, error rate, tail percentile, item count and output digest.
The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import environment, fraction_probe, timing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PASSES = 5
SETUPS = 9  # set-ups per --trace 0 run: one per pass, the rest on their own
TIME_LIMIT_S = 170  # the whole run, children included

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_yield")) or name == "trace.counters_repeat":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, workdir: Path, deadline: float, spans_file=None) -> dict:
    command = [
        sys.executable,
        str(HERE / "child.py"),
        args.workload,
        str(args.seed),
        str(args.seconds / PASSES),
        mode,
        str(workdir),
    ]
    if spans_file is not None:
        command.append(str(spans_file))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {mode} child")
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded the time limit") from exc
    if done.returncode != 0:
        raise ChildFailed(
            f"{mode} child exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_plain(args, workdir: Path, deadline: float):
    passes = [run_child(args, "pass", workdir, deadline) for _ in range(PASSES)]
    setups = passes + [
        run_child(args, "setup", workdir, deadline) for _ in range(SETUPS - PASSES)
    ]
    # every pass runs the same items in the same order (the digests say so)
    per_item = [
        statistics.median(timings)
        for timings in zip(*(p["scaled_latencies"] for p in passes))
    ]
    figures = timing(per_item)
    values = dict(
        figures,
        setup_s=statistics.median(p["scaled_setup_s"] for p in setups),
        peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in passes),
    )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    record = {
        "items": figures["items"],
        "tail_percentile": figures["tail_percentile"],
        "pass_wall_s": [sum(p["latencies"]) for p in passes],
        "pass_speed": [p["speed"] for p in passes],
        "pass_probes": [p["probes"] for p in passes],
        "setup_samples_s": [p["setup_s"] for p in setups],
    }
    return metrics, passes, record


def measure_traced(args, workdir: Path, deadline: float):
    plain = run_child(args, "pass", workdir, deadline)
    first, second = (
        run_child(
            args, "traced", workdir, deadline, OUT / f"spans-{args.workload}-{label}.bin"
        )
        for label in ("a", "b")
    )
    repeat = first["work_counters"] == second["work_counters"]
    # seconds at the reference speed, by each pass's median speed probe
    untraced_wall = sum(plain["latencies"]) * plain["speed"]
    values = {
        name: value * first["speed"] if name.endswith("_s") else value
        for name, value in first["layers"].items()
    }
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
    values["trace.counters_repeat"] = 1 if repeat else 0
    metrics = {
        name: {"value": value, "unit": per_layer_unit(name)}
        for name, value in sorted(values.items())
    }
    record = {
        "untraced_wall_s": sum(plain["latencies"]),
        "traced_wall_s": [sum(first["latencies"]), sum(second["latencies"])],
        "pass_speed": [p["speed"] for p in (plain, first, second)],
        "counters_repeat": repeat,
        "counter_differences": sorted(
            key
            for key in set(first["work_counters"]) | set(second["work_counters"])
            if first["work_counters"].get(key) != second["work_counters"].get(key)
        ),
        "work_counters": first["work_counters"],
    }
    return metrics, [plain, first, second], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "allotment" / "__init__.py").is_file():
        print(f"error: no allotment package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    probe_before = fraction_probe()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        measure = measure_traced if args.trace else measure_plain
        try:
            metrics, passes, record = measure(args, Path(workdir), deadline)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    probe_after = fraction_probe()

    digests = sorted({p["digest"] for p in passes})
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    record.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(ROOT, args.seed),
        probe_before_s=probe_before,
        probe_after_s=probe_after,
        error_rate=failed / attempted,
        digest=digests[0] if len(digests) == 1 else digests,
        failures=[f for p in passes for f in p["failures"]][:20],
    )
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
