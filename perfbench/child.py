"""One fresh benchmark process: set up one workload, then run one pass.

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE WORKDIR [SPANS_FILE]

SECONDS sizes the pass (see workloads.py). MODE is "pass" (untraced),
"traced" (every layer wrapped; the spans go to SPANS_FILE) or "setup" (set
up and stop). The process prints one JSON object as its last line. Its
`setup_s` runs from before `import allotment` to the moment the workload's
inputs are ready; `scaled_setup_s` is that time at the reference speed of
measure.py, by the speed probes taken right after it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads
from measure import PROBE_WINDOW, REFERENCE_PROBE_S, Pass, speed_probe

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> dict:
    workload, seed, seconds, mode, workdir = argv[:5]
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import allotment  # noqa: F401  (its import is part of set-up)

    build = workloads.WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        spans.install(tracer)
        run = tracer.call("bench.setup", lambda: build(seed, seconds, workdir))
    else:
        run = build(seed, seconds, workdir)
    setup_s = time.perf_counter() - start
    probe = statistics.median(speed_probe() for _ in range(PROBE_WINDOW))
    result = {"setup_s": setup_s, "scaled_setup_s": setup_s * REFERENCE_PROBE_S / probe}
    if mode == "setup":
        return result

    p = Pass(tracer)
    run(p)
    result.update(p.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, sum(p.latencies))
        result["layers"].update(p.counters)
        result["work_counters"] = dict(spans.work_counters(tracer), **p.counters)
        tracer.write(Path(argv[5]))
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
