"""Timing of one pass over a workload's items, and the run's environment.

A pass is a closed loop: one caller issues the next item only after the
previous one returns. Each item is timed on its own; its output is then
checked against facts from the paper and folded into the pass digest. The
checks and the digest are not timed.

Between items, once PROBE_EVERY_S of item time has gone by, the pass times
a short stdlib-only Fraction loop (the speed probe, itself untimed for the
items). A shared host changes speed by up to 1.7x in spells of seconds to
minutes, for CPU time as much as for wall time, and the probe slows with
it. An item's speed is REFERENCE_PROBE_S over the median of the
PROBE_WINDOW probes nearest to it, and its speed times its latency is the
latency scaled to the reference speed: on a machine where the probe takes
REFERENCE_PROBE_S, the two agree. The probe never touches the package, so
a change to the package moves the scaled figures as it moves the measured
ones.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

TAIL_ITEMS = 10  # items that must lie beyond the tail percentile
PROBE_EVERY_S = 0.1  # item time between two speed probes in a pass
PROBE_ITERATIONS = 300  # one speed probe: about 3 ms on a 2-vCPU Xeon
REFERENCE_PROBE_S = 0.0033  # the speed probe's time at the reference speed
PROBE_WINDOW = 5  # probes whose median sets an item's speed


def tail_percentile(latencies: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least TAIL_ITEMS items beyond it.

    With the n latencies sorted, that is the nearest-rank percentile at rank
    n - TAIL_ITEMS: exactly TAIL_ITEMS items are larger in rank, and any
    higher percentile would leave fewer. Returns (percentile, value).
    """
    n = len(latencies)
    if n <= TAIL_ITEMS:
        raise ValueError(
            f"a tail needs more than {TAIL_ITEMS} items, got {n}"
        )
    rank = n - TAIL_ITEMS
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


class Pass:
    """One timed pass: item latencies, failures, and a digest of outputs.

    `step` runs one item. An item fails when it raises or when `check`
    rejects its output; a failure is counted and the pass goes on.
    `tracer`, when given, wraps each item in a "bench.item" span. The pass
    probes the machine's speed when it starts and every PROBE_EVERY_S of
    item time after that.
    """

    def __init__(self, tracer=None):
        self.latencies: List[float] = []
        self.probes: List[float] = [speed_probe()]
        self.probed_after: List[int] = [0]  # items done before each probe
        self._since_probe = 0.0
        self.failed = 0
        self.failures: List[str] = []
        self.counters = {"cli.stdout_bytes": 0}
        self._digest = hashlib.sha256()
        self._tracer = tracer

    def step(
        self,
        label: str,
        fn: Callable[[], object],
        check: Callable[[object], Tuple[bool, str]],
    ):
        """Time fn(), then check its output. Returns the output, or None
        when the item raised."""
        tracer = self._tracer
        start = time.perf_counter()
        try:
            output = fn() if tracer is None else tracer.call("bench.item", fn)
        except Exception as exc:  # the pass must go on; the item is counted failed
            self._timed(time.perf_counter() - start)
            self._record(label, False, f"raised {type(exc).__name__}: {exc}")
            return None
        self._timed(time.perf_counter() - start)
        try:
            ok, summary = check(output)
        except Exception as exc:  # a malformed output fails its check
            ok, summary = False, f"check raised {type(exc).__name__}: {exc}"
        self._record(label, ok, summary)
        return output

    def _timed(self, latency: float) -> None:
        self.latencies.append(latency)
        self._since_probe += latency
        if self._since_probe >= PROBE_EVERY_S:
            self.probes.append(speed_probe())
            self.probed_after.append(len(self.latencies))
            self._since_probe = 0.0

    def fail(self, label: str, reason: str) -> None:
        """Count a failed check that spans several items (e.g. an axiom
        that never failed although the paper says it must)."""
        self._record(label, False, reason)

    def _record(self, label: str, ok: bool, summary: str) -> None:
        self._digest.update(f"{label}={summary}\n".encode())
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {summary}")

    def scaled_latencies(self) -> List[float]:
        """Each item's latency at the reference speed."""
        return scaled(self.latencies, self.probes, self.probed_after)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def summary(self) -> dict:
        return {
            "latencies": self.latencies,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "failures": self.failures,
            "digest": self.digest,
            "scaled_latencies": self.scaled_latencies(),
            "probes": len(self.probes),
            "speed": REFERENCE_PROBE_S / statistics.median(self.probes),
        }


def scaled(
    latencies: Sequence[float], probes: Sequence[float], probed_after: Sequence[int]
) -> List[float]:
    """Latencies at the reference speed. Probe j ran after probed_after[j]
    items; item i (0-based) ran between the last probe taken after at most
    i items and the next one, and takes the median of the PROBE_WINDOW
    probes centred on that gap (clipped to the pass)."""
    out = []
    half = PROBE_WINDOW // 2
    for i, latency in enumerate(latencies):
        after = bisect.bisect_right(probed_after, i)  # probes before item i
        lo = max(0, min(after - half, len(probes) - PROBE_WINDOW))
        local = statistics.median(probes[lo : lo + PROBE_WINDOW])
        out.append(latency * REFERENCE_PROBE_S / local)
    return out


def timing(latencies: Sequence[float]) -> dict:
    """The timing figures of one pass, from its item latencies in seconds."""
    percentile, tail = tail_percentile(latencies)
    return {
        "wall_s": sum(latencies),
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        "item_tail_ms": 1000.0 * tail,
        "tail_percentile": percentile,
        "items": len(latencies),
    }


def speed_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed stdlib-only Fraction loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, iterations + 1):
        total += Fraction(k % 97 + 1, k % 89 + 2) * Fraction(3, k + 1)
        if total > 50:
            total -= 50
    return time.perf_counter() - start


def fraction_probe(rounds: int = 3) -> float:
    """A longer speed probe (median of rounds), run before and after each
    benchmark run, so a slow or fast machine shows in the record next to
    the figures it produced."""
    return statistics.median(speed_probe(6000) for _ in range(rounds))


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit(root: Path) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, so a record names the code it ran
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "allotment").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
