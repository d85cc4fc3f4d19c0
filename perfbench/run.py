#!/usr/bin/env python3
"""Run one impbox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  The command generates the seed's documents, sends them to
impbox in a closed loop with one client for ``--seconds``, checks every
answer, and prints one line per metric followed by a JSON summary as
the last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps every layer's functions and reports per-layer
metrics instead, and writes the span log to ``perfbench/.out/``.
Exits 1 when any answer is wrong, 2 when the library is missing.

The machine's speed drifts by up to 2x over seconds when its cores are
shared.  Every reported time is therefore scaled to a reference speed:
a fixed slice of pure-Python ``Fraction`` arithmetic, which no impbox
change can touch, is timed before and after each timed piece of work,
and the work's wall time is multiplied by the reference slice time over
the mean of the two.  The raw wall-clock rate is printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, corpus

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
WORK = HERE / ".work"
OUT = HERE / ".out"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
#: wall time of ``calibration_s`` at reference speed
REFERENCE_CALIBRATION_S = 0.002
#: work timed between calibrations while setting up
SCALE_CHUNK_S = 0.02
#: the tail is the highest percentile with this many requests beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "doc_s_p50": "s",
    "doc_s_tail": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    **{f"{layer}.calls": "count/req" for layer in LAYERS},
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    "credal.lps": "count/req",
    "credal.distinct_lp_ratio": "ratio",
    "docio.parse_s": "s/req",
    "docio.bytes_in": "B/req",
    "docio.serialize_pct": "%",
    "docio.bytes_out": "B/req",
    "space.events_enumerated": "count/req",
    "capacity.is_2_monotone_pct": "%",
    "trace.request_s": "s/req",
    "trace.overhead_s": "s/req",
}


def calibration_s() -> float:
    """Wall time of a fixed slice of pure-Python Fraction arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7, i % 11 + 1) * Fraction(1, i % 13 + 1)
    return time.perf_counter() - start


class ScaledClock:
    """Scales wall times by the machine's speed right around them."""

    def __init__(self):
        self._before = calibration_s()

    def scale(self, wall_s: float) -> float:
        """Call right after the timed work; returns reference-speed seconds."""
        after = calibration_s()
        factor = (self._before + after) / (2 * REFERENCE_CALIBRATION_S)
        self._before = after
        return wall_s / factor


_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
    "clock = run.ScaledClock(); t = time.perf_counter(); run.import_impbox(); "
    "print(clock.scale(time.perf_counter() - t))"
)


def import_s() -> float:
    """Reference-speed time to import impbox in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def import_impbox() -> None:
    """Import the checkout's impbox, or exit 2 when it is missing."""
    if not (SRC / "impbox" / "__init__.py").is_file():
        print(f"error: no impbox sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import impbox.cli

    if Path(impbox.__file__).resolve().parent != SRC / "impbox":
        print(f"error: imported impbox from {impbox.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Stats:
    #: per request, in reference-speed seconds
    times: list[float] = field(default_factory=list)
    #: per request, the events of a correct answer and 0 otherwise
    events: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)


def setup(workload, seed: int, rounds: int | None, workdir: Path) -> tuple[list, float]:
    """Generate the seed's documents and write them.

    Returns the (doc, path) pairs and the reference-speed seconds spent.
    The clock is calibrated after every SCALE_CHUNK_S of work, because
    one calibration before and after the whole set-up scaled it poorly.
    """
    clock = ScaledClock()
    requests = []
    elapsed_s = 0.0
    chunk_s = 0.0
    for i, doc in enumerate(corpus(workload, seed, rounds)):
        t0 = time.perf_counter()
        path = workdir / f"{i:04d}.json"
        path.write_text(doc.text(), encoding="utf-8")
        chunk_s += time.perf_counter() - t0
        requests.append((doc, str(path)))
        if chunk_s >= SCALE_CHUNK_S:
            elapsed_s += clock.scale(chunk_s)
            chunk_s = 0.0
    return requests, elapsed_s + clock.scale(chunk_s)


def measure(workload, requests, golden, *, seconds=None, count=None, tracer=None) -> Stats:
    """Closed loop over ``requests`` until ``seconds`` pass or ``count`` are sent."""
    stats = Stats()
    clock = ScaledClock()
    start = time.perf_counter()
    i = 0
    while True:
        doc, path = requests[i % len(requests)]
        if tracer is not None:
            tracer.start_request(i)
        t0 = time.perf_counter()
        try:
            answer = workload.request(path)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            answer = None
        wall_s = time.perf_counter() - t0
        stats.wall_s += wall_s
        stats.times.append(clock.scale(wall_s))
        if answer is not None and workload.answer_key(doc, answer) == workload.expected(doc, golden):
            stats.events.append(doc.events)
        else:
            stats.events.append(0)
            stats.failed += 1
            print(f"FAIL {doc.id}", file=sys.stderr)
        i += 1
        if count is not None and i >= count:
            return stats
        if seconds is not None and time.perf_counter() - start >= seconds:
            return stats


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND requests
    beyond it; the median when there are too few requests."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def whole_rounds(stats: Stats, round_size: int) -> int:
    """Requests in the completed rounds, so every run weighs the strata
    alike; all requests when not even one round completed."""
    n = stats.attempted
    return n - n % round_size or n


def end_to_end_metrics(stats: Stats, setup_s: float, round_size: int) -> dict[str, float]:
    """Timings over the completed rounds; ``ok_ratio`` over all requests."""
    counted = whole_rounds(stats, round_size)
    times = stats.times[:counted]
    return {
        "setup_s": setup_s,
        "events_per_s": sum(stats.events[:counted]) / sum(times),
        "doc_s_p50": statistics.median(times),
        "doc_s_tail": tail(times)[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - stats.failed / stats.attempted,
    }


def per_layer_metrics(tracer, traced: Stats, untraced: Stats) -> dict[str, float]:
    n = traced.attempted
    busy = sum(traced.times)
    # span times are wall times; shares are taken of the traced wall time
    speed = busy / traced.wall_s

    def pct(seconds: float) -> float:
        return 100.0 * seconds / traced.wall_s

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls[layer] / n
        metrics[f"{layer}.self_pct"] = pct(tracer.self_s[layer])
    metrics.update(
        {
            "credal.lps": tracer.lps_solved / n,
            "credal.distinct_lp_ratio": (
                tracer.lps_distinct / tracer.lps_solved if tracer.lps_solved else 0.0
            ),
            "docio.parse_s": tracer.inclusive_s["docio.parse"] * speed / n,
            "docio.bytes_in": tracer.bytes_in / n,
            "docio.serialize_pct": pct(tracer.inclusive_s["docio.serialize"]),
            "docio.bytes_out": tracer.bytes_out / n,
            "space.events_enumerated": tracer.yields["space.enumerate_events"] / n,
            "capacity.is_2_monotone_pct": pct(tracer.inclusive_s["capacity.is_2_monotone"]),
            "trace.request_s": busy / n,
            "trace.overhead_s": (busy - sum(untraced.times)) / n,
        }
    )
    return metrics


def load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    rounds: int | None = None,
    golden: dict | None = None,
) -> dict:
    """Set up, measure and check one workload; returns the summary object.

    ``rounds`` shrinks the corpus and ``golden`` replaces the recorded
    answers; both exist for the smoke test.
    """
    workload = WORKLOADS[name]
    golden = load_golden() if golden is None else golden
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            requests, generate_s = setup(workload, seed, rounds, workdir)
            setup_times.append(import_s() + generate_s)
        setup_s = statistics.median(setup_times)

        measure(workload, requests[:1], golden, count=1)  # warm-up, not counted
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                stats = measure(workload, requests, golden, seconds=seconds, tracer=tracer)
            finally:
                tracer.uninstall()
            untraced = measure(workload, requests, golden, count=stats.attempted)
            metrics, units = per_layer_metrics(tracer, stats, untraced), PER_LAYER
            tracer.write_spans(OUT / f"spans-{name}-seed{seed}.tsv")
        else:
            stats = measure(workload, requests, golden, seconds=seconds)
            metrics = end_to_end_metrics(stats, setup_s, len(workload.strata))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = whole_rounds(stats, len(workload.strata))
    return {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": (
            f"tail = p{tail(stats.times[:counted])[0]:.1f} of {counted} requests, "
            f"fail_ratio {stats.failed / stats.attempted:.6g}, "
            f"unscaled events_per_s {sum(stats.events) / stats.wall_s:.6g}"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_impbox()
    warnings.simplefilter("ignore", UserWarning)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    notes = result.pop("notes")
    for key, metric in result["metrics"].items():
        print(f"{args.workload}  {key:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}  {notes}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
