"""The decision-path benchmark: one workload per run, one JSON line of results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 1 \\
        --trace-out sweep.trace.json

``--trace 0`` reports the end-to-end metrics (``decision_us``, ``setup_s``,
``peak_mb``), measured with tracing off; timings are calibrated against a
fixed loop timed beside them (``calibration.py``).  ``--trace 1`` reports the
per-layer metrics from a separate traced pass.  Every run first replays the
workload at the pinned seed and compares its output digest with
``digests.json``, then checks invariants and determinism on every
repetition.  The last line of standard output is the JSON result; the exit
code is non-zero when any check failed.  See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

# One BLAS thread, set before numpy loads.  OpenBLAS otherwise starts a worker
# per core that spins between the models' tiny solves: the run would use both
# cores of a 2-core machine and time the scheduler, not the program.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from calibration import REFERENCE_PROBE_SECONDS, Calibrated  # noqa: E402  (numpy after the pin)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fewest timed repetitions behind a median, whatever ``--seconds`` says.
MIN_REPS = 5
#: Set-up is timed in batches of builds lasting about this long (a slow
#: build is a batch of one), at least this many batches and this long.
SETUP_BATCH_SECONDS = 0.05
SETUP_MIN_BATCHES = 7
SETUP_MIN_SECONDS = 2.0


class Run:
    """Bookkeeping of one benchmark run: operations, failures, findings."""

    def __init__(self, workload, seed: int):
        from workloads import PINNED_SEED, digest

        self.workload = workload
        self.pinned_seed = PINNED_SEED
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest_mismatch = False
        self.reference: Optional[Dict[str, object]] = None
        self.inputs = workload.inputs(seed)
        self.state = None
        #: Set to a list to keep the first traced repetition as Chrome events.
        self.chrome: Optional[list] = None

    # ------------------------------------------------------------------ #
    def build(self):
        return self.workload.build(self.inputs)

    def repetition(self, tracer=None):
        """One timed repetition; returns ``(outcome, seconds, traced fold)``."""
        w = self.workload
        if not w.reusable:
            state = self.build()
        else:
            if self.state is None:
                self.state = self.build()
            state = self.state
        if tracer is not None:
            tracer.discard()  # spans of the untimed build
        gc.collect()
        start = time.perf_counter()
        result = w.run(state)
        seconds = time.perf_counter() - start
        folded = None
        if tracer is not None:
            if self.chrome == []:
                self.chrome.extend(tracer.chrome_events(start))
            folded = tracer.take_repetition()
        outcome = w.outcome(state, result)
        self.record(outcome)
        return outcome, seconds, folded

    def record(self, outcome, pinned: Optional[str] = None) -> None:
        """Count the repetition's operations and check its outputs."""
        self.attempted += outcome.decisions
        self.failed += outcome.failed
        self.problems.extend(outcome.violations)
        found = self.digest(outcome.outputs)
        if pinned is not None:
            if found != pinned:
                self.digest_mismatch = True
                self.problems.append(
                    f"output digest at pinned seed {self.pinned_seed} is {found}, "
                    f"digests.json pins {pinned}"
                )
        elif self.reference is not None:
            if found != self.reference["digest"]:
                self.digest_mismatch = True
                self.problems.append("repetitions of the same inputs gave different outputs")
            if outcome.decisions != self.reference["decisions"]:
                self.problems.append(
                    f"repetition made {outcome.decisions} decisions, "
                    f"the first made {self.reference['decisions']}"
                )

    # ------------------------------------------------------------------ #
    def verify_pinned(self) -> None:
        """Replay the pinned seed and compare with ``digests.json`` (also a warm-up)."""
        pinned = json.loads((HERE / "digests.json").read_text())
        w = self.workload
        state = w.build(w.inputs(self.pinned_seed))
        self.record(w.outcome(state, w.run(state)), pinned=pinned[w.name])

    def warm_up(self, tracer) -> None:
        """One untimed repetition at the run's seed, traced for its work counts."""
        with tracer:
            outcome, _, folded = self.repetition(tracer=tracer)
        self.reference = {"digest": self.digest(outcome.outputs), "decisions": outcome.decisions}
        self.reference["work"] = work_counts(outcome.decisions, folded)
        self.check_work(outcome.decisions, folded)

    def check_work(self, decisions: int, folded) -> None:
        """Work counters repeat exactly; heap traffic stays O(pods + topology changes)."""
        work = work_counts(decisions, folded)
        if work != self.reference["work"]:
            self.problems.append(f"work counters {work} differ from the first repetition's {self.reference['work']}")
        kernel = folded["kernel"]
        bound = 4 * decisions + kernel.get("reschedule_calls", 0)
        if kernel.get("events_processed", 0) > bound:
            self.problems.append(
                f"{kernel['events_processed']} events processed, above 4 x {decisions} pods "
                f"+ {kernel.get('reschedule_calls', 0)} reschedules"
            )

    def setup_seconds(self) -> List[float]:
        """Set-up seconds per build, one reference-seconds sample per batch."""
        gc.collect()
        start = time.perf_counter()
        self.build()  # untimed: sizes the batch
        batch = max(1, round(SETUP_BATCH_SECONDS / (time.perf_counter() - start)))
        calibrated = Calibrated()
        began = time.perf_counter()
        while len(calibrated.samples) < SETUP_MIN_BATCHES or time.perf_counter() - began < SETUP_MIN_SECONDS:
            start = time.perf_counter()
            for _ in range(batch):
                self.build()
            calibrated.add((time.perf_counter() - start) / batch)
        return calibrated.samples

    def timed_loop(self, seconds: float, tracer=None, calibrated: Optional[Calibrated] = None):
        """Repetitions until ``seconds`` pass (and at least :data:`MIN_REPS`).

        With a tracer, untraced and traced repetitions alternate, so both
        sides of the tracing overhead see the same machine noise.  With
        ``calibrated``, each untraced repetition's time is also added to it.
        Returns ``(untraced, traced)`` lists of ``(outcome, seconds, fold)``.
        """
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(untraced) < MIN_REPS or time.perf_counter() < deadline:
            untraced.append(self.repetition())
            if calibrated is not None:
                calibrated.add(untraced[-1][1])
            if tracer is not None:
                with tracer:
                    outcome, elapsed, folded = self.repetition(tracer=tracer)
                self.check_work(outcome.decisions, folded)
                traced.append((outcome, elapsed, folded))
        return untraced, traced

    def peak_mb(self) -> float:
        """Peak traced Python heap of one build plus one repetition, in MB."""
        gc.collect()
        tracemalloc.start()
        try:
            state = self.build()
            result = self.workload.run(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.record(self.workload.outcome(state, result))
        return peak / 1e6


def work_counts(decisions: int, folded) -> Dict[str, int]:
    """The deterministic work counters of one repetition."""
    kernel = folded["kernel"]
    return {
        "work.decisions": decisions,
        "work.model_calls": folded["calls"].get("model", 0),
        "work.kernel_reschedules": kernel.get("reschedule_calls", 0),
        "work.kernel_residents_rescheduled": kernel.get("pods_rescheduled", 0),
        "work.events_processed": kernel.get("events_processed", 0),
    }


def per_decision_us(reps) -> List[float]:
    return [seconds / outcome.decisions * 1e6 for outcome, seconds, _ in reps]


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def say(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<34} {value:>14.6g} {unit:<14} {note}".rstrip())


# --------------------------------------------------------------------- #
def end_to_end(run: Run, seconds: float) -> Dict[str, Dict[str, object]]:
    setup = run.setup_seconds()
    calibrated = Calibrated()
    reps, _ = run.timed_loop(seconds, calibrated=calibrated)
    peak = run.peak_mb()
    decisions = reps[0][0].decisions
    us = [sample / decisions * 1e6 for sample in calibrated.samples]
    lo, mid, hi = quartiles(us)
    s_lo, s_mid, s_hi = quartiles(setup)
    wall = statistics.median(per_decision_us(reps))
    probe = statistics.median(calibrated.probes) * 1e3
    say("decision_us", mid, "us", f"median of {len(us)} reps x {decisions} decisions, IQR {lo:.4g}-{hi:.4g}")
    say("setup_s", s_mid, "s", f"median of {len(setup)} batches of builds, IQR {s_lo:.4g}-{s_hi:.4g}")
    say("peak_mb", peak, "MB", "one build + one repetition under tracemalloc")
    say("wall_decision_us", wall, "us", f"uncalibrated; probe median {probe:.4g} ms, reference {REFERENCE_PROBE_SECONDS * 1e3:g} ms")
    for name, (value, unit) in reps[0][0].quality.items():
        say(name, value, unit, "output at this seed (pinned by the digest at the pinned seed)")
    for name in reps[0][0].latencies:
        pooled = sorted(x for outcome, _, _ in reps for x in outcome.latencies[name])
        high = 99 if name == "recommend" else 95
        for pct in (50, high):
            value = pooled[min(len(pooled) - 1, int(len(pooled) * pct / 100))] * 1e6
            say(f"{name}_p{pct}_us", value, "us", f"per call, {len(pooled)} calls, uncalibrated")
    return {
        "decision_us": metric(mid, "us"),
        "setup_s": metric(s_mid, "s"),
        "peak_mb": metric(peak, "MB"),
    }


def per_layer(run: Run, seconds: float, tracer, trace_out: Optional[str]) -> Dict[str, Dict[str, object]]:
    from tracing import LAYER_NAMES

    if trace_out:
        run.chrome = []
    untraced, traced = run.timed_loop(seconds, tracer=tracer)
    if trace_out:
        Path(trace_out).write_text(json.dumps({"traceEvents": run.chrome, "displayTimeUnit": "ms"}))
        print(f"  wrote {len(run.chrome)} spans of the first traced repetition to {trace_out}")

    decisions = sum(outcome.decisions for outcome, _, _ in traced)
    wall = sum(seconds for _, seconds, _ in traced)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    kernel: Dict[str, float] = {}
    for _, _, folded in traced:
        for into, key in ((self_s, "self_seconds"), (calls, "calls"), (counters, "counters"), (kernel, "kernel")):
            for name, value in folded[key].items():
                into[name] = into.get(name, 0) + value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: Dict[str, Dict[str, object]] = {}
    for layer in LAYER_NAMES:
        busy = self_s.get(layer, 0.0)
        out[f"{layer}.self_us"] = metric(ratio(busy, decisions) * 1e6, "us")
        out[f"{layer}.share"] = metric(ratio(busy, wall), "fraction")
        out[f"{layer}.calls"] = metric(ratio(calls.get(layer, 0), decisions), "calls")
    untraced_us = statistics.median(per_decision_us(untraced))
    traced_us = statistics.median(per_decision_us(traced))
    events = kernel.get("events_processed", 0)
    out.update({
        "model.solves_per_obs": metric(ratio(counters.get("model.solves", 0), counters.get("model.rows", 0)), "ratio"),
        "service.batch_mean": metric(ratio(counters.get("service.completions", 0), counters.get("service.batches", 0)), "count"),
        "kernel.reschedules": metric(ratio(kernel.get("reschedule_calls", 0), decisions), "count"),
        "kernel.residents_per_change": metric(ratio(kernel.get("pods_rescheduled", 0), kernel.get("reschedule_calls", 0)), "count"),
        "kernel.reintegration_us": metric(ratio(kernel.get("reintegration_seconds", 0.0), decisions) * 1e6, "us"),
        "kernel.scheduling_us": metric(ratio(kernel.get("scheduling_seconds", 0.0), decisions) * 1e6, "us"),
        "kernel.placement_us": metric(ratio(kernel.get("placement_seconds", 0.0), decisions) * 1e6, "us"),
        "events.processed": metric(ratio(events, decisions), "count"),
        "events.useful_ratio": metric(ratio(events, events + kernel.get("events_skipped", 0)), "fraction"),
        "trace.overhead": metric(traced_us / untraced_us - 1.0, "fraction"),
        "trace.unattributed": metric(1.0 - ratio(sum(self_s.values()), wall), "fraction"),
    })
    for name, value in run.reference["work"].items():
        out[name] = metric(value, "count")
    for name, entry in out.items():
        say(name, entry["value"], entry["unit"])
    print(f"  ({len(traced)} traced reps, {decisions} decisions; untraced {untraced_us:.4g} us, traced {traced_us:.4g} us per decision)")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="with --trace 1: write one repetition's spans as Chrome trace-event JSON")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"{workload.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    run = Run(workload, args.seed)
    tracer = Tracer()
    metrics: Dict[str, Dict[str, object]] = {}
    try:
        run.verify_pinned()
        run.warm_up(tracer)
        if args.trace:
            metrics = per_layer(run, args.seconds, tracer, args.trace_out)
        else:
            metrics = end_to_end(run, args.seconds)
    except Exception:  # a raised call fails the run; report it, do not hide it
        traceback.print_exc()
        run.problems.append("a call raised; see the traceback on standard error")
        run.failed = run.attempted = max(run.attempted, 1)
    if run.digest_mismatch:
        run.failed = run.attempted
    correct = not run.problems and run.failed == 0
    for problem in dict.fromkeys(run.problems):
        print(f"  CHECK FAILED: {problem}")
    print(f"  error_rate {run.failed / max(run.attempted, 1):.6g} fraction ({run.failed} of {run.attempted} operations failed)")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
