"""Benchmark of the byzpred simulator: protocol cost and host cost.

Run from the repository root:

    python3 bench/run.py --workload unauth-wide --seed 1 --seconds 30 --trace 0

The benchmark drives `byzpred.harness` from outside the package, the way a
sweep does: `expand_sweep`, then `run_point` and `record_bytes` per point.
All work runs in this one process (no sweep workers).  Every point uses the
`adversarial-worst` prediction-error allocation, `alternating` inputs,
`t = max` and scenario seed `--seed`.

Workloads (why each was chosen, and the layer metrics it should move):

    unauth-wide    unauthenticated, n=64, f=t=21, B=4n, vote-poisoner.
                   Widest broadcast fan-out, no signature calls: moves
                   engine.self_s and predictions.tally_classification.self_s;
                   signatures.* and authtools.* stay 0 here.  n=64 rather
                   than 128: the 1.2 s, 61 MB executions at n=128 left a 9-12%
                   run-to-run spread after host scaling, n=64 leaves 3-7%.
    auth-chains    authenticated, n=32, f=t=14, B=4n, grade-splitter.
                   Message chains, signed graded consensus, mostly idle steps:
                   moves signatures.*, authtools.*, adversaries.emit.* and
                   engine.idle_step_share.  n=32 rather than 64: a run then holds
                   about 25 executions of 0.9 s instead of two of 10 s, and
                   its run-to-run spread drops from 15% to 5%.
    catalog-sweep  both variants, n in {4, 7, 16}, f in {0, half, max},
                   B in {0, n, 4n}, all 9 catalog adversaries (396 points),
                   then `replay_record` on every record.  Many short
                   executions: moves verify.verify_execution.self_s,
                   harness.run_point.self_s and harness.record_bytes.self_s,
                   and shows a small-n or other-adversary regression.

A run repeats whole passes over the workload's points, in an order shuffled
by `--seed`, until `--seconds` have elapsed.  Every point is gated: all
verdicts pass, `rounds_elapsed <= round_envelope(scenario)`, later passes
reproduce the first pass's record bytes, and on catalog-sweep
`replay_record` reproduces every record.  A point failing any gate counts in
`failed`, and the run then exits 1 (fail_share = failed / attempted).

Times are scaled to a reference host speed (see HostClock), because the
speed of a shared host drifts by up to 20% within minutes.  The raw times
are printed too.

With `--trace 0` the run prints the end-to-end metrics:

    setup_s       median of 7 fresh processes, spawn to ready (import byzpred
                  plus expand_sweep)
    points_per_s  points executed / seconds in run_point and record_bytes
    exec_s_p50    median seconds per harness.run_point
    peak_rss_mb   peak resident memory of this process
    rounds        sum of rounds_elapsed over one pass (deterministic)
    honest_msgs   sum of honest_messages_total over one pass (deterministic)

Where a run has at least 100 samples (catalog-sweep), it also prints
exec_s_p90, so that at least ten samples lie beyond it.

With `--trace 1` it alternates plain and traced passes (see tracer.py) and
prints the per-layer metrics of a traced pass: self seconds (median over
traced passes), call counts and other counts (identical in every traced
pass, else the run fails), and trace.overhead_share, the traced passes'
extra time over the plain ones'.  The traced records must equal the plain
ones byte for byte.

`--quick` cuts every workload to n <= 7 for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COMMON_AXES = {
    "t": "max",
    "allocation": ["adversarial-worst"],
    "inputs": ["alternating"],
}
WORKLOADS = {
    "unauth-wide": {
        "variant": "unauthenticated",
        "axes": {"n": [64], "f": ["max"], "error_budget": ["4n"], "adversary": ["vote-poisoner"]},
        "quick_n": [7],
    },
    "auth-chains": {
        "variant": "authenticated",
        "axes": {"n": [32], "f": ["max"], "error_budget": ["4n"], "adversary": ["grade-splitter"]},
        "quick_n": [7],
    },
    "catalog-sweep": {
        "variant": ["unauthenticated", "authenticated"],
        "axes": {
            "n": [4, 7, 16],
            "f": [0, "half", "max"],
            "error_budget": [0, "n", "4n"],
            "adversary": "catalog",
        },
        "quick_n": [4],
        "replay": True,
    },
}
SETUP_PROBES = 7
CALIBRATION_LOOPS = 300_000
CALIBRATION_REF_S = 0.02  # the kernel's time on the reference host
CALIBRATION_EVERY_S = 0.5

END_TO_END = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("exec_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
    ("honest_msgs", "count"),
]


def per_layer_metrics():
    from tracer import TAGS

    metrics = [
        ("engine.self_s", "s"),
        ("engine.steps", "count"),
        ("engine.idle_step_share", "share"),
    ]
    for tag in TAGS:
        metrics.append((f"protocol.{tag}.self_s", "s"))
    for tag in TAGS:
        metrics.append((f"rounds.{tag}", "count"))
    for tag in TAGS:
        metrics.append((f"msgs.{tag}", "count"))
    metrics += [
        ("signatures.sign.calls", "count"),
        ("signatures.sign.self_s", "s"),
        ("signatures.verify.calls", "count"),
        ("signatures.verify.self_s", "s"),
        ("signatures.digest.calls", "count"),
        ("signatures.digest.self_s", "s"),
        ("authtools.chain_ok.calls", "count"),
        ("authtools.chain_ok.self_s", "s"),
        ("authtools.certificate_ok.calls", "count"),
        ("authtools.extend_chain.calls", "count"),
        ("authtools.max_chain_len", "count"),
        ("adversaries.emit.calls", "count"),
        ("adversaries.emit.self_s", "s"),
        ("adversaries.faulty_envelopes", "count"),
        ("predictions.tally_classification.self_s", "s"),
        ("predictions.generate_predictions.self_s", "s"),
        ("verify.verify_execution.self_s", "s"),
        ("harness.run_point.self_s", "s"),
        ("harness.record_bytes.self_s", "s"),
        ("trace.overhead_share", "share"),
    ]
    return metrics


def sweep_doc(workload: str, seed: int, quick: bool) -> dict:
    spec = WORKLOADS[workload]
    axes = dict(COMMON_AXES, **spec["axes"], seeds=[seed])
    if quick:
        axes["n"] = spec["quick_n"]
    return {
        "schema_version": 1,
        "protocol": "ba-with-predictions",
        "variant": spec["variant"],
        "axes": axes,
    }


def import_harness():
    """Import byzpred from this checkout's src/, never from elsewhere."""
    if not (SRC / "byzpred" / "__init__.py").is_file():
        sys.exit(f"bench: no byzpred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from byzpred import harness

    if Path(harness.__file__).resolve().parent != SRC / "byzpred":
        sys.exit(f"bench: byzpred was imported from {harness.__file__}, not {SRC}")
    return harness


def load_points(harness, args):
    points, skipped = harness.expand_sweep(sweep_doc(args.workload, args.seed, args.quick))
    if not points:
        sys.exit(f"bench: workload {args.workload} expands to no points")
    # A shuffled order spreads host-speed drift within a pass over every kind
    # of point, instead of over one block of similar points.
    random.Random(args.seed).shuffle(points)
    if not args.setup_probe:
        print(f"{args.workload}: {len(points)} points, {len(skipped)} infeasible points skipped")
    return points


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _kernel() -> int:
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return total


class HostClock:
    """Tracks host speed so that times can be scaled to a reference host.

    The speed of a shared host drifts by up to 20% within minutes, and every
    pure-Python workload drifts with it.  So a run interleaves a fixed
    calibration kernel with its samples, one kernel per CALIBRATION_EVERY_S
    of work, and reports every time multiplied by `scale`: the time it would
    take on a host where the kernel takes CALIBRATION_REF_S.  A change to
    byzpred moves scaled times as it moves raw ones, since the kernel does
    not call byzpred.
    """

    def __init__(self):
        self.kernel_s = []
        self._last = time.perf_counter()
        self.tick(force=True)

    def tick(self, force: bool = False):
        """Run one kernel per CALIBRATION_EVERY_S since the last kernel."""
        due = int((time.perf_counter() - self._last) / CALIBRATION_EVERY_S)
        for _ in range(max(due, int(force))):
            start = time.perf_counter()
            _kernel()
            self.kernel_s.append(time.perf_counter() - start)
            self._last = time.perf_counter()

    @property
    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.kernel_s)


def measure_setup(args, clock) -> list:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed (exit {proc.returncode}, said {line!r})")
        clock.tick(force=True)
    return samples


def run_pass(harness, points, clock, exec_s, keep) -> float:
    """One pass over `points`; returns its work seconds (run_point plus
    record_bytes).  Appends each run_point time to `exec_s` and hands each
    point's index, record and record bytes to `keep`, which holds on to only
    what it needs, so later passes do not raise peak memory."""
    work_s = 0.0
    for i, point in enumerate(points):
        start = time.perf_counter()
        record = harness.run_point(point)
        executed = time.perf_counter()
        blob = harness.record_bytes(record)
        work_s += time.perf_counter() - start
        exec_s.append(executed - start)
        keep(i, record, blob)
        clock.tick()
    return work_s


class FirstPass:
    """Keeps the first pass's records and record bytes."""

    def __init__(self):
        self.records, self.blobs = [], []

    def __call__(self, _i, record, blob):
        self.records.append(record)
        self.blobs.append(blob)


class LaterPass:
    """Keeps the indices where a later pass's bytes differ from the first's."""

    def __init__(self, first: FirstPass):
        self.first_blobs = first.blobs
        self.differing = set()

    def __call__(self, i, _record, blob):
        if blob != self.first_blobs[i]:
            self.differing.add(i)


def digest_of(blobs) -> str:
    return hashlib.sha256(b"\n".join(blobs)).hexdigest()


def gate_first_pass(harness, points, records, replay: bool) -> list:
    """Indices of points whose first-pass record fails a gate."""
    bad = []
    for i, (point, record) in enumerate(zip(points, records)):
        ok = record["ok"] and record["rounds_elapsed"] <= harness.round_envelope(point.scenario)
        if ok and replay:
            ok = harness.replay_record(record)
        if not ok:
            bad.append(i)
    return bad


def count_failed(first_bad, later_differing) -> int:
    """Failed executions: first-pass failures repeat in every later pass,
    and a later execution also fails where its bytes differ."""
    bad = set(first_bad)
    return len(bad) + sum(len(bad | d) for d in later_differing)


def protocol_cost(records):
    return (
        sum(r["rounds_elapsed"] for r in records),
        sum(r["honest_messages_total"] for r in records),
    )


def plain_run(harness, points, args):
    clock = HostClock()
    setup = measure_setup(args, clock)
    exec_s, walls, later = [], [], []
    first = FirstPass()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        keep = LaterPass(first) if walls else first
        walls.append(run_pass(harness, points, clock, exec_s, keep))
        if walls[1:]:
            later.append(keep.differing)
    replay = WORKLOADS[args.workload].get("replay", False)
    first_bad = gate_first_pass(harness, points, first.records, replay)
    failed = count_failed(first_bad, later)
    rounds, msgs = protocol_cost(first.records)
    executed = len(points) * len(walls)
    scale = clock.scale
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "points_per_s": executed / (sum(walls) * scale),
        "exec_s_p50": statistics.median(exec_s) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": rounds,
        "honest_msgs": msgs,
    }
    notes = {
        "setup_s": f"median of {len(setup)} processes",
        "points_per_s": f"{executed} points in {sum(walls) * scale:.3f} s",
        "exec_s_p50": f"{len(exec_s)} samples",
        "rounds": f"one pass, {len(points)} points",
        "honest_msgs": f"one pass, {len(points)} points",
    }
    print(f"host scale {scale} from {len(clock.kernel_s)} kernel runs; raw setup_s "
          f"{statistics.median(setup)} s, points_per_s {executed / sum(walls)} 1/s, "
          f"exec_s_p50 {statistics.median(exec_s)} s")
    if len(exec_s) >= 100:
        # Only where at least ten samples lie beyond it; not a gated metric.
        p90 = statistics.quantiles(exec_s, n=10, method="inclusive")[-1]
        print(f"exec_s_p90 {p90 * scale} s ({len(exec_s)} samples)")
    print(f"records sha256 {digest_of(first.blobs)}")
    print(f"fail_share {failed / executed} ({failed} of {executed} executions)")
    return metrics, notes, executed, failed, True


def traced_run(harness, points, args):
    import tracer as tracing

    clock = HostClock()
    exec_s, plain_walls, traced_walls, tracers = [], [], [], []
    plain_differing, traced_differing = [], []
    first = FirstPass()
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < args.seconds:
        keep = LaterPass(first) if plain_walls else first
        plain_walls.append(run_pass(harness, points, clock, exec_s, keep))
        if plain_walls[1:]:
            plain_differing.append(keep.differing)
        tracer, keep = tracing.Tracer(), LaterPass(first)
        with tracer.installed():
            traced_walls.append(run_pass(harness, points, clock, exec_s, keep))
        tracers.append(tracer)
        traced_differing.append(keep.differing)
    plain_records = first.records
    first_bad = gate_first_pass(harness, points, plain_records, replay=False)
    failed = count_failed(first_bad, plain_differing + traced_differing)
    executed = len(points) * (len(plain_walls) + len(tracers))
    identical = not any(traced_differing)

    rounds, msgs = protocol_cost(plain_records)
    msgs_by_tag = {}
    for record in plain_records:
        for tag, count in record["honest_messages_by_protocol"].items():
            folded = tracing.fold_tag(tag)
            msgs_by_tag[folded] = msgs_by_tag.get(folded, 0) + count
    layers = [layer_values(t, msgs_by_tag) for t in tracers]
    counts = [{k: v for k, v in values.items() if not k.endswith(".self_s")} for values in layers]
    stable = all(c == counts[0] for c in counts)
    tags = set(msgs_by_tag) | set(tracers[0].rounds_by_tag)
    tags |= {span.split(".")[1] for span in tracers[0].spans if span.startswith("protocol.")}
    unknown = sorted(tags - set(tracing.TAGS))
    consistent = (
        not unknown
        and sum(tracers[0].rounds_by_tag.values()) == rounds
        and sum(msgs_by_tag.values()) == msgs
    )

    metrics = {}
    for name, _unit in per_layer_metrics():
        if name.endswith(".self_s"):
            raw = statistics.median(values.get(name, 0.0) for values in layers)
            metrics[name] = raw * clock.scale
        else:
            metrics[name] = layers[0].get(name, 0)
    metrics["engine.idle_step_share"] = layers[0]["engine.idle_steps"] / layers[0]["engine.steps"]
    metrics["trace.overhead_share"] = (sum(traced_walls) - sum(plain_walls)) / sum(plain_walls)
    notes = {name: f"median of {len(tracers)} traced passes"
             for name in metrics if name.endswith(".self_s")}
    notes["trace.overhead_share"] = f"{len(tracers)} traced vs {len(plain_walls)} plain passes"
    print(f"host scale {clock.scale} from {len(clock.kernel_s)} kernel runs")
    print(f"records sha256 {digest_of(first.blobs)}, traced identical: {identical}")
    print(f"counts identical across {len(tracers)} traced passes: {stable}")
    if unknown:
        print(f"protocol tags outside {', '.join(tracing.TAGS)}: {', '.join(unknown)}")
    print(f"per-tag rounds and messages add up to the totals: {consistent}")
    print(f"fail_share {failed / executed} ({failed} of {executed} executions)")
    return metrics, notes, executed, failed, identical and stable and consistent


def layer_values(tracer, msgs_by_tag) -> dict:
    """Every count and self time of one traced pass, by metric name."""
    values = dict(tracer.counters)
    for span, (calls, self_s) in tracer.spans.items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    values.update({f"rounds.{tag}": r for tag, r in tracer.rounds_by_tag.items()})
    values.update({f"msgs.{tag}": c for tag, c in msgs_by_tag.items()})
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="cut every workload to n <= 7")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness = import_harness()
    points = load_points(harness, args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        metrics, notes, attempted, failed, checks_ok = traced_run(harness, points, args)
        units = dict(per_layer_metrics())
    else:
        metrics, notes, attempted, failed, checks_ok = plain_run(harness, points, args)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {value} {units[name]}{note}")
    correct = checks_ok and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
