"""Command-line interface: run, sweep, replay, protocols."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .engine import protocol_names
from .errors import ConfigurationError, ScenarioFileError


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzpred",
        description="Byzantine agreement with classification predictions: "
        "deterministic round simulator and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single sweep point")
    run_p.add_argument("file", help="scenario/sweep JSON file")
    run_p.add_argument("--index", type=int, default=0, help="point index within the sweep")
    run_p.add_argument("--seed", type=int, default=None, help="override the point's seed")
    run_p.add_argument("--output", default=None, help="write the record as a JSON line")

    sweep_p = sub.add_parser("sweep", help="execute the full cross-product of a sweep file")
    sweep_p.add_argument("file")
    sweep_p.add_argument("--output", default=None, help="records output path (JSON lines)")
    sweep_p.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="parallel workers (default: 1)",
    )

    replay_p = sub.add_parser("replay", help="re-execute records and compare byte-for-byte")
    replay_p.add_argument("records", help="records file produced by sweep")
    replay_p.add_argument("--index", type=int, default=None, help="record index (default: all)")

    sub.add_parser("protocols", help="list registered protocols")
    return parser


def _cmd_run(args) -> int:
    doc = harness.load_sweep_file(args.file)
    points, skipped = harness.expand_sweep(doc)
    by_index = {p.index: p for p in points}
    if args.index not in by_index:
        reasons = {s.index: s.reason for s in skipped}
        if args.index in reasons:
            print(f"point {args.index} is infeasible: {reasons[args.index]}", file=sys.stderr)
        else:
            print(f"no point with index {args.index}", file=sys.stderr)
        return 1
    point = by_index[args.index]
    if args.seed is not None:
        try:
            point.scenario = dataclasses.replace(point.scenario, seed=args.seed)
        except ConfigurationError as exc:
            print(f"bad --seed {args.seed}: {exc}", file=sys.stderr)
            return 1
    record = harness.run_point(point)
    line = harness.record_bytes(record).decode()
    if args.output:
        Path(args.output).write_text(line + "\n")
    print(line)
    if not record["ok"]:
        print("PROPERTY VIOLATION", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    """Run every point and print the summary.  On a property violation,
    also print the first violating record's scenario and its failed
    verdicts to stderr, and return 2."""
    doc = harness.load_sweep_file(args.file)

    def progress(record):
        status = "ok" if record["ok"] else "VIOLATION"
        print(
            f"[{record['index']}] n={record['scenario']['n']} "
            f"adv={record['scenario']['adversary']['name']} "
            f"rounds={record['rounds_elapsed']} {status}",
            file=sys.stderr,
        )

    _records, summary = harness.run_sweep(
        doc, output_path=args.output, workers=args.workers, progress=progress
    )
    print(summary.as_text())
    bad = summary.first_violation
    if bad is not None:
        failed = [v for v in bad["verdicts"] if not v["ok"]]
        print("property violation; reproducing scenario: "
              f"{json.dumps(bad['scenario'], sort_keys=True)}"
              f" verdicts: {json.dumps(failed, sort_keys=True)}", file=sys.stderr)
    return 0 if bad is None else 2


def _cmd_replay(args) -> int:
    records = harness.load_records(args.records)
    targets = records
    if args.index is not None:
        # sweep indices skip infeasible points, so select by the field
        targets = [r for r in records if r.get("index") == args.index]
        if not targets:
            print(f"no record with index {args.index}", file=sys.stderr)
            return 1
    bad = 0
    for record in targets:
        ok = harness.replay_record(record)
        print(f"record {record['index']}: {'reproduced' if ok else 'MISMATCH'}")
        bad += 0 if ok else 1
    return 0 if bad == 0 else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "protocols":
            print("\n".join(protocol_names()))
            return 0
    except ScenarioFileError as exc:
        print(f"scenario file error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
