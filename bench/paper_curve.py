"""Paper-curve sidecar: protocol cost versus error budget and fault count.

Run from the repository root (untimed, about ten seconds):

    python3 bench/paper_curve.py [--seed 1]

At unauthenticated n=64 (t=21), grade-splitter, `adversarial-worst`
allocation and `alternating` inputs, it prints `rounds`, `honest_msgs` and
`round_envelope` for two series:

    B/n in {0, 1, 4, 16} at f = t      (prediction quality)
    f in {0, t/4, t/2, t} at B = 4n    (actual faults)

These counts are deterministic.  They show the paper's headline scaling:
the guess-and-double wrapper's rounds grow with the misclassification count
the error budget allows and with the number of actual faults, not with t.
Grade-splitter is the catalog strategy that attacks the wrapper's doubling;
under silent or vote-poisoner faults nearly every point here ends in the
first phase (103 rounds), so the curve would be flat.
Every point is gated on its verdicts and on `rounds <= round_envelope`; the
script exits 1 if any point fails.  The last line of output is JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import import_harness

N = 64


def series(harness, seed: int):
    t = (N - 1) // 3
    rows = [("B/n", b, t, b * N) for b in (0, 1, 4, 16)]
    rows += [("f", f, f, 4 * N) for f in (0, t // 4, t // 2, t)]
    for axis, x, f, budget in rows:
        doc = {
            "schema_version": 1,
            "protocol": "ba-with-predictions",
            "variant": "unauthenticated",
            "axes": {
                "n": [N],
                "t": "max",
                "f": [f],
                "error_budget": [budget],
                "allocation": ["adversarial-worst"],
                "adversary": ["grade-splitter"],
                "inputs": ["alternating"],
                "seeds": [seed],
            },
        }
        (point,), _skipped = harness.expand_sweep(doc)
        record = harness.run_point(point)
        envelope = harness.round_envelope(point.scenario)
        yield {
            "axis": axis,
            "x": x,
            "f": f,
            "B": budget,
            "rounds": record["rounds_elapsed"],
            "honest_msgs": record["honest_messages_total"],
            "round_envelope": envelope,
            "ok": record["ok"] and record["rounds_elapsed"] <= envelope,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    harness = import_harness()
    rows = []
    print(f"unauthenticated n={N}, grade-splitter, adversarial-worst, seed {args.seed}")
    print(f"{'axis':>4} {'x':>3} {'f':>3} {'B':>5} {'rounds':>7} {'honest_msgs':>12} "
          f"{'envelope':>8} ok")
    for row in series(harness, args.seed):
        rows.append(row)
        print(f"{row['axis']:>4} {row['x']:>3} {row['f']:>3} {row['B']:>5} {row['rounds']:>7} "
              f"{row['honest_msgs']:>12} {row['round_envelope']:>8} {row['ok']}")
    print(json.dumps({"seed": args.seed, "n": N, "rows": rows}))
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
