"""Sweep files, records, replay, summaries, and the CLI surface."""

import json
import subprocess
import sys

import pytest

from byzpred import agreement, engine, harness
from byzpred.errors import ConfigurationError, ScenarioFileError
from byzpred.scenario import AdversarySpec, Scenario
from byzpred.verify import Verdict, verify_execution
from byzpred.engine import run_execution


def sweep_doc(**overrides):
    doc = {
        "schema_version": 1,
        "protocol": "ba-with-predictions",
        "variant": "unauthenticated",
        "value_domain": [0, 1],
        "axes": {
            "n": [4],
            "t": "max",
            "f": [0, 1],
            "error_budget": [0],
            "allocation": ["concentrated-on-faulty"],
            "adversary": ["silent"],
            "inputs": ["alternating"],
            "fault_placement": ["lowest"],
            "seeds": [1],
        },
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_t_and_f_resolution():
    assert harness.resolve_t("max", 16, "unauthenticated") == 5
    assert harness.resolve_t("max", 16, "authenticated") == 6
    assert harness.resolve_t("max", 4, "authenticated") == 0
    assert harness.resolve_f("half", 5) == 2
    assert harness.resolve_f("max", 5) == 5


def test_budget_resolution():
    assert harness.resolve_budget("n", 40) == 40
    assert harness.resolve_budget("4n", 40) == 160
    assert harness.resolve_budget(7, 40) == 7
    with pytest.raises(ScenarioFileError):
        harness.resolve_budget("xn2", 40)


def test_fault_placements():
    assert harness.fault_ids(8, 2, "lowest") == frozenset({1, 2})
    assert harness.fault_ids(8, 2, "highest") == frozenset({7, 8})
    assert harness.fault_ids(8, 3, "spread") == frozenset({1, 3, 6})
    assert harness.fault_ids(4, 4, "spread") == frozenset({1, 2, 3, 4})
    for placement in harness.FAULT_PLACEMENTS:
        with pytest.raises(ConfigurationError, match="f = 5 exceeds n = 4"):
            harness.fault_ids(4, 5, placement)


def test_input_patterns():
    assert harness.input_vector("unanimous-0", 3, (0, 1)) == (0, 0, 0)
    assert harness.input_vector("unanimous-1", 3, (0, 1)) == (1, 1, 1)
    assert harness.input_vector("alternating", 4, (0, 1)) == (0, 1, 0, 1)
    assert harness.input_vector("split-half", 4, (0, 1)) == (0, 0, 1, 1)
    assert harness.input_vector([1, 0, 1], 3, (0, 1)) == (1, 0, 1)


def test_an_empty_sweep_expands_to_the_default_point():
    points, skipped = harness.expand_sweep({"schema_version": 1})
    assert skipped == [] and [(p.index, p.protocol, p.params) for p in points] == [
        (0, "ba-with-predictions", {})
    ]
    assert points[0].scenario == Scenario(
        n=4, t=1, fault_set=frozenset(), inputs=(0, 1, 0, 1), error_budget=0,
        error_allocation="concentrated-on-faulty", adversary=AdversarySpec.make("silent"),
        seed=0, variant="unauthenticated", value_domain=(0, 1),
    )
    # f=0 hides the placement: one faulty process shows it is the lowest id
    (point,), _ = harness.expand_sweep({"schema_version": 1, "axes": {"f": [1]}})
    assert point.scenario.fault_set == frozenset({1})


def test_expansion_dedupes_f_and_reports_infeasible():
    doc = sweep_doc()
    doc["axes"]["f"] = [0, "half", "max"]  # t=1: half==0 duplicates
    doc["axes"]["error_budget"] = [0, 1000]  # 1000 > (n-f)*n: infeasible
    points, skipped = harness.expand_sweep(doc)
    # the duplicate f takes no index; a skipped point keeps its own
    assert [(p.index, p.scenario.f, p.scenario.error_budget) for p in points] == [
        (0, 0, 0), (2, 1, 0)
    ]
    assert [s.index for s in skipped] == [1, 3]
    assert all("budget" in s.reason for s in skipped)


@pytest.mark.parametrize("placement", harness.FAULT_PLACEMENTS)
def test_f_above_n_is_skipped_under_every_placement(tmp_path, placement):
    doc = sweep_doc()
    doc["axes"].update(t=[1], f=[5], fault_placement=[placement])
    points, skipped = harness.expand_sweep(doc)
    assert points == [] and [(s.index, s.reason) for s in skipped] == [(0, "f = 5 exceeds n = 4")]
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(doc))
    proc = run_cli("sweep", str(sweep_file))
    assert proc.returncode == 0 and "points skipped:  1" in proc.stdout
    assert "Traceback" not in proc.stderr
    proc = run_cli("run", str(sweep_file), "--index", "0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "point 0 is infeasible: f = 5 exceeds n = 4\n"


def test_sweep_file_parse_error_carries_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"schema_version": 1,\n  "axes": }')
    with pytest.raises(ScenarioFileError) as err:
        harness.load_sweep_file(str(p))
    assert "line" in str(err.value)


def test_schema_version_checked(tmp_path):
    p = tmp_path / "v9.json"
    p.write_text(json.dumps(sweep_doc(schema_version=9)))
    with pytest.raises(ScenarioFileError):
        harness.load_sweep_file(str(p))


def _with_axis(axis, entries):
    doc = sweep_doc()
    doc["axes"][axis] = entries
    return doc


def _with_key(key, value):
    doc = sweep_doc()
    doc[key] = value
    return doc


def _with_params(protocol, params):
    doc = _with_key("protocol", protocol)
    doc["params"] = params
    return doc


@pytest.mark.parametrize(
    "doc, located",
    [
        ([sweep_doc()], "JSON object, got list"),
        (_with_axis("n", ["4"]), "axis 'n' entry 0"),
        (_with_axis("n", 4), "axis 'n' must be a list"),
        (_with_axis("t", [1, "3"]), "axis 't' entry 1"),
        (_with_axis("f", [0, "most"]), "axis 'f' entry 1"),
        (_with_axis("error_budget", [0, 1.5]), "axis 'error_budget' entry 1"),
        (_with_axis("seeds", [1, True]), "axis 'seeds' entry 1"),
        (_with_axis("adversary", "silent"), "axis 'adversary' must be a list"),
        (_with_axis("adversary", ["silent", 3]), "axis 'adversary' entry 1"),
        (_with_axis("adversary", [{"params": {}}]), "axis 'adversary' entry 0"),
        (_with_axis("adversary", [{"name": "crash", "params": 2}]), "axis 'adversary' entry 0"),
        (_with_axis("adversary", ["no-such-strategy"]), "axis 'adversary' entry 0"),
        (_with_axis("allocation", "adversarial-worst"), "axis 'allocation' must be a list"),
        (_with_axis("allocation", ["adversarial-worst", "lucky"]), "axis 'allocation' entry 1"),
        (_with_axis("allocation", [["adversarial-worst"]]), "axis 'allocation' entry 0"),
        (_with_axis("inputs", "alternating"), "axis 'inputs' must be a list"),
        (_with_axis("inputs", ["alternating", 7]), "axis 'inputs' entry 1"),
        (_with_axis("fault_placement", ["lowest", "middle"]), "axis 'fault_placement' entry 1"),
        (_with_key("variant", 5), "key 'variant' must be a list"),
        (_with_key("variant", ["quantum"]), "key 'variant' entry 0"),
        (_with_key("variant", ["unauthenticated", ["authenticated"]]), "key 'variant' entry 1"),
        (_with_key("value_domain", []), "key 'value_domain' must be"),
        (_with_key("value_domain", 5), "key 'value_domain' must be"),
        (_with_key("value_domain", [0, "a"]), "key 'value_domain' must be"),
        (_with_key("value_domain", [[0], [1]]), "key 'value_domain' must be"),
        (_with_key("value_domain", [1, 0]), "key 'value_domain' must be"),
        (_with_key("params", 5), "key 'params' must be a JSON object"),
        # strategy params the strategy cannot run with
        (_with_axis("adversary", ["silent", {"name": "crash", "params": {"round": "x"}}]),
         "axis 'adversary' entry 1"),
        (_with_axis("adversary", [{"name": "selective-ignorer", "params": {"ignore": -1}}]),
         "axis 'adversary' entry 0"),
        (_with_axis("adversary", [{"name": "vote-poisoner", "params": {"mode": "inverse"}}]),
         "axis 'adversary' entry 0"),
        # protocol params the protocol cannot run with
        (_with_params("ba-classification", {}), "key 'params': 'k'"),
        (_with_params("ba-classification", {"k": "x"}), "key 'params': 'k'"),
        (_with_params("ba-classification", {"k": -1}), "key 'params': 'k'"),
        (_with_params("ba-classification", {"k": True}), "key 'params': 'k'"),
        (_with_params("ba-classification", {"k": 1, "T": "x"}), "key 'params': 'T'"),
        (_with_params("ba-classification", {"k": 1, "T": -3}), "key 'params': 'T'"),
        (_with_params("bb-committee", {"sender": 1}), "key 'params': 'k'"),
        (_with_params("bb-committee", {"k": 1}), "key 'params': 'sender'"),
        (_with_params("bb-committee", {"k": 1, "sender": 0}), "key 'params': 'sender'"),
        (_with_params("bb-committee", {"k": 1, "sender": "1"}), "key 'params': 'sender'"),
        (_with_params("ba-early-stopping", {"T": "x"}), "key 'params': 'T'"),
        (_with_params("conciliate", {"k": 1}), "key 'params': 'window' or 'windows'"),
        (_with_params("conciliate", {"window": [1]}), "key 'params': 'k'"),
        (_with_params("conciliate", {"k": -1, "window": [1]}), "key 'params': 'k'"),
        (_with_params("graded-consensus-core", {}), "key 'params': 'k'"),
        (_with_params("graded-consensus-core", {"k": "1", "window": [1]}), "key 'params': 'k'"),
        (_with_params("graded-consensus-core", {"k": 1}), "key 'params': 'window' or 'windows'"),
        (_with_params("conciliate", {"k": 1, "window": 5}), "key 'params': 'window' or 'windows'"),
        (_with_params("conciliate", {"k": 1, "window": [1, 5]}),
         "key 'params': 'window' or 'windows'"),
        (_with_params("conciliate", {"k": 1, "windows": {"1": [1, 2]}}),
         "key 'params': 'window' or 'windows'"),
        (_with_params("bb-committee", {"k": 1, "sender": 1, "committee": [1, "x"]}),
         "key 'params': 'committee'"),
        (_with_params("bb-committee", {"k": 1, "sender": 1, "committee": [0, 1]}),
         "key 'params': 'committee'"),
        (_with_params("bb-committee", {"k": 1, "sender": 1, "committee": [1, 5]}),
         "key 'params': 'committee'"),
        (_with_params("bb-committee", {"k": 1, "sender": 1, "committee": 3}),
         "key 'params': 'committee'"),
        (_with_key("protocol", "nope"), "key 'protocol': expected one of"),
        (_with_axis("f", [-1, 0]), "axis 'f' entry 0: expected an integer of at least 0"),
        (_with_axis("inputs", ["alternating", [0, 1, 0]]), "axis 'inputs' entry 1"),
        (_with_axis("error_budget", [0, "xn"]), "axis 'error_budget' entry 1"),
        (dict(_with_params("ba-classification", {"k": 1, "T": 3}),
              variant=["unauthenticated", "authenticated"]),
         "key 'params': 'T' must be at least"),
        (_with_params("ba-classification",
                      {"k": 1, "classifications": {"1": "1111", "2": "1111", "3": "1111"}}),
         "key 'params': 'classifications'"),
        (_with_params("ba-classification",
                      {"k": 1, "classifications": {str(p): [1, 1, 1] for p in range(1, 5)}}),
         "key 'params': 'classifications'"),
        # strategy params the strategy does not read, and a table JSON cannot give
        (_with_axis("adversary", [{"name": "crash", "params": {"round": 2, "bogus": 1}}]),
         "axis 'adversary' entry 0"),
        (_with_axis("adversary", [{"name": "choice-table", "params": {
            "table": [[[1, 4, 2], ["classify", [0, 0, 0, 0]]]]}}]), "axis 'adversary' entry 0"),
        # protocol params: `window` beside `windows`, a sender outside 1..n,
        # and keys the protocol does not read
        (_with_params("conciliate", {"k": 1, "window": "garbage",
                                     "windows": {str(p): [1, 2] for p in range(1, 5)}}),
         "key 'params': 'window' or 'windows', not both"),
        (dict(_with_params("bb-committee", {"k": 1, "sender": 9}), variant="authenticated"),
         "key 'params': 'sender' must be a process id in 1..4"),
        (_with_params("ba-early-stopping", {"t_budget": 3}),
         "key 'params': 't_budget' is not a param of ba-early-stopping; it reads 'T'"),
        (_with_params("ba-with-predictions", {"T": 3}),
         "key 'params': 'T' is not a param of ba-with-predictions; it reads no params"),
        (_with_params("graded-consensus", {"T": 3}),
         "key 'params': 'T' is not a param of graded-consensus; it reads no params"),
        (_with_params("classify", {"input": 7}),
         "key 'params': 'input' is not a param of classify; it reads no params"),
        # a misspelt axis or key, which would otherwise sweep its default
        (_with_axis("placement", ["spread"]), "unknown axis 'placement'; known: n, t, f,"),
        (_with_axis("allocaton", ["random"]), "unknown axis 'allocaton'; known: n, t, f,"),
        (_with_key("param", {"T": 3}), "unknown key 'param'; known: schema_version, protocol,"),
        # the broadcast signs, so it refuses the unauthenticated variant
        (_with_params("bb-committee", {"k": 1, "sender": 1}),
         "key 'params': bb-committee signs its votes and chains, so it needs the"
         " authenticated variant, got 'unauthenticated'"),
    ],
)
def test_malformed_sweep_file_is_located(tmp_path, doc, located):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFileError, match=located):
        harness.expand_sweep(harness.load_sweep_file(str(p)))
    proc = run_cli("sweep", str(p))
    assert proc.returncode == 1
    assert "scenario file error" in proc.stderr and located in proc.stderr


STANDALONE_PARAMS = [
    ("conciliate", "unauthenticated", {"k": 1, "window": [1, 2]}),
    ("graded-consensus-core", "unauthenticated",
     {"k": 0, "windows": {str(p): [1] for p in range(1, 5)}}),
    ("bb-committee", "authenticated", {"k": 1, "sender": 1, "committee": [1, 2, 4]}),
    ("ba-classification", "authenticated",
     {"k": 1, "T": 4, "classifications": {str(p): "1111" for p in range(1, 5)}}),
    ("ba-early-stopping", "unauthenticated", {"T": 9}),
    ("conciliate", "unauthenticated",
     {"k": 1, "windows": {str(p): [1, 2, 3, 4] for p in range(1, 5)}}),
    ("graded-consensus-core", "authenticated", {"k": 1, "window": [1, 2, 3, 4]}),
]


@pytest.mark.parametrize("protocol, variant, params", STANDALONE_PARAMS)
def test_standalone_params_that_run_pass_the_check(protocol, variant, params):
    doc = _with_params(protocol, params)
    doc["variant"] = variant
    records, summary = harness.run_sweep(doc)
    assert summary.executed >= 1 and all(r["ok"] for r in records)


def test_every_declared_param_has_a_passing_case():
    # so that a declaration refusing a param its protocol reads fails a case above
    declared = {(name, key) for name in engine.protocol_names() if not name.startswith("test-")
                for key in engine._PARAMS.get(name, ((), None))[0]}
    covered = {(protocol, key) for protocol, _variant, params in STANDALONE_PARAMS
               for key in params}
    assert declared - covered == set()


# ---------------------------------------------------------------------------
# records, replay, summaries
# ---------------------------------------------------------------------------

def test_single_point_sweep_clean():
    records, summary = harness.run_sweep(sweep_doc())
    assert summary.executed == 2 and summary.violations == 0
    assert all(r["ok"] for r in records)
    rec = records[0]
    assert rec["schema_version"] == harness.RECORD_SCHEMA_VERSION == 2
    assert rec["misclassification"]["k_A"] == 0


def test_records_replay_byte_identical(tmp_path):
    out = tmp_path / "records.jsonl"
    doc = sweep_doc()
    doc["axes"]["adversary"] = ["equivocator"]
    doc["axes"]["error_budget"] = [0, "n"]
    records, _ = harness.run_sweep(doc, output_path=str(out))
    loaded = harness.load_records(str(out))
    assert len(loaded) == len(records)
    for rec in loaded:
        assert harness.replay_record(rec)


def test_summary_axes_present():
    records, summary = harness.run_sweep(sweep_doc())
    text = summary.as_text()
    assert "by n" in text and "violations" in text
    assert summary.by_axis["n"]["4"]["runs"] == 2


def test_hand_corrupted_result_fails_agreement_with_ids():
    s = Scenario(n=4, t=1, fault_set=frozenset(), inputs=(1, 1, 1, 1), seed=0)
    r = run_execution(s, "ba-with-predictions")
    r.decisions[2] = 0  # corrupt one honest decision
    verdicts = {v.name: v for v in verify_execution(r)}
    assert not verdicts["agreement"].ok
    assert "2" in verdicts["agreement"].detail or "1" in verdicts["agreement"].detail
    assert not verdicts["strong-unanimity"].ok


def test_conditional_standalone_uses_vote_round_classifications():
    s = Scenario(
        n=16, t=5, fault_set=frozenset({2}), inputs=tuple(i % 2 for i in range(16)),
        seed=1, error_budget=16, error_allocation="adversarial-worst",
        adversary=AdversarySpec.make("vote-poisoner"),
    )
    cls_result, cond_result, k = agreement.run_conditional_standalone(s)
    assert set(cls_result.decisions) == set(s.honest)
    assert cond_result.protocol == "ba-classification"
    assert k >= 1


def test_round_envelope_monotone_in_budget():
    base = dict(n=60, t=19, fault_set=frozenset(range(1, 20)),
                inputs=tuple(i % 2 for i in range(60)), seed=0,
                error_allocation="adversarial-worst",
                adversary=AdversarySpec.make("silent"))
    envs = [
        harness.round_envelope(Scenario(error_budget=b, **base))
        for b in (0, 60, 240, 480)
    ]
    assert envs == sorted(envs)


@pytest.mark.parametrize(
    "variant, t, rounds",
    [
        # alpha = 15 (phase 1: the conditional budget 5(2k+1) = 15); the
        # early-stopping bound 3 * min(f+3, t+2) = 21 fits T = 30 first, in
        # phase 2, so the exit phase is 3 and the envelope phase 4 of 4:
        # 1 + 4 * 3 * 2 + 2 * 15 * (1 + 2 + 4 + 8) = 475.
        ("unauthenticated", 5, 475),
        # alpha = 20 (phase 1: the early-stopping bound 5 * min(1+3, t+2));
        # the conditional BA fits in phase 1 (2k+1 = 3 <= n-t-k = 9 and
        # T = 20 >= k+3), so the exit phase is 2 and the envelope phase 3
        # of 4: 1 + 3 * 3 * 4 + 2 * 20 * (1 + 2 + 4) = 317.
        ("authenticated", 6, 317),
    ],
)
def test_round_envelope_at_a_hand_computed_point(variant, t, rounds):
    s = Scenario(n=16, t=t, fault_set=frozenset(range(1, t + 1)), inputs=(0,) * 16,
                 variant=variant)
    assert harness.round_envelope(s) == rounds


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "byzpred.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_protocols_lists_registry():
    proc = run_cli("protocols")
    assert proc.returncode == 0
    assert "ba-with-predictions" in proc.stdout


def test_cli_run_and_sweep_and_replay(tmp_path):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(sweep_doc()))
    records_file = tmp_path / "records.jsonl"

    proc = run_cli("run", str(sweep_file), "--index", "0")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["ok"]

    proc = run_cli("sweep", str(sweep_file), "--output", str(records_file))
    assert proc.returncode == 0, proc.stderr
    assert "violations:      0" in proc.stdout

    proc = run_cli("replay", str(records_file))
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout


def test_cli_replay_selects_by_record_index(tmp_path):
    # infeasible points keep their sweep index, so record indices skip them
    doc = sweep_doc()
    doc["axes"]["error_budget"] = [1000, 0, 14]  # 14 > (n-f)*n only for f=1
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(doc))
    records_file = tmp_path / "records.jsonl"
    proc = run_cli("sweep", str(sweep_file), "--output", str(records_file))
    assert proc.returncode == 0, proc.stderr
    assert [r["index"] for r in harness.load_records(str(records_file))] == [1, 2, 4]

    for index in (1, 2, 4):
        proc = run_cli("replay", str(records_file), "--index", str(index))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"record {index}: reproduced\n"
    for index in (0, 3, 5):
        proc = run_cli("replay", str(records_file), "--index", str(index))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"no record with index {index}" in proc.stderr


def without(key):
    return lambda record: dict(
        record, scenario={k: v for k, v in record["scenario"].items() if k != key}
    )


def with_adversary(record, name, params=None):
    adversary = {"name": name, "params": params or {}}
    return dict(record, scenario=dict(record["scenario"], adversary=adversary))


@pytest.mark.parametrize(
    "malformed, message",
    [
        (lambda record: {"index": 0}, "fails with KeyError('scenario')"),
        (lambda record: [record], "fails with TypeError("),
        (without("t"), "fails with KeyError('t')"),
        (without("seed"), "fails with KeyError('seed')"),
        (without("value_domain"), "fails with KeyError('value_domain')"),
        (lambda record: dict(record, schema_version=1),
         "unsupported record schema_version 1, expected 2"),
        (lambda record: dict(record, protocol="nope"), "unknown protocol 'nope'"),
        (lambda record: with_adversary(record, "nope"), "unknown adversary strategy 'nope'"),
        (lambda record: dict(record, protocol="ba-classification"), "key 'params': 'k'"),
        (lambda record: dict(record, params=5), "key 'params' must be a JSON object"),
        (lambda record: with_adversary(record, "crash", {"round": "x"}),
         "unknown adversary strategy 'crash', or params it cannot run with: {'round': 'x'}"),
        (lambda record: with_adversary(record, "crash", {"round": 2, "bogus": 1}),
         "unknown adversary strategy 'crash', or params it cannot run with:"
         " {'bogus': 1, 'round': 2}"),
        (lambda record: dict(record, scenario=dict(record["scenario"], t=2)),
         "unauthenticated protocols need t < n/3, got n=4 t=2"),
        (lambda record: dict(record, protocol="ba-classification", params={"k": 1, "T": 3},
                             scenario=dict(record["scenario"], variant="authenticated")),
         "key 'params': 'T' must be at least k+3"),
        (lambda record: dict(record, params={"T": 3}),
         "key 'params': 'T' is not a param of ba-with-predictions; it reads no params"),
        (lambda record: dict(record, rounds=3), "unknown record key 'rounds'; known:"),
        (lambda record: dict(record, scenario=dict(record["scenario"], f=0)),
         "unknown scenario key 'f'; known: n, t, fault_set,"),
    ],
    ids=["index-only", "not-an-object", "scenario-without-t", "scenario-without-seed",
         "scenario-without-value_domain", "schema-1", "unknown-protocol", "unknown-adversary",
         "params-without-k", "params-not-an-object", "crash-round-not-an-int",
         "crash-param-it-does-not-read", "t-over-the-bound", "authenticated-T-below-k-plus-3",
         "param-it-does-not-read", "unknown-record-key", "unknown-scenario-key"],
)
def test_cli_replay_rejects_a_malformed_record_naming_its_line(tmp_path, malformed, message):
    points, _ = harness.expand_sweep(sweep_doc())
    record = harness.run_point(points[0])
    records_file = tmp_path / "records.jsonl"
    records_file.write_text(json.dumps(record) + "\n" + json.dumps(malformed(record)) + "\n")
    with pytest.raises(ScenarioFileError, match="line 2") as exc:
        harness.load_records(str(records_file))
    assert message in str(exc.value)
    proc = run_cli("replay", str(records_file))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"scenario file error: {exc.value}\n"


def test_cli_run_rejects_an_unknown_protocol(tmp_path):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(sweep_doc(protocol="nope")))
    proc = run_cli("run", str(sweep_file))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("scenario file error: key 'protocol': expected one of")
    assert "'nope'" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_run_reports_an_infeasible_point(tmp_path):
    doc = sweep_doc()
    doc["axes"]["error_budget"] = [1000, 0]  # 1000 > (n-f)*n: infeasible
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(doc))
    _points, skipped = harness.expand_sweep(doc)
    for s in skipped:
        proc = run_cli("run", str(sweep_file), "--index", str(s.index))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"point {s.index} is infeasible: {s.reason}\n"
    assert [s.index for s in skipped] == [0, 2]


def test_points_over_the_resilience_bound_are_skipped(tmp_path):
    # t=2 breaks 3t < n at n=4 and 7 and 2t < n at n=4
    doc = sweep_doc(variant=["unauthenticated", "authenticated"])
    doc["axes"].update(n=[4, 7, 10], t=[2], f=[1], error_budget=[0, "n"],
                       allocation=["adversarial-worst"], adversary=["equivocator"])
    points, skipped = harness.expand_sweep(doc)
    assert [p.index for p in points] == [2, 3, 4, 5, 8, 9, 10, 11]
    assert [(s.index, s.reason) for s in skipped] == [
        (0, "unauthenticated protocols need t < n/3, got n=4 t=2"),
        (1, "unauthenticated protocols need t < n/3, got n=4 t=2"),
        (6, "authenticated protocols need t < n/2, got n=4 t=2"),
        (7, "authenticated protocols need t < n/2, got n=4 t=2"),
    ]
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(doc))
    proc = run_cli("run", str(sweep_file), "--index", "6")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "point 6 is infeasible: authenticated protocols need t < n/2, got n=4 t=2\n"


@pytest.mark.parametrize("command", ["run", "sweep", "replay"])
def test_cli_reports_a_missing_file(tmp_path, command):
    missing = tmp_path / "missing.json"
    proc = run_cli(command, str(missing))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"file error: [Errno 2] No such file or directory: '{missing}'\n"


def test_cli_seed_override(tmp_path):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(sweep_doc()))
    a = run_cli("run", str(sweep_file), "--index", "1", "--seed", "99")
    b = run_cli("run", str(sweep_file), "--index", "1", "--seed", "99")
    assert a.returncode == 0 and a.stdout == b.stdout
    assert json.loads(a.stdout)["scenario"]["seed"] == 99
    bad = run_cli("run", str(sweep_file), "--index", "1", "--seed", "-1")
    assert bad.returncode == 1 and bad.stdout == ""
    assert "bad --seed -1" in bad.stderr and "Traceback" not in bad.stderr


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_cli_sweep_rejects_a_worker_count_that_is_not_a_positive_int(tmp_path, workers):
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(sweep_doc()))
    proc = run_cli("sweep", str(sweep_file), "--workers", workers)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --workers:" in proc.stderr and "Traceback" not in proc.stderr


def test_parallel_sweep_matches_serial(tmp_path):
    doc = sweep_doc()
    doc["axes"]["seeds"] = [1, 2]
    serial, _ = harness.run_sweep(doc, workers=1)
    parallel, _ = harness.run_sweep(doc, workers=2)
    assert [harness.record_bytes(r) for r in serial] == [
        harness.record_bytes(r) for r in parallel
    ]
