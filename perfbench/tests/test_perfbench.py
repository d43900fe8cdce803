"""Tests of the benchmark harness itself, on tiny instances.

    python3 -m pytest -q perfbench/tests

Every child here is one short process; none starts a pool.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run as bench  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

sys.path.insert(0, str(bench.SRC))

import drinfeld_forge as df  # noqa: E402


@pytest.fixture
def trial(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return bench.Run(seconds=60)


def _python(code: str) -> list[str]:
    return [sys.executable, "-c", code]


def test_clean_child_is_not_a_failure(trial):
    outcome = trial.run(_python("print('{}')"), "clean")
    assert outcome.error is None
    assert (trial.attempted, trial.failed) == (1, 0)
    assert outcome.rss_kb > 0


def test_timeout_counts_as_failure(trial, monkeypatch):
    monkeypatch.setattr(bench, "OP_TIMEOUT_S", 1.0)
    start = time.perf_counter()
    outcome = trial.run(_python("import time; time.sleep(30)"), "sleeper")
    assert time.perf_counter() - start < 10
    assert "timed out" in outcome.error
    assert (trial.attempted, trial.failed) == (1, 1)


def test_killed_child_counts_as_failure(trial):
    outcome = trial.run(
        _python("import os, signal; os.kill(os.getpid(), signal.SIGKILL)"),
        "killed")
    assert outcome.error == "killed by SIGKILL"
    assert trial.failed == 1


def test_memory_ceiling_counts_as_failure(trial, monkeypatch):
    monkeypatch.setattr(bench, "MEMORY_LIMIT", 256 << 20)
    outcome = trial.run(_python("x = bytearray(1 << 30)"), "hog")
    assert outcome.error.startswith("exit code 1")
    assert "MemoryError" in outcome.error
    assert trial.failed == 1


def test_operation_past_the_launch_limit_is_not_started(trial, monkeypatch):
    monkeypatch.setattr(bench, "LAUNCH_LIMIT_S", 0.0)
    outcome = trial.run(_python("print('{}')"), "late")
    assert not outcome.started
    assert outcome.error.startswith("not started")
    assert (trial.attempted, trial.failed) == (1, 1)


def test_a_pass_starts_only_if_its_estimate_fits(trial):
    assert trial.another_pass([], bench.MIN_PASSES)
    assert trial.another_pass([1.0], bench.MIN_PASSES)
    assert not trial.another_pass([bench.LAUNCH_LIMIT_S], bench.MIN_PASSES)
    # past the minimum, the --seconds budget decides
    assert not trial.another_pass([70.0, 70.0, 70.0], bench.MIN_PASSES)
    assert trial.another_pass([70.0], bench.MIN_PASSES)


def test_medians_count_only_complete_passes():
    cut = bench.Pass(seconds=1.0, complete=False)
    whole = bench.Pass(seconds=5.0)
    assert bench.complete([cut, whole]) == [whole]
    assert bench.complete([cut]) == [cut]


def test_wrong_verdict_counts_as_failure(trial):
    op = bench.verify_op("t", "A", 1, "canonical", ("jacobi",))
    report = {"series": "A", "rank": 1, "spec": {}, "passed": False,
              "reports": [{"check": "jacobi", "pass": False}]}
    outcome = trial.run(_python(f"print({json.dumps(json.dumps(report))})"),
                          op.op_id, op.check)
    assert outcome.error == "verdict FAIL on jacobi"
    assert trial.failed == 1


def test_surviving_mutation_counts_as_failure(trial):
    op = bench.controls_op("A", 2, 0)
    verdicts = [{"check": f"c{k}", "position": ["H1"], "caught": k != 3,
                 "violations": 1} for k in range(12)]
    text = json.dumps({"verdicts": verdicts})
    outcome = trial.run(_python(f"print({json.dumps(text)})"), op.op_id,
                          op.check)
    assert outcome.error == "mutation survived: c3@H1"
    assert trial.failed == 1


def test_seeded_mutations_are_caught_on_tiny_instances(trial):
    for series, rank in (("A", 2), ("B", 2)):
        op = bench.controls_op(series, rank, seed=7)
        outcome = trial.run(op.argv, op.op_id, op.check)
        assert outcome.error is None
        verdicts = json.loads(outcome.stdout)["verdicts"]
        assert all(v["caught"] for v in verdicts)
    assert trial.failed == 0


def test_mutation_positions_follow_the_seed():
    triple = df.canonical_triple("A", 2)
    first = [labels for _, _, labels, _ in child.mutations(df, triple, 3)]
    again = [labels for _, _, labels, _ in child.mutations(df, triple, 3)]
    other = [labels for _, _, labels, _ in child.mutations(df, triple, 4)]
    assert first == again
    assert first != other


def test_digest_mismatch_counts_as_failure(trial, tmp_path):
    payload = {"instances": [["A", 1]], "outdir": str(tmp_path),
               "discrepancies": str(bench.ROOT / "DISCREPANCIES.md")}
    good = trial.run(bench.child_argv("digests", payload), "digests")
    digests = json.loads(good.stdout)["digests"]
    recorded = {"exports": {"A1/build": digests["A1/build"],
                            "A1/delta": "0" * 64}}
    bad = trial.run(bench.child_argv("digests", payload), "digests",
                      bench.digest_check(recorded))
    assert bad.error == "digest mismatch: A1/delta"
    assert (trial.attempted, trial.failed) == (2, 1)


def test_recorded_grid_digests_cover_every_export():
    recorded = bench.load_recorded()
    want = {f"{s}{r}/{what}" for s, r in bench.GRID for what in child.EXPORTS}
    assert set(recorded["exports"]) == want | {"DISCREPANCIES.md"}


def test_exact_rep_bytes_count_the_entries():
    rep = df.fermionic_rep(df.build_series("B", 2))
    shallow = sum(sys.getsizeof(m.entries) for m in rep.matrices.values())
    assert child._rep_bytes(rep) > 2 * shallow


def test_traced_verify_prints_the_cli_bytes(tmp_path):
    op = bench.verify_op("t", "B", 1, "canonical", bench.ALGEBRAIC)
    env = bench.child_env()
    plain = subprocess.run(op.argv, cwd=bench.ROOT, env=env,
                           capture_output=True, check=True)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(op.traced_argv + [str(spans_path)], cwd=bench.ROOT,
                            env=env, capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    names = {span["name"] for span in json.loads(spans_path.read_text())}
    assert "double.verify_compatibility" in names


def test_traced_pass_reports_layers_and_counts(trial):
    ops = [bench.verify_op("t", "A", 1, "canonical", bench.ALGEBRAIC + bench.REPS)]
    result = bench.run_pass(trial, ops, traced=True)
    assert trial.failed == 0
    metrics = bench.layer_metrics(result)
    assert metrics["double.verify_compatibility_checked"] > 0
    assert metrics["double.verify_compatibility_s"] > 0
    assert metrics["reps.bosonic_space_dim"] > 0
    assert metrics["reps.matrix_bytes"] > 0
    assert 0 < metrics["trace.verifier_self_share"] < 1


def test_spans_nest_and_self_times_add_up():
    tr = Tracer("op-1")
    with tr.span("op"):
        with tr.span("a"):
            with tr.span("a.inner") as counts:
                counts["checked"] = 3
                time.sleep(0.01)
            time.sleep(0.005)
        with tr.span("b"):
            time.sleep(0.005)
    by_name = {span["name"]: span for span in tr.spans}
    assert by_name["op"]["parent"] is None
    assert by_name["a"]["parent"] == by_name["op"]["id"]
    assert by_name["a.inner"]["parent"] == by_name["a"]["id"]
    assert by_name["b"]["parent"] == by_name["op"]["id"]
    assert by_name["a.inner"]["counts"] == {"checked": 3}
    for span in tr.spans:
        if span["parent"] is not None:
            parent = tr.spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    selfs = self_times(tr.spans)
    root = by_name["op"]
    assert sum(selfs.values()) == pytest.approx(root["end"] - root["start"])
    assert all(value >= 0 for value in selfs.values())


def test_scalar_oracle_agrees_and_catches_a_wrong_product():
    pool = child.harvest_operands(df, [("A", 1), ("C", 2)])
    assert len(pool) > 6
    for a in pool[:8]:
        for b in pool[-8:]:
            assert child._quad(a * b) == child.oracle_mul(child._quad(a),
                                                          child._quad(b))
    a, b = pool[0], pool[-1]
    assert child._quad(a * b + df.ONE) != child.oracle_mul(child._quad(a),
                                                           child._quad(b))


def test_mixed_specs_follow_the_seed_and_split():
    import random
    for series, rank in bench.CONTROLS:
        spec = bench.mixed_spec(random.Random(5), series, rank)
        assert spec == bench.mixed_spec(random.Random(5), series, rank)
        assert df.split(series, rank, spec).spec.mode == "mixed"


def test_missing_source_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "child.py", "spans.py", "digests.json"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "controls",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
