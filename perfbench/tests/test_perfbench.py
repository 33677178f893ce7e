"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import worker
import workloads
from affine_insertion.insertion import BoundedMatrix
from affine_insertion.symfunc import SymPolynomial

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEEDED = ("rsk-limit", "big-roundtrip")


def bench(*args, cwd=ROOT, flags=()):
    cmd = [sys.executable, *flags, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_the_spec():
    assert NAMES == list(workloads.RUNNERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = last_json(bench("--workload", name, "--seed", 3, "--seconds", 0.1, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "name, seconds", [("rsk-limit", 0.2), ("big-roundtrip", 0.3), ("kschur-table", 6), ("pieri-cauchy", 15)]
)
def test_traced_run_reaches_every_mapped_boundary(name, seconds):
    proc = bench("--workload", name, "--seed", 1, "--seconds", seconds, "--trace", 1)
    metrics = {k: m["value"] for k, m in last_json(proc)["metrics"].items()}
    record = json.loads((ROOT / ".perfbench_out" / f"result-{name}-trace1.json").read_text())
    assert record["worker"]["unreached"] == []
    assert "WARNING" not in proc.stdout
    if name == "rsk-limit":
        assert metrics["localrule.case.C"] == 0 and metrics["localrule.case.X"] > 0
    if name == "big-roundtrip":
        assert metrics["localrule.case.C"] > 0
        assert metrics["cores.strong_tableau_filling.self_s"] == 0
        assert metrics["cores.weak_tableau_filling.self_s"] == 0
    if name == "pieri-cauchy":
        assert metrics["symfunc.symmetry_report.calls"] == 0


def test_traced_counts_repeat_exactly():
    runs = [last_json(bench("--workload", "rsk-limit", "--seed", 4, "--seconds", 0.2, "--trace", 1)) for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["affperm.eval.calls"] > 0


def test_wrong_insertion_output_raises_failed(monkeypatch):
    real = workloads.grassmannian_rsk

    def wrong(m, n, l=0):
        rows = m.to_rows()
        rows[0][0] += 1
        return real(BoundedMatrix.from_rows(rows), n, l)

    monkeypatch.setattr(workloads, "grassmannian_rsk", wrong)
    res = worker.run("rsk-limit", seed=5, seconds=0.05, trace=False, spans_path=None)
    assert res["attempted"] == 9 and res["failed"] == 9


def test_exceptions_count_as_failed_and_do_not_abort(monkeypatch):
    real = workloads.affine_uninsert
    calls = itertools.count()

    def flaky(p, q, l=0):
        if next(calls) % 2:
            raise ValueError("injected")
        return real(p, q, l)

    monkeypatch.setattr(workloads, "affine_uninsert", flaky)
    res = worker.run("big-roundtrip", seed=5, seconds=0.4, trace=False, spans_path=None)
    assert res["attempted"] == 3 and res["failed"] == 1


def test_wrong_kschur_expansion_fails_its_digest(monkeypatch):
    item = workloads.KSCHUR_TABLE[1]
    assert item[0] == "plain"
    assert workloads.run_item("kschur-table", item)[0]
    real = workloads.k_schur

    def wrong(b, n):
        coeffs = dict(real(b, n).coeffs)
        coeffs[max(coeffs)] += 1
        return SymPolynomial(sum(b), coeffs)

    monkeypatch.setattr(workloads, "k_schur", wrong)
    assert not workloads.run_item("kschur-table", item)[0]


@pytest.mark.parametrize("code, text", [(1, "PASS\n"), (0, "FAIL (x)\n"), (0, "")])
def test_cli_failure_or_missing_pass_fails_the_item(monkeypatch, code, text):
    def fake_main(argv):
        print(text, end="")
        return code

    monkeypatch.setattr(workloads.cli, "main", fake_main)
    assert not workloads.run_item("pieri-cauchy", workloads.PIERI_CAUCHY[1])[0]


def test_seed_changes_only_the_seeded_inputs():
    for name in NAMES:
        first = workloads.batch(name, 1, 20)
        assert first == workloads.batch(name, 1, 20)
        assert (first != workloads.batch(name, 2, 20)) == (name in SEEDED)


def test_self_time_on_a_synthetic_span_tree():
    store = tracer.SpanStore()
    a = store.add("a", 0.0, 10.0)
    b = store.add("b", 1.0, 4.0, parent=a)
    store.add("c", 2.0, 3.0, parent=b)
    store.add("b", 5.0, 6.0, parent=a)
    store.add("d", 7.0, 9.0, parent=a)
    store.add("a", 20.0, 20.5)
    assert tracer.self_times(store) == {"a": 4.5, "b": 3.0, "c": 1.0, "d": 2.0}


def test_span_wrappers_record_nesting_and_roundtrip_to_disk(tmp_path):
    store = tracer.SpanStore()
    inner = store.span_wrapper(lambda: [1, 2], "inner", "out")
    outer = store.span_wrapper(lambda: inner(), "outer", None)
    outer()
    store.item = 7
    inner()
    assert [store.names[k] for k in store.name_of] == ["outer", "inner", "inner"]
    assert list(store.parent) == [tracer.ROOT, 0, tracer.ROOT]
    assert list(store.item_of) == [-1, -1, 7]
    assert store.calls()["inner.out"] == 4
    store.write(tmp_path / "spans.bin")
    back = tracer.read_spans(tmp_path / "spans.bin")
    assert back.names == store.names
    for col in ("name_of", "parent", "item_of", "start", "end"):
        assert getattr(back, col) == getattr(store, col)


def test_tail_has_ten_samples_beyond_it():
    assert worker.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_under_optimize():
    proc = bench("--workload", "rsk-limit", "--seed", 1, "--seconds", 0.05, flags=("-O",))
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "rsk-limit", "--seed", 1, "--seconds", 0.05, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
