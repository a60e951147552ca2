"""Smoke tests of the benchmark: schema, correctness gate, tracing.

    python3 -m pytest -q perfbench

Every run here uses --smoke (tiny inputs, one pass), so the file finishes in
seconds.  No test asserts a timing.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    CRITERION_7_GOT,
    WORKLOADS,
    EngineSubject,
    Gate,
    SearchCall,
    SearchInput,
    battery_verify,
    engines_verify,
    search_verify,
)


def _run(*args: str, cwd: Path = ROOT, bench_dir: Path = HERE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(bench_dir / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_the_gate(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(specs)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == specs[name][0]
        assert isinstance(metric["value"], (int, float))
    assert "failed_ratio = 0 ratio (0 of" in proc.stdout
    if trace:
        assert result["metrics"]["trace.self_coverage"]["value"] > 0.9


def test_traced_spans_all_link_to_a_parent():
    proc = _run("--workload", "battery", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    with gzip.open(HERE / "out" / "spans-battery-smoke.jsonl.gz", "rt") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    names = header["names"]
    assert names[spans[0][2]] == "bench.pass" and spans[0][1] == -1
    for sid, parent, _, start, end in spans[1:]:
        assert 0 <= parent < sid
        assert spans[parent][3] <= start <= end <= spans[parent][4]
    assert "checks.check_transforms" in names and "synchro.min_switch_count" in names


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, bench_dir=tmp_path / HERE.name)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the gate counts every wrong output --------------------------------------

def _report(max_sw, both, states_only, scanned, complete=True):
    from syncswitch import IsoConvention

    forms = {IsoConvention.STATES_AND_SYMBOLS: both, IsoConvention.STATES_ONLY: states_only}
    return SimpleNamespace(max_sw=max_sw, scanned=scanned, complete=complete,
                           form_count=lambda conv: forms[conv])


def test_search_gate_flags_each_wrong_field():
    sys.path.insert(0, str(ROOT / "src"))
    inputs = SearchInput("cyclic", 5, 2, 1)
    good = SearchCall(_report(7, 112, 112, 5 ** 5), 1.0, [], 0.0)
    bad = SearchCall(_report(8, 111, 112, 5 ** 5 - 1, complete=False), 1.0, [], 0.0)
    gate = Gate()
    search_verify(inputs, [good, bad], gate)
    assert gate.checked == 10
    assert len(gate.failures) == 4


def test_criterion_7_must_fail_exactly_as_known():
    def result(passed, got):
        return SimpleNamespace(check_id="7", passed=passed, got=got)

    battery = [("7", None)]
    outcomes = {
        (False, CRITERION_7_GOT): 0,
        (True, "all 18 values match"): 1,
        (False, "sw(F2(t3)): expected 6, got 7"): 1,
    }
    for (passed, got), failures in outcomes.items():
        gate = Gate()
        battery_verify(battery, [result(passed, got)], gate)
        assert len(gate.failures) == failures, (passed, got)


def test_engine_gate_checks_formula_and_word():
    sys.path.insert(0, str(ROOT / "src"))
    from syncswitch import SyncResult, Word, families

    dfa = families.cerny(4)
    word = Word.from_letters("baaabaaab")  # the unique shortest reset word of C_4
    subject = EngineSubject("cerny(4)", "cerny", "dense", True, dfa)
    out = {"ssl": 9, "sw": 5, "length_word": SyncResult(word, 9, 5), "length_count": 1,
           "swlen_word": SyncResult(word, 9, 5), "swlen_count": 1}
    gate = Gate()
    engines_verify([subject], [out], gate)
    assert gate.failures == []
    wrong = dict(out, sw=4, length_word=SyncResult(Word.from_letters("baaab"), 5, 3))
    gate = Gate()
    engines_verify([subject], [wrong], gate)
    assert len(gate.failures) == 4
