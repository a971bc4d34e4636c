"""Tests of the benchmark itself: claim scoring, spans and the runner.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from forge import algebra, compose, linalg, magic, scenarios  # noqa: E402
from forge.exact import ONE  # noqa: E402

from run import per_layer_metrics  # noqa: E402
from spans import Sampler, Tracer  # noqa: E402
from workloads import COUNTERS, EXPECTED_CLAIMS, SPANS, WORKLOADS, score  # noqa: E402

TARGETS = [(m, q) for m, q, _ in SPANS]


def test_planted_failing_claim_counts_once(monkeypatch):
    real = scenarios.verify_composition
    calls = []

    def planted(A):
        rep = real(A)
        calls.append(A.name)
        if len(calls) == 2:
            rep.passed = False
        return rep

    monkeypatch.setattr(scenarios, "verify_composition", planted)
    claims = scenarios.CATALOG["table2-symmetric"](seed=1).details["claims"]
    run, failed, ids = score("table2-symmetric", claims)
    assert (run, failed) == (EXPECTED_CLAIMS["table2-symmetric"], 1)
    assert len(ids) == 1 and ids[0].startswith("table2-symmetric:composition(")


def test_red_by_design_claim_is_expected_and_raise_counts_all():
    claims = scenarios.CATALOG["toral-operator"](seed=1).details["claims"]
    assert score("toral-operator", claims)[:2] == (4, 0)
    flipped = [dict(c, passed=True) for c in claims]
    assert score("toral-operator", flipped)[:2] == (4, 1)
    assert score("recognition", None)[:2] == (5, 5)
    assert score("recognition", claims[:0])[:2] == (5, 5)


def _small_work():
    mag = magic.magic_g(compose.s1(), compose.s2(1))
    algebra.verify_lie(mag.lie)
    g2, gr = magic.derivations_graded(*magic.graded_para_cayley())
    return magic.jordan_grading_check(g2, gr, cartan_mode="components").passed


def _traced(fn):
    tracer = Tracer("forge", TARGETS, COUNTERS).install()
    try:
        assert fn()
    finally:
        tracer.remove()
    return tracer


def test_two_traced_runs_count_the_same():
    first, second = _traced(_small_work), _traced(_small_work)
    calls = {n: s.calls for n, s in first.stats.items()}
    assert calls == {n: s.calls for n, s in second.stats.items()}
    assert first.counts == second.counts
    assert first.counts["algebra.verify_lie.triples"] > 0
    assert calls["magic.adjoint_minimal_polynomial"] > 0
    for stat in first.stats.values():
        assert 0 <= stat.self_s <= stat.total_s + 1e-9


def test_call_through_caller_bound_name_is_counted():
    original = linalg.rank_mod_p
    tracer = Tracer("forge", [("linalg", "rank_mod_p")]).install()
    try:
        assert magic.rank_mod_p is linalg.rank_mod_p is not original
        assert magic.rank_mod_p([{0: ONE}], 2) == 1
    finally:
        tracer.remove()
    assert magic.rank_mod_p is linalg.rank_mod_p is original
    assert tracer.stats["linalg.rank_mod_p"].calls == 1


def test_missing_functions_are_reported_absent():
    tracer = Tracer("forge", [("linalg", "no_such_function"),
                              ("linalg", "NoSuchClass.method"),
                              ("no_such_module", "f"),
                              ("magic", "TriContext")]).install()
    tracer.remove()
    assert tracer.absent == ["linalg.no_such_function",
                             "linalg.NoSuchClass.method", "no_such_module.f"]
    assert magic.TriContext.__init__.__name__ == "__init__"


def test_sampler_charges_forge_modules():
    sampler = Sampler(os.path.dirname(scenarios.__file__), interval=0.001).start()
    try:
        magic.magic_g(compose.s1(), scenarios.para_split())
    finally:
        sampler.stop()
    assert sampler.samples > 0
    assert sum(sampler.by_module.values()) >= 0.9 * sampler.samples


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(n, why) for n, (_, why) in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        per_layer_metrics()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_child_repeats_counts():
    """Two cold traced iterations of a whole workload count the same work."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="7")

    def once():
        out = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                              "jacobi", "7", "1"], env=env, capture_output=True,
                             text=True, timeout=170, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    first, second = once(), once()
    assert first["claims_failed"] == second["claims_failed"] == 0
    assert {n: s[0] for n, s in first["spans"].items()} == \
        {n: s[0] for n, s in second["spans"].items()}
    assert first["counters"] == second["counters"]
    assert first["counters"]["algebra.verify_lie.triples"] > 0
