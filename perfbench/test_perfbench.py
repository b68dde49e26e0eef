"""Tests of the benchmark itself: inputs, checkers, failure counting, tracing.

    python3 -m pytest perfbench -q

Each checker is fed a correct output made by ``nwr`` and then the same
output with one planted fault, which it must reject.  The speedometer is
checked on planted calibration samples and on a live busy loop.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

import nwr  # noqa: E402
import nwr.cli  # noqa: E402

# One choice into a two-way split (v = 1/3), plus a mixing end component
# {p, q} that can exit to the target or fail: every value x >= 1/2 for p
# and q satisfies the Bellman equations, only the least one is right.
COIN = corpus.arena_doc(["v", "t", "f"], ["n"], {("v", "n"), ("n", "t"), ("n", "f")}, {"t"})
COIN_FAMILY = {"n": {"t": Fraction(1, 3), "f": Fraction(2, 3)}}
LOOP = corpus.arena_doc(
    ["p", "q", "t", "f"],
    ["mix", "out"],
    {("p", "mix"), ("q", "mix"), ("mix", "p"), ("mix", "q"), ("p", "out"), ("out", "t"), ("out", "f")},
    {"t"},
)
LOOP_FAMILY = {"mix": {"p": Fraction(1, 2), "q": Fraction(1, 2)}, "out": {"t": Fraction(1, 2), "f": Fraction(1, 2)}}


def renamed(shape: corpus.ArenaShape, seed: int) -> dict:
    doc = corpus.random_arena(shape)
    return corpus.relabel(doc, corpus.renaming(doc, random.Random(seed)))


def cli(*argv) -> str:
    s = run.Runner(nwr)
    out = s.run("test", *argv)
    assert out is not None, s.errors
    return out


def solved(tmp_path: Path, doc: dict, family: dict, mode: str = "--exact") -> dict:
    run.write_json(tmp_path / "a.json", doc)
    run.write_json(tmp_path / "mu.json", corpus.family_doc(family))
    cli("solve", tmp_path / "a.json", "--family", tmp_path / "mu.json", mode, "--out", tmp_path / "v.json")
    return checks.parse_values(json.loads((tmp_path / "v.json").read_text()))


@pytest.mark.parametrize(
    "shape", [corpus.SPARSE_80, corpus.SPARSE_40, corpus.DECIDE_1, corpus.SOLVE_200], ids=lambda s: s.name
)
def test_corpus_is_the_programs_random_arena(shape):
    made = nwr.random_arena(shape.protagonist, shape.nature, shape.density, shape.targets, shape.seed)
    assert nwr.parse_arena(json.dumps(corpus.random_arena(shape))) == made


def test_relabel_is_an_isomorphism_within_owners():
    doc = corpus.random_arena(corpus.DECIDE_1)
    moved = corpus.relabel(doc, corpus.renaming(doc, random.Random(5)))
    assert moved != doc
    for d in (doc, moved):
        a = checks.Arena(d)
        assert {x[0] for x in a.prot} == {"p"} and {x[0] for x in a.nature} == {"n"}
    assert len(moved["edges"]) == len(doc["edges"])
    assert sorted(len(s) for s in checks.Arena(moved).succ.values()) == sorted(
        len(s) for s in checks.Arena(doc).succ.values()
    )


def test_exact_values_accept_the_program_and_reject_planted_faults(tmp_path):
    arena = checks.Arena(LOOP)
    values = solved(tmp_path, LOOP, LOOP_FAMILY)
    reference = checks.iterate_values(arena, LOOP_FAMILY)
    assert checks.check_exact_values(arena, LOOP_FAMILY, values, reference) == []

    perturbed = dict(values, out=values["out"] + Fraction(1, 1000))
    assert checks.check_exact_values(arena, LOOP_FAMILY, perturbed, reference)
    # a Bellman fixed point that is not the least one: p and q at 3/4
    greatest = dict(values, p=Fraction(3, 4), q=Fraction(3, 4), mix=Fraction(3, 4))
    assert checks.check_exact_values(arena, LOOP_FAMILY, greatest, reference)
    assert checks.check_exact_values(arena, LOOP_FAMILY, dict(values, f=Fraction(1, 10**9)), reference)


def test_iterated_values_accept_the_program_and_reject_a_perturbed_value(tmp_path):
    arena = checks.Arena(COIN)
    values = solved(tmp_path, COIN, COIN_FAMILY, "--iterate")
    reference = checks.iterate_values(arena, COIN_FAMILY)
    assert checks.check_iterated_values(arena, values, reference) == []
    assert checks.check_iterated_values(arena, dict(values, v=values["v"] + 1e-4), reference)


def test_relation_soundness_rejects_a_false_pair(tmp_path):
    run.write_json(tmp_path / "a.json", COIN)
    cli("relate", tmp_path / "a.json", "--out", tmp_path / "r.json")
    pairs = json.loads((tmp_path / "r.json").read_text())["pairs"]
    values = solved(tmp_path, COIN, COIN_FAMILY)
    assert checks.check_relation_sound(pairs, values) == []
    assert checks.check_relation_sound(pairs + [{"v": "v", "W": ["f"]}], values)


def test_preservation_rejects_a_changed_class_value(tmp_path):
    doc = renamed(corpus.DECIDE_1, 0)
    run.write_json(tmp_path / "a.json", doc)
    cli("reduce", tmp_path / "a.json", "--out", tmp_path / "red.json", "--report", tmp_path / "rep.json")
    class_map = json.loads((tmp_path / "rep.json").read_text())["class_map"]
    reduced = json.loads((tmp_path / "red.json").read_text())
    family = corpus.sample_family(doc, 16, random.Random(1))
    values = solved(tmp_path, doc, family)
    lifted = nwr.lift_family(nwr.parse_arena(json.dumps(reduced)), family, class_map)
    reduced_values = solved(tmp_path, reduced, lifted)
    arena = checks.Arena(doc)
    assert checks.check_preservation(arena, class_map, values, reduced_values) == []
    cls = class_map[min(arena.prot - arena.targets)]
    planted = dict(reduced_values, **{cls: reduced_values[cls] + Fraction(1, 7)})
    assert checks.check_preservation(arena, class_map, values, planted)


def test_holds_verdicts_reject_a_flipped_verdict_and_a_contradicting_family():
    saturated = {("a", "b")}
    decided = {("a", "b"), ("c", "d")}
    values = {"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(0), "d": Fraction(0)}
    assert checks.check_holds_verdicts(saturated, decided, [values]) == []
    assert checks.check_holds_verdicts(saturated, {("c", "d")}, [values])
    assert checks.check_holds_verdicts(saturated, decided, [dict(values, c=Fraction(1, 9))])


def graph_instance(refuted: bool):
    for shape in corpus.GRAPHS:
        doc, terminals = corpus.random_graph(shape)
        if checks.disjoint_paths_exist(doc, *terminals) == refuted:
            return doc, terminals
    raise AssertionError("no such instance")


def certified(tmp_path: Path):
    doc, (s1, t1, s2, t2) = graph_instance(refuted=True)
    run.write_json(tmp_path / "g.json", doc)
    cli("2dp", tmp_path / "g.json", "--s1", s1, "--t1", t1, "--s2", s2, "--t2", t2, "--out", tmp_path / "e.json")
    encoded = json.loads((tmp_path / "e.json").read_text())
    text = cli(
        "certify", tmp_path / "e.json", "--source", s1, "--against", s2, "--limit", 200,
        "--out", tmp_path / "c.json", "--witness-out", tmp_path / "w.json",
    )
    assert text.startswith("refuted")
    cert = json.loads((tmp_path / "c.json").read_text())
    witness = checks.parse_family(json.loads((tmp_path / "w.json").read_text()))
    return encoded, cert, witness, s1, s2


def test_certificate_check_rejects_planted_faults(tmp_path):
    encoded, cert, _, s1, s2 = certified(tmp_path)
    arena = checks.Arena(encoded)
    assert checks.check_certificate(arena, cert, s1, [s2]) == []
    layers = cert["layers"]
    lower = [[x for x in layer if x != s2] for layer in layers[:-1]]
    raised = dict(cert, layers=[layer for layer in lower if layer] + [layers[-1] + [s2]])
    assert checks.check_certificate(arena, raised, s1, [s2])
    assert checks.check_certificate(arena, dict(cert, layers=layers[::-1]), s1, [s2])
    assert checks.check_certificate(arena, dict(cert, path=cert["path"][:-1]), s1, [s2])
    assert checks.check_certificate(arena, cert, s2, [s1])


def test_witness_check_accepts_the_program_and_rejects_a_weak_family(tmp_path):
    encoded, _, witness, s1, s2 = certified(tmp_path)
    values = solved(tmp_path, encoded, witness)
    assert checks.check_witness(values, s1, [s2]) == []
    assert checks.check_witness(dict(values, **{s1: Fraction(1, 2)}), s1, [s2])


def test_disjoint_paths_search_agrees_with_the_programs_oracle():
    rng = random.Random(7)
    seen = set()
    for _ in range(60):
        shape = corpus.GraphShape(rng.randint(4, 10), rng.choice([0.2, 0.3, 0.45]), rng.randrange(10**6))
        doc, terms = corpus.random_graph(shape)
        g = nwr.make_digraph(doc["vertices"], [tuple(e) for e in doc["edges"]])
        want = nwr.solve_2dp_oracle(g, *terms)
        assert checks.disjoint_paths_exist(doc, *terms) == want
        seen.add(want)
    assert seen == {True, False}


def test_verdict_check_rejects_a_flipped_verdict():
    for refuted in (True, False):
        doc, terms = graph_instance(refuted)
        assert checks.check_verdict(refuted, doc, terms) == []
        assert checks.check_verdict(not refuted, doc, terms)


def test_workloads_have_both_verdicts_and_pairs_only_exact_decision_proves(tmp_path):
    verdicts = set()
    for shape in corpus.GRAPHS:
        doc, terminals = corpus.random_graph(shape)
        verdicts.add(checks.disjoint_paths_exist(doc, *terminals))
    assert verdicts == {True, False}
    doc = renamed(corpus.DECIDE_1, 3)
    run.write_json(tmp_path / "a.json", doc)
    cli("relate", tmp_path / "a.json", "--out", tmp_path / "r.json")
    cli("relate", tmp_path / "a.json", "--exact", "--limit", 64, "--out", tmp_path / "x.json")
    derived = checks.singleton_pairs(json.loads((tmp_path / "r.json").read_text())["pairs"])
    decided = checks.singleton_pairs(json.loads((tmp_path / "x.json").read_text())["pairs"])
    assert derived < decided and len(decided - derived) == 14


def test_failed_operations_are_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    s = run.Runner(nwr)
    assert s.run("relate", "relate", tmp_path / "missing.json") is None
    assert s.run("solve_exact", "solve", tmp_path / "x.json", ready=False) is None

    def boom(argv):
        raise RecursionError("deep")

    monkeypatch.setattr(nwr.cli, "main", boom)
    assert s.run("relate", "relate", tmp_path / "x.json") is None
    monkeypatch.undo()
    run.write_json(tmp_path / "a.json", COIN)
    assert s.run("relate", "relate", tmp_path / "a.json", "--out", tmp_path / "r.json") is not None
    assert (s.attempted, s.failed) == (4, 3)


def test_a_pass_checks_clean_and_a_planted_output_is_caught(tmp_path):
    workload = corpus.Workload(relate=(corpus.DECIDE_5,), decide=(corpus.DECIDE_6,), graphs=corpus.GRAPHS[:4])
    (tmp_path / "in").mkdir()
    inputs = run.prepare(workload, 11, tmp_path / "in")
    s = run.Runner(nwr)
    run.run_pass(s, inputs, tmp_path / "p", nwr.lift_family, nwr.parse_arena)
    assert s.failed == 0 and s.attempted == 10 + 11 + 4 * 4
    checker = run.check_outputs(inputs, tmp_path / "p")
    assert checker.problems == []
    assert checker.counts["singleton_pairs"] > 0

    exact = tmp_path / "p" / f"{corpus.DECIDE_6.name}.mu0.exact.json"
    text = exact.read_text()
    doc = json.loads(text)
    vertex = sorted(doc["values"])[0]
    doc["values"][vertex] = str(Fraction(doc["values"][vertex]) + Fraction(1, 3))
    exact.write_text(json.dumps(doc))
    assert run.check_outputs(inputs, tmp_path / "p").problems
    exact.write_text(json.dumps({"mode": "exact", "values": []}))
    assert "checking raised" in run.check_outputs(inputs, tmp_path / "p").problems[0]
    exact.unlink()
    assert run.check_outputs(inputs, tmp_path / "p").problems
    assert run.check_outputs(inputs, tmp_path / "p", complete=False).problems == []


def test_speedometer_scales_by_the_mean_calibration_sample_near_an_interval():
    meter = speed.Speedometer()
    ref = speed.REFERENCE_S
    meter.stamps = [0.0, 1.0, 2.0, 3.0]
    meter.samples = [ref, 2 * ref, 4 * ref, ref]
    assert meter.scaled(0.5, 2.5, 3.0) == pytest.approx(1.0)  # at half speed on average
    assert meter.scaled(2.99, 3.0, 0.01) == pytest.approx(0.01)  # widened to the sample at 3
    assert meter.scaled(9.0, 9.01, 0.01) == pytest.approx(0.01 / 2.5)  # none near: the last two


def test_speedometer_samples_while_on_and_leaves_its_own_time_out():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer(period=0.005)
    with meter:
        mark = meter.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        start, end, net = meter.interval(mark)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0) and signal.getsignal(signal.SIGALRM) is before
    inside = [d for t, d in zip(meter.stamps, meter.samples) if start <= t <= end]
    assert len(inside) >= 5
    assert end - start - sum(inside) > net > 0
    assert meter.scaled(start, end, net) == pytest.approx(net * speed.REFERENCE_S / (sum(inside) / len(inside)))


def test_tracer_wraps_where_callers_look_and_restores(tmp_path):
    original = nwr.engine.saturate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nwr.reduce.saturate is nwr.cli.saturate is not original
        run.write_json(tmp_path / "a.json", corpus.random_arena(corpus.DECIDE_6))
        cli("reduce", tmp_path / "a.json")
        m = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert nwr.reduce.saturate is original and nwr.relation.NwrRelation.close.__name__ == "close"
    assert m["engine.saturate.calls"] == m["reduce.rounds"] > 0
    assert m["engine.rounds"] >= m["engine.saturate.calls"]
    assert m["cli.total_s"] > m["engine.saturate.s"] > m["relation.close.s"] > 0
    assert m["cli.self_s"] > 0 and m["reduce.classes"] > 0


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
