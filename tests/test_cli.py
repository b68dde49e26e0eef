import argparse
import copy
import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nwr.cli
import nwr.exact
from nwr import (
    NwrCertificate,
    decide_nwr,
    make_arena,
    parse_arena,
    parse_family,
    quotient,
    random_arena,
    saturate,
    serialize_arena,
    serialize_family,
    validate_arena,
)
from nwr.cli import main
from nwr.exact import decide_singletons
from _corpus import VERTEX_IDS, renamed
from _reference import reference_decide_nwr, reference_relate_document


@pytest.fixture
def coin_file(tmp_path, coin):
    path = tmp_path / "coin.json"
    path.write_text(serialize_arena(coin))
    return path


@pytest.fixture
def coin_family_file(tmp_path, coin_family):
    path = tmp_path / "mu.json"
    path.write_text(serialize_family(coin_family))
    return path


def test_validate_ok(coin_file, capsys):
    assert main(["validate", str(coin_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "p", "owner": "P", "target": True},
                    {"id": "n", "owner": "N"},
                ],
                "edges": [],
            }
        )
    )
    assert main(["validate", str(bad)]) == 2
    assert "n has no successor" in capsys.readouterr().out


def test_validate_malformed_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_solve_exact(coin_file, coin_family_file, capsys):
    assert main(["solve", str(coin_file), "--family", str(coin_family_file)]) == 0
    out = capsys.readouterr().out
    assert "v0 = 1/3" in out


def test_solve_iterate_writes_values(coin_file, coin_family_file, tmp_path, capsys):
    out_path = tmp_path / "values.json"
    code = main(
        ["solve", str(coin_file), "--family", str(coin_family_file), "--iterate", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["mode"] == "iterative"
    assert abs(float(doc["values"]["v0"]) - 1 / 3) < 1e-6


def test_solve_reports_protagonist_vertices_and_accepts_any_id(
    coin, coin_file, coin_family_file, tmp_path, capsys
):
    out_path = tmp_path / "values.json"
    args = ["solve", str(coin_file), "--family", str(coin_family_file), "--iterate"]
    assert main(args + ["--out", str(out_path)]) == 0
    printed = {line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()}
    assert printed == set(json.loads(out_path.read_text())["values"]) == coin.protagonist

    # "__sink__" is an ordinary vertex id, here the coin's target
    renamed = make_arena(
        ["v0", "__sink__", "f"], ["n0"], [("v0", "n0"), ("n0", "__sink__"), ("n0", "f")], ["__sink__"]
    )
    arena_path = tmp_path / "renamed.json"
    arena_path.write_text(serialize_arena(renamed))
    fam_path = tmp_path / "renamed_mu.json"
    fam_path.write_text(json.dumps({"n0": {"__sink__": "1/3", "f": "2/3"}}))
    for mode, want in (("--exact", "v0 = 1/3"), ("--iterate", "__sink__ = 1.0")):
        assert main(["solve", str(arena_path), "--family", str(fam_path), mode]) == 0
        assert want in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_solve_iterate_rejects_bad_tolerance(coin_file, coin_family_file, capsys, tol):
    argv = ["solve", str(coin_file), "--family", str(coin_family_file), "--iterate", "--tol", tol]
    assert main(argv) == 2
    assert "error: tol must be positive and finite" in capsys.readouterr().err


def test_solve_rejects_bad_family(coin_file, tmp_path):
    fam = tmp_path / "bad_mu.json"
    fam.write_text(json.dumps({"n0": {"t": "1"}}))
    assert main(["solve", str(coin_file), "--family", str(fam)]) == 2


@pytest.mark.parametrize(
    "text, bad",
    [
        ('{"n0": {"t": 1e400, "f": 0.5}}', "inf"),
        ('{"n0": {"t": -1e400, "f": 0.5}}', "-inf"),
        ('{"n0": {"t": true, "f": false}}', "True"),
    ],
)
def test_solve_malformed_family_value(coin_file, tmp_path, capsys, text, bad):
    fam = tmp_path / "bad_mu.json"
    fam.write_text(text)
    assert main(["solve", str(coin_file), "--family", str(fam)]) == 2
    err = capsys.readouterr().err
    assert f"family['n0']['t']: bad rational {bad}" in err
    assert "Traceback" not in err


def test_relate_finds_equivalence(tmp_path, funnel, capsys):
    path = tmp_path / "funnel.json"
    path.write_text(serialize_arena(funnel))
    assert main(["relate", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ["p", "q", "t"] in doc["classes"]
    assert {"v": "p", "W": ["t"]} in doc["pairs"]


def test_relate_exact_respects_limit(tmp_path, selector):
    path = tmp_path / "selector.json"
    path.write_text(serialize_arena(selector))
    assert main(["relate", str(path), "--exact"]) == 3
    assert main(["relate", str(path), "--exact", "--limit", "12"]) == 0


@pytest.mark.parametrize("seed", [1, 4, 5, 6])
def test_relate_exact_decides_only_unproved_pairs(tmp_path, monkeypatch, seed):
    a = random_arena(10, 8, 0.3, 1, seed)
    proved = saturate(a)
    unproved = {(v, w) for v in a.vertices for w in a.vertices if not proved.holds(v, (w,))}
    rel = copy.deepcopy(proved)
    for v in sorted(a.vertices):
        for w in sorted(a.vertices):
            if v != w and decide_nwr(a, v, {w}, limit=18).holds:
                rel.add(v, (w,))
    _, cmap = quotient(a, rel)
    classes = {}
    for vertex, cls in cmap.items():
        classes.setdefault(cls, []).append(vertex)
    every_pair_decided = {
        "pairs": [{"v": v, "W": sorted(w)} for v, w in rel.pairs()],
        "classes": sorted(sorted(m) for m in classes.values()),
    }
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return decide_nwr(*args, **kwargs)

    monkeypatch.setattr(nwr.exact, "decide_nwr", counted)
    path = tmp_path / "a.json"
    out = tmp_path / "rel.json"
    path.write_text(serialize_arena(a))
    assert main(["relate", str(path), "--exact", "--limit", "18", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == every_pair_decided
    # a refutation's certificate refutes other pairs, which are not searched
    called = {(v, w) for _, v, (w,) in calls}
    assert len(called) == len(calls) and called <= unproved
    assert len(calls) < len(unproved) if unproved else not calls
    for v, w in sorted(unproved - called):
        assert not reference_decide_nwr(a, v, {w}, limit=18).holds


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 10_000),
    st.lists(VERTEX_IDS, min_size=8, max_size=8, unique=True),
    st.booleans(),
)
def test_relate_matches_reference_writer(p, n, seed, names, exact):
    """``relate`` and ``relate --exact`` write the document the pair dicts
    through ``_dumps`` give, on arenas with escaped and non-ASCII ids and
    on the arena with no vertex."""
    a = renamed(random_arena(p, n, 0.4, 1, seed), names) if p else make_arena([], [], [], [])
    rel = saturate(a)
    if exact:
        decide_singletons(a, rel, 10)
    with tempfile.TemporaryDirectory() as d:
        path, out = Path(d) / "a.json", Path(d) / "rel.json"
        path.write_text(serialize_arena(a), encoding="utf-8")
        argv = ["relate", str(path), "--out", str(out)] + ["--exact"] * exact
        assert main(argv) == 0
        assert out.read_text(encoding="utf-8") == reference_relate_document(a, rel) + "\n"


def test_reduce_outputs(tmp_path, funnel, capsys):
    arena_path = tmp_path / "funnel.json"
    arena_path.write_text(serialize_arena(funnel))
    out = tmp_path / "reduced.json"
    report = tmp_path / "report.json"
    dot = tmp_path / "reduced.dot"
    code = main(
        ["reduce", str(arena_path), "--out", str(out), "--report", str(report), "--dot", str(dot)]
    )
    assert code == 0
    reduced = parse_arena(out.read_text())
    assert validate_arena(reduced).ok
    assert len(reduced.vertices) == 5
    doc = json.loads(report.read_text())
    assert doc["vertices"]["original"] == 9
    assert "shape=box" in dot.read_text()


def test_certify_search_and_verify(coin_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    witness_path = tmp_path / "mu.json"
    code = main(
        [
            "certify", str(coin_file), "--source", "t", "--against", "v0",
            "--out", str(cert_path), "--witness-out", str(witness_path),
        ]
    )
    assert code == 0
    assert "refuted" in capsys.readouterr().out
    cert = NwrCertificate.from_json(cert_path.read_text())
    assert cert.path == ("t",)
    fam = parse_family(witness_path.read_text())
    assert sum(fam["n0"].values()) == 1
    code = main(
        ["certify", str(coin_file), "--source", "t", "--against", "v0", "--check", str(cert_path)]
    )
    assert code == 0
    assert "verifies" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, message",
    [("[1]", "top level must be an object"), ("{}", "missing or non-list 'layers'")],
)
def test_certify_check_malformed_certificate(coin_file, tmp_path, capsys, text, message):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text)
    argv = ["certify", str(coin_file), "--source", "t", "--against", "v0", "--check", str(cert_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_certify_holds(coin_file, capsys):
    assert main(["certify", str(coin_file), "--source", "v0", "--against", "t"]) == 0
    assert "holds" in capsys.readouterr().out


def test_certify_size_limit(tmp_path, selector):
    path = tmp_path / "selector.json"
    path.write_text(serialize_arena(selector))
    assert main(["certify", str(path), "--source", "p", "--against", "q"]) == 3


@pytest.mark.parametrize(
    "command",
    [["relate", "--exact", "--limit", "5"], ["certify", "--source", "p", "--against", "q"]],
)
def test_size_limit_points_to_relate(tmp_path, selector, capsys, command):
    path = tmp_path / "selector.json"
    path.write_text(serialize_arena(selector))
    assert main([command[0], str(path), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert "over the limit of" in err
    assert "`nwr relate` without --exact" in err
    assert "saturate()" not in err


def test_gen_deterministic(tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--protagonist", "4", "--nature", "3", "--density", "1/2", "--targets", "1", "--seed", "7"]
    assert main(args + ["--out", str(a_path)]) == 0
    assert main(args + ["--out", str(b_path)]) == 0
    assert a_path.read_text() == b_path.read_text()
    arena = parse_arena(a_path.read_text())
    assert validate_arena(arena).ok


def test_gen_with_family(tmp_path):
    fam_path = tmp_path / "fam.json"
    arena_path = tmp_path / "arena.json"
    code = main(
        [
            "gen", "--protagonist", "3", "--nature", "2", "--density", "3/4",
            "--seed", "1", "--out", str(arena_path), "--family-out", str(fam_path),
        ]
    )
    assert code == 0
    arena = parse_arena(arena_path.read_text())
    fam = parse_family(fam_path.read_text())
    assert set(fam) == set(arena.nature)


def test_gen_writes_nothing_when_the_family_cannot_be_sampled(tmp_path, capsys):
    args = ["gen", "--protagonist", "3", "--nature", "2", "--max-denominator", "1"]
    family = tmp_path / "f.json"
    assert main(args + ["--family-out", str(family)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: max_denominator 1 is smaller than the 2 successors" in captured.err
    out, dot = tmp_path / "a.json", tmp_path / "a.dot"
    assert main(args + ["--family-out", str(family), "--out", str(out), "--dot", str(dot)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists() and not dot.exists() and not family.exists()


def test_zero_denominator_is_input_error(coin_file, capsys):
    for argv in (
        ["gen", "--protagonist", "3", "--nature", "2", "--density", "1/0"],
        ["certify", str(coin_file), "--source", "t", "--against", "v0", "--eps", "1/0"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: zero denominator in '1/0'" in err
        assert "Traceback" not in err


def test_2dp_pipeline(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(
        json.dumps(
            {"vertices": ["s1", "t1", "s2", "t2"], "edges": [["s1", "t1"], ["s2", "t2"]]}
        )
    )
    out = tmp_path / "arena.json"
    code = main(
        [
            "2dp", str(graph_path), "--s1", "s1", "--t1", "t1", "--s2", "s2", "--t2", "t2",
            "--out", str(out), "--oracle", "--decide",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "disjoint paths exist" in text
    assert "refuted" in text
    assert validate_arena(parse_arena(out.read_text())).ok


def test_2dp_malformed_graph_is_input_error(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps([["a", "b"]]))
    code = main(["2dp", str(graph_path), "--s1", "a", "--t1", "b", "--s2", "a", "--t2", "b"])
    assert code == 2
    err = capsys.readouterr().err
    assert "top level must be an object" in err
    assert "Traceback" not in err


def test_2dp_edge_off_the_vertices_is_input_error(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(
        json.dumps({"vertices": ["a", "b", "c", "d"], "edges": [["a", "c"], ["b", "d"], ["a", "zz"]]})
    )
    code = main(["2dp", str(graph_path), "--s1", "a", "--t1", "c", "--s2", "b", "--t2", "d"])
    assert code == 2
    err = capsys.readouterr().err
    assert "edges[2]: unknown vertex 'zz'" in err
    assert "Traceback" not in err


def test_bench_csv(tmp_path, funnel, coin):
    arenas = tmp_path / "arenas"
    arenas.mkdir()
    (arenas / "funnel.json").write_text(serialize_arena(funnel))
    (arenas / "coin.json").write_text(serialize_arena(coin))
    out = tmp_path / "bench.csv"
    assert main(["bench", str(arenas), "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [r["name"] for r in rows] == ["coin", "funnel"]
    funnel_row = rows[1]
    assert funnel_row["|V|"] == "9"
    assert funnel_row["|V_reduced|"] == "5"
    assert int(funnel_row["rounds"]) >= 1
    for row in rows:
        pct = 100.0 * (int(row["|V|"]) - int(row["|V_reduced|"])) / int(row["|V|"])
        assert 0.0 <= pct <= 100.0


@pytest.mark.parametrize("name", ["nope", "file.json"])
def test_bench_needs_a_directory(tmp_path, capsys, name):
    (tmp_path / "file.json").write_text("{}")
    assert main(["bench", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert "not a directory" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_bench_empty_directory_prints_header(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [",".join(nwr.cli.CSV_COLUMNS)]


def test_missing_file_is_input_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command", ["validate", "relate", "solve", "2dp", "certify"])
def test_over_deep_json_is_input_error(coin_file, coin_family_file, tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    argv = {
        "validate": ["validate", str(deep)],
        "relate": ["relate", str(deep)],
        "solve": ["solve", str(coin_file), "--family", str(deep)],
        "2dp": ["2dp", str(deep), "--s1", "a", "--t1", "b", "--s2", "c", "--t2", "d"],
        "certify": ["certify", str(coin_file), "--source", "t", "--against", "v0", "--check", str(deep)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: malformed JSON: maximum recursion depth exceeded" in err
    assert "Traceback" not in err


def test_exponent_notation_is_input_error(coin_file, tmp_path, capsys):
    fam = tmp_path / "mu.json"
    fam.write_text(json.dumps({"n0": {"t": "1e-999999999", "f": "1/2"}}))
    for argv in (
        ["solve", str(coin_file), "--family", str(fam)],
        ["certify", str(coin_file), "--source", "t", "--against", "v0", "--eps", "1e-999999999"],
        ["gen", "--protagonist", "3", "--nature", "2", "--density", "1e-999999999"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "exponent notation is not accepted in '1e-999999999'" in err
        assert "Traceback" not in err


def test_main_builds_its_parser_once(coin_file, coin_family_file, monkeypatch, capsys):
    assert main(["validate", str(coin_file)]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv, code in (
        (["validate", str(coin_file)], 0),
        (["solve", str(coin_file), "--family", str(coin_family_file)], 0),
        (["certify", str(coin_file), "--source", "v0", "--against", "t"], 0),
        (["gen", "--protagonist", "2", "--nature", "1"], 0),
        (["no-such-command"], 1),
    ):
        assert main(argv) == code
    assert built == []


def _run_in_order(keys, commands, out_dir, capsys):
    """Run ``commands[key]`` for each key in order, writing into
    ``out_dir``; return each command's exit code and output, and the files
    written, with ``out_dir`` masked."""
    out_dir.mkdir()
    runs = {}
    for key in keys:
        code = main([part.replace("{out}", str(out_dir)) for part in commands[key]])
        captured = capsys.readouterr()
        runs[key] = (code, captured.out.replace(str(out_dir), "{out}"), captured.err)
    files = {path.name: path.read_text() for path in sorted(out_dir.iterdir())}
    return runs, files


def test_main_output_does_not_depend_on_earlier_calls(coin_file, coin_family_file, funnel, tmp_path, capsys):
    funnel_file = tmp_path / "funnel.json"
    funnel_file.write_text(serialize_arena(funnel))
    graph_file = tmp_path / "g.json"
    graph_file.write_text(
        json.dumps({"vertices": ["s1", "t1", "s2", "t2"], "edges": [["s1", "t1"], ["s2", "t2"]]})
    )
    coin, family, graph = str(coin_file), str(coin_family_file), str(graph_file)
    certify = ["certify", coin, "--source", "t", "--against", "v0"]
    commands = {
        "solve-iterate": ["solve", coin, "--family", family, "--iterate", "--out", "{out}/iterate.json"],
        "solve": ["solve", coin, "--family", family, "--out", "{out}/exact.json"],
        "usage-error": ["solve", coin],
        "certify-eps": certify + ["--eps", "1/64", "--out", "{out}/c1.json", "--witness-out", "{out}/w1.json"],
        "certify": certify + ["--out", "{out}/c2.json", "--witness-out", "{out}/w2.json"],
        "relate-exact": ["relate", str(funnel_file), "--exact", "--out", "{out}/exact-rel.json"],
        "relate": ["relate", str(funnel_file), "--out", "{out}/rel.json"],
        "reduce": ["reduce", str(funnel_file), "--out", "{out}/red.json", "--report", "{out}/rep.json"],
        "2dp": ["2dp", graph, "--s1", "s1", "--t1", "t1", "--s2", "s2", "--t2", "t2", "--out", "{out}/2dp.json"],
        "gen": ["gen", "--protagonist", "3", "--nature", "2", "--seed", "5", "--out", "{out}/gen.json"],
    }
    keys = list(commands)
    forward = _run_in_order(keys, commands, tmp_path / "forward", capsys)
    backward = _run_in_order(keys[::-1], commands, tmp_path / "backward", capsys)
    assert forward == backward
    runs, files = forward
    assert runs["solve"][:2] == (0, "f = 0\nn0 = 1/3\nt = 1\nv0 = 1/3\n")
    assert json.loads(files["exact.json"])["mode"] == "exact"
    assert json.loads(files["iterate.json"])["mode"] == "iterative"
    assert runs["usage-error"][0] == 1
    assert "the following arguments are required: --family" in runs["usage-error"][2]
    assert files["w1.json"] != files["w2.json"]
    assert len(files) == 12


def _input_error(capsys, message: str) -> None:
    """The last command printed ``error: <message>`` as its one line on
    standard error, no traceback, and nothing on standard output."""
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "relate", "reduce", "certify"])
def test_invalid_arena_is_input_error(tmp_path, coin_family_file, capsys, command):
    """An arena that parses but breaks an invariant, here with an edge
    between two Protagonist vertices, is refused before any work."""
    doc = {
        "vertices": [
            {"id": "p", "owner": "P"},
            {"id": "t", "owner": "P", "target": True},
            {"id": "n", "owner": "N"},
        ],
        "edges": [["p", "n"], ["n", "t"], ["p", "t"]],
    }
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(doc))
    argv = {
        "solve": ["solve", str(path), "--family", str(coin_family_file)],
        "relate": ["relate", str(path)],
        "reduce": ["reduce", str(path)],
        "certify": ["certify", str(path), "--source", "p", "--against", "t"],
    }[command]
    assert main(argv) == 2
    _input_error(capsys, "edge (p,t) is not bipartite")


def test_certify_check_of_a_certificate_that_does_not_verify(coin, coin_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(decide_nwr(coin, "t", {"v0"}).certificate.to_json())
    argv = ["certify", str(coin_file), "--source", "t", "--against", "f", "--check", str(cert_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "certificate does not verify\n"
    assert captured.err == ""


@pytest.mark.parametrize("mode", ["--exact", "--iterate"])
@pytest.mark.parametrize(
    "family, message",
    [
        ({"n0": {"t": "1/3", "f": "2/3"}, "v0": {"t": "1"}}, "family defined on non-Nature vertex v0"),
        ({}, "family missing Nature vertex n0"),
    ],
)
def test_family_off_the_nature_vertices_is_input_error(coin_file, tmp_path, capsys, mode, family, message):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(family))
    assert main(["solve", str(coin_file), "--family", str(path), mode]) == 2
    _input_error(capsys, message)


@pytest.mark.parametrize(
    "entries, message",
    [
        ('"p"', "vertices[0]: must be an object"),
        ('{"id": "p", "owner": "P", "color": "red"}', "vertices[0]: unknown key 'color'"),
        ('{"owner": "P"}', "vertices[0]: missing string 'id'"),
        ('{"id": 7, "owner": "P"}', "vertices[0]: missing string 'id'"),
        ('{"id": "p", "owner": "P"}, {"id": "p", "owner": "N"}', "vertices[1]: duplicate id 'p'"),
        ('{"id": "p", "owner": "X"}', "vertices[0]: owner must be 'P' or 'N'"),
        ('{"id": "p", "owner": "P", "target": 1}', "vertices[0]: target must be a boolean"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "relate"])
def test_bad_vertex_entry_is_input_error(tmp_path, capsys, entries, message, command):
    path = tmp_path / "arena.json"
    path.write_text(f'{{"vertices": [{entries}], "edges": []}}')
    assert main([command, str(path)]) == 2
    _input_error(capsys, message)


@pytest.mark.parametrize(
    "source, against, message",
    [("t", ",", "W must be non-empty"), ("zz", "v0", "unknown vertex zz"), ("t", "v0,zz", "unknown vertex zz")],
)
def test_certify_query_off_the_arena_is_input_error(coin_file, capsys, source, against, message):
    assert main(["certify", str(coin_file), "--source", source, "--against", against]) == 2
    _input_error(capsys, message)


@pytest.mark.parametrize(
    "graph, terminals, message",
    [
        (
            {"vertices": ["a", "b", "c", "d", "(a,c)"], "edges": [["a", "c"], ["a", "(a,c)"], ["(a,c)", "c"], ["b", "d"]]},
            ["a", "c", "b", "d"],
            "graph vertex (a,c) collides with an edge-vertex name",
        ),
        (
            {"vertices": ["a", "b", "c", "d"], "edges": [["a", "c"], ["b", "d"]]},
            ["a", "c", "b", "zz"],
            "designated vertex zz is not in the graph",
        ),
    ],
)
def test_2dp_instance_that_cannot_be_encoded_is_input_error(tmp_path, capsys, graph, terminals, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    argv = ["2dp", str(path), "--oracle", "--decide"]
    for flag, vertex in zip(("--s1", "--t1", "--s2", "--t2"), terminals):
        argv += [flag, vertex]
    assert main(argv) == 2
    _input_error(capsys, message)
