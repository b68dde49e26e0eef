"""Benchmark for ``nwr``: one workload per process, every output checked.

    python3 perfbench/run.py --workload sparse-reduce --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
driven through ``nwr.cli.main`` in-process, one CLI call per operation.
Set-up (generating and writing the inputs, plus a warm-up) runs ten times
before the passes and ten times after them, and reports its median.  Passes
over the workload's inputs repeat until ``--seconds`` have elapsed, at
least once; each timed metric is the median over passes of that pass's
total for one kind of command.  Times are taken at the reference speed of
``speed.py``.  After the last pass the checkers in ``checks.py`` examine
the first pass's outputs, and every later pass must reproduce them byte for
byte.  The command re-executes itself once with ``PYTHONHASHSEED`` fixed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of ``tracing.py``).  Problems and failed
operations are listed on standard error.  Exit code 2 means the program
could not be loaded or the inputs not written, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from io import StringIO
from pathlib import Path

import checks
import corpus
from speed import Speedometer
from tracing import METRICS as LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups before the passes, and again after them.
SETUPS = 10
#: ``PYTHONHASHSEED`` of every run.
HASH_SEED = "0"

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "relate_s": "s",
    "reduce_s": "s",
    "reduced_vertices": "count",
    "reduced_edges": "count",
    "singleton_pairs": "count",
    "solve_exact_s": "s",
    "solve_iterate_s": "s",
    "decide_s": "s",
    "certify_s": "s",
}
#: Kinds of timed operation, each the source of one ``<kind>_s`` metric.
KINDS = ("relate", "reduce", "solve_exact", "solve_iterate", "decide", "certify")


def load_program():
    """Import ``nwr`` from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nwr.cli
        import nwr.reduce
    except ImportError as exc:
        print(f"perfbench: cannot import nwr from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if not Path(nwr.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: nwr was imported from {nwr.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return nwr


@dataclass
class ArenaInput:
    name: str
    path: Path
    doc: dict
    families: list[tuple[Path, dict]]
    exact: bool = False


@dataclass
class GraphInput:
    name: str
    path: Path
    doc: dict
    terminals: tuple[str, str, str, str]
    seed: int


@dataclass
class Inputs:
    relate: list[ArenaInput] = field(default_factory=list)
    solve: list[ArenaInput] = field(default_factory=list)
    graphs: list[GraphInput] = field(default_factory=list)


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def prepare(workload: corpus.Workload, seed: int, where: Path) -> Inputs:
    """Generate the workload's inputs from ``seed`` and write them."""
    rng = random.Random(seed)
    inputs = Inputs()

    def arena(shape: corpus.ArenaShape, denominators=corpus.FAMILY_DENOMINATORS, exact=False) -> ArenaInput:
        canonical = corpus.random_arena(shape)
        rename = corpus.renaming(canonical, random.Random(rng.randrange(2**32)))
        doc = corpus.relabel(canonical, rename)
        path = where / f"{shape.name}.json"
        write_json(path, doc)
        families = []
        for i, den in enumerate(denominators):
            family = corpus.sample_family(canonical, den, random.Random(f"{shape.name}/{den}"))
            fam = corpus.family_doc(corpus.relabel_family(family, rename))
            write_json(where / f"{shape.name}.mu{i}.json", fam)
            families.append((where / f"{shape.name}.mu{i}.json", fam))
        return ArenaInput(shape.name, path, doc, families, exact)

    inputs.relate += [arena(shape) for shape in workload.relate]
    inputs.relate += [arena(shape, exact=True) for shape in workload.decide]
    dens = corpus.FAMILY_DENOMINATORS
    inputs.solve += [arena(shape, (dens[i % len(dens)],)) for i, shape in enumerate(workload.solve)]
    for shape in workload.graphs:
        doc, terminals = corpus.relabel_graph(*corpus.random_graph(shape), random.Random(rng.randrange(2**32)))
        path = where / f"{shape.name}.json"
        write_json(path, doc)
        inputs.graphs.append(GraphInput(shape.name, path, doc, terminals, rng.randrange(2**32)))
    return inputs


class Runner:
    """Runs ``nwr`` CLI calls in-process; times each by kind, counts failures."""

    def __init__(self, nwr, speedometer: Speedometer | None = None):
        self.cli = nwr.cli
        self.speedometer = speedometer or Speedometer()
        self.calls: list[tuple[str, float, float, float]] = []  # kind, start, end, net seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, kind: str, *argv, ready: bool = True) -> str | None:
        """Standard output of one call, or None when it failed.  A call whose
        input an earlier failed call should have made counts as failed."""
        self.attempted += 1
        args = [str(a) for a in argv]
        if not ready:
            self.failed += 1
            self.errors.append(f"{' '.join(args)}: skipped, an input was not produced")
            return None
        out, err = StringIO(), StringIO()
        mark = self.speedometer.mark()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(args)
        except Exception:  # an operation that raises is a failed operation
            code = "raised " + traceback.format_exc(limit=-3)
        self.calls.append((kind, *self.speedometer.interval(mark)))
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(args)}: exit {code} {err.getvalue().strip()}")
            return None
        return out.getvalue()

    def times(self) -> dict[str, float]:
        """Seconds per kind of call, at the speedometer's reference speed."""
        times: dict[str, float] = defaultdict(float)
        for kind, start, end, net in self.calls:
            times[kind] += self.speedometer.scaled(start, end, net)
        return times


def solve_both(s: Runner, arena: Path, family: Path, prefix: Path, ready: bool = True) -> None:
    s.run("solve_exact", "solve", arena, "--family", family, "--exact", "--out", f"{prefix}.exact.json", ready=ready)
    s.run("solve_iterate", "solve", arena, "--family", family, "--iterate", "--out", f"{prefix}.iterate.json", ready=ready)


def interleave(*groups: list) -> list:
    """Merge lists, keeping each one's order, so that each spreads evenly."""
    placed = [((j + 0.5) / len(tasks), k, task) for k, tasks in enumerate(groups) for j, task in enumerate(tasks)]
    return [task for _, _, task in sorted(placed, key=lambda p: p[:2])]


def run_pass(s: Runner, inputs: Inputs, out: Path, lift_family, parse_arena) -> None:
    """One pass: every operation of the workload, outputs written under ``out``.

    Each input yields a list of tasks of one or two operations, run in
    order.  The tasks of the three kinds of input are interleaved, so that
    every metric samples the machine at many moments of the pass.
    """
    out.mkdir()

    def relational(a: ArenaInput) -> list:
        base = out / a.name
        reduced = Path(f"{base}.reduced.json")
        done: dict[str, bool] = {}

        def relate():
            s.run("relate", "relate", a.path, "--out", f"{base}.relation.json")

        def reduce():
            made = s.run("reduce", "reduce", a.path, "--out", reduced, "--report", f"{base}.report.json")
            done["reduce"] = made is not None

        def decide():
            limit = len(a.doc["vertices"])
            s.run("decide", "relate", a.path, "--exact", "--limit", limit, "--out", f"{base}.exact.json")

        def solve_original(i, family):
            solve_both(s, a.path, family, Path(f"{base}.mu{i}"))

        def solve_reduced(i, family, fam_doc):
            lifted = Path(f"{base}.reduced.mu{i}.json")
            lift = None
            if done["reduce"]:
                try:
                    small = parse_arena(reduced.read_text(encoding="utf-8"))
                    class_map = read_json(Path(f"{base}.report.json"))["class_map"]
                    lift = lift_family(small, checks.parse_family(fam_doc), class_map)
                except Exception:  # a fault in the program's outputs or in lift_family
                    s.errors.append(f"lifting {family} to {reduced}: {traceback.format_exc(limit=-2)}")
                else:
                    write_json(lifted, corpus.family_doc(lift))
            solve_both(s, reduced, lifted, Path(f"{base}.reduced.mu{i}"), ready=lift is not None)

        tasks = [relate, reduce] + ([decide] if a.exact else [])
        for i, (family, fam_doc) in enumerate(a.families):
            tasks += [partial(solve_original, i, family), partial(solve_reduced, i, family, fam_doc)]
        return tasks

    def solve(a: ArenaInput) -> list:
        return [
            partial(solve_both, s, a.path, family, out / f"{a.name}.mu{i}")
            for i, (family, _) in enumerate(a.families)
        ]

    def graph(g: GraphInput) -> None:
        base = out / g.name
        s1, t1, s2, t2 = g.terminals
        encoded = Path(f"{base}.arena.json")
        made = s.run("certify", "2dp", g.path, "--s1", s1, "--t1", t1, "--s2", s2, "--t2", t2, "--out", encoded)
        doc = read_json(encoded) if made is not None else None
        verdict = s.run(
            "certify", "certify", encoded, "--source", s1, "--against", s2,
            "--limit", len(doc["vertices"]) if doc else 0, "--out", f"{base}.cert.json",
            "--witness-out", f"{base}.witness.json", ready=doc is not None,
        )
        family = Path(f"{base}.witness.json")
        if verdict is not None:
            Path(f"{base}.verdict.txt").write_text(verdict, encoding="utf-8")
            if not verdict.startswith("refuted"):
                family = Path(f"{base}.sampled.json")
                write_json(family, corpus.family_doc(corpus.sample_family(doc, 16, random.Random(g.seed))))
        solve_both(s, encoded, family, base, ready=verdict is not None)

    for task in interleave(
        [task for a in inputs.relate for task in relational(a)],
        [task for a in inputs.solve for task in solve(a)],
        [partial(graph, g) for g in inputs.graphs],
    ):
        task()


def read_json(path: Path):
    """A JSON output of the program, or None when it is missing or malformed."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class Checker:
    """Checks one pass's outputs; collects problems and the output counts.

    With ``complete`` (no operation of the pass failed) every output must be
    there; otherwise the checks that need a missing output are skipped.
    """

    def __init__(self, out: Path, complete: bool):
        self.out = out
        self.complete = complete
        self.problems: list[str] = []
        self.counts = {"reduced_vertices": 0, "reduced_edges": 0, "singleton_pairs": 0}

    def load(self, name: str):
        doc = read_json(self.out / name)
        if doc is None and self.complete:
            self.problems.append(f"{name}: missing or malformed")
        return doc

    def note(self, where: str, problems: list[str]) -> None:
        self.problems += [f"{where}: {p}" for p in problems[:5]]

    def values(self, arena: checks.Arena, family_doc: dict | None, prefix: str):
        """Verified exact values, or None when missing or wrong."""
        exact, iterated = self.load(f"{prefix}.exact.json"), self.load(f"{prefix}.iterate.json")
        if family_doc is None or exact is None:
            return None
        family = checks.parse_family(family_doc)
        reference = checks.iterate_values(arena, family)
        values = checks.parse_values(exact)
        found = checks.check_exact_values(arena, family, values, reference)
        if iterated is not None:
            found += checks.check_iterated_values(arena, checks.parse_values(iterated), reference)
        self.note(prefix, found)
        return None if found else values

    def relate(self, a: ArenaInput) -> None:
        arena = checks.Arena(a.doc)
        relation = self.load(f"{a.name}.relation.json")
        report = self.load(f"{a.name}.report.json")
        reduced = self.load(f"{a.name}.reduced.json")
        exact = self.load(f"{a.name}.exact.json") if a.exact else None
        if report is not None:
            self.counts["reduced_vertices"] += report["vertices"]["reduced"]
            self.counts["reduced_edges"] += report["edges"]["reduced"]
        if relation is not None:
            self.counts["singleton_pairs"] += len(checks.singleton_pairs(relation["pairs"]))
        sampled = []
        for i, (_, fam_doc) in enumerate(a.families):
            values = self.values(arena, fam_doc, f"{a.name}.mu{i}")
            if values is None:
                continue
            sampled.append(values)
            for doc, what in ((relation, "relation"), (exact, "exact relation")):
                if doc is not None:
                    self.note(f"{a.name} {what}, family {i}", checks.check_relation_sound(doc["pairs"], values))
            if reduced is not None and report is not None:
                small = checks.Arena(reduced)
                lifted = self.load(f"{a.name}.reduced.mu{i}.json")
                reduced_values = self.values(small, lifted, f"{a.name}.reduced.mu{i}")
                if reduced_values is not None:
                    self.note(
                        f"{a.name} reduction, family {i}",
                        checks.check_preservation(arena, report["class_map"], values, reduced_values),
                    )
        if relation is not None and exact is not None:
            self.note(
                f"{a.name} exact decision",
                checks.check_holds_verdicts(
                    checks.singleton_pairs(relation["pairs"]), checks.singleton_pairs(exact["pairs"]), sampled
                ),
            )

    def solve(self, a: ArenaInput) -> None:
        arena = checks.Arena(a.doc)
        for i, (_, fam_doc) in enumerate(a.families):
            self.values(arena, fam_doc, f"{a.name}.mu{i}")

    def graph(self, g: GraphInput) -> None:
        encoded = self.load(f"{g.name}.arena.json")
        verdict_path = self.out / f"{g.name}.verdict.txt"
        if encoded is None or not verdict_path.exists():
            return
        refuted = verdict_path.read_text(encoding="utf-8").startswith("refuted")
        self.note(g.name, checks.check_verdict(refuted, g.doc, g.terminals))
        arena = checks.Arena(encoded)
        source, against = g.terminals[0], [g.terminals[2]]
        if refuted:
            cert = self.load(f"{g.name}.cert.json")
            if cert is not None:
                self.note(f"{g.name} certificate", checks.check_certificate(arena, cert, source, against))
            values = self.values(arena, self.load(f"{g.name}.witness.json"), g.name)
            if values is not None:
                self.note(f"{g.name} witness", checks.check_witness(values, source, against))
        else:
            values = self.values(arena, self.load(f"{g.name}.sampled.json"), g.name)
            if values is not None:
                pair = {(source, against[0])}
                self.note(f"{g.name} holds", checks.check_holds_verdicts(set(), pair, [values]))


def check_outputs(inputs: Inputs, out: Path, complete: bool = True) -> Checker:
    checker = Checker(out, complete)
    try:
        for a in inputs.relate:
            checker.relate(a)
        for a in inputs.solve:
            checker.solve(a)
        for g in inputs.graphs:
            checker.graph(g)
    except Exception:  # an output malformed in a way no check foresaw
        checker.problems.append("checking raised " + traceback.format_exc(limit=-2))
    return checker


def snapshot(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def warm_up(nwr, where: Path) -> None:
    """One call of each command on a one-choice arena and a four-vertex graph."""
    coin = corpus.arena_doc(["v", "t", "f"], ["n"], {("v", "n"), ("n", "t"), ("n", "f")}, {"t"})
    write_json(where / "warm.json", coin)
    write_json(where / "warm.mu.json", {"n": {"t": "1/3", "f": "2/3"}})
    write_json(where / "warm.graph.json", {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]})
    s = Runner(nwr)
    for argv in (
        ("relate", where / "warm.json", "--out", where / "warm.rel.json"),
        ("relate", where / "warm.json", "--exact", "--out", where / "warm.rel.json"),
        ("reduce", where / "warm.json", "--out", where / "warm.red.json"),
        ("solve", where / "warm.json", "--family", where / "warm.mu.json", "--out", where / "warm.val.json"),
        ("solve", where / "warm.json", "--family", where / "warm.mu.json", "--iterate", "--out", where / "warm.val.json"),
        ("2dp", where / "warm.graph.json", "--s1", "a", "--t1", "b", "--s2", "c", "--t2", "d", "--out", where / "warm.2dp.json"),
        ("certify", where / "warm.2dp.json", "--source", "a", "--against", "c", "--limit", 20, "--out", where / "warm.cert.json"),
    ):
        s.run("warm", *argv)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes decide the layout of every set and dict in the
        # program, and so a part of its speed: fix them in every run.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])

    nwr = load_program()
    lift_family, parse_arena = nwr.reduce.lift_family, nwr.arena.parse_arena
    workload = corpus.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    tracer = Tracer() if args.trace else None
    # Traced runs report the tracer's spans, which calibration samples would
    # inflate, so they run without sampling.
    speedometer = Speedometer()
    setups = []

    def set_up() -> Inputs:
        mark = speedometer.mark()
        inputs_dir = work / "inputs"
        shutil.rmtree(inputs_dir, ignore_errors=True)
        inputs_dir.mkdir()
        inputs = prepare(workload, args.seed, inputs_dir)
        warm_up(nwr, inputs_dir)
        setups.append(speedometer.interval(mark))
        return inputs

    try:
        with speedometer if not tracer else nullcontext():
            try:
                for _ in range(SETUPS):
                    inputs = set_up()
            except OSError as exc:
                print(f"perfbench: cannot write the inputs: {exc}", file=sys.stderr)
                return 2

            if tracer:
                tracer.install()
            passes, layers = [], []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                s = Runner(nwr, speedometer)
                if tracer:
                    tracer.reset()
                run_pass(s, inputs, work / f"pass{len(passes)}", lift_family, parse_arena)
                passes.append(s)
                if tracer:
                    layers.append(tracer.layer_metrics())
            if tracer:
                tracer.uninstall()
            # More set-ups, at a later moment of the machine's changing speed;
            # they write the same inputs again.
            for _ in range(SETUPS):
                set_up()

        checker = check_outputs(inputs, work / "pass0", complete=passes[0].failed == 0)
        first = snapshot(work / "pass0")
        for i in range(1, len(passes)):
            if snapshot(work / f"pass{i}") != first:
                checker.problems.append(f"pass {i} outputs differ from pass 0")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if scratch.exists() and not any(scratch.iterdir()):
            scratch.rmdir()

    for s in passes[:1]:
        for error in s.errors:
            print(f"failed: {error}", file=sys.stderr)
    for problem in checker.problems:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes", file=sys.stderr)

    if tracer:
        values = {name: statistics.median(m[name] for m in layers) for name in LAYER_METRICS}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        times = [s.times() for s in passes]
        values = {f"{kind}_s": statistics.median(t[kind] for t in times) for kind in KINDS}
        values.update(checker.counts)
        values["setup_s"] = statistics.median(speedometer.scaled(*setup) for setup in setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not checker.problems,
        "attempted": sum(s.attempted for s in passes),
        "failed": sum(s.failed for s in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
