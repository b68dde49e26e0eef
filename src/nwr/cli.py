"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 size limit
exceeded.  All randomized commands take ``--seed`` and default to 0, so
every invocation is reproducible from its arguments alone.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from functools import cache
from pathlib import Path

from .arena import (
    ArenaFormatError,
    _dumps,
    arena_to_dot,
    instantiate_mdp,
    parse_arena,
    parse_family,
    parse_rational,
    random_arena,
    random_family,
    serialize_arena,
    serialize_family,
    validate_arena,
)
from .engine import saturate
from .exact import (
    NwrCertificate,
    SizeLimitError,
    check_size,
    decide_nwr,
    decide_singletons,
    epsilon_witness,
    verify_certificate,
)
from .reduce import proven_classes, reduce_fixpoint
from .solve import value_iteration, vertex_values
from .twodp import parse_digraph, reduce_2dp, solve_2dp_oracle

CSV_COLUMNS = [
    "name",
    "|V|",
    "|E|",
    "|V_reduced|",
    "|E_reduced|",
    "classes",
    "edges_trimmed",
    "rounds",
    "wall_ms",
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@cache
def _build_parser() -> _Parser:
    """The ``nwr`` parser, built once per process: ``parse_args`` makes a
    fresh namespace on every call, so ``main`` may reuse it."""
    p = _Parser(prog="nwr", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check an arena file and report violations")
    v.add_argument("arena", type=Path)
    v.add_argument("--dot", type=Path, help="also write a DOT rendering")

    s = sub.add_parser("solve", help="reachability values for an arena plus family")
    s.add_argument("arena", type=Path)
    s.add_argument("--family", type=Path, required=True)
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--iterate", dest="exact", action="store_false")
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--out", type=Path, help="write the value vector JSON here")

    r = sub.add_parser("relate", help="saturate the under-approximation")
    r.add_argument("arena", type=Path)
    r.add_argument("--exact", action="store_true", help="also decide every singleton pair exactly")
    r.add_argument("--limit", type=int, default=10)
    r.add_argument("--out", type=Path, help="write the relation JSON here")

    d = sub.add_parser("reduce", help="collapse equivalences and trim dominated edges")
    d.add_argument("arena", type=Path)
    d.add_argument("--out", type=Path, help="write the reduced arena JSON here")
    d.add_argument("--report", type=Path, help="write the reduction report JSON here")
    d.add_argument("--dot", type=Path, help="write a DOT rendering of the reduced arena")

    c = sub.add_parser("certify", help="search or verify a refutation certificate")
    c.add_argument("arena", type=Path)
    c.add_argument("--source", required=True, help="the vertex claimed never worse")
    c.add_argument("--against", required=True, help="comma-separated vertex set W")
    c.add_argument("--check", type=Path, help="verify this certificate file instead of searching")
    c.add_argument("--eps", help="witness epsilon as a rational string, e.g. 1/64")
    c.add_argument("--limit", type=int, default=10)
    c.add_argument("--out", type=Path, help="write the certificate JSON here")
    c.add_argument("--witness-out", type=Path, help="write the witness family JSON here")

    g = sub.add_parser("gen", help="generate a random valid arena")
    g.add_argument("--protagonist", type=int, required=True)
    g.add_argument("--nature", type=int, required=True)
    g.add_argument("--density", type=str, default="1/2")
    g.add_argument("--targets", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=Path)
    g.add_argument("--dot", type=Path)
    g.add_argument("--family-out", type=Path, help="also sample a family for the arena")
    g.add_argument("--max-denominator", type=int, default=32)

    t = sub.add_parser("2dp", help="encode a disjoint-paths instance as an arena")
    t.add_argument("graph", type=Path)
    t.add_argument("--s1", required=True)
    t.add_argument("--t1", required=True)
    t.add_argument("--s2", required=True)
    t.add_argument("--t2", required=True)
    t.add_argument("--out", type=Path, help="write the encoded arena JSON here")
    t.add_argument("--oracle", action="store_true", help="also solve exhaustively")
    t.add_argument("--decide", action="store_true", help="also run the exact decision")
    t.add_argument("--limit", type=int, default=40)

    b = sub.add_parser("bench", help="reduce every arena in a directory, emit CSV stats")
    b.add_argument("directory", type=Path)
    b.add_argument("--out", type=Path, help="write the CSV here (default stdout)")
    return p


def _load_arena(path: Path):
    arena = parse_arena(path.read_text(encoding="utf-8"))
    report = validate_arena(arena)
    if not report.ok:
        raise ArenaFormatError("; ".join(report.problems))
    return arena


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        out.write_text(text + ("" if text.endswith("\n") else "\n"), encoding="utf-8")


def _cmd_validate(args) -> int:
    arena = parse_arena(args.arena.read_text(encoding="utf-8"))
    report = validate_arena(arena)
    if args.dot:
        args.dot.write_text(arena_to_dot(arena), encoding="utf-8")
    if report.ok:
        print("ok")
        return 0
    for problem in report.problems:
        print(problem)
    return 2


def _cmd_solve(args) -> int:
    arena = _load_arena(args.arena)
    family = parse_family(args.family.read_text(encoding="utf-8"))
    if args.exact:
        vv = vertex_values(arena, family)
    else:
        vv = value_iteration(instantiate_mdp(arena, family), tol=args.tol)
    for vertex in sorted(vv.values):
        print(f"{vertex} = {vv.values[vertex]}")
    if args.out:
        _emit(_dumps(vv.to_json_dict()), args.out)
    return 0


def _cmd_relate(args) -> int:
    arena = _load_arena(args.arena)
    if args.exact:
        check_size(arena, args.limit)
    rel = saturate(arena)
    if args.exact:
        decide_singletons(arena, rel, args.limit)
    classes: dict[str, list[str]] = {}
    for vertex, cls in proven_classes(arena, rel).items():
        classes.setdefault(cls, []).append(vertex)
    # json.dumps({"pairs": ..., "classes": ...}, indent=2), with the pair
    # list written by the relation's own writer one level in
    pairs = rel.to_json("\n  ")
    members = _dumps(sorted(sorted(m) for m in classes.values()), "\n  ")
    _emit(f'{{\n  "pairs": {pairs},\n  "classes": {members}\n}}', args.out)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_reduce(args) -> int:
    arena = _load_arena(args.arena)
    reduced, report = reduce_fixpoint(arena)
    print(
        f"vertices {report.original_vertices} -> {report.reduced_vertices}, "
        f"edges {report.original_edges} -> {report.reduced_edges}, "
        f"rounds {report.rounds}"
    )
    if args.out:
        _emit(serialize_arena(reduced), args.out)
    if args.report:
        _emit(report.to_json(), args.report)
    if args.dot:
        args.dot.write_text(arena_to_dot(reduced), encoding="utf-8")
    return 0


def _cmd_certify(args) -> int:
    arena = _load_arena(args.arena)
    source = args.source
    against = frozenset(x for x in args.against.split(",") if x)
    eps = parse_rational(args.eps) if args.eps else None
    if args.check:
        cert = NwrCertificate.from_json(args.check.read_text(encoding="utf-8"))
        if verify_certificate(arena, cert, source, against):
            print("certificate verifies")
            return 0
        print("certificate does not verify")
        return 2
    decision = decide_nwr(arena, source, against, limit=args.limit)
    if decision.holds:
        print(f"holds: {source} is never worse than {sorted(against)}")
        return 0
    cert = decision.certificate
    witness = epsilon_witness(arena, cert, eps)
    print(f"refuted: {source} can beat {sorted(against)}")
    _emit(cert.to_json(), args.out)
    _emit(serialize_family(witness), args.witness_out)
    return 0


def _cmd_gen(args) -> int:
    arena = random_arena(
        args.protagonist, args.nature, parse_rational(args.density), args.targets, args.seed
    )
    # sampled before anything is written, so a family that cannot be
    # sampled leaves no half-done output
    family = random_family(arena, args.max_denominator, args.seed) if args.family_out else None
    _emit(serialize_arena(arena), args.out)
    if args.dot:
        args.dot.write_text(arena_to_dot(arena), encoding="utf-8")
    if family is not None:
        _emit(serialize_family(family), args.family_out)
    return 0


def _cmd_2dp(args) -> int:
    graph = parse_digraph(args.graph.read_text(encoding="utf-8"))
    arena, source, against = reduce_2dp(graph, args.s1, args.t1, args.s2, args.t2)
    print(f"query: {source} vs {sorted(against)} ({len(arena.vertices)} vertices)")
    if args.out:
        _emit(serialize_arena(arena), args.out)
    if args.oracle:
        disjoint = solve_2dp_oracle(graph, args.s1, args.t1, args.s2, args.t2)
        print(f"oracle: disjoint paths {'exist' if disjoint else 'do not exist'}")
    if args.decide:
        decision = decide_nwr(arena, source, against, limit=args.limit)
        print(f"decision: {'holds' if decision.holds else 'refuted'}")
    return 0


def _cmd_bench(args) -> int:
    if not args.directory.is_dir():
        raise NotADirectoryError(f"not a directory: {args.directory}")
    rows = []
    for path in sorted(args.directory.glob("*.json")):
        arena = _load_arena(path)
        start = time.perf_counter()
        _, report = reduce_fixpoint(arena)
        wall_ms = int(round(1000 * (time.perf_counter() - start)))
        rows.append(
            {
                "name": path.stem,
                "|V|": report.original_vertices,
                "|E|": report.original_edges,
                "|V_reduced|": report.reduced_vertices,
                "|E_reduced|": report.reduced_edges,
                "classes": len(set(report.class_map.values())),
                "edges_trimmed": len(report.removed_edges),
                "rounds": report.rounds,
                "wall_ms": wall_ms,
            }
        )
    target = args.out.open("w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(target, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            target.close()
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "relate": _cmd_relate,
    "reduce": _cmd_reduce,
    "certify": _cmd_certify,
    "gen": _cmd_gen,
    "2dp": _cmd_2dp,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
