"""Command-line surface: analyze, poset, sweep, verify, gen.

Every subcommand writes one JSON document to stdout and diagnostics to
stderr.  Exit codes: 0 success (verification matched), 1 verification
mismatch, 2 input error or failed internal invariant (with a machine-readable
error object on stdout).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import __version__
from .arrangement import predict_topology
from .errors import LinetopoError, ParseError
from .generate import generate_random
from .io_json import (
    arrangement_to_json,
    error_to_json,
    handle_trace_to_json,
    input_digest,
    invariant_report_to_json,
    parse_arrangement,
    parse_rational,
    render,
    sweep_plan_to_json,
    verification_to_json,
)
from .poset import build_poset, hasse_dot, hasse_edges, recover_line_count, recover_multiplicities
from .sweep import build_space_graph, find_generic_direction, handle_trace, sweep_events
from .verify import verify_arrangement


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc


def _emit(doc: dict) -> None:
    sys.stdout.write(render(doc) + "\n")


def _header(text: str) -> dict:
    return {"tool": "linetopo", "version": __version__, "input_digest": input_digest(text)}


def _poset_payload(a) -> dict:
    p = build_poset(a)
    return {
        "elements": list(p.elements),
        "hasse_edges": [list(e) for e in hasse_edges(p)],
        "recovered": {
            "d": recover_line_count(p),
            "t": {str(i): c for i, c in recover_multiplicities(p).items()},
        },
    }


def _sweep_payload(a, direction=None) -> dict:
    graph = build_space_graph(a)
    v = direction if direction is not None else find_generic_direction(graph)
    plan = sweep_events(graph, v)
    trace = handle_trace(plan, a.dimension)
    return {
        "plan": sweep_plan_to_json(plan, graph),
        "trace": handle_trace_to_json(trace, a.dimension),
    }


def _cmd_analyze(args) -> int:
    text = _read_input(args.file)
    a = parse_arrangement(text)
    report = predict_topology(a)
    sweep = _sweep_payload(a)
    doc = _header(text)
    doc["report"] = invariant_report_to_json(report)
    doc["poset"] = _poset_payload(a)
    doc["sweep"] = sweep
    verification = None
    if args.grid is not None:
        verification = verify_arrangement(a, args.grid)
        doc["verification"] = verification_to_json(verification)
    else:
        doc["verification"] = None
    trace = doc["sweep"]["trace"]
    doc["self_check"] = {
        "formula_g": report.g,
        "trace_g": trace["final_g"],
        "all_trivial": trace["all_trivial"],
        "agree": trace["all_trivial"] and trace["final_g"] == report.g,
    }
    _emit(doc)
    return 0 if verification is None or verification.match else 1


def _cmd_poset(args) -> int:
    text = _read_input(args.file)
    a = parse_arrangement(text)
    if args.format == "dot":
        sys.stdout.write(hasse_dot(build_poset(a)))
        return 0
    doc = _header(text)
    doc.update(_poset_payload(a))
    _emit(doc)
    return 0


def _parse_direction(raw: str):
    return tuple(parse_rational(part.strip(), "direction") for part in raw.split(","))


def _cmd_sweep(args) -> int:
    text = _read_input(args.file)
    a = parse_arrangement(text)
    direction = _parse_direction(args.direction) if args.direction is not None else None
    doc = _header(text)
    doc.update(_sweep_payload(a, direction))
    _emit(doc)
    return 0


def _cmd_verify(args) -> int:
    text = _read_input(args.file)
    a = parse_arrangement(text)
    report = verify_arrangement(a, args.grid)
    doc = _header(text)
    doc["verification"] = verification_to_json(report)
    _emit(doc)
    return 0 if report.match else 1


def _cmd_gen(args) -> int:
    a = generate_random(args.dim, args.count, args.profile, args.seed)
    name = f"{args.profile}-n{args.dim}-d{args.count}-s{args.seed}"
    doc = arrangement_to_json(a, name=name, seed=args.seed, profile=args.profile)
    _emit(doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linetopo",
        description="Topological invariants of affine line arrangement complements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariant report, poset, sweep trace, self-check")
    p.add_argument("file", nargs="?", default="-", help="arrangement JSON ('-' = stdin)")
    p.add_argument("--grid", type=int, default=None, help="also verify at this resolution")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("poset", help="intersection poset with recovered invariants")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("sweep", help="sweep plan and handle trace")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--direction", default=None, metavar="a,b,c",
                   help="override the deterministic direction search")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="cubical homology oracle vs prediction")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--grid", type=int, required=True, help="grid resolution per axis")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="seeded random arrangement file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--profile", default="generic",
                   help="'generic', 'pencil(k)', or 'mixed'")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run_cli`` uses, built on first use and kept for the process."""
    return build_parser()


def run_cli(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except LinetopoError as exc:
        _emit({"error": error_to_json(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        _emit({"error": {"type": "OSError", "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
