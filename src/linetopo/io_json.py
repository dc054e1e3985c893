"""Arrangement file format and JSON report assembly.

Rationals travel as decimal strings "p" or "p/q" (q > 0) in every file
format, so values survive round trips exactly.  Reports carry no timestamps;
identical input, flags, and tool version give byte-identical output.
Every report and arrangement file is written by ``render``, which gives the
bytes of ``json.dumps(doc, indent=2)`` without the standard library's
pure-Python indenting encoder.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .arrangement import Arrangement, InvariantReport, arrangement_of_lines, betti_vector
from .errors import LinetopoError, ParseError, ZeroDirection
from .geometry import clear_denominators, line_from_integer_form
from .sweep import HandleTrace, SpaceGraph, SweepPlan
from .verify import VerificationReport

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text, path: str = "") -> Fraction:
    """Parse "p" or "p/q" into an exact Fraction; integers are accepted raw."""
    return Fraction(*_parse_ratio(text, path))


def _parse_ratio(text, path: str) -> tuple[int, int]:
    """(p, q) from "p" or "p/q", or from a raw integer p with q = 1: not
    reduced, q > 0."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text, 1
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"expected a rational string like '3' or '-3/4', got {text!r}", path)
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # more digits than Python's int conversion limit
        raise ParseError("integer has too many digits", path) from exc
    if den == 0:
        raise ParseError("zero denominator", path)
    return num, den


def _decimal(k: int) -> str:
    """Decimal digits of k at any length.  ``str()`` refuses integers over
    Python's str<->int digit limit, so a longer one is split at a power of
    ten into halves that are rendered apart."""
    try:
        return str(k)
    except ValueError:
        pass
    if k < 0:
        return "-" + _decimal(-k)
    half = (k.bit_length() - 1) * 3 // 20  # at most half the digit count
    high, low = divmod(k, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def format_rational(x) -> str:
    """"p" or "p/q" in lowest terms with q > 0, exact at any length.  Ints
    and Fractions are read as they are; other rationals become a Fraction."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def format_point(p) -> list[str]:
    return [format_rational(c) for c in p]


def input_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise ParseError(message, path)


def parse_arrangement(text: str) -> Arrangement:
    """Parse and validate an arrangement file; errors carry JSON paths.

    Coordinates go straight to integer forms and each line is canonicalized
    in integers.  Duplicates are checked after the last line, so every
    ParseError in the document comes before any DuplicateLine.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or a number over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply to parse") from exc
    _expect(isinstance(doc, dict), "top level must be an object", "$")
    _expect("dimension" in doc, "missing 'dimension'", "$")
    n = doc["dimension"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 2,
            "'dimension' must be an integer >= 2", "dimension")
    _expect("lines" in doc, "missing 'lines'", "$")
    _expect(isinstance(doc["lines"], list), "'lines' must be a list", "lines")

    lines = []
    for i, entry in enumerate(doc["lines"]):
        path = f"lines[{i}]"
        _expect(isinstance(entry, dict), "line entry must be an object", path)
        for field in ("point", "direction"):
            _expect(field in entry, f"missing '{field}'", path)
            val = entry[field]
            _expect(isinstance(val, list), f"'{field}' must be a list", f"{path}.{field}")
            _expect(len(val) == n, f"'{field}' must have {n} coordinates",
                    f"{path}.{field}")
        point = [_parse_ratio(c, f"{path}.point[{j}]") for j, c in enumerate(entry["point"])]
        direction = [
            _parse_ratio(c, f"{path}.direction[{j}]")
            for j, c in enumerate(entry["direction"])
        ]
        if not any(p for p, _ in direction):
            raise ZeroDirection(f"{path}.direction: direction vector is zero")
        P, D = clear_denominators(point)
        lines.append(line_from_integer_form(P, D, clear_denominators(direction)[0]))
    return arrangement_of_lines(n, lines)


def arrangement_to_json(a: Arrangement, name: str | None = None, **metadata) -> dict:
    doc: dict = {"dimension": a.dimension}
    if name is not None:
        doc["name"] = name
    doc.update(metadata)
    doc["lines"] = [
        {
            "point": format_point(line.base),
            "direction": format_point(line.direction),
        }
        for line in a.lines
    ]
    return doc


def serialize_arrangement(a: Arrangement, name: str | None = None, **metadata) -> str:
    return render(arrangement_to_json(a, name, **metadata)) + "\n"


def render(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)`` for a tree of str, int, bool,
    None, lists, tuples and dicts with str keys.  Types are matched
    exactly; anything else, a float included, raises TypeError."""
    return _render(doc, "\n")


def _render(x, nl: str) -> str:
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return int.__repr__(x)
    if kind is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    inner = nl + "  "
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in x]) + nl + "]"
    if kind is dict:
        if not x:
            return "{}"
        items = []
        for k, v in x.items():
            if type(k) is not str:
                raise TypeError(f"report keys must be str, not {type(k).__name__}")
            items.append(encode_basestring_ascii(k) + ": " + _render(v, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"{kind.__name__} has no place in a report")


def invariant_report_to_json(rep: InvariantReport) -> dict:
    doc = {
        "dimension": rep.dimension,
        "d": rep.d,
        "t": {str(i): c for i, c in sorted(rep.t.items())},
        "g": rep.g,
        "betti": list(rep.betti),
        "homotopy": rep.homotopy,
    }
    if rep.boundary_genus is not None:
        doc["boundary_genus"] = rep.boundary_genus
    return doc


def sweep_plan_to_json(plan: SweepPlan, graph: SpaceGraph) -> dict:
    return {
        "direction": format_point(plan.direction),
        "initial_rays_down": plan.initial_rays_down,
        "events": [
            {
                "vertex": ev.vertex,
                "point": format_point(graph.vertices[ev.vertex]),
                "level": format_rational(ev.level),
                "s": ev.s,
                "r": ev.r,
            }
            for ev in plan.events
        ],
    }


def handle_trace_to_json(trace: HandleTrace, n: int) -> dict:
    doc = {
        "initial_g": trace.initial_g,
        "steps": [
            {
                "event": st.event,
                "handles_added": st.handles_added,
                "handle_index": st.handle_index,
                "trivial": st.trivial,
            }
            for st in trace.steps
        ],
        "final_g": trace.final_g,
        "all_trivial": trace.all_trivial,
    }
    # A ball-with-handles conclusion (and with it any Betti prediction) exists
    # only when every attachment was trivial.
    if trace.all_trivial:
        doc["conclusion"] = {
            "g": trace.final_g,
            "handle_index": n - 2,
            "betti": list(betti_vector(n, trace.final_g)),
        }
    else:
        doc["conclusion"] = None
    return doc


def verification_to_json(rep: VerificationReport) -> dict:
    return {
        "dimension": rep.dimension,
        "resolution": rep.resolution,
        "predicted": list(rep.predicted),
        "measured": list(rep.measured),
        "match": rep.match,
    }


def error_to_json(exc: LinetopoError) -> dict:
    doc = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError) and exc.path:
        doc["path"] = exc.path
    return doc
