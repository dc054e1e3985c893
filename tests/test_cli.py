import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linetopo

from linetopo import CubicalComplex, build_arrangement, generate_random, serialize_arrangement
from linetopo.cli import run_cli
from conftest import seeded_corpus

PENCIL3 = serialize_arrangement(
    build_arrangement(
        3, [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1))]
    )
)

ONE_LINE3 = serialize_arrangement(build_arrangement(3, [((0, 0, 0), (1, 0, 0))]))

# two lines crossing at the origin and a third skew to both, in R^4: g = 4
CROSS_SKEW4 = serialize_arrangement(
    build_arrangement(
        4,
        [((0, 0, 0, 0), (1, 0, 0, 0)), ((0, 0, 0, 0), (0, 1, 0, 0)),
         ((0, 0, 1, 0), (0, 0, 0, 1))],
    )
)


def run(capsys, argv, stdin_text=None, tmp_path=None):
    if stdin_text is not None:
        path = tmp_path / "input.json"
        path.write_text(stdin_text, encoding="utf-8")
        argv = argv + [str(path)]
    code = run_cli(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_pencil(capsys, tmp_path):
    code, out, _ = run(capsys, ["analyze"], PENCIL3, tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["g"] == 5
    assert doc["report"]["betti"] == [1, 5, 0, 0]
    assert doc["self_check"]["agree"] is True
    assert doc["self_check"]["trace_g"] == 5
    assert doc["poset"]["recovered"] == {"d": 3, "t": {"3": 1}}
    assert doc["verification"] is None
    assert doc["input_digest"].startswith("sha256:")


def test_analyze_is_byte_identical(capsys, tmp_path):
    code1, out1, _ = run(capsys, ["analyze"], PENCIL3, tmp_path)
    code2, out2, _ = run(capsys, ["analyze"], PENCIL3, tmp_path)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_verify_exit_zero_on_match(capsys, tmp_path):
    code, out, _ = run(capsys, ["verify", "--grid", "16"], ONE_LINE3, tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["measured"] == [1, 1, 0, 0]
    assert doc["verification"]["match"] is True


def test_verify_in_four_dimensions(capsys, tmp_path):
    code, out, _ = run(capsys, ["verify", "--grid", "12"], CROSS_SKEW4, tmp_path)
    assert code == 0
    doc = json.loads(out)["verification"]
    assert doc["predicted"] == doc["measured"] == [1, 0, 4, 0, 0]


def test_grid_over_budget_is_an_input_error(capsys, tmp_path):
    # refused before anything is allocated
    code, out, err = run(capsys, ["verify", "--grid", "100000"], ONE_LINE3, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "GridTooLarge"
    assert err.strip()


@pytest.mark.parametrize("argv", [["verify", "--grid", "2"], ["analyze", "--grid", "2"]])
def test_grid_over_budget_in_a_huge_dimension_is_an_input_error(capsys, tmp_path, argv):
    # (2m+1)^n has more digits here than Python renders; it is never formed
    text = json.dumps({"dimension": 7000, "lines": []})
    code, out, _ = run(capsys, argv, text, tmp_path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "GridTooLarge"
    assert "(2m+1)^n = 5^7000 slots" in error["message"]


@pytest.mark.parametrize("argv", [
    ["analyze"], ["analyze", "--grid", "4"], ["poset"], ["poset", "--format", "dot"],
    ["sweep"], ["sweep", "--direction", "1,2"], ["verify", "--grid", "4"],
])
def test_a_dimension_over_the_cap_is_an_input_error(capsys, tmp_path, argv):
    # numpy refuses an array axis this long; the dimension is refused first
    text = json.dumps({"dimension": 2**63, "lines": []})
    code, out, err = run(capsys, argv, text, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DimensionMismatch"
    assert err.strip()


def test_gen_refuses_a_dimension_over_the_cap(capsys):
    code, out, _ = run(capsys, ["gen", "--dim", str(2**63), "--count", "3", "--seed", "1"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidProfile"


def test_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    code, out, _ = run(capsys, ["analyze"], "[" * 200_000 + "]" * 200_000, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_sweep_rejects_non_generic_direction(capsys, tmp_path):
    code, out, err = run(capsys, ["sweep", "--direction", "0,0,1"], ONE_LINE3, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "NonGenericDirection"
    assert "condition i" in doc["error"]["message"]
    assert err.strip()


@pytest.mark.parametrize("direction", ["", "1,2,"])
def test_sweep_malformed_direction_is_a_parse_error(capsys, tmp_path, direction):
    # an empty value is malformed too; it must not fall back to the search
    code, out, err = run(capsys, ["sweep", "--direction", direction], ONE_LINE3, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"
    assert err.strip()


def test_sweep_emits_plan_and_trace(capsys, tmp_path):
    code, out, _ = run(capsys, ["sweep"], PENCIL3, tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["plan"]["initial_rays_down"] == 3
    assert doc["trace"]["final_g"] == 5
    assert doc["trace"]["conclusion"]["betti"] == [1, 5, 0, 0]


def test_duplicate_line_input_error(capsys, tmp_path):
    bad = json.dumps(
        {
            "dimension": 2,
            "lines": [
                {"point": ["0", "0"], "direction": ["1", "0"]},
                {"point": ["3", "0"], "direction": ["-2", "0"]},
            ],
        }
    )
    code, out, _ = run(capsys, ["analyze"], bad, tmp_path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "DuplicateLine"
    assert "0" in doc["error"]["message"] and "1" in doc["error"]["message"]


def test_gen_output_feeds_analyze(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "--dim", "2", "--count", "4",
                                "--profile", "pencil(3)", "--seed", "12"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2 and len(doc["lines"]) == 4
    code, out2, _ = run(capsys, ["analyze"], out, tmp_path)
    assert code == 0
    rep = json.loads(out2)["report"]
    assert rep["t"].get("3") == 1


def test_gen_deterministic(capsys):
    argv = ["gen", "--dim", "3", "--count", "5", "--profile", "mixed", "--seed", "4"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0 and out1 == out2


def test_poset_dot_format(capsys, tmp_path):
    code, out, _ = run(capsys, ["poset", "--format", "dot"], PENCIL3, tmp_path)
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert '"p0" -> "l2";' in out


def test_missing_file_is_input_error(capsys):
    code, out, _ = run(capsys, ["analyze", "/nonexistent/path.json"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "OSError"


def test_analyze_with_grid_includes_verification(capsys, tmp_path):
    code, out, _ = run(capsys, ["analyze", "--grid", "12"], ONE_LINE3, tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["match"] is True


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_with_no_free_cube_is_refused(capsys, tmp_path, command, n):
    # at grid 2 the bounding cube is centred on the line, so the line stabs
    # every cube; an empty complex would measure all zeros
    text = serialize_arrangement(generate_random(n, 1, "generic", 1001))
    code, out, _ = run(capsys, [command, "--grid", "2"], text, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ResolutionTooCoarse"
    code, _, _ = run(capsys, [command, "--grid", "3"], text, tmp_path)
    assert code == 0


def test_invariant_violation_is_a_json_error(capsys, tmp_path, monkeypatch):
    # a planar complex holding an edge without its end vertices is not
    # closed under faces, which betti_numbers checks
    grid = np.zeros((5, 5), dtype=bool)
    grid[1, 2] = True
    broken = CubicalComplex(2, 2, grid)
    monkeypatch.setattr("linetopo.verify.rasterize_complement", lambda a, m: broken)
    planar = serialize_arrangement(build_arrangement(2, [((0, 0), (1, 0))]))
    code, out, err = run(capsys, ["verify", "--grid", "2"], planar, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvariantViolation"
    assert err.strip()


# 5000 digits: over Python's 4300-digit str <-> int conversion limit
LONG = "1" * 5000
LONG_INPUTS = [
    '{"dimension":2,"lines":[{"point":["%s","0"],"direction":["1","0"]}]}' % LONG,
    '{"dimension":2,"lines":[{"point":[%s,"0"],"direction":["1","0"]}]}' % LONG,
    '{"dimension":%s,"lines":[]}' % LONG,
]


@pytest.mark.parametrize("text", LONG_INPUTS, ids=["string", "literal", "dimension"])
def test_over_long_integer_is_a_parse_error(capsys, tmp_path, text):
    code, out, _ = run(capsys, ["analyze"], text, tmp_path)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


# five lines through one point in R^3; the guard accepts grid 24 and it matches
MIXED3 = serialize_arrangement(generate_random(3, 5, "mixed", 7))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["analyze", "--grid", "24"],
        ["verify", "--grid", "24"],
        ["poset"],
        ["poset", "--format", "dot"],
        ["sweep"],
    ],
)
def test_each_call_makes_one_intersection_pass(capsys, tmp_path, intersection_calls, argv):
    code, _, _ = run(capsys, argv, MIXED3, tmp_path)
    assert code == 0
    assert len(intersection_calls) == 5 * 4 // 2


# three planar lines whose crossings have more digits than Python's
# str<->int limit lets str() render, though every input integer is under it
_SEVENS = "7" * 3000
LONG_CROSSINGS2 = json.dumps({"dimension": 2, "lines": [
    {"point": ["0", "0"], "direction": ["1", _SEVENS]},
    {"point": ["1", "0"], "direction": [_SEVENS, "3"]},
    {"point": ["0", "5"], "direction": ["2", "-" + _SEVENS]},
]})


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_rationals_over_the_digit_limit_render_exactly(capsys, tmp_path, command):
    from linetopo import parse_arrangement

    code, out, _ = run(capsys, [command], LONG_CROSSINGS2, tmp_path)
    assert code == 0
    doc = json.loads(out)
    if command == "analyze":
        assert doc["self_check"]["agree"] is True
    plan = doc["sweep"]["plan"] if command == "analyze" else doc["plan"]
    points = [ev["point"] for ev in plan["events"]]
    assert max(len(c) for p in points for c in p) > 4300
    expected = [mp.location for mp in parse_arrangement(LONG_CROSSINGS2).multiple_points]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert sorted(points) == sorted([str(c) for c in p] for p in expected)
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_imports_no_scipy(tmp_path, coplanar3):
    # numpy is the only runtime dependency
    path = tmp_path / "coplanar.json"
    path.write_text(serialize_arrangement(coplanar3), encoding="utf-8")
    script = (
        "import sys\n"
        "from linetopo.cli import run_cli\n"
        "code = run_cli(['verify', '--grid', '24', sys.argv[1]])\n"
        "sys.exit('scipy was imported' if 'scipy' in sys.modules else code)\n"
    )
    src = str(Path(linetopo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verification"]["measured"] == [1, 6, 0, 0]


_FUZZ_BASES = [
    json.loads(PENCIL3),
    json.loads(ONE_LINE3),
    json.loads(serialize_arrangement(
        build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((5, 0), (1, -1))])
    )),
]

_JUNK = st.one_of(
    st.sampled_from([
        "3", 2.0, 1.5, None, True, False, "1/0", "", "1/2/3", "x", "-0",
        float("inf"), "1" * 5000, "-" + "9" * 5000,
    ]),
    st.integers(-3, 7),
    st.lists(st.sampled_from(["1", 0, None]), max_size=3),
    st.lists(st.lists(st.just("1"), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["point", "direction", "dimension", "lines"]),
                    st.sampled_from([[], ["1", "0"], 0, "2"]), max_size=2),
)


def _slots(value, holder, key):
    """Every (container, key) under ``holder[key]``, itself included."""
    yield holder, key
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _slots(v, value, k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _slots(v, value, i)


@st.composite
def _mutated_documents(draw):
    """An arrangement document with one to three values replaced by junk,
    deleted, or given an extra element."""
    holder = [copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))]
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(holder[0], holder, 0))))
        action = draw(st.sampled_from(["replace", "delete", "append"]))
        # a copy, so that a later mutation cannot edit the strategy's values
        junk = copy.deepcopy(draw(_JUNK))
        if action == "delete" and container is not holder:
            del container[key]
        elif action == "append" and isinstance(container[key], list):
            container[key].append(junk)
        else:
            container[key] = junk
    return json.dumps(holder[0])


_FUZZ_COMMANDS = [
    ["analyze"],
    ["poset"],
    ["poset", "--format", "dot"],
    ["sweep"],
    ["sweep", "--direction", "1,2"],
    ["verify", "--grid", "8"],
    ["analyze", "--grid", "6"],
]


@settings(max_examples=60, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_end_in_an_exit_code(tmp_path_factory, text):
    # a malformed document may be refused, never crash the CLI
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(text, encoding="utf-8")
    for argv in _FUZZ_COMMANDS:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run_cli(argv + [str(path)])
        assert code in (0, 1, 2), argv
        if code == 2:
            error = json.loads(out.getvalue())["error"]
            assert error["type"] and error["message"], argv


def test_run_cli_builds_its_parser_once(capsys, tmp_path, monkeypatch):
    built = []
    real = linetopo.cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(linetopo.cli, "build_parser", counting)
    linetopo.cli._parser.cache_clear()
    try:
        for argv in (["analyze"], ["poset"], ["sweep"]):
            code, _, _ = run(capsys, argv, MIXED3, tmp_path)
            assert code == 0
    finally:
        linetopo.cli._parser.cache_clear()
    assert built == [1]


# Every subcommand on seeded arrangements in n = 2-4 and on rationals beyond
# 2^64, plus error documents whose messages hold non-ASCII text.
_WIDE2 = serialize_arrangement(build_arrangement(2, [
    ((Fraction(2**70, 3), -(2**65)), (1, 7)),
    ((0, Fraction(-1, 2**66 + 1)), (2**64 + 1, -3)),
    ((5, 0), (0, 1)),
]))
_NON_ASCII = (
    '{"dimension": 2, "lines": [{"point": ["\u00e9\u65e5", "0"], "direction": ["1", "0"]}]}'
)


def _report_runs(capsys, tmp_path):
    """(argv, exit code, stdout) of each CLI call in the writer pins."""
    texts = [
        serialize_arrangement(a)
        for n in (2, 3, 4)
        for a in seeded_corpus(n, 3, 5, seed0=8100 + n)
    ] + [_WIDE2, LONG_CROSSINGS2, _NON_ASCII]
    calls = []
    for k, text in enumerate(texts):
        path = tmp_path / f"input{k}.json"
        path.write_text(text, encoding="utf-8")
        calls += [
            [*argv, str(path)]
            for argv in (["analyze"], ["analyze", "--grid", "8"], ["poset"], ["sweep"],
                         ["verify", "--grid", "8"])
        ]
    calls += [
        ["gen", "--dim", "3", "--count", "5", "--profile", "mixed", "--seed", "4"],
        ["gen", "--dim", "2", "--count", "4", "--profile", "pencil(3)", "--seed", "9"],
        ["gen", "--dim", "2", "--count", "3", "--profile", "p\u00e9ncil", "--seed", "1"],
        ["analyze", str(tmp_path / "\u65e5\u672c.json")],
    ]
    for argv in calls:
        code = run_cli(argv)
        yield argv, code, capsys.readouterr().out


def test_every_report_bypasses_the_json_encoder(capsys, tmp_path, monkeypatch):
    seen = []
    real = json.JSONEncoder.iterencode

    def counting(self, o, _one_shot=False):
        seen.append(o)
        return real(self, o, _one_shot)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting)
    json.dumps({"a": 1}, indent=2)
    assert len(seen) == 1  # the wrapper sees json.dumps
    seen.clear()
    codes = {code for _, code, _ in _report_runs(capsys, tmp_path)}
    assert codes >= {0, 2}  # reports and error documents both ran
    assert seen == []


def test_every_report_is_json_dumps_indent_2(capsys, tmp_path):
    errors = set()
    for argv, code, out in _report_runs(capsys, tmp_path):
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n", argv
        if code == 2:
            errors.add(doc["error"]["type"])
            assert out.isascii()
    assert errors >= {"ParseError", "InvalidProfile", "OSError"}
