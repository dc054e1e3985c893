import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linetopo import (
    DuplicateLine,
    InvalidProfile,
    LinetopoError,
    ParseError,
    SplitMix64,
    ZeroDirection,
    build_arrangement,
    generate_random,
    genus,
    multiplicity_vector,
    parse_arrangement,
    serialize_arrangement,
)
from linetopo.io_json import format_rational, input_digest, parse_rational, render
from conftest import seeded_corpus


def _parse_oracle(text):
    """The parser as it was before it read coordinates into integer forms:
    one Fraction per coordinate through parse_rational, then
    build_arrangement."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply to parse") from exc

    def expect(cond, message, path):
        if not cond:
            raise ParseError(message, path)

    expect(isinstance(doc, dict), "top level must be an object", "$")
    expect("dimension" in doc, "missing 'dimension'", "$")
    n = doc["dimension"]
    expect(isinstance(n, int) and not isinstance(n, bool) and n >= 2,
           "'dimension' must be an integer >= 2", "dimension")
    expect("lines" in doc, "missing 'lines'", "$")
    expect(isinstance(doc["lines"], list), "'lines' must be a list", "lines")
    raw = []
    for i, entry in enumerate(doc["lines"]):
        path = f"lines[{i}]"
        expect(isinstance(entry, dict), "line entry must be an object", path)
        for field in ("point", "direction"):
            expect(field in entry, f"missing '{field}'", path)
            val = entry[field]
            expect(isinstance(val, list), f"'{field}' must be a list", f"{path}.{field}")
            expect(len(val) == n, f"'{field}' must have {n} coordinates", f"{path}.{field}")
        point = [parse_rational(c, f"{path}.point[{j}]") for j, c in enumerate(entry["point"])]
        direction = [
            parse_rational(c, f"{path}.direction[{j}]") for j, c in enumerate(entry["direction"])
        ]
        if not any(direction):
            raise ZeroDirection(f"{path}.direction: direction vector is zero")
        raw.append((point, direction))
    return build_arrangement(n, raw)


def _parsed(parse, text):
    """An arrangement with its Fraction bases, or the error's type, message
    and path."""
    try:
        a = parse(text)
    except LinetopoError as exc:
        return type(exc), str(exc), getattr(exc, "path", None)
    return a, [line.base for line in a.lines]


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_VALUES = st.one_of(
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    st.integers(-(2**70), 2**70).map(Fraction),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66)),
)
_JUNK = st.sampled_from([
    True, False, None, 1.5, 2.0, "1/0", "-3/0", "0/0", "1.5", "1e3", "x", "", "1/2/3",
    "1/-2", " 1", "1" * 5000, "2/" + "3" * 5000,
])


@st.composite
def _coordinate(draw, x):
    """x written as a raw JSON int, or as a string with a sign, unreduced,
    with leading zeros, in Arabic-Indic digits or with a trailing newline."""
    k = draw(st.sampled_from([1, 1, 6, 2**65]))
    p, q = x.numerator * k, x.denominator * k
    style = draw(st.sampled_from(["raw", "plain", "plus", "zeros", "arabic", "newline"]))
    if style == "raw" and q == 1:
        return p
    text = str(p) if q == 1 else f"{p}/{q}"
    if p == 0 and draw(st.booleans()):
        text = f"-0/{q}"
    if style == "plus" and text[0] != "-":
        return "+" + text
    if style == "zeros":
        return ("-00" + text[1:]) if text[0] == "-" else "00" + text
    if style == "arabic":
        return text.translate(_ARABIC_INDIC)
    return text + "\n" if style == "newline" else text


@st.composite
def _documents(draw):
    """Arrangement documents in n = 2-5 whose lines are drawn, or re-express
    an earlier line, with now and then a zero direction or a junk
    coordinate."""
    n = draw(st.integers(2, 5))
    raw = []
    for _ in range(draw(st.integers(0, 5))):
        if raw and draw(st.integers(0, 3)) == 0:
            p, u = draw(st.sampled_from(raw))
            t, c = draw(_VALUES), draw(_VALUES.filter(bool))
            raw.append(([x + t * y for x, y in zip(p, u)], [c * y for y in u]))
        else:
            p, u = (draw(st.lists(_VALUES, min_size=n, max_size=n)) for _ in "pu")
            raw.append((p, [Fraction(0)] * n if draw(st.integers(0, 15)) == 0 else u))
    lines = [
        {field: [draw(_JUNK) if draw(st.integers(0, 80)) == 0 else draw(_coordinate(x))
                 for x in vector]
         for field, vector in zip(("point", "direction"), line)}
        for line in raw
    ]
    return json.dumps({"dimension": n, "lines": lines})


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_parser_matches_the_fraction_oracle(text):
    assert _parsed(parse_arrangement, text) == _parsed(_parse_oracle, text)


def test_parse_errors_come_before_duplicates():
    dup = {"point": ["2/4", "0"], "direction": ["6/3", "0"]}  # the x-axis again
    lines = [{"point": ["0", "0"], "direction": ["1", "0"]}, dup]
    text = json.dumps({"dimension": 2, "lines": lines})
    duplicate = (DuplicateLine, "lines 0 and 1 describe the same line", None)
    assert _parsed(parse_arrangement, text) == _parsed(_parse_oracle, text) == duplicate
    lines.append({"point": ["1", "0"], "direction": ["1/0", "1"]})
    text = json.dumps({"dimension": 2, "lines": lines})
    expected = (ParseError, "lines[2].direction[0]: zero denominator", "lines[2].direction[0]")
    assert _parsed(parse_arrangement, text) == _parsed(_parse_oracle, text) == expected


def test_parse_minimal_file():
    text = '{"dimension":2,"lines":[{"point":["0","0"],"direction":["1","0"]}]}'
    a = parse_arrangement(text)
    assert a.dimension == 2 and a.d == 1
    assert a.lines[0].direction == (1, 0)


def test_parse_zero_direction_has_path():
    text = '{"dimension":2,"lines":[{"point":["0","0"],"direction":["0","0"]}]}'
    with pytest.raises(ZeroDirection) as exc:
        parse_arrangement(text)
    assert "lines[0].direction" in str(exc.value)


def test_parse_zero_denominator():
    text = '{"dimension":2,"lines":[{"point":["1/0","0"],"direction":["1","0"]}]}'
    with pytest.raises(ParseError) as exc:
        parse_arrangement(text)
    assert "lines[0].point[0]" in str(exc.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("nonsense", "invalid JSON"),
        ("[]", "top level"),
        ('{"lines": []}', "dimension"),
        ('{"dimension": 2}', "lines"),
        ('{"dimension": 1, "lines": []}', "integer >= 2"),
        ('{"dimension": 2, "lines": [{}]}', "point"),
        ('{"dimension": 2, "lines": [{"point": ["0"], "direction": ["1","0"]}]}', "2 coordinates"),
        ('{"dimension": 2, "lines": [{"point": ["0habc","1"], "direction": ["1","0"]}]}', "rational"),
    ],
)
def test_parse_rejects_malformed_documents(text, needle):
    with pytest.raises(ParseError) as exc:
        parse_arrangement(text)
    assert needle in str(exc.value)


LONG = "1" * 5000  # over Python's 4300-digit str <-> int conversion limit


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"dimension":2,"lines":[{"point":["%s","0"],"direction":["1","0"]}]}' % LONG,
         "lines[0].point[0]: integer has too many digits"),
        ('{"dimension":2,"lines":[{"point":["0","1/%s"],"direction":["1","0"]}]}' % LONG,
         "lines[0].point[1]: integer has too many digits"),
        ('{"dimension":2,"lines":[{"point":[%s,"0"],"direction":["1","0"]}]}' % LONG,
         "invalid JSON"),
        ('{"dimension":%s,"lines":[]}' % LONG, "invalid JSON"),
    ],
    ids=["numerator", "denominator", "literal", "dimension"],
)
def test_parse_over_long_integers(text, needle):
    with pytest.raises(ParseError) as exc:
        parse_arrangement(text)
    assert str(exc.value).startswith(needle)


def test_parse_duplicate_reports_both_indices():
    text = json.dumps(
        {
            "dimension": 2,
            "lines": [
                {"point": ["0", "0"], "direction": ["1", "0"]},
                {"point": ["0", "1"], "direction": ["0", "2"]},
                {"point": ["4", "0"], "direction": ["-1", "0"]},
            ],
        }
    )
    with pytest.raises(DuplicateLine) as exc:
        parse_arrangement(text)
    assert (exc.value.first, exc.value.second) == (0, 2)


def test_rational_formatting_roundtrip():
    from fractions import Fraction

    for x in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(-5, 9)):
        assert parse_rational(format_rational(x)) == x
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1e3")


def test_format_rational_beyond_the_digit_limit():
    import sys
    from fractions import Fraction

    big = Fraction(10**5000 + 7, 3)
    values = [big, -big, Fraction(10**6000), Fraction(10**6000 + 1), Fraction(-(10**9000) - 1)]
    rendered = [format_rational(x) for x in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert rendered == [str(x) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("n,seed0", [(2, 7000), (3, 7100), (4, 7200)])
def test_serialize_parse_roundtrip(n, seed0):
    for a in seeded_corpus(n, 8, 6, seed0=seed0):
        assert parse_arrangement(serialize_arrangement(a)) == a


def test_serialize_is_deterministic():
    a = generate_random(3, 4, "mixed", 99)
    assert serialize_arrangement(a) == serialize_arrangement(a)
    assert input_digest(serialize_arrangement(a)) == input_digest(serialize_arrangement(a))


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_generate_deterministic():
    a = generate_random(3, 5, "generic", 42)
    b = generate_random(3, 5, "generic", 42)
    assert a == b
    c = generate_random(3, 5, "generic", 43)
    assert c != a


def test_generated_planar_corpus_is_pinned():
    # generic, mixed and pencil profiles, d = 1..12; any change to the
    # SplitMix64 stream or to the rejection rules moves this digest
    h = hashlib.sha256()
    for a in seeded_corpus(2, 60, 12, 4242):
        h.update(serialize_arrangement(a).encode())
    assert h.hexdigest() == "b38e16b46ec7639c3710ccd49452c4985520a21af900c37efc696c49514fcb8e"


def test_generate_pencil_profile():
    a = generate_random(3, 4, "pencil(4)", 7)
    assert multiplicity_vector(a) == {4: 1}
    b = generate_random(2, 6, "pencil(3)", 11)
    assert multiplicity_vector(b).get(3, 0) >= 1


def test_generate_single_generic_line():
    a = generate_random(2, 1, "generic", 0)
    assert a.d == 1 and genus(a) == 1


def test_generate_generic_plane_counts():
    # pairwise non-parallel, no three concurrent: t_2 is the full pair count
    a = generate_random(2, 7, "generic", 5)
    assert multiplicity_vector(a) == {2: 21}


def test_generate_invalid_profiles():
    with pytest.raises(InvalidProfile):
        generate_random(2, 3, "swirl", 0)
    with pytest.raises(InvalidProfile):
        generate_random(2, 3, "pencil(9)", 0)
    with pytest.raises(InvalidProfile):
        generate_random(2, 0, "generic", 0)


# Strings mix arbitrary code points, lone surrogates included, with the
# characters JSON must escape and the ones it must not touch.
_TRICKY_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028",
                 "\ud800", "\udfff", "\U0001f600", "\u65e5"]
_TEXT = st.lists(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(_TRICKY_CHARS))
).map("".join)
_LEAVES = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([True, False, 1, 0, -1, None]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_render_matches_json_dumps_indent_2(doc):
    assert render(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [1.5, [1, {"a": 0.0}], {1, 2}, {"a": frozenset()}, {1: "a"}, {"a": {None: 1}}, b"x"],
    ids=["float", "nested-float", "set", "nested-set", "int-key", "nested-none-key", "bytes"],
)
def test_render_refuses_what_a_report_never_holds(doc):
    with pytest.raises(TypeError):
        render(doc)
