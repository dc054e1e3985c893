import hashlib
import json

import pytest

from linetopo import (
    DuplicateLine,
    InvalidProfile,
    ParseError,
    SplitMix64,
    ZeroDirection,
    generate_random,
    genus,
    multiplicity_vector,
    parse_arrangement,
    serialize_arrangement,
)
from linetopo.io_json import format_rational, input_digest, parse_rational
from conftest import seeded_corpus


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
