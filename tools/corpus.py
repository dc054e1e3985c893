"""Byte-identity corpus: seeded in-process CLI calls and their digests.

    python3 tools/corpus.py           # one sha256 per group
    python3 tools/corpus.py --list    # one sha256 per call, then the call
    python3 tools/corpus.py --quick   # the subset the test suite pins

Every call goes through ``linetopo.cli.run_cli`` in a temporary directory
that holds its input files, named by relative path, so neither argv nor
stdout names anything outside that directory.  A group's digest is sha256
over, call by call, the JSON of [argv, exit code], a newline, and the call's
stdout.  stderr is not digested.

Groups:
  main      every subcommand (analyze with and without --grid, poset as json
            and as dot, sweep searched and with --direction, verify at grids
            2/8/24, gen) on the arrangements ``gen`` writes for n = 2-5,
            d = 1/3/5/8, every profile and two seeds; parallel lines, 2^70
            coordinates and rationals past 4300 digits; malformed documents;
            calls that end in GridTooLarge, ResolutionTooCoarse or an
            invalid profile.
  defect_A  pencil(3) seed 2 in R^3 at grids 24/40/48/64, and the grid-24
            ladder calls in ``_ALIASING``: in n >= 3 the coarseness guard
            accepts grids on which two tubes meet in several components,
            and verify measures too large a b_{n-2}.
  defect_B  single lines at grid 2, where one line can stab every cube.

Two builds print equal digests iff every call gives the same exit code and
the same stdout bytes.  Known defects have their own groups, so mending one
moves only its digest, and a ``--list`` diff names the calls that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linetopo import SplitMix64  # noqa: E402
from linetopo.cli import run_cli  # noqa: E402

GROUPS = ("main", "defect_A", "defect_B")


# ladder verify calls, (n, d, profile, seed), that show defect A at grid 24
_ALIASING = {
    (3, 3, "pencil(3)", 1), (3, 3, "pencil(3)", 2), (3, 5, "pencil(5)", 2),
    (4, 3, "mixed", 1), (4, 3, "pencil(3)", 1), (4, 5, "pencil(5)", 1),
}


def _profiles(d: int) -> list[str]:
    return ["generic", "mixed"] + [f"pencil({k})" for k in sorted({2, d}) if k <= d]


def _gen_argv(n: int, d: int, profile: str, seed: int) -> list[str]:
    return ["gen", "--dim", str(n), "--count", str(d), "--profile", profile, "--seed", str(seed)]


def _direction(n: int) -> str:
    return ",".join(str(c) for c in (1, 3, -2, 7, 5)[:n])


def _subcommands(name: str, n: int, grids) -> list[list[str]]:
    return [
        ["analyze", name],
        ["analyze", "--grid", "8", name],
        ["poset", name],
        ["poset", "--format", "dot", name],
        ["sweep", name],
        ["sweep", "--direction", _direction(n), name],
    ] + [["verify", "--grid", str(m), name] for m in grids]


_SEVENS = "7" * 3000
_HUGE = str(2**70)
# documents written as given, each run through every subcommand
_SPECIAL = {
    "parallel2": {"dimension": 2, "lines": [
        {"point": ["0", "0"], "direction": ["1", "0"]},
        {"point": ["0", "1"], "direction": ["2", "0"]},
        {"point": ["0", "0"], "direction": ["0", "1"]},
        {"point": ["3", "0"], "direction": ["1", "1"]},
    ]},
    "parallel3": {"dimension": 3, "lines": [
        {"point": ["0", "0", "0"], "direction": ["1", "0", "0"]},
        {"point": ["0", "1", "0"], "direction": ["1", "0", "0"]},
        {"point": ["0", "0", "0"], "direction": ["0", "1", "0"]},
        {"point": ["0", "0", "1"], "direction": ["0", "1", "1"]},
    ]},
    "wide2": {"dimension": 2, "lines": [
        {"point": [f"{_HUGE}/3", "-" + str(2**65)], "direction": ["1", "7"]},
        {"point": ["0", f"-1/{2**66 + 1}"], "direction": [str(2**64 + 1), "-3"]},
        {"point": ["5", "0"], "direction": ["0", "1"]},
    ]},
    "wide3": {"dimension": 3, "lines": [
        {"point": [_HUGE, "0", "0"], "direction": ["1", "0", "0"]},
        {"point": [_HUGE, "0", "0"], "direction": ["0", "1", f"1/{_HUGE}"]},
        {"point": ["0", "0", "0"], "direction": ["0", "0", "1"]},
    ]},
    # crossings with more digits than str() renders, from inputs under the limit
    "long_crossings2": {"dimension": 2, "lines": [
        {"point": ["0", "0"], "direction": ["1", _SEVENS]},
        {"point": ["1", "0"], "direction": [_SEVENS, "3"]},
        {"point": ["0", "5"], "direction": ["2", "-" + _SEVENS]},
    ]},
}

_LONG = "1" * 5000  # over Python's 4300-digit str <-> int limit
_MALFORMED = {
    "not_json": b"{dimension: 2",
    "empty": b"",
    "array": b"[]",
    "no_lines": b'{"dimension": 2}',
    "dimension_one": b'{"dimension": 1, "lines": []}',
    "dimension_string": b'{"dimension": "2", "lines": []}',
    "short_point": b'{"dimension": 2, "lines": [{"point": ["0"], "direction": ["1", "0"]}]}',
    "zero_direction":
        b'{"dimension": 2, "lines": [{"point": ["0", "0"], "direction": ["0", "0"]}]}',
    "zero_denominator":
        b'{"dimension": 2, "lines": [{"point": ["1/0", "0"], "direction": ["1", "0"]}]}',
    "float": b'{"dimension": 2, "lines": [{"point": [0.5, "0"], "direction": ["1", "0"]}]}',
    "duplicate": (b'{"dimension": 2, "lines": [{"point": ["0", "0"], "direction": ["1", "1"]},'
                  b' {"point": ["2", "2"], "direction": ["-3", "-3"]}]}'),
    "long_string": b'{"dimension": 2, "lines": [{"point": ["%s", "0"], "direction": ["1", "0"]}]}'
    % _LONG.encode(),
    "long_literal": b'{"dimension": 2, "lines": [{"point": [%s, "0"], "direction": ["1", "0"]}]}'
    % _LONG.encode(),
    "deep": b"[" * 100000 + b"]" * 100000,
    "non_ascii": '{"dimension": 2, "lines": [{"point": ["é日", "0"]}]}'.encode(),
    "not_utf8": b'{"dimension": 2, "lines": [\xff]}',
}


def corpus(quick: bool = False) -> tuple[dict[str, bytes], list[tuple[str, list[str]]]]:
    """(inputs, calls): the input files by name, and (group, argv) per call.

    A call whose argv names an input that is missing from ``inputs`` is the
    output of the ``gen`` call listed before it, which the runner writes.
    ``quick`` keeps n = 2-3, d = 1/3, one seed and the cheaper special calls.
    """
    dims, counts, seeds = ((2, 3), (1, 3), (1,)) if quick else ((2, 3, 4, 5), (1, 3, 5, 8), (1, 2))
    inputs: dict[str, bytes] = {}
    calls: list[tuple[str, list[str]]] = []

    def generated(group, n, d, profile, seed):
        name = f"{profile}-n{n}-d{d}-s{seed}.json"
        calls.append((group, _gen_argv(n, d, profile, seed) + ["--output", name]))
        return name

    for n in dims:
        for d in counts:
            for profile in _profiles(d):
                for seed in seeds:
                    name = generated("main", n, d, profile, seed)
                    # single lines at grid 2 belong to defect_B
                    grids = (8, 24) if d == 1 else (2, 8, 24)
                    aliasing = (n, d, profile, seed) in _ALIASING
                    calls += [
                        ("defect_A" if aliasing and argv[:3] == ["verify", "--grid", "24"]
                         else "main", argv)
                        for argv in _subcommands(name, n, grids)
                    ]
    for n in dims:
        for seed in (1, 2, 3, 1001)[: 2 if quick else 4]:
            name = generated("defect_B", n, 1, "generic", seed)
            calls += [("defect_B", ["verify", "--grid", "2", name]),
                      ("defect_B", ["analyze", "--grid", "2", name])]
    name = generated("defect_A", 3, 4, "pencil(3)", 2)
    calls += [("defect_A", ["verify", "--grid", str(m), name])
              for m in ((24,) if quick else (24, 40, 48, 64))]

    for key, doc in _SPECIAL.items():
        name = f"{key}.json"
        inputs[name] = json.dumps(doc).encode()
        grids = (8,) if quick or key == "long_crossings2" else (2, 8, 24)
        calls += [("main", argv) for argv in _subcommands(name, doc["dimension"], grids)]
    rng, valid = SplitMix64(19), inputs["parallel3.json"]
    broken = {f"truncated{k}.json": valid[: rng.below(len(valid))]  # seeded truncations
              for k in range(4 if quick else 12)}
    broken.update((f"{key}.json", body) for key, body in _MALFORMED.items())
    inputs.update(broken)
    for name in broken:
        calls += [("main", ["analyze", name]), ("main", ["verify", "--grid", "8", name])]
    calls += [("main", argv) for argv in (
        ["analyze", "missing.json"],
        ["verify", "--grid", "1", "parallel2.json"],
        ["verify", "--grid", "0", "parallel2.json"],
        ["verify", "--grid", "-3", "parallel2.json"],
        ["verify", "--grid", "5000", "parallel2.json"],
        ["verify", "--grid", "40", "parallel3.json"],
        ["analyze", "--grid", str(10**30), "parallel3.json"],
        ["sweep", "--direction", "1,0", "parallel2.json"],
        ["sweep", "--direction", "1,x", "parallel2.json"],
        ["sweep", "--direction", "1,2,3", "parallel2.json"],
        _gen_argv(2, 1, "pencil(2)", 1),
        _gen_argv(3, 3, "pencil(4)", 1),
        _gen_argv(2, 3, "fan", 1),
        _gen_argv(1, 3, "generic", 1),
        _gen_argv(2, 0, "generic", 1),
    )]
    return inputs, calls


def run(inputs: dict[str, bytes], calls) -> list[tuple[str, list[str], int, str]]:
    """(group, argv, exit code, stdout) per call, run in a temporary
    directory holding the inputs.  A ``gen`` argv ending in ``--output
    name`` runs without those two words and writes its stdout to ``name``."""
    results = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, body in inputs.items():
                Path(name).write_bytes(body)
            for group, argv in calls:
                argv, target = (argv[:-2], argv[-1]) if "--output" in argv else (argv, None)
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = run_cli(argv)
                if target is not None:
                    Path(target).write_text(out.getvalue(), encoding="utf-8")
                results.append((group, argv, code, out.getvalue()))
        finally:
            os.chdir(cwd)
    return results


def _record(argv, code, out) -> bytes:
    return json.dumps([argv, code]).encode() + b"\n" + out.encode("utf-8")


def digests(results) -> dict[str, str]:
    """One sha256 per group, over its calls in order."""
    hashes = {group: hashlib.sha256() for group in GROUPS}
    for group, argv, code, out in results:
        hashes[group].update(_record(argv, code, out))
    return {group: h.hexdigest() for group, h in hashes.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="one digest per call")
    parser.add_argument("--quick", action="store_true", help="the pinned subset only")
    args = parser.parse_args(argv)
    results = run(*corpus(quick=args.quick))
    if args.list:
        for group, call, code, out in results:
            digest = hashlib.sha256(_record(call, code, out)).hexdigest()
            print(f"{digest[:16]} {group} exit={code} {' '.join(call)}")
    for group, digest in digests(results).items():
        print(f"{group} {digest}")
    print(f"calls {len(results)}")


if __name__ == "__main__":
    main()
