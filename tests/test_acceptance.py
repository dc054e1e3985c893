"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  All equalities are exact; the time budgets are asserted.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from linetopo import (
    Arrangement,
    DuplicateLine,
    NonGenericDirection,
    ResolutionTooCoarse,
    build_arrangement,
    build_poset,
    build_space_graph,
    check_direction,
    euler_region_count,
    find_generic_direction,
    generate_random,
    genus,
    graph_from_segments,
    handle_trace,
    multiple_points,
    multiplicity_vector,
    rasterize_complement,
    betti_numbers,
    recover_line_count,
    recover_multiplicities,
    serialize_arrangement,
    sweep_events,
    verify_arrangement,
)
from linetopo.cli import run_cli
from linetopo.cubical import _bounding_cube, _coarseness_guard
from linetopo.io_json import handle_trace_to_json
from conftest import second_generic_direction, seeded_corpus


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL [{time.perf_counter() - t0:.2f}s]",
              flush=True)
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS [{time.perf_counter() - t0:.2f}s]",
          flush=True)


def _analyze(tmp_path, arrangement, extra=()):
    path = tmp_path / "a.json"
    path.write_text(serialize_arrangement(arrangement), encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_cli(["analyze", *extra, str(path)])
    return code, json.loads(buf.getvalue())


X = ((0, 0, 0), (1, 0, 0))
Y = ((0, 0, 0), (0, 1, 0))
Z = ((0, 0, 0), (0, 0, 1))

FIXTURES_N3 = {
    "one line": (build_arrangement(3, [X]), 1),
    "two crossing": (build_arrangement(3, [X, Y]), 3),
    "two skew": (build_arrangement(3, [X, ((0, 1, 0), (0, 0, 1))]), 2),
    "pencil of 3": (build_arrangement(3, [X, Y, Z]), 5),
    "three coplanar": (build_arrangement(3, [X, Y, ((10, 0, 0), (1, -1, 0))]), 6),
}


def test_criterion_1_formula_engine(tmp_path):
    with criterion(1, "formula engine"):
        t0 = time.perf_counter()
        cases = [
            (build_arrangement(3, [X]), 1, 3),
            (build_arrangement(3, [X, Y]), 3, 3),
            (build_arrangement(3, [X, Y, ((10, 0, 0), (1, -1, 0))]), 6, 3),
        ]
        for i in (3, 4, 5):
            dirs = [(1, k, k * k) for k in range(i)]
            cases.append(
                (build_arrangement(3, [((0, 0, 0), u) for u in dirs]), 2 * i - 1, 3)
            )
        for a, g_expected, n in cases:
            code, doc = _analyze(tmp_path, a)
            assert code == 0
            assert doc["report"]["g"] == g_expected
            betti = doc["report"]["betti"]
            assert betti[0] == 1
            assert betti[n - 2] == g_expected
            assert all(b == 0 for k, b in enumerate(betti) if k not in (0, n - 2))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"formula engine took {elapsed:.2f}s, budget 1s"


def test_criterion_2_planar_region_oracle():
    with criterion(2, "planar region oracle, 100 arrangements"):
        t0 = time.perf_counter()
        corpus = seeded_corpus(2, 100, 12, seed0=20000)
        assert len(corpus) == 100
        for a in corpus:
            assert euler_region_count(a) == 1 + genus(a)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"region oracle took {elapsed:.2f}s, budget 10s"


CORPUS_3 = {n: seeded_corpus(n, 100, 10, seed0=30000 + 111 * n) for n in (2, 3, 4)}


def test_criterion_3_sweep_formula_equivalence():
    with criterion(3, "sweep vs formula, 100 arrangements per dimension 2/3/4"):
        t0 = time.perf_counter()
        for n, corpus in CORPUS_3.items():
            assert len(corpus) == 100
            for a in corpus:
                graph = build_space_graph(a)
                v = find_generic_direction(graph)
                assert check_direction(graph, v) is None
                plan = sweep_events(graph, v)
                trace = handle_trace(plan, n)
                assert trace.final_g == genus(a)
                assert plan.initial_rays_down == a.d
                mults = [mp.multiplicity for mp in multiple_points(a)]
                for ev in plan.events:
                    assert ev.s == ev.r == mults[ev.vertex]
                v2 = second_generic_direction(graph, v)
                trace2 = handle_trace(sweep_events(graph, v2), n)
                assert trace2.final_g == trace.final_g
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"sweep equivalence took {elapsed:.2f}s, budget 30s"


def test_sweep_certification_cost_planar_d40(tmp_path):
    # 751 vertices; the first acceptor on the moment curve is k = 57
    a = generate_random(2, 40, "mixed", 1)
    t0 = time.perf_counter()
    code, doc = _analyze(tmp_path, a)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert doc["self_check"]["agree"] is True
    assert doc["sweep"]["plan"]["direction"] == ["1", "57"]
    assert elapsed < 10.0, f"planar d=40 analyze took {elapsed:.2f}s, budget 10s"


def test_generator_cost_planar_d120():
    # 7140 crossings to avoid: a candidate meets each line drawn so far once
    # rather than testing every crossing for incidence
    t0 = time.perf_counter()
    a = generate_random(2, 120, "generic", 1)
    elapsed = time.perf_counter() - t0
    assert multiplicity_vector(a) == {2: 7140}
    assert elapsed < 1.0, f"planar d=120 generic gen took {elapsed:.2f}s, budget 1s"


def test_intersection_pass_cost_n3_d300(tmp_path):
    # 44850 line pairs, each decided in integers
    a = generate_random(3, 300, "mixed", 1)
    t0 = time.perf_counter()
    code, doc = _analyze(tmp_path, a)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert doc["self_check"]["agree"] is True
    assert elapsed < 5.0, f"n=3 d=300 analyze took {elapsed:.2f}s, budget 5s"


@pytest.fixture(scope="module")
def mixed3_d1500():
    return generate_random(3, 1500, "mixed", 1)


def test_intersection_pass_cost_n3_d1500(tmp_path, mixed3_d1500):
    # 1,124,250 line pairs; residues prove the skew ones skew in numpy
    t0 = time.perf_counter()
    code, doc = _analyze(tmp_path, mixed3_d1500)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert doc["self_check"]["agree"] is True
    assert elapsed < 3.0, f"n=3 d=1500 analyze took {elapsed:.2f}s, budget 3s"


def test_intersection_pass_memory_n3_d1500(mixed3_d1500):
    # the residue pass works on blocks of rows, so its numpy temporaries
    # stay small however many pairs there are
    import tracemalloc

    a = Arrangement(dimension=3, lines=mixed3_d1500.lines)  # nothing cached yet
    tracemalloc.start()
    try:
        multiple_points(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"multiple_points peaked at {peak / 2**20:.1f} MiB, budget 16 MiB"


def test_criterion_4_poset_recovery():
    with criterion(4, "poset recovery on the same corpus"):
        for corpus in CORPUS_3.values():
            for a in corpus:
                p = build_poset(a)
                assert recover_multiplicities(p) == multiplicity_vector(a)
                assert recover_line_count(p) == a.d


def test_criterion_5_homology_oracle_n3(tmp_path):
    with criterion(5, "homology oracle n=3, grid 48 + stability at 24"):
        measured_at = {}
        for name, (a, g_expected) in FIXTURES_N3.items():
            path = tmp_path / "fixture.json"
            path.write_text(serialize_arrangement(a), encoding="utf-8")
            import io
            from contextlib import redirect_stdout

            t0 = time.perf_counter()
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = run_cli(["verify", "--grid", "48", str(path)])
            elapsed = time.perf_counter() - t0
            doc = json.loads(buf.getvalue())
            assert code == 0, f"{name}: verify exited {code}"
            assert doc["verification"]["measured"] == [1, g_expected, 0, 0], name
            assert elapsed < 120.0, f"{name}: grid 48 took {elapsed:.1f}s, budget 120s"
            measured_at[name] = doc["verification"]["measured"]
        # resolution stability: grids 24 and 48 agree wherever 24 is accepted
        stable = 0
        for name, (a, _) in FIXTURES_N3.items():
            try:
                coarse = betti_numbers(rasterize_complement(a, 24))
            except ResolutionTooCoarse:
                continue
            assert list(coarse) == measured_at[name], name
            stable += 1
        assert stable == len(FIXTURES_N3)  # every fixture resolves at 24


def test_homology_oracle_cost_at_grid_64():
    # cost regression: grid 64 has ~2.1M cells per fixture
    t0 = time.perf_counter()
    for name, (a, g_expected) in FIXTURES_N3.items():
        rep = verify_arrangement(a, 64)
        assert rep.match and rep.measured == (1, g_expected, 0, 0), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"five fixtures at grid 64 took {elapsed:.1f}s, budget 20s"


def test_sliver_certification_cost_on_a_long_wedge():
    # slope 1/241 is the shallowest wedge the guard accepts at m = 2048; near
    # the crossing it holds 964 orphan faces, up to 482 steps from the
    # nearest face of a free cube, so a certification dilating the free cubes
    # to a fixpoint would make about 500 full-grid passes
    a = build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (241, 1))])
    t0 = time.perf_counter()
    rep = verify_arrangement(a, 2048)
    elapsed = time.perf_counter() - t0
    assert rep.match and rep.measured == (4, 0, 0)
    assert elapsed < 3.0, f"the 1/241 wedge at grid 2048 took {elapsed:.2f}s, budget 3s"


def test_homology_oracle_memory_n3_grid_128():
    # the star, the orphans and the closure check work on the slots of U, so
    # the dense doubled grid, one byte per slot, and its complement while
    # betti_numbers lists U are the only arrays of that size
    import tracemalloc

    a, _ = FIXTURES_N3["three coplanar"]
    slots = 257**3
    tracemalloc.start()
    try:
        rep = verify_arrangement(a, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.match
    assert peak < 3 * slots, f"verify at grid 128 peaked at {peak / slots:.2f} bytes per slot, budget 3"


def _planar_lattice(k: int):
    """k horizontal and k vertical lines at spacing 100: k^2 double points."""
    return build_arrangement(
        2, [((0, 100 * i), (1, 0)) for i in range(k)] + [((100 * i, 0), (0, 1)) for i in range(k)]
    )


def test_guard_cost_planar_lattice(tmp_path):
    # 900 double points, each checked against the 58 lines not through it;
    # a guard scanning every pair of points compares 404550 pairs
    path = tmp_path / "lattice.json"
    path.write_text(serialize_arrangement(_planar_lattice(30)), encoding="utf-8")
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = run_cli(["verify", "--grid", "768", str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(buf.getvalue())["verification"]["measured"] == [31**2, 0, 0]
    assert elapsed < 2.5, f"60-line lattice verify at grid 768 took {elapsed:.2f}s, budget 2.5s"


def test_coarseness_guard_builds_no_fraction(monkeypatch):
    a = _planar_lattice(30)
    frame = _bounding_cube(a)
    assert len(a.multiple_points) == 900  # computed and cached before the count
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    Fraction(1, 3)
    assert len(built) == 1  # the wrapper sees constructions
    built.clear()
    _coarseness_guard(a, frame, 768)
    monkeypatch.undo()
    assert built == []


def test_homology_oracle_n4():
    # two lines crossing at the origin and a third skew to both; grid 12 is
    # the first the guard accepts
    with criterion(9, "homology oracle n=4, grid 12"):
        a = build_arrangement(
            4,
            [((0, 0, 0, 0), (1, 0, 0, 0)), ((0, 0, 0, 0), (0, 1, 0, 0)),
             ((0, 0, 1, 0), (0, 0, 0, 1))],
        )
        assert genus(a) == 4
        t0 = time.perf_counter()
        rep = verify_arrangement(a, 12)
        elapsed = time.perf_counter() - t0
        assert rep.match and rep.measured == (1, 0, 4, 0, 0)
        assert elapsed < 5.0, f"n=4 at grid 12 took {elapsed:.2f}s, budget 5s"


def test_criterion_6_homology_oracle_n2():
    with criterion(6, "homology oracle n=2, 20 planar arrangements at grid 32"):
        checked = 0
        seed = 0
        while checked < 20:
            corpus = seeded_corpus(2, 1, 8, seed0=40000 + seed)
            seed += 1
            a = corpus[0]
            try:
                complex_ = rasterize_complement(a, 32)
            except ResolutionTooCoarse:
                continue  # the guard certifies grid 32 cannot resolve this one
            assert betti_numbers(complex_)[0] == euler_region_count(a)
            checked += 1
        assert checked == 20


def test_criterion_7_negative_controls():
    with criterion(7, "negative controls"):
        # condition (i): a perpendicular edge is named
        a = build_arrangement(3, [X])
        graph = build_space_graph(a)
        with pytest.raises(NonGenericDirection) as exc:
            sweep_events(graph, (0, 0, 1))
        assert exc.value.violation.kind == "perpendicular_edge"
        assert exc.value.violation.edge == 0

        # condition (ii): the level vertex pair is named; (1, -5, 1) is level
        # on the crossings (0,0,0) and (5,1,0) but perpendicular to no edge
        two_crossings = build_arrangement(
            3,
            [X, ((0, 0, 0), (0, 1, 1)), ((5, 1, 0), (1, 1, 0)), ((5, 1, 0), (0, 1, 2))],
        )
        graph2 = build_space_graph(two_crossings)
        violation = check_direction(graph2, (1, -5, 1))
        assert violation is not None
        assert violation.kind == "level_vertex_pair"
        assert violation.vertex_pair == (0, 2)
        with pytest.raises(NonGenericDirection):
            sweep_events(graph2, (1, -5, 1))

        # duplicate lines rejected
        with pytest.raises(DuplicateLine):
            build_arrangement(2, [((0, 0), (1, 0)), ((7, 0), (2, 0))])

        # coarseness guard on two nearby multiple points
        close = build_arrangement(
            2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))]
        )
        assert len(multiple_points(close)) == 2
        with pytest.raises(ResolutionTooCoarse):
            rasterize_complement(close, 8)


def test_criterion_8_space_graph_generality():
    with criterion(8, "compact square graph"):
        square = graph_from_segments(
            3,
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        v = find_generic_direction(square)
        plan = sweep_events(square, v)
        trace = handle_trace(plan, 3)
        assert sum(1 for ev in plan.events if ev.s == 0) == 1
        assert not trace.all_trivial
        doc = handle_trace_to_json(trace, 3)
        assert doc["conclusion"] is None  # no Betti prediction is emitted
        assert "betti" not in json.dumps(doc["steps"])
