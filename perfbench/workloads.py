"""Seeded inputs of the four benchmark workloads.

Each workload is a list of ``Job``s: one ``linetopo`` call on one generated
arrangement file, plus what the correctness check needs to know about the
input.  The same ``--seed`` gives the same jobs, in the same order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from linetopo import SplitMix64, build_arrangement, generate_random, serialize_arrangement
from linetopo.arrangement import Arrangement

WORKLOADS = ("planar_sweep", "space_incidence", "homology_grid", "small_corpus")

X = ((0, 0, 0), (1, 0, 0))
Y = ((0, 0, 0), (0, 1, 0))
Z = ((0, 0, 0), (0, 0, 1))

# The n=3 acceptance fixtures (tests/test_acceptance.py) with their g, and the
# 3-line planar fixture (tests/conftest.py::generic_planar3).
FIXTURES_N3 = (
    ("one line", [X], 1),
    ("two crossing", [X, Y], 3),
    ("two skew", [X, ((0, 1, 0), (0, 0, 1))], 2),
    ("pencil of 3", [X, Y, Z], 5),
    ("three coplanar", [X, Y, ((10, 0, 0), (1, -1, 0))], 6),
)
PLANAR3 = [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((5, 0), (1, -1))]


@dataclass
class Job:
    """One CLI call: ``argv`` minus the file, the arrangement behind the file,
    and for fixtures the g the acceptance gate expects."""

    command: str
    flags: tuple[str, ...]
    arrangement: Arrangement
    label: str
    expected_g: int | None = None
    path: str = field(default="", init=False)

    @property
    def argv(self) -> list[str]:
        return [self.command, *self.flags, self.path]


@dataclass
class Inputs:
    jobs: list[Job]
    gen_s: float  # time spent inside generate_random


class _Generator:
    """Wraps generate_random to sum the time spent in it."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, n, d, profile, seed):
        t0 = time.perf_counter()
        a = generate_random(n, d, profile, seed)
        self.seconds += time.perf_counter() - t0
        return a


def _stream(seed: int, workload: str) -> SplitMix64:
    return SplitMix64(seed * 0x1000193 + WORKLOADS.index(workload))


def _ladder(gen, rng, n, ds, profiles, reps):
    jobs = []
    for d in ds:
        for profile in profiles:
            for r in range(reps):
                a = gen(n, d, profile, rng.next64() >> 1)
                jobs.append(Job("analyze", (), a, f"n{n}-d{d}-{profile}-r{r}"))
    return jobs


def _seeded_corpus(gen, n, count, max_d, seed0):
    """The recipe of seeded_corpus in tests/conftest.py: profiles cycle
    generic / mixed / pencil, d drawn from 1..max_d."""
    out = []
    for i in range(count):
        seed = seed0 + 1009 * i
        rng = SplitMix64(seed)
        d = 1 + rng.below(max_d)
        kind = i % 3
        if kind == 0 or d < 2:
            profile = "generic"
        elif kind == 1:
            profile = "mixed"
        else:
            profile = f"pencil({2 + rng.below(d - 1)})"
        out.append(gen(n, d, profile, seed))
    return out


def _reexpress(rng, n, raw):
    """Same lines, other file: shuffled order, another point on each line and
    a rescaled direction.  Canonicalization maps the file back to the fixture,
    so the seed changes the bytes the parser sees but not the geometry."""
    lines = list(raw)
    for i in range(len(lines) - 1, 0, -1):
        j = rng.below(i + 1)
        lines[i], lines[j] = lines[j], lines[i]
    out = []
    for p, u in lines:
        t = rng.int_between(-7, 7)
        s = rng.int_between(1, 5) * (1 if rng.below(2) else -1)
        out.append((tuple(pc + t * uc for pc, uc in zip(p, u)), tuple(s * uc for uc in u)))
    return out


def make_jobs(workload: str, seed: int) -> Inputs:
    """The jobs of one pass of the workload, in the order they are run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    gen = _Generator()
    rng = _stream(seed, workload)
    if workload == "planar_sweep":
        jobs = _ladder(gen, rng, 2, (9, 10, 11), ("generic", "mixed", "pencil(5)"), 30)
    elif workload == "space_incidence":
        # A fine size ladder: with a few well-separated sizes, the median
        # call falls in one narrow class and jumps as the CPU speed drifts.
        jobs = _ladder(gen, rng, 3, range(30, 61, 3), ("generic", "mixed", "pencil(6)"), 3)
    elif workload == "homology_grid":
        jobs = [
            Job("verify", ("--grid", "48"), build_arrangement(3, _reexpress(rng, 3, raw)), name, g)
            for name, raw, g in FIXTURES_N3
        ]
        jobs.append(Job("verify", ("--grid", "256"),
                        build_arrangement(2, _reexpress(rng, 2, PLANAR3)), "planar 3 lines", 6))
    else:  # small_corpus
        jobs = []
        for n in (2, 3, 4):
            corpus = _seeded_corpus(gen, n, 100, 10, rng.next64() >> 33)
            jobs += [Job("analyze", (), a, f"n{n}-#{i}") for i, a in enumerate(corpus)]
        base = rng.next64() >> 33
        for j in range(60):
            (a,) = _seeded_corpus(gen, 2, 1, 8, base + j)
            jobs.append(Job("verify", ("--grid", "32"), a, f"planar-#{j}"))
    # A seeded shuffle, so that a partly repeated pass is not biased by size.
    for i in range(len(jobs) - 1, 0, -1):
        j = rng.below(i + 1)
        jobs[i], jobs[j] = jobs[j], jobs[i]
    return Inputs(jobs=jobs, gen_s=gen.seconds)


def write_files(jobs: list[Job], directory: str) -> None:
    """Serialize every job's arrangement to its own file in ``directory``."""
    for i, job in enumerate(jobs):
        job.path = os.path.join(directory, f"{i:04d}.json")
        with open(job.path, "w", encoding="utf-8") as fh:
            fh.write(serialize_arrangement(job.arrangement, name=job.label))
