"""Seeded random arrangements for test corpora.

Draws come from SplitMix64, a fully specified 64-bit generator, so a given
(seed, parameters) pair produces the identical arrangement on any platform
or Python version.
"""

from __future__ import annotations

import re

from .arrangement import MAX_DIMENSION, Arrangement, arrangement_of_lines
from .errors import InvalidProfile
from .geometry import Line, canonicalize_line, meet

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: state steps by 0x9E3779B97F4A7C15; output is the state
    mixed by xor-shifts 30/27/31 with multipliers 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) by modulo; bias is irrelevant at
        the tiny bounds used here and keeps the stream trivially specified."""
        return self.next64() % bound

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


_PENCIL_RE = re.compile(r"^pencil\((\d+)\)$")


def _parse_profile(profile: str, d: int):
    if profile == "generic":
        return ("generic", None)
    if profile == "mixed":
        return ("mixed", None)
    m = _PENCIL_RE.match(profile)
    if m:
        k = int(m.group(1))
        if not 2 <= k <= d:
            raise InvalidProfile(f"pencil size must be between 2 and d={d}, got {k}")
        return ("pencil", k)
    raise InvalidProfile(
        f"unknown profile {profile!r}; expected 'generic', 'pencil(k)', or 'mixed'"
    )


def _draw_vector(rng: SplitMix64, n: int, radius: int, nonzero: bool):
    while True:
        v = tuple(rng.int_between(-radius, radius) for _ in range(n))
        if not nonzero or any(c != 0 for c in v):
            return v


def _draw_generic_line(rng, n, lines, radius, avoid, carriers):
    """A line that is not a duplicate, parallel to no existing line, and
    passes through none of the points in ``avoid``, held as ``meet`` forms.

    Each avoided point lies on one of ``carriers``, which are existing
    lines.  The line drawn is parallel to none of them, so it passes through
    an avoided point iff it meets a carrier there."""
    attempts = 0
    while True:
        attempts += 1
        if attempts % 64 == 0:
            radius *= 2
        p = _draw_vector(rng, n, radius, nonzero=False)
        u = _draw_vector(rng, n, radius, nonzero=True)
        line = canonicalize_line(p, u)
        if any(line.direction == old.direction for old in lines):  # equal lines share one too
            continue
        if avoid and any(meet(old, line) in avoid for old in carriers):
            continue
        return line


def generate_random(n: int, d: int, profile: str, seed: int) -> Arrangement:
    """Deterministic seeded arrangement with the requested coincidence profile.

    generic: pairwise non-parallel lines; in the plane additionally no three
    concurrent, so t_2 is exactly d(d-1)/2.  pencil(k): k lines through one
    shared rational point, plus generic extras avoiding that point.  mixed: a
    seeded pencil among generic lines (falls back to generic for d < 3).
    """
    if n < 2:
        raise InvalidProfile(f"dimension must be >= 2, got {n}")
    if n > MAX_DIMENSION:
        raise InvalidProfile(f"dimension must be <= {MAX_DIMENSION}, got {n}")
    if d < 1:
        raise InvalidProfile(f"line count must be >= 1, got {d}")
    kind, k = _parse_profile(profile, d)
    rng = SplitMix64(seed)
    if kind == "mixed":
        if d >= 3:
            kind, k = "pencil", 2 + rng.below(min(d, 5) - 1)
        else:
            kind = "generic"

    lines: list[Line] = []
    if kind == "pencil":
        apex = tuple(rng.int_between(-9, 9) for _ in range(n))
        dirs = set()
        while len(lines) < k:
            u = _draw_vector(rng, n, 9, nonzero=True)
            line = canonicalize_line(apex, u)
            if line.direction in dirs:
                continue
            dirs.add(line.direction)
            lines.append(line)
        avoid = {(apex, 1)}  # on the first pencil line
        while len(lines) < d:
            lines.append(_draw_generic_line(rng, n, lines, 9, avoid, lines[:1]))
    else:
        avoid = set()  # in the plane: every crossing of the lines drawn so far
        while len(lines) < d:
            line = _draw_generic_line(rng, n, lines, 9, avoid, lines)
            if n == 2:
                # concurrences would lower t_2 below the generic count
                avoid.update(x for old in lines if (x := meet(old, line)) is not None)
            lines.append(line)

    return arrangement_of_lines(n, lines)
