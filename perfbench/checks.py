"""Correctness checks on every call's output, run outside the timed region.

Each check returns OK, REJECTED (the coarseness guard refused the grid, which
is a correct answer) or a string saying why the call failed.
"""

from __future__ import annotations

import json

from linetopo import euler_region_count

from workloads import Job

OK = "ok"
REJECTED = "rejected"


def _g_from_recovered(recovered: dict) -> int:
    return recovered["d"] + sum((int(i) - 1) * c for i, c in recovered["t"].items())


def _check_analyze(job: Job, code, doc: dict) -> str:
    if code != 0:
        return f"exit {code}"
    if doc["self_check"]["agree"] is not True:
        return "sweep trace and formula disagree"
    g = doc["report"]["g"]
    recovered = doc["poset"]["recovered"]
    if recovered["d"] != job.arrangement.d:
        return f"poset recovered d={recovered['d']}, the file has {job.arrangement.d} lines"
    if _g_from_recovered(recovered) != g:
        return "formula g differs from the g rebuilt from the recovered poset invariants"
    if job.arrangement.dimension == 2 and euler_region_count(job.arrangement) != 1 + g:
        return "Euler region count differs from 1 + g"
    return OK


def _check_verify(job: Job, code, doc: dict) -> str:
    if code == 2 and doc.get("error", {}).get("type") == "ResolutionTooCoarse":
        return REJECTED
    if code != 0:
        return f"exit {code}"
    ver = doc["verification"]
    if not ver["match"] or ver["measured"] != ver["predicted"]:
        return "measured Betti numbers differ from the prediction"
    if job.expected_g is not None:
        g = job.expected_g
        expected = [1 + g, 0, 0] if job.arrangement.dimension == 2 else [1, g, 0, 0]
        if ver["measured"] != expected:
            return f"measured {ver['measured']}, the fixture has {expected}"
    elif job.arrangement.dimension == 2 and ver["measured"][0] != euler_region_count(job.arrangement):
        return "measured b0 differs from the Euler region count"
    return OK


def check(job: Job, code, stdout: str) -> str:
    """Verdict on one call: OK, REJECTED, or the reason it failed."""
    if not isinstance(code, int):
        return f"raised {code}"
    try:
        doc = json.loads(stdout)
        if job.command == "analyze":
            return _check_analyze(job, code, doc)
        return _check_verify(job, code, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
