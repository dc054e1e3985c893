"""Benchmark of ``linetopo analyze`` and ``linetopo verify``.

Run from the repository root:

    python3 perfbench/run.py --workload planar_sweep --seed 1 --seconds 20 --trace 0

It generates the workload's arrangements from ``--seed``, writes them to
files, and calls ``linetopo.cli.run_cli`` on each file in this process with
stdout captured: one client, closed loop, no extra threads.  With
``--trace 0`` it cycles through the files until at least one whole pass and
``--seconds`` of calls are done, and prints the end-to-end metrics.  With
``--trace 1`` it makes one untraced pass and one traced replay pass (see
spans.py) and prints the per-layer metrics.  Every call's output is checked
outside the timed region.  The last line of stdout is the result object;
the line before it holds details (tail latency, versions, output digest).
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before any other import

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 2  # extra set-ups in child processes; setup_s is the median of 1 + these

# One process, no extra threads: keep numpy/scipy's native pools at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def set_up(workload: str, seed: int, workdir: Path):
    """Import linetopo, generate and write the inputs, and warm up lazy imports.

    The warm-up verify reaches cubical._certified_cells, which imports
    scipy.sparse on first use; the warm-up analyze runs the argparse and
    sweep paths once, so the first timed call carries no one-time cost.
    """
    sys.path.insert(0, str(SRC))
    from linetopo import build_arrangement, serialize_arrangement
    from linetopo.cli import run_cli

    from workloads import make_jobs, write_files

    inputs = make_jobs(workload, seed)
    write_files(inputs.jobs, str(workdir))
    warm = workdir / "warm-up.json"
    warm.write_text(serialize_arrangement(build_arrangement(2, [((0, 0), (1, 2))])),
                    encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = [run_cli(["verify", "--grid", "8", str(warm)]), run_cli(["analyze", str(warm)])]
    if codes != [0, 0]:
        raise RuntimeError(f"warm-up calls exited {codes}")
    return inputs


def _call(run_cli, argv):
    """One untraced CLI call: (seconds, exit code or exception text, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = run_cli(argv)
        except (Exception, SystemExit):  # a crash is a failed call, not the end of the run
            code = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


class Outcomes:
    """Exit code and stdout of every call.

    The first output per file is kept and checked after the timed loop, so
    checking leaves no garbage for a timed call to collect.  Every later call
    on the same file must repeat that output byte for byte.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.first: dict[int, tuple[object, str]] = {}
        self.repeats: list[tuple[int, bool]] = []  # (job, same output as the first)

    def record(self, index: int, code, stdout: str) -> None:
        if index in self.first:
            self.repeats.append((index, (code, stdout) == self.first[index]))
        else:
            self.first[index] = (code, stdout)

    def tally(self) -> dict:
        from checks import OK, REJECTED, check

        verdicts = {i: check(self.jobs[i], code, out) for i, (code, out) in self.first.items()}
        outcomes = list(verdicts.items()) + [
            (i, verdicts[i] if same else "output differs from the first call on the same file")
            for i, same in self.repeats
        ]
        failures = [f"{self.jobs[i].label}: {v}" for i, v in outcomes if v not in (OK, REJECTED)]
        stdout = "".join(self.first[i][1] for i in range(len(self.jobs)))
        return {
            "calls": len(outcomes),
            "failed": len(failures),
            "guard_rejections": sum(v == REJECTED for _, v in outcomes),
            "failures": failures[:5],
            "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        }


def measure_untraced(jobs, seconds: float, outcomes: Outcomes):
    """Closed loop over the jobs: one whole pass, then on through the
    (shuffled) list until ``seconds`` have passed.  Returns (call seconds,
    elapsed seconds)."""
    from linetopo.cli import run_cli

    times = []
    i = 0
    t0 = time.perf_counter()
    while i < len(jobs) or time.perf_counter() - t0 < seconds:
        dt, code, stdout = _call(run_cli, jobs[i % len(jobs)].argv)
        times.append(dt)
        outcomes.record(i % len(jobs), code, stdout)
        i += 1
    return times, time.perf_counter() - t0


def tail(times):
    """(seconds, percentile) at the highest percentile with at least ten calls
    beyond it, or None below 20 calls."""
    if len(times) < 20:
        return None
    n = len(times)
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def setup_probe_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, workdir: Path) -> int:
    inputs = set_up(args.workload, args.seed, workdir)
    setup_samples = [time.perf_counter() - T_START]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0
    setup_samples += setup_probe_samples(args.workload, args.seed)
    jobs = inputs.jobs
    gc.collect()

    outcomes = Outcomes(jobs)
    details = {"workload": args.workload, **environment(args.seed),
               "setup_samples_s": setup_samples, "files_per_pass": len(jobs)}
    if args.trace:
        from spans import Tracer, replay

        times, _ = measure_untraced(jobs, 0, outcomes)  # exactly one pass
        tracer = Tracer()
        for i, job in enumerate(jobs):
            try:
                code, stdout = replay(tracer, job.argv)
            except (Exception, SystemExit):
                code, stdout = traceback.format_exc(limit=3), ""
            outcomes.record(i, code, stdout)
        traced = tracer.call_seconds()
        per_layer = tracer.metrics()
        per_layer["generate.gen_s"] = (inputs.gen_s, "s")
        overhead = len(traced) / sum(traced) - len(times) / sum(times)
        per_layer["trace.overhead_per_s"] = (overhead, "1/s")
        metrics = {name: metric(*per_layer[name]) for name in sorted(per_layer)}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"labels": [j.label for j in jobs],
                                          "spans": tracer.to_json()}), encoding="utf-8")
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["traced_call_s"] = sum(traced)
        details["untraced_call_s"] = sum(times)
    else:
        times, elapsed = measure_untraced(jobs, args.seconds, outcomes)
        # Latency over whole passes only: the files in the trailing part-pass
        # depend on where the time ran out, and would shift the median.
        whole = times[: len(times) - len(times) % len(jobs)]
        metrics = {
            "arrangements_per_s": metric(len(times) / elapsed, "1/s"),
            "call_p50_s": metric(statistics.median(whole), "s"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        t = tail(whole)
        details.update({"elapsed_s": elapsed, "passes": len(times) / len(jobs),
                        "call_tail_s": t and t[0], "call_tail_percentile": t and t[1]})
    tally = outcomes.tally()
    details.update(tally, failed_ratio=tally["failed"] / tally["calls"])
    result = {"correct": tally["failed"] == 0, "attempted": tally["calls"],
              "failed": tally["failed"], "metrics": metrics}
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (SRC / "linetopo" / "__init__.py").is_file():
        print(f"perfbench: no linetopo sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
