"""Driving the command-line surface end to end.

Every subcommand reads/writes JSON with rationals as exact strings, embeds a
content digest, and produces byte-identical output for identical input.
"""

import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from linetopo.cli import run_cli


def call(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_cli(argv)
    return code, buf.getvalue()


workdir = Path(tempfile.mkdtemp(prefix="linetopo-demo-"))
arrangement_path = workdir / "pencil.json"

code, generated = call(["gen", "--dim", "3", "--count", "3",
                        "--profile", "pencil(3)", "--seed", "3"])
assert code == 0, "gen failed"
arrangement_path.write_text(generated, encoding="utf-8")
print("gen ->", json.loads(generated)["name"])

code, report = call(["analyze", str(arrangement_path)])
assert code == 0, "analyze failed"
doc = json.loads(report)
assert doc["self_check"]["agree"], "formula and sweep trace disagree"
print("analyze: g =", doc["report"]["g"], " betti =", doc["report"]["betti"])
print("self-check:", doc["self_check"])

code, out = call(["poset", "--format", "dot", str(arrangement_path)])
print("\nposet --format dot:")
print(out)

# A direction perpendicular to the first line violates genericity
# condition (i) and is rejected with the offending edge.
a, b, _c = (int(x) for x in json.loads(generated)["lines"][0]["direction"])
bad = f"{-b},{a},0" if (a, b) != (0, 0) else "1,0,0"
code, out = call(["sweep", "--direction", bad, str(arrangement_path)])
print(f"sweep with perpendicular direction {bad} -> exit", code)
print(json.loads(out)["error"])
assert code == 2 and json.loads(out)["error"]["type"] == "NonGenericDirection"

code, out = call(["verify", "--grid", "24", str(arrangement_path)])
print("\nverify --grid 24 -> exit", code)
print(json.loads(out)["verification"])
assert code == 0 and json.loads(out)["verification"]["match"], "verify mismatch"

# Byte-identical reports for identical input, flags, and tool version.
_, again = call(["analyze", str(arrangement_path)])
print("\nanalyze twice, byte-identical:", again == report)
assert again == report

# The installed console script (or `python -m linetopo.cli`) is the same
# entry point, including exit codes.
proc = subprocess.run(
    [sys.executable, "-m", "linetopo.cli", "verify", "--grid", "24",
     str(arrangement_path)],
    capture_output=True, text=True,
)
print("console process exit:", proc.returncode)
shutil.rmtree(workdir)
assert proc.returncode == 0, proc.stderr
