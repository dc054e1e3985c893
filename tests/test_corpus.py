"""The quick byte-identity corpus (``tools/corpus.py --quick``) gives the
committed digests: every call keeps its exit code and its stdout bytes.

A change that moves a digest either changes a report, which is a spec
change to argue, or mends a known defect, which moves only that defect's
group; a diff of ``python3 tools/corpus.py --quick --list`` before and
after the change names the calls that moved.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "corpus.py"

DIGESTS = {
    "main": "9690612bdcc6c1a2843fda93b0404c4c20378269c62617c9fa58cb3bb1bdbcb3",
    "defect_A": "67d6a94ea8342572ffc25e4cdc2bf1c3c635cfb29ec69ed78fc86402a46b2c32",
    "defect_B": "5e9c3138e9f549bbd5713a957177dc94fc42f6b8224c8760add0b77dbdab953d",
}


def _corpus_module():
    spec = importlib.util.spec_from_file_location("corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_corpus_digests_are_pinned():
    corpus = _corpus_module()
    results = corpus.run(*corpus.corpus(quick=True))
    assert {code for _, _, code, _ in results} == {0, 1, 2}
    errors = {json.loads(out)["error"]["type"] for _, _, code, out in results if code == 2}
    assert errors >= {"ParseError", "ResolutionTooCoarse", "GridTooLarge", "InvalidProfile"}
    assert corpus.digests(results) == DIGESTS
