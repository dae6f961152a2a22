"""Replay of a committed corpus of CLI calls: exit code, stdout and stderr
must match byte for byte.

The corpus, ``tests/data/cli_corpus.json``, holds ``vanish`` with and
without ``--ideal`` on degenerate tori, on the edge vectors of C4, C6, K23
and K33, and on two sets with a repeated vector and with v_1 = v_s (a
zero and a repeated step of the character walk) at q = 3, 5 and 7; the
same on C6 and both sets at q = 11, and on a torus and a five-vector set
(|X| = 405,000) at q = 31; six vectors at q = 101 (|X| = 10^10) and a
cyclic X at q = 10^9 + 7, which leave the walk for the colon or its
degree bound; and ``graph-reg`` with all four methods on small graphs
(edgeless, with an isolated vertex, not bipartite) at q = 3 and 5, and
with ``blocks`` and ``oracle`` (an alias of ``colon``) at q = 7 and 11, in
text and in ``--json`` output.  A graph is stored by name with its call and written to
a temporary file, whose path replaces the ``GRAPH`` argument.

After an intended change of output, regenerate the corpus from the source
tree and review the diff of the JSON file entry by entry:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import io
import json
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from latreg.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent / "data" / "cli_corpus.json"

_C4 = (4, [(1, 2), (2, 3), (3, 4), (1, 4)])
_K23 = (5, [(a, b) for a in (1, 2) for b in (3, 4, 5)])
_VANISH_GRAPHS = {
    "C4": _C4,
    "C6": (6, [(i, i % 6 + 1) for i in range(1, 7)]),
    "K23": _K23,
    "K33": (6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
}
_VANISH_SETS = {
    "repeated": [[1, 0], [0, 1], [1, 0], [1, 1]],
    "v1=vs": [[2, 1], [1, 3], [0, 1], [2, 1]],
}
# large sets: |X| = 10^10 at q = 101, past the walk budget, where vanish
# takes the colon; |X| = 405,000 at q = 31, within it; and a cyclic X at
# q = 10^9 + 7 whose colon the degree bound (s-1)(q-1) refuses
_LARGE_SETS = {
    "six": [
        [1, 25, 43, 36, 51, 20],
        [42, 40, 27, 3, 47, 19],
        [8, 13, 56, 3, 19, 4],
        [54, 4, 19, 58, 60, 19],
        [47, 10, 26, 36, 16, 8],
        [0, 35, 56, 54, 2, 37],
    ],
    "five": [
        [15, 9, 13, 7, 14],
        [0, 13, 27, 21, 22],
        [8, 7, 20, 7, 0],
        [9, 9, 26, 10, 21],
        [4, 23, 19, 9, 0],
    ],
    "cyclic": [[19], [6], [15], [21]],
}
_GRAPH_FILES = {
    "C4": _C4,
    "K23": _K23,
    "C4+edge": (6, _C4[1] + [(5, 6)]),
    "triangle": (3, [(1, 2), (2, 3), (1, 3)]),
    "edge": (2, [(1, 2)]),
    "edge+isolated": (3, [(1, 2)]),
    "edgeless": (2, []),
}


def _vanish_inputs():
    """Label -> the arguments that give vanish its parameterization."""
    inputs = {f"torus {v}": ["--torus", v] for v in ("1,2", "2,3,4", "1,1,2")}
    for name, (n, edges) in _VANISH_GRAPHS.items():
        vs = [[int(k in e) for k in range(1, n + 1)] for e in edges]
        inputs[name] = ["--monomials", json.dumps(vs, separators=(",", ":"))]
    for name, vs in (_VANISH_SETS | _LARGE_SETS).items():
        inputs[name] = ["--monomials", json.dumps(vs, separators=(",", ":"))]
    return inputs


def corpus_calls():
    """(argv, graph name or None) for every call of the corpus, in a fixed
    order: text output at q = 3, 7, 31 and past, ``--json`` at q = 5 and 11."""
    inputs = _vanish_inputs()
    small = [name for name in inputs if name not in _LARGE_SETS]
    calls = []
    for q, names in (
        ("3", small),
        ("5", small),
        ("7", small),
        ("11", ["C6", *_VANISH_SETS]),
        ("31", ["torus 2,3,4", "five"]),
    ):
        out = ["--json"] if q in ("5", "11") else []
        for name in names:
            calls.append(([*out, "vanish", "--q", q, *inputs[name]], None))
            calls.append(([*out, "vanish", "--q", q, *inputs[name], "--ideal"], None))
    for q, name in (("101", "six"), (str(10**9 + 7), "cyclic")):
        calls.append((["vanish", "--q", q, *inputs[name]], None))
        calls.append((["vanish", "--q", q, *inputs[name], "--ideal"], None))
    for q, methods in (
        ("3", ("blocks", "oracle", "colon", "bounds")),
        ("5", ("blocks", "oracle", "colon", "bounds")),
        ("7", ("blocks", "oracle")),
        ("11", ("blocks", "oracle")),
    ):
        out = ["--json"] if q in ("5", "11") else []
        for name in _GRAPH_FILES:
            for method in methods:
                argv = [*out, "graph-reg", "--q", q, "--method", method, "GRAPH"]
                calls.append((argv, name))
    return calls


def run_call(argv, graph, tmp_dir):
    """Exit code, stdout and stderr of one in-process CLI call."""
    if graph is not None:
        n, edges = _GRAPH_FILES[graph]
        path = pathlib.Path(tmp_dir) / "graph.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        argv = [str(path) if a == "GRAPH" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _label(entry):
    """The call, with a name in place of its edge vectors or graph file."""
    text = " ".join(entry["argv"]).replace("GRAPH", str(entry["graph"]))
    for name, given in _vanish_inputs().items():
        text = text.replace(" ".join(given), name)
    return text


def _entries():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", _entries() if CORPUS.exists() else [], ids=_label)
def test_cli_call_matches_corpus(entry, tmp_path):
    got = run_call(entry["argv"], entry["graph"], tmp_path)
    assert got == (entry["code"], entry["stdout"], entry["stderr"])


def test_corpus_lists_every_call():
    assert [(e["argv"], e["graph"]) for e in _entries()] == corpus_calls()


if __name__ == "__main__":
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, graph in corpus_calls():
            code, out, err = run_call(argv, graph, tmp)
            entries.append(
                {"argv": argv, "graph": graph, "code": code, "stdout": out, "stderr": err}
            )
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} calls to {CORPUS}")
