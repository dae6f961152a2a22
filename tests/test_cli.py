import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

from latreg import binomial_gb, ffvanish, hilbert, invariants
from latreg.cli import main, parse_ideal_file
from latreg.errors import ParseError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_frobenius(capsys):
    code, out, err = run(capsys, "frobenius", "6", "9", "20")
    assert (code, out) == (0, "43\n")


def test_frobenius_domain_error(capsys):
    code, out, err = run(capsys, "frobenius", "2", "4")
    assert code == 1
    assert err.startswith("invalid-semigroup")


def test_apery_budget(capsys):
    # the table of least elements per residue would have 10^12 entries; the
    # curve (1000003, 1000033) needs 2,000,006 steps and still answers
    start = time.perf_counter()
    code, out, err = run(capsys, "frobenius", "1000000000000", "1000000000001")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "budget-exceeded: Apery table of 1000000000000 residues and 2 generators"
        " passes 4000000 steps\n"
    )
    assert run(capsys, "mcurve", "1000003", "1000033") == (
        0, "reg=1000036000098 deg=1000036000099\n", ""
    )


def test_usage_error(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2


def test_mcurve(capsys):
    assert run(capsys, "mcurve", "2", "3")[1] == "reg=5 deg=6\n"
    assert run(capsys, "mcurve", "4", "6")[1] == "reg=11 deg=12\n"


def test_torus_and_prescribe(capsys):
    assert run(capsys, "torus", "--q", "5", "--v", "1,2")[1] == "reg=3 deg=4\n"
    assert run(capsys, "prescribe", "2", "3")[1] == "q=7 v=3,2\n"


def test_gb_and_hilbert(capsys):
    code, out, _ = run(capsys, "gb", "--weights", "2,3", "t1^3 - t2^2")
    assert (code, out) == (0, "t1^3 - t2^2\n")
    code, out, _ = run(capsys, "hilbert", "t1^6 - t2^6")
    lines = out.splitlines()
    assert lines[0] == "numerator: 1 - t^6"
    assert lines[1] == "a-invariant: 4"
    assert lines[2].startswith("H(0..")
    assert lines[3].endswith("5")
    # the series does not depend on the order, so hilbert has no --order
    assert run(capsys, "hilbert", "--order", "lex", "t1^6 - t2^6")[:2] == (2, "")


def test_prescribe_budgets_candidates_not_q(capsys, monkeypatch):
    # 36 * 1000003 + 1 and 6 * 1999966 + 1 lie past 10^6, but they are early
    # candidates k lcm(d_i) + 1
    assert run(capsys, "prescribe", "1000003") == (0, "q=36000109 v=36\n", "")
    want = (0, "q=11999797 v=12,5999898\n", "")
    assert run(capsys, "prescribe", "999983", "2") == want
    # 8, 15 and 22 are not prime, and 29 is the fourth candidate
    monkeypatch.setattr(invariants, "_PRIME_CANDIDATE_BUDGET", 4)
    assert run(capsys, "prescribe", "7") == (0, "q=29 v=4\n", "")
    monkeypatch.setattr(invariants, "_PRIME_CANDIDATE_BUDGET", 3)
    err = "budget-exceeded: no admissible prime among the first 3 candidates\n"
    assert run(capsys, "prescribe", "7") == (1, "", err)


def test_hilbert_numerator_degree_budget(tmp_path, capsys, monkeypatch):
    # a dense numerator of degree 10^12 would not fit in memory; the basis
    # is the input, so the budget is checked at once
    path = tmp_path / "huge.txt"
    path.write_text("t1^1000000000000 - t2^1000000000000\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "hilbert", str(path))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err == "budget-exceeded: Hilbert numerator degree bound passes 4000000\n"
    # the leads t1^2 and t2^3 have an lcm of degree 5, the numerator's degree
    argv = ["hilbert", "t1^2 - t3^2", "t2^3 - t3^3"]
    monkeypatch.setattr(hilbert, "_NUMERATOR_DEGREE_BUDGET", 5)
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[0]) == (0, "numerator: 1 - t^2 - t^3 + t^5")
    monkeypatch.setattr(hilbert, "_NUMERATOR_DEGREE_BUDGET", 4)
    assert run(capsys, *argv)[:2] == (1, "")


def test_gb_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "gb", "t1^3 + t2^2")
    assert code == 2
    assert "parse-error" in err


def test_ideal_file(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("# a comment\n\nt1^3 - t2^2\n")
    I = parse_ideal_file(str(path))
    assert I.num_vars == 2 and len(I.gens) == 1
    code, out, _ = run(capsys, "gb", str(path))
    assert code == 0 and out == "t1^3 - t2^2\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("t1 - t2\nt1 + t2\n")
    with pytest.raises(ParseError) as e:
        parse_ideal_file(str(bad))
    assert ":2:" in str(e.value)
    code, _, err = run(capsys, "gb", str(bad))
    assert code == 2


def test_lattice_commands(tmp_path, capsys):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"ambient": 2, "generators": [[2, -2]]}))
    assert run(capsys, "lattice", "torsion", str(path))[1] == "2\n"
    assert run(capsys, "lattice", "saturate", str(path))[1] == "1 -1\n"
    code, out, _ = run(capsys, "lattice", "snf", str(path))
    assert out == "rank: 1\ninvariants: 2\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(capsys, "lattice", "snf", str(bad))[0] == 2


def test_vanish(capsys):
    code, out, _ = run(capsys, "vanish", "--q", "5", "--torus", "1,2")
    assert code == 0
    assert out.splitlines() == ["|X|=4", "H(0..4): 1 2 3 4 4", "reg=3"]
    code, out, _ = run(
        capsys, "vanish", "--q", "3", "--monomials", "[[1],[2]]", "--ideal"
    )
    assert "t1^2 - t2^2" in out
    assert run(capsys, "vanish", "--q", "4", "--torus", "1")[0] == 1
    assert run(capsys, "vanish", "--q", "5")[0] == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--q", "2", "--torus", "1,2"], "unsupported-field"),
        (["--q", "2", "--monomials", "[[1],[2]]"], "unsupported-field"),
        (["--q", "3", "--monomials", "[[0,0]]"], "invalid-argument"),
        (["--q", "3", "--monomials", "[[1],[1,2]]"], "invalid-argument"),
        (["--q", "3", "--torus", "0,2"], "invalid-argument"),
        (["--q", "3", "--torus", "0,2", "--ideal"], "invalid-argument"),
        (["--q", "2", "--monomials", "[[1],[2]]", "--ideal"], "unsupported-field"),
        (["--q", str(2**127 - 1), "--torus", "1,2", "--ideal"], "budget-exceeded"),
        (["--q", str(2**61 - 1), "--monomials", "[[1],[2],[3]]", "--ideal"], "budget-exceeded"),
    ],
)
def test_vanish_domain_errors(capsys, argv, name):
    code, out, err = run(capsys, "vanish", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(name + ":")


def test_non_prime_q_is_one_error(capsys):
    for argv in (["torus", "--q", "4", "--v", "1,2"], ["vanish", "--q", "4", "--torus", "1,2"]):
        assert run(capsys, *argv) == (1, "", "unsupported-field: 4 is not prime\n")


def test_vanish_sumset_budget(capsys, monkeypatch):
    monkeypatch.setattr(ffvanish, "_SUMSET_BUDGET", 10_000)
    # q = 2^127 - 1: the sumset would grow towards (q-1) characters
    q = str(2**127 - 1)
    code, out, err = run(capsys, "vanish", "--q", q, "--torus", "1,2")
    assert (code, out) == (1, "")
    assert err.startswith("budget-exceeded:")


def test_vanish_sumset_budget_fails_before_search(capsys):
    # a step difference of order ~q already makes |X| |U| exceed the budget,
    # so the answer comes before any sum is formed
    start = time.perf_counter()
    code, out, err = run(capsys, "vanish", "--q", str(2**127 - 1), "--torus", "1,2")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err == "budget-exceeded: character sumset needs more than 4000000 sums\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "5", "--torus", "1,2"],
        ["--q", "7", "--torus", "2,3"],
        ["--q", "5", "--torus", "1,1,2"],
        ["--q", "7", "--torus", "3"],
        ["--q", "3", "--monomials", "[[1],[2]]"],
        ["--q", "7", "--monomials", "[[2],[4],[6]]"],
        ["--q", "5", "--monomials", "[[1,0],[0,1],[1,1]]"],
        ["--q", "7", "--monomials", "[[1,2],[2,1],[1,1]]"],
        ["--q", "5", "--monomials", "[[1,1,0],[0,1,1],[1,0,1]]"],
        ["--q", "3", "--monomials", "[[1,1,0,0],[0,1,1,0],[0,0,1,1],[1,0,0,1]]"],
    ],
)
def test_vanish_ideal_series_matches_character_search(capsys, argv):
    # with --ideal, |X|, H and reg come off the Hilbert series of in(I(X));
    # without it, off the character search: the two must agree
    code, out, _ = run(capsys, "vanish", *argv)
    code_i, out_i, _ = run(capsys, "vanish", *argv, "--ideal")
    assert code == code_i == 0
    lines = out_i.splitlines()
    assert lines[: lines.index("ideal:")] == out.splitlines()


def test_vanish_ideal_degree_budget(capsys, monkeypatch):
    # [[1],[2],[3]] over F_5 has (s-1)(q-1) = 8
    argv = ["vanish", "--q", "5", "--monomials", "[[1],[2],[3]]", "--ideal"]
    monkeypatch.setattr(hilbert, "_NUMERATOR_DEGREE_BUDGET", 8)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(hilbert, "_NUMERATOR_DEGREE_BUDGET", 7)
    assert run(capsys, *argv)[:2] == (1, "")
    monkeypatch.undo()
    # q = 2^61 - 1: reducing the seed t_2^{q-1} - t_3^{q-1} would take ~2^60
    # steps, so the budget is checked before the ideal is built
    start = time.perf_counter()
    argv = ["vanish", "--q", str(2**61 - 1), "--monomials", "[[1],[2],[3]]", "--ideal"]
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err == (
        "budget-exceeded: vanishing ideal degree bound (s-1)(q-1) passes 4000000\n"
    )


def test_vanish_ideal_reads_series_past_sumset_budget(capsys):
    # |X| = 10^10 is far over the character budget, but I(X) is the torus
    # ideal (t_i^100 - t_6^100), whose Hilbert series gives H, |X| and reg
    vs = (
        "[[1,25,43,36,51,20],[42,40,27,3,47,19],[8,13,56,3,19,4],"
        "[54,4,19,58,60,19],[47,10,26,36,16,8],[0,35,56,54,2,37]]"
    )
    start = time.perf_counter()
    argv = ["--json", "vanish", "--q", "101", "--monomials", vs, "--ideal"]
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert (obj["size"], obj["reg"]) == (10**10, 495)
    assert obj["ideal"] == [f"t{i}^100 - t6^100" for i in range(5, 0, -1)]
    # five forms of degree 100 in six variables: a complete intersection
    assert obj["H"] == [
        sum(
            (-1) ** j * math.comb(5, j) * math.comb(d - 100 * j + 5, 5)
            for j in range(d // 100 + 1)
        )
        for d in range(497)
    ]


def test_readme_cli_examples(capsys):
    # every `latreg ... # -> output` line of the README's CLI block
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    examples = re.findall(r"^latreg (.+?)\s+# -> (.+)$", readme.read_text(), re.M)
    assert {shlex.split(cmd)[0] for cmd, _ in examples} >= {
        "frobenius",
        "mcurve",
        "torus",
        "prescribe",
    }
    for cmd, want in examples:
        assert run(capsys, *shlex.split(cmd)) == (0, want + "\n", ""), cmd


def test_graph_reg(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}))
    for method, expected in [
        ("blocks", "reg=1\n"),
        ("oracle", "reg=1\n"),
        ("colon", "reg=1\n"),
        ("bounds", "lower=1 upper=2\n"),
    ]:
        assert run(capsys, "graph-reg", "--q", "3", "--method", method, str(path))[1] == expected
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    code, _, err = run(capsys, "graph-reg", "--q", "3", tri.as_posix())
    assert code == 1 and "precondition-violation" in err
    for method in ("oracle", "colon"):
        argv = ["graph-reg", "--q", "3", "--method", method, str(tri)]
        assert run(capsys, *argv) == (0, "reg=2\n", "")
    # an isolated vertex changes nothing: X depends on the edges alone
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    for method in ("blocks", "oracle", "colon"):
        argv = ["graph-reg", "--q", "3", "--method", method]
        assert run(capsys, *argv, str(iso)) == run(capsys, *argv, str(edge)) == (
            0, "reg=0\n", ""
        )
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 0, "edges": []}))
    code, _, err = run(capsys, "graph-reg", "--q", "3", "--method", "oracle", str(empty))
    assert code == 1 and err == "invalid-argument: graph has no edges\n"


def test_graph_reg_one_field_rule(tmp_path, capsys):
    # every method that builds the edge point set needs q >= 3; the bounds
    # are closed forms in q
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}))
    err = "unsupported-field: parameterized sets need p >= 3\n"
    for method in ("blocks", "oracle", "colon"):
        argv = ["graph-reg", "--q", "2", "--method", method, str(path)]
        assert run(capsys, *argv) == (1, "", err), method
    argv = ["graph-reg", "--q", "2", "--method", "bounds", str(path)]
    assert run(capsys, *argv) == (0, "lower=0 upper=0\n", "")


def test_json_output_deterministic(capsys):
    code, out1, _ = run(capsys, "--json", "mcurve", "2", "3")
    code, out2, _ = run(capsys, "--json", "mcurve", "2", "3")
    assert out1 == out2
    obj = json.loads(out1)
    assert obj == {"deg": 6, "reg": 5}
    _, out, _ = run(capsys, "--json", "hilbert", "--weights", "2,3", "t1^3 - t2^2")
    obj = json.loads(out)
    assert obj["numerator"] == [1, 0, 0, 0, 0, 0, -1]
    assert obj["a_invariant"] == 1
    assert obj["reg_cm"] == 5
    _, out, _ = run(capsys, "--json", "version")
    assert "version" in json.loads(out)


def test_version(capsys):
    code, out, _ = run(capsys, "version")
    assert code == 0 and out.startswith("latreg ")


@pytest.mark.parametrize("monomials", ["[[1.5],[2]]", "[[true],[2]]", '[["1"],[2]]', "[[2.0],[1]]"])
def test_vanish_monomials_must_be_integers(capsys, monomials):
    code, out, err = run(capsys, "vanish", "--q", "5", "--monomials", monomials)
    assert (code, out) == (2, "")
    assert err.startswith("parse-error: bad monomial list")


@pytest.mark.parametrize(
    "data",
    [
        {"ambient": 2, "generators": [[2.7, -2]]},
        {"ambient": 2, "generators": [[True, -1]]},
        {"ambient": 2.0, "generators": [[2, -2]]},
        {"ambient": 2, "generators": ["12"]},
    ],
)
def test_lattice_file_must_hold_integers(tmp_path, capsys, data):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "lattice", "torsion", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse-error: bad lattice file")


@pytest.mark.parametrize(
    "data",
    [
        {"n": 4.9, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
        {"n": True, "edges": []},
        {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1.0, 4]]},
        {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], ["1", 4]]},
    ],
)
def test_graph_file_must_hold_integers(tmp_path, capsys, data):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "graph-reg", "--q", "3", "--method", "oracle", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse-error: bad graph file")


def test_graph_reg_long_path(tmp_path, capsys):
    # a tree on n vertices: reg = (n-2)(q-2), the projective-torus value,
    # which is also the upper bound; the block search must not recurse
    # once per edge
    n = 2000
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(1, n)]}))
    code, out, _ = run(capsys, "graph-reg", "--q", "3", "--method", "blocks", str(path))
    assert (code, out) == (0, f"reg={n - 2}\n")
    code, out, _ = run(capsys, "graph-reg", "--q", "3", "--method", "bounds", str(path))
    assert (code, out) == (0, f"lower={n // 2 - 1} upper={n - 2}\n")


def test_pure_powers_reduce_in_one_subtraction(capsys):
    # t1^{q-1} - t2^{q-1} reduces by t1 - t2, and t1^2000000 - t2^2000000 by
    # t1^2 - t2^2, in one subtraction each instead of a step per division
    argv = ["vanish", "--q", "3999971", "--monomials", "[[1],[1]]", "--ideal"]
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "|X|=1\nH(0..1): 1 1\nreg=0\nideal:\n  t1 - t2\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "hilbert", "t1^2000000 - t2^2000000", "t1^2 - t2^2")
    assert time.perf_counter() - start < 2.0
    assert (code, out.splitlines()[0]) == (0, "numerator: 1 - t^2")


def test_groebner_work_budget(capsys, monkeypatch):
    # this basis takes 14664 units of work; the input grows past any budget
    # with q (at q = 10007 it gives up after 150M units)
    argv = ["vanish", "--q", "11", "--monomials", "[[2,0],[0,3],[1,1],[1,2]]", "--ideal"]
    monkeypatch.setattr(binomial_gb, "_WORK_BUDGET", 14664)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(binomial_gb, "_WORK_BUDGET", 14663)
    err = "budget-exceeded: Groebner basis computation passes 14663 units of work\n"
    assert run(capsys, *argv) == (1, "", err)


def test_closed_stdout_pipe_exits_quietly():
    # several MB of output into a pipe closed after 20 bytes: exit code 1 and
    # no BrokenPipeError traceback
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["vanish", "--q", "400009", "--monomials", "[[1],[2],[3]]"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "latreg", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(20) == b"|X|=400008\nH(0..2000"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
