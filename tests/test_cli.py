import gc
import inspect
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

from affine_insertion import cli, clear_caches, insertion, localrule, symfunc, verify
from affine_insertion.affperm import from_reduced_word, format_window, identity, parse_window
from affine_insertion.cli import build_parser, main
from affine_insertion.cores import core_of, offsets, parse_partition
from affine_insertion.insertion import BoundedMatrix, grassmannian_rsk
from affine_insertion.localrule import FinalPair, InitialTriple
from affine_insertion.serialize import strong_strip_from_json, strong_tableau_from_json, weak_strip_from_json
from affine_insertion.strong import strong_strips_from, strong_tableaux
from affine_insertion.symfunc import NotSymmetric, WeightPolynomial
from affine_insertion.weak import weak_strips_from


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_insert_text(capsys):
    rc, out = run(capsys, "insert", "--n", "3", "--matrix", "[[0,1,0],[0,0,2],[1,0,1]]")
    assert rc == 0
    assert "1_1* 3_1* 3_2* 3_3  3_3*" in out
    assert "1 2 2 3 3" in out
    assert "outside: [-2,0,8]" in out


def test_insert_json_and_reverse(capsys, tmp_path):
    rc, out = run(capsys, "insert", "--n", "3", "--matrix", "[[0,1,0],[0,0,2],[1,0,1]]", "--format", "json", "--audit")
    assert rc == 0
    doc = json.loads(out)
    assert doc["P_core"] == "(5,3,1)"
    assert doc["render"]["Q"].splitlines()[-1] == "1 2 2 3 3"
    assert [step["case"] for step in doc["audit"]["1,2"]] == ["X"]
    assert doc["audit"]["1,2"][0]["before"]["weak"]["inside"] == "[1,2,3]"
    path = tmp_path / "pair.json"
    path.write_text(out)
    rc, out = run(capsys, "insert", "--reverse", "--pair", str(path), "--n", "3")
    assert rc == 0
    assert json.loads(out) == [[0, 1, 0], [0, 0, 2], [1, 0, 1]]


def _with_marks(doc, change):
    """doc with every cover's 'mark' replaced by change(mark), or dropped where change gives None."""
    if isinstance(doc, list):
        return [_with_marks(x, change) for x in doc]
    if not isinstance(doc, dict):
        return doc
    out = {k: _with_marks(v, change) for k, v in doc.items() if k != "mark"}
    if "mark" in doc and change(doc["mark"]) is not None:
        out["mark"] = change(doc["mark"])
    return out


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda m: m + 100, "marked cover 'mark' must be inside(j) = 1, not 101", id="shifted"),
    pytest.param(lambda m: True if m == 1 else m, "marked cover 'mark' must be inside(j) = 1, not True", id="bool"),
    pytest.param(lambda m: None, None, id="dropped"),
])
def test_reverse_reads_each_cover_mark(capsys, tmp_path, change, message):
    matrix = "[[1,1],[1,0]]"
    rc, out = run(capsys, "insert", "--n", "3", "--matrix", matrix, "--format", "json")
    assert rc == 0
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_with_marks(json.loads(out), change)))
    rc = main(["insert", "--reverse", "--n", "3", "--pair", str(path)])
    captured = capsys.readouterr()
    if message is None:  # a document without marks still reads
        assert rc == 0 and json.loads(captured.out) == json.loads(matrix)
    else:
        assert rc == 2 and message in captured.err and "Traceback" not in captured.err


def test_insert_rejects_unbounded(capsys):
    rc = main(["insert", "--n", "3", "--matrix", "[[3]]"])
    assert rc == 2


def test_convert_chain(capsys):
    rc, out = run(capsys, "convert", "--n", "4", "--from", "window", "--to", "core", "[-7,-1,4,14]")
    assert rc == 0 and out.strip() == "(10,7,4,3,2,1,1,1)"
    rc, out = run(capsys, "convert", "--n", "4", "--from", "core", "--to", "bounded", "(10,7,4,3,2,1,1,1)")
    assert rc == 0 and out.strip() == "(3,3,2,2,1,1,1,1)"
    rc, out = run(capsys, "convert", "--n", "4", "--from", "offsets", "--to", "window", "(-2,3,-1,0)")
    assert rc == 0 and out.strip() == "[-7,-1,4,14]"
    rc, out = run(capsys, "convert", "--n", "4", "--from", "window", "--to", "code", "[-7,-1,4,14]")
    assert rc == 0 and out.strip() == "(0,1,3,10)"
    rc, out = run(capsys, "convert", "--n", "4", "--from", "code", "--to", "window", "(0,1,3,10)")
    assert rc == 0 and out.strip() == "[-7,-1,4,14]"
    rc, out = run(capsys, "convert", "--n", "3", "--from", "window", "--to", "window", "[1,2,3]")
    assert rc == 0 and out.strip() == "[1,2,3]"


def test_convert_domain_error(capsys):
    rc = main(["convert", "--n", "3", "--from", "window", "--to", "core", "[2,1,3]"])
    assert rc == 2
    rc = main(["convert", "--n", "2", "--from", "core", "--to", "window", "(2,)"])
    assert rc == 2


def test_enumerate_covers(capsys):
    rc, out = run(capsys, "enumerate", "covers", "--n", "3", "--inside", "[1,2,3]")
    assert rc == 0
    assert json.loads(out) == [{"i": 0, "j": 1, "mark": 1, "outside": "[0,2,4]"}]


def test_enumerate_weak_tableaux(capsys):
    rc, out = run(capsys, "enumerate", "weak-tableaux", "--n", "3", "--inside", "[1,2,3]", "--outside", "[0,1,5]")
    assert rc == 0
    assert len(json.loads(out)) == 2


def test_render_roundtrip(capsys, tmp_path):
    rc, out = run(capsys, "insert", "--n", "3", "--matrix", "[[0,1,0],[0,0,2],[1,0,1]]", "--format", "json")
    doc = json.loads(out)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc["Q"]))
    rc, out = run(capsys, "render", "--kind", "weak", "--n", "3", "--tableau", str(path))
    assert rc == 0
    assert out.strip().splitlines()[-1] == "1 2 2 3 3"


def test_kschur(capsys):
    rc, out = run(capsys, "kschur", "--n", "3", "--shape", "(2,)")
    assert rc == 0
    assert json.loads(out) == {"(1,1)": 1, "(2)": 1}
    rc, out = run(capsys, "kschur", "--n", "3", "--shape", "(2,2)", "--spin")
    assert rc == 0
    assert json.loads(out)["(2,2)|0"] == 1


def test_kschur_spin_at_degree_11_sums_to_plain(capsys):
    rc, out = run(capsys, "kschur", "--n", "4", "--shape", "(3,3,2,2,1)", "--spin")
    assert rc == 0
    collapsed = {}
    for key, c in json.loads(out).items():
        lam, _spin = key.split("|")
        collapsed[lam] = collapsed.get(lam, 0) + c
    rc, out = run(capsys, "kschur", "--n", "4", "--shape", "(3,3,2,2,1)")
    assert rc == 0
    assert collapsed == json.loads(out)


def test_cauchy_and_pieri_commands(capsys):
    rc, out = run(capsys, "cauchy", "--n", "2", "--dx", "2", "--vy", "2")
    assert rc == 0 and "PASS" in out
    rc, out = run(capsys, "pieri", "--n", "3", "--w", "[-1,3,4]", "--r", "2")
    assert rc == 0 and out.count("PASS") == 4


def test_verify_exit_codes(capsys):
    rc, out = run(capsys, "verify", "counts", "--n", "2", "--max-m", "4")
    assert rc == 0 and "PASS" in out
    rc, out = run(capsys, "verify", "roundtrip", "--n", "2", "--max", "2")
    assert rc == 0
    rc, out = run(capsys, "verify", "symmetry", "--n", "3", "--max", "2")
    assert rc == 0
    assert "REPORT" in out  # conjectural section reports, never fails


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["insert"])  # missing required --n
    assert exc.value.code == 2


def test_missing_input_file_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["render", "--kind", "weak", "--n", "3", "--tableau", missing]) == 2
    assert main(["insert", "--reverse", "--pair", missing, "--n", "3"]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_deterministic_json(capsys):
    rc, first = run(capsys, "insert", "--n", "3", "--matrix", "[[1,1],[2,0]]", "--format", "json")
    rc, second = run(capsys, "insert", "--n", "3", "--matrix", "[[1,1],[2,0]]", "--format", "json")
    assert first == second


def test_skew_insert_renders_inner_cells_as_dots(capsys):
    argv = ["insert", "--n", "3", "--u", "[0,2,4]", "--v", "[0,2,4]", "--matrix", "[[1,1],[0,1]]"]
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert out.splitlines() == [
        "P =",
        "2_1  2_2",
        ".    1_1* 2_1* 2_2*",
        "Q =",
        "1 2",
        ". 1 1 2",
        "outside: [-1,0,7]",
    ]
    rc, out = run(capsys, *argv, "--format", "json")
    assert rc == 0 and json.loads(out)["P_core"] == "(4,2)"


def test_text_insert_over_non_grassmannian_border(capsys):
    argv = ["insert", "--n", "3", "--u", "[2,1,3]", "--v", "[2,1,3]", "--matrix", "[[1]]"]
    rc, out = run(capsys, *argv)
    assert rc == 0
    unrendered = "(no core rendering: [2,1,3] is not 0-Grassmannian)"
    assert out.splitlines() == ["P =", unrendered, "Q =", unrendered, "outside: [2,0,4]"]
    rc, out = run(capsys, *argv, "--format", "json")
    assert rc == 0 and json.loads(out)["P_core"] is None and "render" not in json.loads(out)


def test_verify_symmetry_report_counts_zero_functions_apart(capsys):
    rc, out = run(capsys, "verify", "symmetry", "--n", "3", "--max", "4")
    assert rc == 0
    assert (
        "REPORT conjectured symmetry of skew strong Schur functions: "
        "38 symmetric, 0 not symmetric, 67 zero at n=3, lengths<=4"
    ) in out.splitlines()


def test_read_doc_closes_its_file(capsys, tmp_path):
    rc, out = run(capsys, "insert", "--n", "3", "--matrix", "[[0,1,0],[0,0,2],[1,0,1]]", "--format", "json")
    path = tmp_path / "pair.json"
    path.write_text(out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["insert", "--reverse", "--pair", str(path), "--n", "3"]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        return exc.code


EMPTY_PAIR = {"n": 3, "l": 0, "P": {"inside": "[1,2,3]", "strips": []}, "Q": {"inside": "[1,2,3]", "strips": []}}


@pytest.mark.parametrize("argv, pair, message", [
    (["insert", "--n", "1", "--matrix", "[[0]]"], None, "at least 2"),
    (["convert", "--n", "0", "--from", "code", "--to", "window", "(0)"], None, "at least 2"),
    (["enumerate", "covers", "--n", "1", "--inside", "[1]"], None, "at least 2"),
    (["render", "--kind", "weak", "--n", "0", "--tableau", "-"], None, "at least 2"),
    (["kschur", "--n", "1", "--shape", "()"], None, "at least 2"),
    (["cauchy", "--n", "0"], None, "at least 2"),
    (["pieri", "--n", "1", "--w", "[1]", "--r", "1"], None, "at least 2"),
    (["verify", "counts", "--n", "0"], None, "at least 2"),
    (["verify", "pieri", "--n", "1"], None, "at least 2"),
    (["verify", "counts", "--n", "two"], None, "invalid rank value"),
    (["insert", "--n", "3", "--matrix", "[[1.5,0],[0,1]]"], None, "bad matrix entry 1.5"),
    (["insert", "--reverse", "--n", "3"], [1, 2], "JSON object"),
    (["insert", "--reverse", "--n", "3"], {"n": 3, "P": {}, "Q": {}}, "missing key(s): l"),
    (["insert", "--n", "3", "--matrix", "[[true]]"], None, "bad matrix entry True"),
    (["insert", "--n", "3", "--matrix", "[1,2]"], None, "matrix rows must be lists"),
    (["pieri", "--n", "3", "--w", "[1,2,3]", "--r", "3"], None, "1 <= r <= n - 1"),
    (["pieri", "--n", "3", "--w", "[1,2,3]", "--r", "-1"], None, "1 <= r <= n - 1"),
    (["insert", "--reverse", "--n", "7"], EMPTY_PAIR, "the pair is at n = 3, l = 0; --n and --l give n = 7, l = 0"),
    (["insert", "--reverse", "--n", "3", "--l", "2"], EMPTY_PAIR, "--n and --l give n = 3, l = 2"),
    (["insert", "--reverse", "--n", "3"], {**EMPTY_PAIR, "n": "3"}, "pair document 'n' must be int, not '3'"),
    (["insert", "--reverse", "--n", "3"], {**EMPTY_PAIR, "l": 0.5}, "pair document 'l' must be int"),
    (["verify", "pieri", "--n", "3", "--max", "2", "--rmax", "5"], None, "1 <= r <= n - 1"),
    (["verify", "pieri", "--n", "3", "--max", "2", "--rmax", "0"], None, "1 <= r <= n - 1"),
    (["verify", "counts", "--n", "3", "--max-m", "-1"], None, "--max-m: must be at least 0, got -1"),
    (["verify", "symmetry", "--n", "3", "--max", "-2"], None, "--max: must be at least 0, got -2"),
    (["verify", "rsk-limit", "--n", "3", "--entries", "-1"], None, "--entries: must be at least 0"),
    (["verify", "cauchy", "--n", "3", "--vy", "-1"], None, "--vy: must be at least 0"),
    (["cauchy", "--n", "3", "--dx", "-1"], None, "--dx: must be at least 0"),
    (["verify", "global-roundtrip", "--n", "3", "--dim", "-1"], None, "--dim: must be at least 0"),
    (["verify", "roundtrip", "--n", "3", "--max", "-1"], None, "--max: must be at least 0"),
    (["verify", "roundtrip", "--n", "3", "--samples", "-3"], None, "--samples: must be at least 0, got -3"),
    (["enumerate", "covers", "--n", "3", "--inside", "[1,2,3]", "--size", "-1"], None, "--size: must be at least 0"),
    (["verify", "counts", "--n", "3", "--max-m", "x"], None, "invalid nonnegative value: 'x'"),
    (["verify", "rsk-limit", "--n", "3", "--entries", "0"], None, "--entries >= 1"),
    (["verify", "rsk-limit", "--n", "3", "--dim", "0"], None, "--dim >= 1"),
    (["verify", "counts", "--n", "3", "--max-m", "0"], None, "--max-m >= 1, got 0"),
    (["verify", "rsk-limit", "--n", "3"], None, "--n > entries * dim^2 = 4, got 3"),
    (["verify", "rsk-limit", "--n", "4"], None, "--n > entries * dim^2 = 4, got 4"),
    (["verify", "cauchy", "--n", "3", "--max", "2"], None, "unrecognized arguments: --max 2"),
    (["verify", "rsk-limit", "--n", "20", "--l", "1"], None, "unrecognized arguments: --l 1"),
    (["verify", "counts", "--n", "3", "--samples", "1"], None, "unrecognized arguments: --samples 1"),
    (["verify", "counts", "--n", "3", "--max", "2"], None, "unrecognized arguments: --max 2"),
    (["verify", "--n", "3", "pieri"], None, "invalid choice: '3'"),
])
def test_bad_input_exits_2(capsys, tmp_path, argv, pair, message):
    if pair is not None:
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        argv = argv + ["--pair", str(path)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


def test_verify_symmetry_failure_exits_1(capsys, monkeypatch):
    def lopsided(u, v):
        raise NotSymmetric("planted")

    monkeypatch.setattr(verify, "weak_schur", lopsided)
    rc, out = run(capsys, "verify", "symmetry", "--n", "3", "--max", "1")
    assert rc == 1
    assert "FAIL weak Schur not symmetric at" in out


WEAK_STRIP = {"inside": "[1,2,3]", "residues": [0], "outside": "[0,2,4]"}
STRONG_STRIP = {"inside": "[1,2,3]", "covers": [{"i": 0, "j": 1, "mark": 1, "outside": "[0,2,4]"}]}


@pytest.mark.parametrize("kind, doc, message", [
    ("weak", {"inside": "[1,2,3]", "strips": 5}, "weak tableau 'strips' must be list, not 5"),
    ("weak", [1, 2], "a weak tableau is a JSON object, not list"),
    ("weak", {"strips": []}, "weak tableau is missing key(s): inside"),
    ("weak", {"inside": 123, "strips": []}, "weak tableau 'inside' must be str"),
    ("weak", {"inside": "[1,2,3]", "strips": [{**WEAK_STRIP, "residues": ["0"]}]}, "residues must be integers"),
    ("weak", {"inside": "[1,2,3]", "strips": [{**WEAK_STRIP, "residues": 0}]}, "'residues' must be list"),
    ("strong", {"inside": "[1,2,3]", "strips": [[]]}, "a strong strip is a JSON object, not list"),
    ("strong", {"inside": "[1,2,3]", "strips": [{**STRONG_STRIP, "covers": [{"i": "a", "j": 1, "outside": "[0,2,4]"}]}]},
     "marked cover 'i' must be int, not 'a'"),
    ("strong", {"inside": "[1,2,3]", "strips": [{**STRONG_STRIP, "covers": [{"i": 0, "j": True, "outside": "[0,2,4]"}]}]},
     "marked cover 'j' must be int, not True"),
])
def test_malformed_tableau_document_exits_2(capsys, tmp_path, kind, doc, message):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(doc))
    assert main(["render", "--kind", kind, "--n", "3", "--tableau", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err


def test_well_formed_strip_documents_render(capsys, tmp_path):
    for kind, strip in [("weak", WEAK_STRIP), ("strong", STRONG_STRIP)]:
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"inside": "[1,2,3]", "strips": [strip]}))
        rc, out = run(capsys, "render", "--kind", kind, "--n", "3", "--tableau", str(path))
        assert rc == 0 and out.strip()


def test_verify_pieri_default_rmax_fits_the_rank(capsys):
    rc, out = run(capsys, "verify", "pieri", "--n", "2", "--max", "2")
    assert rc == 0 and "pieri: 12 (w, r, variant) checks, n=2" in out
    rc, out = run(capsys, "verify", "pieri", "--n", "3", "--max", "2")
    assert rc == 0 and "pieri: 32 (w, r, variant) checks, n=3" in out


# A small slice of every suite; a suite added to verify.SUITES without one fails here.
SUITE_SLICES = {
    "roundtrip": ["--n", "2", "--max", "2"],
    "cauchy": ["--n", "3", "--dx", "2", "--vy", "2"],
    "pieri": ["--n", "3", "--max", "2"],
    "counts": ["--n", "3", "--max-m", "3"],
    "rsk-limit": ["--n", "5", "--dim", "2"],
    "symmetry": ["--n", "3", "--max", "2"],
    "global-roundtrip": ["--n", "3", "--dim", "2", "--total", "2"],
}


# More slices of one suite, by test id: counts at an l that is not a multiple of n.
EXTRA_SLICES = {
    "counts-l1": ("counts", [*SUITE_SLICES["counts"], "--l", "1"]),
    "counts-l-1": ("counts", [*SUITE_SLICES["counts"], "--l", "-1"]),
}


@pytest.mark.parametrize(
    "suite, argv",
    [pytest.param(suite, SUITE_SLICES[suite], id=suite) for suite in verify.SUITES]
    + [pytest.param(*case, id=name) for name, case in EXTRA_SLICES.items()],
)
def test_every_suite_passes_its_slice_through_the_cli(capsys, suite, argv):
    rc, out = run(capsys, "verify", suite, *argv)
    assert rc == 0 and out.endswith("\nPASS\n")


def _psi_changing_e(final, l, psi=verify.psi_with_audit):
    back, audit = psi(final, l)
    if back.weak.size + back.e + 1 < back.weak.inside.n:
        back = InitialTriple(back.weak, back.strong, back.e + 1)
    return back, audit


def _uninsert_row_changing_an_entry(east, south, l, g=None, i=0, uninsert_row=insertion.uninsert_row):
    north, west, entries = uninsert_row(east, south, l, g, i)
    return north, west, [entries[0] + (i == 1), *entries[1:]]


def _count_matrices_off_on_one_key(rows, cols, count=symfunc.count_matrices):
    return count(rows, cols) + ((rows, cols) == ((1,), (1,)))


def _rsk_swapping_two_rows(m, rsk=verify.classical_rsk):
    p, q = rsk(m)
    return p[1:2] + p[:1] + p[2:], q


# suite -> (module, name, planted replacement); symmetry's plant is test_verify_symmetry_failure_exits_1
PLANTED_FAULTS = {
    "roundtrip": (verify, "psi_with_audit", _psi_changing_e),
    "cauchy": (symfunc, "count_matrices", _count_matrices_off_on_one_key),
    "pieri": (symfunc, "weak_strips_from", lambda w, r, strips=symfunc.weak_strips_from: strips(w, r)[1:]),
    "counts": (verify, "count_standard_weak", lambda w, count=verify.count_standard_weak: count(w) + 1),
    "rsk-limit": (verify, "classical_rsk", _rsk_swapping_two_rows),
    "global-roundtrip": (insertion, "uninsert_row", _uninsert_row_changing_an_entry),
}


def _planted_run(capsys, monkeypatch, fault, *argv):
    """run with the (module, name, replacement) fault planted."""
    clear_caches()  # no memo may answer from before the plant, nor keep its answers after
    monkeypatch.setattr(*fault)
    try:
        return run(capsys, *argv)
    finally:
        monkeypatch.undo()
        clear_caches()


# More planted slices, by test id, each with the later failure it must print: the n = 2
# closed forms of counts, and the sampled triples of roundtrip.
PLANTED_EXTRA_SLICES = {
    "counts-n2": ("counts", ["--n", "2", "--max-m", "3"], r"^FAIL n=2 closed form broke at m=1$"),
    "roundtrip-samples": ("roundtrip", [*SUITE_SLICES["roundtrip"], "--samples", "20"],
                          r"^exhaustive roundtrip: .+\n(FAIL roundtrip .+\n)+sampled roundtrip: 20 triples"),
}


@pytest.mark.parametrize(
    "suite, argv, pattern",
    [pytest.param(suite, SUITE_SLICES[suite], None, id=suite) for suite in verify.SUITES if suite != "symmetry"]
    + [pytest.param(*case, id=name) for name, case in PLANTED_EXTRA_SLICES.items()],
)
def test_a_planted_fault_fails_its_suite(capsys, monkeypatch, suite, argv, pattern):
    rc, out = _planted_run(capsys, monkeypatch, PLANTED_FAULTS[suite], "verify", suite, *argv)
    assert rc == 1
    assert re.search(r"^FAIL \(.+\)$", out, re.MULTILINE)
    assert pattern is None or re.search(pattern, out, re.MULTILINE)


def _step_to_past_each_forward_nice_step(n, a_set, x, pred, step=1, step_to=localrule.step_to):
    p = step_to(n, a_set, x, pred, step)
    return p + n if pred is localrule.is_nice and step == 1 else p


@pytest.mark.parametrize("suite", ["roundtrip", "global-roundtrip", "rsk-limit"])
def test_a_raising_plant_fails_its_suite_not_as_bad_input(capsys, monkeypatch, suite):
    # the local rule then builds no strong cover and raises: a broken
    # invariant on valid input is a failed verification (1), not bad input (2)
    fault = (localrule, "step_to", _step_to_past_each_forward_nice_step)
    rc, out = _planted_run(capsys, monkeypatch, fault, "verify", suite, *SUITE_SLICES[suite])
    assert rc == 1
    assert re.search(r"^FAIL \(.+ raised at .+: .+ is not a strong cover\)$", out, re.MULTILINE)


def _insert_row_reversing_the_first_row(west, north, entries, l, g=None, i=0, real=insertion.insert_row):
    return real(west, north, entries[::-1] if i == 1 else entries, l, g, i)


def test_a_fault_in_a_shared_first_row_fails_rsk_limit(capsys, monkeypatch):
    # the suite computes each first row once for all the matrices that share
    # it; the first matrix whose first row the plant changes still fails
    fault = (insertion, "insert_row", _insert_row_reversing_the_first_row)
    rc, out = _planted_run(capsys, monkeypatch, fault, "verify", "rsk-limit", *SUITE_SLICES["rsk-limit"])
    assert rc == 1
    assert out.splitlines() == [
        "FAIL limit RSK raised at [[0, 1]]: wt(P) = (1,) differs from wt(T) + colsums",
        "rsk-limit: 3 matrices, n=5, 2x2, entries<=1",
        "FAIL (limit RSK raised at [[0, 1]]: wt(P) = (1,) differs from wt(T) + colsums)",
    ]


def _psi_dropping_the_entry_of(key, psi=insertion.psi_with_audit):
    """psi, but the final pair key gives back its triple with e = 0."""
    def planted(final, l):
        back, audit = psi(final, l)
        return (InitialTriple(back.weak, back.strong, 0) if final == key else back), audit
    return planted


def test_a_psi_fault_keyed_on_its_inputs_fails_global_roundtrip(capsys, monkeypatch):
    # the cell of [[1]]: the walk undoes each row once for all the matrices that share it, and the
    # first to undo this pair is [[0, 0], [0, 1]], whose zero first row gives row 2 a first row's inputs
    _, _, g = grassmannian_rsk(BoundedMatrix.from_rows([[1]]), 3, 0, True)
    fault = (insertion, "psi_with_audit", _psi_dropping_the_entry_of(FinalPair(g.vstrips[(1, 1)], g.hstrips[(1, 1)])))
    rc, out = _planted_run(capsys, monkeypatch, fault, "verify", "global-roundtrip", *SUITE_SLICES["global-roundtrip"])
    assert rc == 1
    assert out.splitlines()[0] == (
        "FAIL global roundtrip raised at [[0, 0], [0, 1]]: row 2 does not uninsert to its forward state"
    )


def _uninsert_row_reversing_the_second_frontier(east, south, l, g=None, i=0, real=insertion.uninsert_row):
    north, west, entries = real(east, south, l, g, i)
    return (north[::-1] if i == 2 else north), west, entries


def test_a_wrong_frontier_at_a_middle_row_fails_global_roundtrip(capsys, monkeypatch):
    # the strips north of row 2 come back reversed: the walk compares them with the forward state
    # before it undoes row 1, and three-row matrices reach it from their last row
    fault = (insertion, "uninsert_row", _uninsert_row_reversing_the_second_frontier)
    argv = ["--n", "3", "--dim", "3", "--total", "3"]
    rc, out = _planted_run(capsys, monkeypatch, fault, "verify", "global-roundtrip", *argv)
    assert rc == 1
    assert out.splitlines()[0] == (
        "FAIL global roundtrip raised at [[0, 0, 1], [0, 0, 0], [0, 0, 1]]: "
        "row 2 does not uninsert to its forward state"
    )


def test_each_suite_takes_exactly_its_signature(capsys):
    pairs = 0
    for suite, fn in verify.SUITES.items():
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        params = list(inspect.signature(fn).parameters.values())
        assert params[0].name == "n"
        expected = {"--n"} | {"--max" if p.name == "max_len" else "--" + p.name.replace("_", "-") for p in params[1:]}
        assert set(re.findall(r"--[a-z-]+", usage)) == expected
        parsed = build_parser().parse_args(["verify", suite, "--n", "3"])
        assert all(getattr(parsed, p.name) == p.default for p in params[1:]), suite
        pairs += len(expected)
    assert pairs == 26


# site -> (parser, its brackets, three entries that its own range checks accept)
LIST_SITES = {
    "window": (lambda text: parse_window(text, 3), "[]", (0, 2, 4)),
    "partition": (parse_partition, "()", (2, 1, 1)),
    "offsets": (lambda text: cli._convert_to_window("offsets", text, 3), "()", (1, -1, 0)),
    "code": (lambda text: cli._convert_to_window("code", text, 3), "()", (0, 1, 3)),
}
# written with [ ], which each site reads as its own pair of brackets
LIST_TEXTS = [
    ("[{0}, {1}, {2}]", True),
    (" [ {0},{1} , {2} , ] ", True),
    ("{0},{1},{2}", False),
    ("[{0},,{1},{2}]", False),
    ("[[{0},{1},{2}]]", False),
    ("[{0},{1},{2}", False),
    ("[{0},{1},{2},,]", False),
    ("[,]", False),
]


@pytest.mark.parametrize("template, accepted", LIST_TEXTS)
@pytest.mark.parametrize("name", list(LIST_SITES))
def test_every_integer_list_has_one_grammar(name, template, accepted):
    site, brackets, entries = LIST_SITES[name]
    text = template.format(*entries).translate(str.maketrans("[]", brackets))
    if accepted:
        site(text)
    else:
        with pytest.raises(ValueError):
            site(text)


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("affins ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])  # parsed only: some examples run for seconds


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, document", [
    (["insert", "--n", "3", "--matrix", DEEP_JSON], None),
    (["render", "--kind", "weak", "--n", "3", "--tableau"], DEEP_JSON),
    (["insert", "--reverse", "--n", "3", "--pair"], DEEP_JSON),
], ids=["insert-matrix", "render-tableau", "insert-pair"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv, document):
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(document)
        argv = argv + [str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nested too deeply" in err


@pytest.mark.parametrize("spin", [False, True])
def test_kschur_past_the_recursion_limit_exits_2(capsys, monkeypatch, spin):
    def too_deep(b, n):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "k_schur_spin" if spin else "k_schur", too_deep)
    assert main(["kschur", "--n", "3", "--shape", "(2,1,1)"] + ["--spin"] * spin) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree 4 ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["insert", "--reverse", "--n", "3"], "--reverse needs --pair"),
    (["convert", "--n", "3", "--from", "offsets", "--to", "window", "(1,-1)"], "offsets need 3 entries"),
    (["convert", "--n", "3", "--from", "code", "--to", "window", "(0,2,1)"],
     "code of a Grassmannian element is weakly increasing from 0"),
    (["enumerate", "strong-tableaux", "--n", "3", "--inside", "[1,2,3]"], "tableaux enumeration needs --outside"),
])
def test_missing_or_malformed_input_exits_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_convert_to_offsets_equals_the_library(capsys):
    w = from_reduced_word(4, [1, 2, 3, 0])
    rc, out = run(capsys, "convert", "--n", "4", "--from", "window", "--to", "offsets", format_window(w))
    assert rc == 0 and out == "(" + ",".join(map(str, offsets(core_of(w), 4))) + ")\n"


@pytest.mark.parametrize("l", [0, 1])
def test_enumerated_strips_and_tableaux_equal_the_library(capsys, l):
    w, u = from_reduced_word(3, [2, 0]), from_reduced_word(3, [1, 2, 0])
    inside = ["--n", "3", "--l", str(l), "--inside", format_window(w)]
    rc, out = run(capsys, "enumerate", "weak-strips", *inside, "--size", "2")
    assert rc == 0 and [weak_strip_from_json(d, 3) for d in json.loads(out)] == list(weak_strips_from(w, 2))
    rc, out = run(capsys, "enumerate", "strong-strips", *inside, "--size", "2")
    assert rc == 0 and [strong_strip_from_json(d, 3, l) for d in json.loads(out)] == list(strong_strips_from(w, 2, l))
    rc, out = run(capsys, "enumerate", "strong-tableaux", "--n", "3", "--l", str(l), "--inside", "[1,2,3]",
                  "--outside", format_window(u))
    expected = strong_tableaux(identity(3), u, l)
    assert rc == 0 and [strong_tableau_from_json(d, 3, l) for d in json.loads(out)] == expected
    assert len(expected) == (5 if l == 0 else 0)


def test_verify_roundtrip_with_samples_prints_its_sampled_line(capsys):
    rc, out = run(capsys, "verify", "roundtrip", "--n", "3", "--max", "2", "--samples", "20", "--seed", "3")
    assert rc == 0
    assert out.splitlines()[-2:] == ["sampled roundtrip: 20 triples, seed=3", "PASS"]


def test_cauchy_command_prints_its_mismatches(capsys, monkeypatch):
    argv = ["cauchy", "--n", "2", "--dx", "2", "--vy", "2"]
    rc, out = _planted_run(capsys, monkeypatch, PLANTED_FAULTS["cauchy"], *argv)
    assert rc == 1
    assert out.splitlines() == [
        "checked 24 coefficients: FAIL",
        "first mismatches: (((0, 1), (0, 1), 2, 1), ((1, 0), (0, 1), 2, 1), ((0, 2), (1, 1), 2, 1))",
    ]


def test_pieri_command_prints_its_mismatches(capsys, monkeypatch):
    argv = ["pieri", "--n", "3", "--w", "[-1,3,4]", "--r", "2"]
    rc, out = _planted_run(capsys, monkeypatch, PLANTED_FAULTS["pieri"], *argv)
    assert rc == 1
    assert out.splitlines() == [
        "strong: PASS",
        "dual_strong: FAIL",
        "  mismatches: (((1, 1, 1, 1), 6, 0), ((1, 1, 2), 2, 0), ((1, 2, 1), 2, 0))",
        "weak: PASS",
        "dual_weak: PASS",
    ]


def test_verify_counts_prints_its_fail_lines(capsys, monkeypatch):
    fault = (verify, "count_standard_strong", lambda w, l, count=verify.count_standard_strong: count(w, l) + 1)
    rc, out = _planted_run(capsys, monkeypatch, fault, "verify", "counts", "--n", "3", "--max-m", "2")
    assert rc == 1
    assert out.splitlines() == [
        "FAIL sum f_strong*f_weak = 2 != 1! at m=1",
        "m=1: sum f_strong*f_weak = 2 != 1!",
        "FAIL sum f_strong*f_weak = 4 != 2! at m=2",
        "m=2: sum f_strong*f_weak = 4 != 2!",
        "FAIL n=3 strong closed form broke at m=1, l=0",
        "FAIL n=3 strong closed form broke at m=2, l=0",
        "FAIL n=3 strong closed form broke at m=2, l=1",
        "n=3 closed forms: binom(floor(m/2), l) and m!/2^floor(m/2)",
        "FAIL (sum f_strong*f_weak = 2 != 1! at m=1)",
    ]


def _strong_weight_function_off_its_partitions(u, v, l, weight_function=symfunc.strong_weight_function):
    wf = weight_function(u, v, l)
    return WeightPolynomial(wf.degree, {k: c + (list(k) != sorted(k, reverse=True)) for k, c in wf.coeffs.items()})


def test_verify_symmetry_prints_its_strong_fail_lines(capsys, monkeypatch):
    fault = (symfunc, "strong_weight_function", _strong_weight_function_off_its_partitions)
    rc, out = _planted_run(capsys, monkeypatch, fault, "verify", "symmetry", "--n", "3", "--max", "3")
    assert rc == 1
    lines = out.splitlines()
    assert lines[:3] == [
        "FAIL Grassmannian strong Schur not symmetric at [-1,1,6]",
        "FAIL Grassmannian strong Schur not symmetric at [-2,3,5]",
        "weak + Grassmannian strong symmetry asserted through length 3",
    ]
    assert lines[-1] == "FAIL (Grassmannian strong Schur not symmetric at [-1,1,6])"
