import dataclasses
import gc
import inspect
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

from affine_insertion import cli, clear_caches, symfunc, verify
from affine_insertion.affperm import parse_window
from affine_insertion.cli import build_parser, main
from affine_insertion.cores import parse_partition
from affine_insertion.insertion import BoundedMatrix
from affine_insertion.symfunc import NotSymmetric
from affine_insertion.weak import parse_residue_set


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
        back = dataclasses.replace(back, e=back.e + 1)
    return back, audit


def _uninsert_changing_an_entry(p, q, l, uninsert=verify.affine_uninsert):
    t, u, m = uninsert(p, q, l)
    return t, u, BoundedMatrix({**m.entries, (1, 1): m.entries.get((1, 1), 0) + 1})


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
    "global-roundtrip": (verify, "affine_uninsert", _uninsert_changing_an_entry),
}


@pytest.mark.parametrize("suite", [suite for suite in verify.SUITES if suite != "symmetry"])
def test_a_planted_fault_fails_its_suite(capsys, monkeypatch, suite):
    module, name, plant = PLANTED_FAULTS[suite]
    clear_caches()  # no memo may answer from before the plant, nor keep its answers after
    monkeypatch.setattr(module, name, plant)
    try:
        rc, out = run(capsys, "verify", suite, *SUITE_SLICES[suite])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert rc == 1
    assert re.search(r"^FAIL \(.+\)$", out, re.MULTILINE)


def test_each_suite_takes_exactly_its_signature(capsys):
    pairs = 0
    for suite, fn in verify.SUITES.items():
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        params = list(inspect.signature(fn).parameters)
        assert params[0] == "n"
        expected = {"--n"} | {"--max" if p == "max_len" else "--" + p.replace("_", "-") for p in params[1:]}
        assert set(re.findall(r"--[a-z-]+", usage)) == expected
        pairs += len(expected)
    assert pairs == 26


# site -> (parser, its brackets, three entries that its own range checks accept)
LIST_SITES = {
    "window": (lambda text: parse_window(text, 3), "[]", (0, 2, 4)),
    "partition": (parse_partition, "()", (2, 1, 1)),
    "residue set": (lambda text: parse_residue_set(text, 4), "{}", (0, 1, 3)),
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
