import contextlib
import gc
import io
import json
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmub import mubs
from graphmub.cli import adjacency_to_dot, main
from graphmub.linalg import MatZp
from graphmub.entanglement import Bipartition, analysis_report
from graphmub.mubs import (
    MubSet,
    canonical_json,
    from_document,
    mub_set,
    shift_set,
    stack_document,
    to_document,
)
from graphmub.states import circuit_to_text, emit_measurement_circuit
from graphmub.symrep import tridiag_char_poly
from graphmub.tables import REFERENCE_DIAGONALS, reference_poly
from oracles import canonical_json_brute, mu_condition_scalar


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_doc(capsys, extra=()):
    code, out, err = run_cli(
        capsys, ["gen", "-p", "2", "-n", "3", "--method", "tridiag",
                 "--d", "1,0,0", *extra])
    assert code == 0, err
    return out


def test_gen_reproduces_three_qubit_family(capsys):
    doc = json.loads(gen_doc(capsys))
    fam = from_document(doc)
    assert fam.d == (1, 0, 0)
    expected = {
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 1, 0), (1, 0, 1), (0, 1, 0)),
        ((0, 1, 1), (1, 0, 0), (1, 0, 1)),
        ((0, 1, 0), (1, 1, 1), (0, 1, 1)),
        ((1, 1, 1), (1, 1, 0), (1, 0, 0)),
        ((1, 0, 1), (0, 0, 1), (1, 1, 1)),
        ((0, 0, 1), (0, 1, 1), (1, 1, 0)),
    }
    assert {m.rows for m in fam.matrices} == expected


def test_gen_deterministic_bytes(capsys):
    assert gen_doc(capsys) == gen_doc(capsys)


def test_gen_verify_roundtrip(capsys, tmp_path):
    doc = gen_doc(capsys)
    path = tmp_path / "fam.json"
    path.write_text(doc)
    code, out, err = run_cli(
        capsys, ["verify", str(path), "--numeric", "--tol", "1e-10"])
    assert code == 0, err
    assert "pass" in out
    # export json re-emits byte-identical content
    code, out, err = run_cli(capsys, ["export", str(path), "--format", "json"])
    assert code == 0
    assert out == doc


@pytest.mark.parametrize("argv,build", [
    (["-p", "2", "-n", "8"], lambda: mub_set(2, 8)),
    (["-p", "3", "-n", "3", "--method", "companion"], lambda: mub_set(3, 3, method="companion")),
    (None, lambda: shift_set(mub_set(5, 3), MatZp.identity(5, 3))),
], ids=["tridiagonal", "companion", "shifted"])
def test_gen_and_export_write_the_oracle_bytes(capsys, tmp_path, argv, build):
    expected = canonical_json_brute(to_document(build()))
    if argv is not None:
        assert run_cli(capsys, ["gen", *argv]) == (0, expected, "")
    path = tmp_path / "doc.json"
    path.write_text(expected)
    assert run_cli(capsys, ["export", str(path), "--format", "json"]) == (0, expected, "")


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (7, 3)])
def test_analyze_writes_the_oracle_bytes(capsys, tmp_path, p, n):
    fam = mub_set(p, n)
    path = tmp_path / "doc.json"
    path.write_text(canonical_json_brute(to_document(fam)))
    expected = canonical_json_brute(analysis_report(fam))
    assert run_cli(capsys, ["analyze", str(path)]) == (0, expected, "")


@pytest.mark.parametrize("build, x", [
    (lambda: mub_set(5, 1), None),
    (lambda: MubSet(p=2, n=3, stack=mub_set(2, 3).stack[:5]), None),
    (lambda: shift_set(mub_set(2, 5), MatZp(2, [[1, 1, 0, 0, 1], [1, 0, 1, 0, 0], [0, 1, 1, 1, 0],
                                                [0, 0, 1, 0, 1], [1, 0, 0, 1, 1]])), None),
    (lambda: mub_set(2, 8), (2, 5, 7)),
    (lambda: mub_set(3, 4), (4, 1)),
], ids=["n1", "incomplete", "shifted", "bipartition", "odd-bipartition"])
def test_analyze_writes_the_oracle_bytes_of_every_report_shape(capsys, tmp_path, build, x):
    # no cuts (n = 1), no design fields (5 of 8 members), a shifted field,
    # and one named cut, against json.dumps of the report dict
    fam = build()
    path = tmp_path / "doc.json"
    path.write_text(canonical_json_brute(to_document(fam)))
    argv = ["analyze", str(path)]
    bips = None
    if x is not None:
        argv += ["--bipartition", ",".join(map(str, x))]
        bips = [Bipartition.of(x, fam.n)]
    report = analysis_report(fam, bips)
    assert run_cli(capsys, argv) == (0, canonical_json_brute(report), "")
    if fam.n == 1:
        assert report["bipartitions"] == {}
    if len(fam.stack) == 5:
        assert all(set(e) == {"ranks", "purities"} for e in report["bipartitions"].values())


def test_gen_construction_failure(capsys):
    # x^3 + x + 1 factors over Z_3
    code, out, err = run_cli(
        capsys, ["gen", "-p", "3", "-n", "3", "--poly", "1,1,0,1"])
    assert code == 3
    assert "construction failure" in err


@pytest.mark.parametrize("flags", [["--d", "1,0,0"], ["--poly", "1,1,1"]])
def test_gen_malformed_seed_is_usage_error(capsys, flags):
    # a diagonal of the wrong length, a polynomial not monic of degree n:
    # the request is malformed, not a route that failed
    code, out, err = run_cli(capsys, ["gen", "-p", "2", "-n", "4", *flags])
    assert code == 2
    assert "usage error" in err and out == ""


def test_gen_usage_error_nonprime():
    proc = subprocess.run(
        [sys.executable, "-m", "graphmub.cli", "gen", "-p", "6", "-n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "not prime" in proc.stderr


def test_modulus_above_bound_is_usage_error(tmp_path):
    # trial division on 2^61 - 1 would run for hours: the modulus bound
    # must refuse it before, in the document loader and in the -p flag
    big = str(2**61 - 1)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 2**61 - 1, "n": 1, "matrices": [[[0]], [[1]]]}))
    for argv in (["verify", str(path)], ["gen", "-p", big, "-n", "1"]):
        proc = subprocess.run([sys.executable, "-m", "graphmub.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "2^31" in proc.stderr and proc.stdout == ""


def test_verify_detects_corruption(capsys, tmp_path):
    doc = json.loads(gen_doc(capsys))
    doc["matrices"][2][0][1] = doc["matrices"][2][1][0] = 0
    doc["field_rep"] = False
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert code == 1
    assert "algebraic" in err


def test_verify_sampled_numeric_pass(capsys, tmp_path):
    # a sound family passes the sampled sweep, which reports its mode
    doc = gen_doc(capsys)
    path = tmp_path / "fam.json"
    path.write_text(doc)
    code, out, err = run_cli(
        capsys, ["verify", str(path), "--numeric", "--sample", "200"])
    assert code == 0
    assert "sampled(200)" in out


def test_verify_sample_without_numeric_is_usage_error(capsys, tmp_path):
    # --sample only sizes the numeric check, so alone it would be ignored
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(capsys, ["verify", str(path), "--sample", "10"])
    assert code == 2 and out == ""
    assert err == "usage error: --sample needs --numeric\n"


def test_verify_unallocatable_sample_is_usage_error(capsys, tmp_path):
    # 10^15 draws (7 PiB per draw array) fail at malloc: a usage error,
    # not a MemoryError traceback that exits 1 as a failed verification
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(capsys, ["verify", str(path), "--numeric",
                                      "--sample", str(10**15)])
    assert code == 2
    assert err == f"usage error: sample of {10**15} draws does not fit in memory\n"


def test_verify_numeric_failure(capsys, tmp_path):
    # two identical bases; whichever stage catches it, verify must fail
    doc = json.loads(gen_doc(capsys))
    doc["field_rep"] = True
    doc["matrices"][3] = doc["matrices"][2]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["verify", str(path), "--numeric"])
    assert code == 1
    assert "FAIL" in err


def test_full_numeric_sweep_above_the_cap_is_usage_error(capsys, tmp_path):
    # d = 101^2 = 10201 passes the algebraic stage, but the full sweep is
    # capped at FULL_SWEEP_LIMIT: a usage error (2), not a failure (1)
    code, out, err = run_cli(capsys, ["gen", "-p", "101", "-n", "2"])
    assert code == 0, err
    path = tmp_path / "fam.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, ["verify", str(path), "--numeric"])
    assert code == 2
    assert out.startswith("algebraic difference condition: pass")
    assert err.startswith("usage error: dimension 10201 exceeds the full-sweep cap")


def test_verify_forged_field_rep_fails_algebraic_stage(capsys, tmp_path):
    # the matrices contradict the field_rep claim, so the pairwise scan runs
    doc = json.loads(gen_doc(capsys))
    doc["matrices"][3] = doc["matrices"][2]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert code == 1
    assert "FAIL algebraic" in err and "matrices 2 and 3" in err


def test_verify_truncated_family_runs_pairwise(capsys, tmp_path):
    # four of eight members: an incomplete family fails before either
    # stage runs, even though its members pass the pairwise scan
    doc = json.loads(gen_doc(capsys))
    doc["matrices"] = doc["matrices"][:4]
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--numeric"]):
        code, out, err = run_cli(capsys, ["verify", str(path), *extra])
        assert code == 1
        assert "FAIL incomplete family: 4 of p^n = 8 matrices" in err
        assert out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_bad_tolerance(capsys, tmp_path, tol):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path), "--numeric", "--tol", tol])
    assert exc.value.code == 2
    assert "must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("p,n", [("2147483647", "1"), ("1000003", "2"), ("3", "100000000")])
def test_gen_companion_family_size_bound(p, n):
    # the companion route used to expand p^n members (MemoryError or no end)
    # or to search all p^n polynomials
    proc = subprocess.run(
        [sys.executable, "-m", "graphmub.cli", "gen", "-p", p, "-n", n,
         "--method", "companion"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "usage error: family size p^n" in proc.stderr
    assert proc.stdout == ""


def _set_entry(value, at=(0, 0)):
    def change(doc):
        doc["matrices"][1][at[0]][at[1]] = value
    return change


MALFORMED = {
    "float-entry": _set_entry(1.5),
    "bool-entry": _set_entry(True),
    "str-entry": _set_entry("1"),
    "str-p": lambda doc: doc.update(p="2"),
    "float-n": lambda doc: doc.update(n=3.0),
    "int-matrices": lambda doc: doc.update(matrices=5),
    "int-row": lambda doc: doc["matrices"][1].__setitem__(0, 1),
    "str-polynomial": lambda doc: doc.update(polynomial="xyz"),
    "float-coefficient": lambda doc: doc["polynomial"].__setitem__(0, 1.0),
    "int-d": lambda doc: doc.update(d=7),
    "str-d-entry": lambda doc: doc.update(d=["1", 0, 0]),
    "float-shift-entry": lambda doc: doc.update(
        shifts=[[[0.5, 0, 0], [0, 0, 0], [0, 0, 0]]]),
    "object-method": lambda doc: doc.update(method={"x": [1.5]}),
    "wrong-n-shift": lambda doc: doc.update(shifts=[[[1]]]),
    "asymmetric-shift": lambda doc: doc.update(
        shifts=[[[0, 1, 0], [0, 0, 0], [0, 0, 0]]]),
    "ragged-row": lambda doc: doc["matrices"][1][0].pop(),
    "wrong-n-matrix": lambda doc: doc["matrices"].__setitem__(1, [[1, 0], [0, 1]]),
    "asymmetric-matrix": _set_entry(1, (0, 1)),
}


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_usage_error(capsys, tmp_path, command, case):
    doc = json.loads(gen_doc(capsys))
    MALFORMED[case](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert "malformed input" in err and out == ""


@pytest.mark.parametrize("command", ["gen", "analyze", "export", "tables"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unopenable_out_is_usage_error(capsys, tmp_path, command, target):
    # an --out path that cannot be opened is a usage error, one stderr
    # line, not a traceback with the exit code of a failed verification
    doc = tmp_path / "fam.json"
    doc.write_text(gen_doc(capsys))
    out = tmp_path / "missing" / "x.json" if target == "missing" else tmp_path
    argv = {"gen": ["gen", "-p", "2", "-n", "3"], "tables": ["tables"]}.get(
        command, [command, str(doc)])
    code, stdout, err = run_cli(capsys, [*argv, "--out", str(out)])
    assert code == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1 and stdout == ""
    assert not (tmp_path / "missing").exists()


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
@pytest.mark.parametrize("text", ["[1, 2]", DEEP, '{"p": 2, "n": 1, "matrices": %s}' % DEEP],
                         ids=["list", "deep-list", "deep-matrices"])
def test_non_object_document_is_usage_error(capsys, tmp_path, command, text):
    # nesting too deep for the JSON parser is malformed input, not a crash
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert err.startswith("malformed input") and out == ""


def test_loading_closes_the_document(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("verify", "analyze", "export"):
            assert run_cli(capsys, [command, str(path)])[0] == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_field_rep_key_changes_no_output(capsys, tmp_path, p, n):
    # the key is ignored on input: the matrices alone decide the mode
    code, text, err = run_cli(capsys, ["gen", "-p", str(p), "-n", str(n)])
    outputs = []
    for claim in (True, False, None):
        doc = json.loads(text)
        if claim is None:
            del doc["field_rep"]
        else:
            doc["field_rep"] = claim
        path = tmp_path / f"{claim}.json"
        path.write_text(json.dumps(doc))
        outputs.append([run_cli(capsys, argv) for argv in (
            ["verify", str(path)], ["verify", str(path), "--numeric", "--sample", "50"],
            ["analyze", str(path)], ["export", str(path)])])
    assert outputs[0] == outputs[1] == outputs[2]
    assert "closure mode" in outputs[0][0][1] and outputs[0][3][1] == text


def test_gen_flag_conflict_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, ["gen", "-p", "2", "-n", "2", "--method", "companion",
                 "--d", "1,0"])
    assert code == 2
    assert "usage error" in err


def test_analyze_bad_bipartition_is_usage_error(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(
        capsys, ["analyze", str(path), "--bipartition", "1,2,3"])
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("spelling", [",", ""])
def test_analyze_empty_bipartition_is_usage_error(capsys, tmp_path, spelling):
    # an empty X is no bipartition, not a request for all of them
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(capsys, ["analyze", str(path), "--bipartition", spelling])
    assert code == 2 and out == ""
    assert err.startswith("usage error: X must be a nonempty subset of [1, 3]")


def test_analyze_single_vertex_family(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, ["gen", "-p", "5", "-n", "1", "--out", str(tmp_path / "f.json")])
    assert code == 0
    code, out, err = run_cli(capsys, ["analyze", str(tmp_path / "f.json")])
    assert code == 0
    report = json.loads(out)
    assert report["bipartitions"] == {}
    assert report["census"] == {"fully-separable": 5}


def test_analyze_all_cuts_over_the_limit_is_usage_error(capsys, tmp_path):
    # one 30 x 30 zero member: 2^29 - 1 cuts, refused before any is built
    path = tmp_path / "one30.json"
    path.write_text(json.dumps({"p": 2, "n": 30, "matrices": [[[0] * 30] * 30]}))
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert err == ("usage error: all 536870911 bipartitions of n = 30 times max(1 members, "
                   "128) exceed ALL_CUTS_LIMIT = 8388608; name a bipartition\n")
    code, out, err = run_cli(capsys, ["analyze", str(path), "--bipartition", "1"])
    assert code == 0, err
    assert json.loads(out)["labels"] == ["fully-separable"]


def test_verify_malformed_input(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"p": 2, "n": 2}')
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert code == 2
    assert "malformed" in err


def test_cli_paths_build_no_member_matrices(capsys, tmp_path, monkeypatch):
    # the family is its stack: no MatZp per member on these paths
    # (256 members at (2, 8), 243 at (3, 5))
    built = []
    init = MatZp.__init__

    def counting_init(self, p, rows):
        built.append(p)
        init(self, p, rows)

    monkeypatch.setattr(MatZp, "__init__", counting_init)
    path = str(tmp_path / "fam.json")
    for argv in (["gen", "-p", "2", "-n", "8", "--out", path], ["verify", path],
                 ["verify", path, "--numeric"],
                 ["analyze", path, "--out", str(tmp_path / "a.json")],
                 ["gen", "-p", "3", "-n", "5", "--method", "companion"]):
        built.clear()
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert len(built) < 32, argv


def test_unreduced_entries_load_reduced(capsys, tmp_path):
    code, text, err = run_cli(capsys, ["gen", "-p", "3", "-n", "3"])
    doc = json.loads(text)
    doc["matrices"][5][0][0] += 3 * 2**64
    doc["matrices"][7][2][2] -= 3
    assert doc["matrices"][7][2][2] < 0
    fam, odd = from_document(json.loads(text)), from_document(doc)
    assert odd.stack.dtype == np.int8 and np.array_equal(odd.stack, fam.stack)
    assert odd.field_rep and odd.matrices == fam.matrices
    lines = []
    for name, d in (("fam.json", json.loads(text)), ("odd.json", doc)):
        path = tmp_path / name
        path.write_text(json.dumps(d))
        lines.append(run_cli(capsys, ["verify", str(path), "--numeric"]))
    assert lines[0] == lines[1] and lines[0][0] == 0


def test_analyze_report(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["census"] == {"fully-separable": 2, "GHZ-type": 6}
    assert report["bipartitions"]["1|2,3"]["design_pass"] is True
    assert report["bipartitions"]["1|2,3"]["design_lhs"] == "2/3"

    code, out, err = run_cli(
        capsys, ["analyze", str(path), "--bipartition", "2"])
    assert code == 0
    report = json.loads(out)
    assert list(report["bipartitions"]) == ["2|1,3"]


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(
        capsys, ["export", str(path), "--format", "dot", "--index", "2"])
    assert code == 0
    assert out == (
        "graph g2 {\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        '  1 -- 1 [label="1"];\n'
        '  1 -- 2 [label="1"];\n'
        '  2 -- 3 [label="1"];\n'
        "}\n"
    )


def test_export_dot_multiplicity_labels(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, ["gen", "-p", "5", "-n", "2", "--out",
                 str(tmp_path / "f5.json")])
    assert code == 0
    code, out, err = run_cli(
        capsys, ["export", str(tmp_path / "f5.json"), "--format", "dot"])
    assert code == 0
    assert "graph g0" in out and "graph g24" in out
    assert '[label="2"]' in out or '[label="3"]' in out or '[label="4"]' in out


def test_export_builds_only_the_emitted_members(capsys, tmp_path, monkeypatch):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    fam = from_document(json.loads(path.read_text()))
    dot = [adjacency_to_dot(m, f"g{i}") for i, m in enumerate(fam.matrices)]
    circuits = [circuit_to_text(emit_measurement_circuit(m)) for m in fam.matrices]

    def no_views(self):
        raise AssertionError("MubSet.matrices built")

    monkeypatch.setattr(MubSet, "matrices", property(no_views))
    for flags, expected in ((["--format", "dot", "--index", "3"], dot[3]),
                            (["--format", "circuit", "--index", "3"], circuits[3]),
                            (["--format", "dot"], "".join(dot)),
                            (["--format", "circuit"], "\n".join(circuits))):
        code, out, err = run_cli(capsys, ["export", str(path), *flags])
        assert code == 0, err
        assert out == expected, flags


def test_export_index_out_of_range(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(
        capsys, ["export", str(path), "--format", "dot", "--index", "9"])
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_export_json_with_index_is_usage_error(capsys, tmp_path, fmt):
    # a json export is the whole document, so --index would be ignored
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(capsys, ["export", str(path), *fmt, "--index", "2"])
    assert code == 2 and out == ""
    assert err == "usage error: --index needs --format dot or circuit\n"


def test_export_circuits(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(gen_doc(capsys))
    code, out, err = run_cli(capsys, ["export", str(path), "--format", "circuit"])
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 8
    assert all(b.startswith("#qupits 3 prime 2") for b in blocks)


def test_tables_match_reference(capsys):
    code, out, err = run_cli(capsys, ["tables"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    expected = []
    for p in sorted(REFERENCE_DIAGONALS):
        for n in sorted(REFERENCE_DIAGONALS[p]):
            for d, cdesc in REFERENCE_DIAGONALS[p][n]:
                expected.append((p, n, list(d),
                                 list(reference_poly(p, cdesc).coeffs)))
    assert [(r["p"], r["n"], r["d"], r["polynomial"]) for r in rows] == expected
    assert all(r["irreducible"] and r["primitive"] for r in rows)


def test_tables_prime_filter(capsys):
    code, out, err = run_cli(capsys, ["tables", "-p", "7"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["p"] == 7 for r in rows)
    for r in rows:
        assert list(tridiag_char_poly(7, r["d"]).coeffs) == r["polynomial"]


def test_example_three_qutrits(capsys):
    code, out, err = run_cli(capsys, ["example", "appendix-c"])
    assert code == 0
    assert "0 1 0\n0 0 1\n2 1 2" in out      # companion matrix
    assert "0 0 1\n0 1 2\n1 2 2" in out      # base form and transform
    assert "multiplier g = 2" in out
    assert "1 0 2\n0 0 1\n2 1 1" in out      # Q
    assert "2 2 1\n2 1 1\n1 1 0" in out      # Q^2
    assert "28 mutually unbiased bases" in out


def test_example_three_qubits(capsys):
    code, out, err = run_cli(capsys, ["example", "appendix-d"])
    assert code == 0
    assert "1 1 0\n1 0 1\n0 1 0" in out      # Q
    assert "x^3 + x^2 + 1" in out
    assert "9 mutually unbiased bases" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graphmub", "tables", "-p", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith('{"d":[1,0]')


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_bom_and_utf16_documents_are_usage_errors(capsys, tmp_path, encoding):
    # json.loads(bytes) would accept both; the file's text is read as today
    text = canonical_json(stack_document(mub_set(2, 2)))
    path = tmp_path / "doc.json"
    path.write_text(text, encoding=encoding)
    with pytest.raises(ValueError) as judge:
        json.loads(path.read_text())
    for command in ("verify", "analyze", "export"):
        assert run_cli(capsys, [command, str(path)]) == (2, "", f"malformed input: {judge.value}\n")


def test_stdin_takes_the_path_of_a_file(capsys, tmp_path, monkeypatch):
    raw = canonical_json(stack_document(shift_set(mub_set(3, 2), MatZp.identity(3, 2)))).encode()
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    read = []
    decode = mubs._canonical_doc
    monkeypatch.setattr(mubs, "_canonical_doc", lambda b: read.append(decode(b)) or read[-1])
    from_file = run_cli(capsys, ["verify", str(path), "--numeric"])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    from_stdin = run_cli(capsys, ["verify", "-", "--numeric"])
    assert from_file == from_stdin and from_file[0] == 0
    assert len(read) == 2 and all(doc is not None for doc in read)


def test_verify_reads_stdin():
    gen = subprocess.run(
        [sys.executable, "-m", "graphmub.cli", "gen", "-p", "3", "-n", "2"],
        capture_output=True, text=True)
    assert gen.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "graphmub.cli", "verify", "-", "--numeric"],
        input=gen.stdout, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pass" in proc.stdout


@pytest.mark.parametrize("command", ["gen", "export", "verify", "verify-fail", "example"])
def test_closed_stdout_ends_quietly(tmp_path, command):
    # a reader that stops early (| head) got all it asked for: no
    # traceback, and the exit code of the run (0, or 1 for a verification
    # that fails after its first line), not that of a failed verification
    path = tmp_path / "doc.json"
    path.write_text(canonical_json(stack_document(mub_set(2, 12))))
    argv, code, err_head = {
        "gen": (["gen", "-p", "2", "-n", "12"], 0, None),
        "export": (["export", str(path)], 0, None),
        "verify": (["verify", str(path), "--numeric", "--sample", "100"], 0, None),
        # the algebraic pass is written, then no deviation is at most 0
        "verify-fail": (["verify", str(path), "--numeric", "--sample", "100", "--tol", "0"],
                        1, b"FAIL numeric"),
        "example": (["example", "appendix-d"], 0, None),
    }[command]
    proc = subprocess.Popen([sys.executable, "-m", "graphmub", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # gen and export fill the pipe, so they meet the close mid-write; the
    # others write a few lines, after the reader has gone
    head = proc.stdout.read(64) if command in ("gen", "export") else b""
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == code
    if command in ("gen", "export"):
        assert head.startswith(b'{"d":')
    if code == 0:
        assert err == b""
    else:  # one FAIL line, the verdict, and nothing else
        assert err.startswith(err_head) and err.endswith(b"\n") and err.count(b"\n") == 1


# -- fuzzed document mutations -------------------------------------------------

FUZZ_SIZES = [(2, 2), (2, 3), (3, 2)]
ENTRY = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80),
                  st.sampled_from([2**63, -2**63 - 1, 3 * 2**70]), st.floats(),
                  st.booleans(), st.none(), st.text(max_size=2),
                  st.lists(st.integers(0, 2), max_size=2))
INDEX = st.integers(0, 63)
MUTATION = st.one_of(
    st.tuples(st.just("entry"), INDEX, INDEX, INDEX, ENTRY, st.booleans()),
    st.tuples(st.just("swap"), INDEX, INDEX),
    st.tuples(st.just("copy"), INDEX, INDEX),
    st.tuples(st.just("duplicate"), INDEX, INDEX),
    st.tuples(st.just("drop"), INDEX),
    st.tuples(st.just("field_rep"), st.one_of(st.booleans(), st.none(), st.integers(),
                                              st.just("absent"))),
    st.tuples(st.just("shift"), st.lists(st.integers(-3, 3), min_size=9, max_size=9),
              st.booleans()),
)


def _mutate(doc, op):
    """Apply one mutation; indices wrap around what the document holds."""
    mats, n = doc["matrices"], doc["n"]
    kind, *args = op
    if kind == "field_rep":
        if args[0] == "absent":
            doc.pop("field_rep", None)
        else:
            doc["field_rep"] = args[0]
    elif kind == "shift":
        # a symmetric shift added to every member keeps every difference;
        # an asymmetric one makes the members asymmetric
        flat, symmetric = args
        m = [[flat[3 * min(i, j) + max(i, j) if symmetric else 3 * i + j]
              for j in range(n)] for i in range(n)]
        doc["matrices"] = [[[a + b for a, b in zip(ra, rb)] for ra, rb in zip(x, m)]
                           for x in mats]
        doc.setdefault("shifts", []).append(m)
    elif mats:
        i, j = (a % len(mats) for a in (args + [0])[:2])
        if kind == "entry":
            r, c = args[1] % n, args[2] % n
            mats[i][r][c] = args[3]
            if args[4]:
                mats[i][c][r] = args[3]
        elif kind == "swap":
            mats[i], mats[j] = mats[j], mats[i]
        elif kind == "copy":
            mats[i] = json.loads(json.dumps(mats[j]))
        elif kind == "duplicate":
            mats.insert(i, json.loads(json.dumps(mats[j])))
        else:
            del mats[i]


def _expected_exit(text):
    """2 if the document does not load, 1 unless it is a complete family
    that the brute-force pairwise oracle finds mutually unbiased, else 0."""
    try:
        fam = from_document(json.loads(text))
    except (ValueError, KeyError):
        return 2
    if len(fam.stack) != fam.dim:
        return 1
    return 0 if mu_condition_scalar(fam, pairwise=True).ok else 1


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(size=st.sampled_from(FUZZ_SIZES), ops=st.lists(MUTATION, min_size=1, max_size=3),
       numeric=st.booleans())
def test_mutated_documents_keep_the_exit_code_contract(fuzz_dir, size, ops, numeric):
    doc = to_document(mub_set(*size))
    for op in ops:
        _mutate(doc, op)
    # canonical bytes, so that every mutation the fast path accepts reaches it
    text = canonical_json(doc)
    path = fuzz_dir / "doc.json"
    path.write_text(text)
    runs = []
    for fallback in (False, True):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(mubs, "_canonical_doc", lambda raw: None) \
                if fallback else contextlib.nullcontext():
            runs.append((main(["verify", str(path)] + ["--numeric"] * numeric),
                         out.getvalue(), err.getvalue()))
    code, out, err = runs[0]
    assert runs[0] == runs[1], ops
    assert code == _expected_exit(text), (ops, err)
    assert (code == 0) == ("pass" in out and err == "")
