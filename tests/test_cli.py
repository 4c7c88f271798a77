import csv
import io
import itertools
import json
import subprocess
import sys

import pytest

import golden_cli
from qipsim.cli import main
from qipsim.quantum import QuantumProtocol


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_classical_run_honest_true(capsys):
    doc = run_json(
        capsys, "classical", "run",
        "--formula", "A x1 E x2 : (x1 | ~x2) & (~x1 | x2)",
        "--k", "4", "--trials", "100", "--seed", "1",
    )
    assert doc["command"] == "classical run"
    res = doc["result"]
    assert res["accepted"] == 100 and res["trials"] == 100
    assert res["acceptance"]["rational"] == "1/1"
    assert res["N"] == 5 and res["k"] == 4
    assert len(res["per_trial"]) == 100
    assert doc["config"]["k"] == 4


def test_classical_run_optimal_reports_value(capsys):
    doc = run_json(
        capsys, "classical", "run", "--formula", "A x1 : x1",
        "--k", "4", "--prover", "optimal", "--trials", "16",
    )
    res = doc["result"]
    assert res["optimal_acceptance"]["rational"] == "23/128"
    assert res["soundness_cap"]["rational"] == "1/4"


def test_classical_exhaustive_modes(capsys):
    doc = run_json(
        capsys, "classical", "exhaustive",
        "--formula", "E x1 : x1", "--k", "2",
    )
    assert doc["result"]["all_accept"] is True
    assert doc["result"]["draws"] == 16

    doc = run_json(
        capsys, "classical", "exhaustive",
        "--formula", "A x1 : x1", "--k", "2", "--prover", "optimal",
    )
    res = doc["result"]
    assert res["max_acceptance"]["rational"] == "5/8"
    assert res["within_cap"] is True

    doc = run_json(
        capsys, "classical", "exhaustive",
        "--formula", "A x1 : x1", "--k", "2", "--prover", "lookahead:full",
    )
    res = doc["result"]
    assert (res["winnable_rows"], res["total_rows"]) == (15, 16)
    assert res["winnable_fraction"]["rational"] == "15/16"


@pytest.mark.parametrize("prover", ["honest", "lookahead:full"])
def test_classical_exhaustive_row_cutoff(capsys, prover):
    # N = 27 rounds at k=1: 2^27 challenge rows, past the sweep cutoff
    xs = [f"x{i}" for i in range(1, 7)]
    text = " ".join(f"A {x}" for x in xs) + " : " + " & ".join(xs)
    code, out, err = run_cli(capsys, "classical", "exhaustive", "--formula", text,
                             "--k", "1", "--prover", prover)
    assert code == 2 and out == ""
    assert err.startswith("qipsim: error:")
    assert "exhaustive cutoff" in err


def test_quantum_run_honest_exact_one(capsys):
    doc = run_json(
        capsys, "quantum", "run", "--formula", "E x1 : x1",
        "--k", "2", "--m", "1",
    )
    res = doc["result"]
    assert res["mean_accept"]["rational"] == "1/1"
    assert all(e["accept"]["rational"] == "1/1" for e in res["per_u"])


def test_quantum_run_lookahead_detected(capsys):
    doc = run_json(
        capsys, "quantum", "run", "--formula", "A x1 : x1",
        "--k", "2", "--m", "1", "--prover", "lookahead:full",
        "--dense-check",
    )
    res = doc["result"]
    assert res["mean_accept"]["rational"] == "325/512"
    assert res["dense_check"]["agrees"] is True
    assert res["dense_check"]["max_abs_diff"] <= 1e-9
    assert res["events"]["resume_union_per_row"] == [
        {"rational": "1/1", "float": 1.0}
    ]


def test_quantum_run_biased_single(capsys):
    # every copy's support is the all-zero challenge matrix
    res = run_json(
        capsys, "quantum", "run", "--formula", "E x1 : x1",
        "--k", "2", "--m", "2", "--prover", "biased:single",
    )["result"]
    assert [e["step1_pass"]["rational"] for e in res["per_u"]] == ["1/1"] * 4
    assert [e["accept"]["rational"] for e in res["per_u"]] == ["1/256", "1/64", "1/64", "1/16"]
    assert res["mean_accept"]["rational"] == "25/1024"
    assert res["events"]["resume_union_per_row"] == [{"rational": "0/1", "float": 0.0}] * 2

    res = run_json(
        capsys, "quantum", "run", "--formula", "A x1 : x1",
        "--k", "1", "--m", "1", "--prover", "biased:single", "--dense-check",
    )["result"]
    assert res["dense_check"]["agrees"] is True

    # 2^17 u vectors: the joint engine is refused before any simulation too
    code, out, err = run_cli(
        capsys, "quantum", "run", "--formula", "E x1 : x1",
        "--k", "1", "--m", "17", "--prover", "biased:single",
    )
    assert code == 2 and out == ""
    assert err == "qipsim: error: 2^17 u vectors exceed the sparse cutoff 65536\n"


def test_quantum_run_sample_mode_deterministic(capsys):
    argv = [
        "quantum", "run", "--formula", "E x1 : x1", "--k", "2", "--m", "2",
        "--u", "sample", "--samples", "6", "--seed", "3",
    ]
    a = run_json(capsys, *argv)
    b = run_json(capsys, *argv)
    assert a == b
    assert len(a["result"]["per_u"]) == 6


def test_quantum_run_sample_count_capped(capsys, monkeypatch):
    def no_round1(self, spec):
        raise AssertionError("round 1 ran past the sample cap")

    monkeypatch.setattr(QuantumProtocol, "prepare_round1", no_round1)
    code, out, err = run_cli(
        capsys, "quantum", "run", "--formula", "E x1 : x1", "--k", "1", "--m", "1",
        "--u", "sample", "--samples", "65537",
    )
    assert code == 2 and out == ""
    assert err == "qipsim: error: 65537 sampled u vectors exceed the sparse cutoff 65536\n"


def test_quantum_run_rows_past_joint_cap(capsys):
    # 16^6 joint branches; the row path simulates 16^2
    doc = run_json(
        capsys, "quantum", "run", "--formula", "A x1 : x1",
        "--k", "4", "--m", "3", "--prover", "lookahead:full",
    )
    res = doc["result"]
    assert res["params"]["m"] == 3 and len(res["per_u"]) == 8
    assert res["mean_accept"]["rational"] == "384573652461361/2251799813685248"  # (72721/131072)^3
    assert res["per_u"][0]["step1_pass"]["rational"] == "16581375/16777216"


def test_byte_identical_reports(capsys):
    argv = ["classical", "run", "--formula", "E x1 : x1", "--k", "3",
            "--trials", "7", "--seed", "5"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_honest_prover_within_cutoff_is_accepted(capsys):
    # N = 27, but at the honest prover's points only the quantifier rounds
    # branch: round 1 takes 2^5 formula evaluations, far below the cutoff
    text = "A x1 E x2 A x3 E x4 A x5 E x6 : (x1 | x2) & (x3 | x4) & (x5 | x6)"
    res = run_json(capsys, "classical", "run", "--formula", text, "--k", "32")["result"]
    assert res["accepted"] == 1
    assert res["per_trial"][0]["reject_round"] is None


def test_honest_prover_past_cutoff_exits_2(capsys):
    # 2^23 formula evaluations behind round 1's message: refused, not
    # reported as a rejection by the verifier
    text = " ".join(f"A x{i}" for i in range(1, 25)) + " : x1 | ~x1"
    code, out, err = run_cli(capsys, "classical", "run", "--formula", text, "--k", "8")
    assert code == 2 and out == ""
    assert err == "qipsim: error: operator suffix too deep for exact evaluation\n"


def test_bound_with_xlen(capsys):
    doc = run_json(capsys, "bound", "--xlen", "5", "--d", "3", "--N", "2")
    res = doc["result"]
    assert res["params"] == {"d": 3, "N": 2, "m": 12, "k": 22}
    assert res["satisfied"] is True
    assert res["bound"] == pytest.approx(0.008346688970213427, rel=1e-9)
    assert res["target"] == pytest.approx(2 ** -5, rel=1e-12)


def test_bound_explicit_params_vacuous(capsys):
    doc = run_json(capsys, "bound", "--d", "2", "--n", "1",
                   "--m", "1", "--k", "1")
    res = doc["result"]
    assert res["params"]["N"] == 2
    assert res["vacuous"] is True
    assert res["target"] is None and res["satisfied"] is None


def test_bound_past_hit_term_cancellation(capsys):
    # e^(-1000/7) is far below 2^-200; the bound must keep it, not round the
    # hit term to 1 and drop it
    doc = run_json(capsys, "bound", "--d", "1", "--N", "7",
                   "--m", "1000", "--k", "1000")
    assert doc["result"]["bound"] == 9.076766360459928e-63


def test_bound_param_errors(capsys):
    code, _, err = run_cli(capsys, "bound", "--d", "3", "--N", "2", "--m", "4")
    assert code == 2 and "qipsim: error:" in err
    code, _, err = run_cli(capsys, "bound", "--d", "3", "--N", "2")
    assert code == 2 and "qipsim: error:" in err
    # k past 2^16, given or picked from --xlen
    for argv in (["--m", "1", "--k", "4000000"], ["--xlen", "2000000"]):
        code, out, err = run_cli(capsys, "bound", "--d", "3", "--N", "9", *argv)
        assert code == 2 and out == ""
        assert err.startswith("qipsim: error: k = ")
        assert "exceeds the bound's cutoff 65536" in err


def test_field_table(capsys):
    doc = run_json(capsys, "field", "table", "--k", "2")
    res = doc["result"]
    assert res["modulus"] == 7 and res["modulus_hex"] == "0x7"
    assert res["tables_included"] is True
    assert res["mul_table"][2][2] == 3  # x * x = x + 1
    assert res["add_table"][1][1] == 0
    big = run_json(capsys, "field", "table", "--k", "16")
    assert big["result"]["tables_included"] is False
    assert "mul_table" not in big["result"]


def test_field_table_bad_k(capsys):
    code, _, err = run_cli(capsys, "field", "table", "--k", "0")
    assert code == 2 and "qipsim: error:" in err


def test_syntax_error_path(capsys):
    code, out, err = run_cli(
        capsys, "classical", "run", "--formula", "E x1 : x2", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("qipsim: error:")
    assert "line 1" in err


@pytest.mark.parametrize("body", [
    "(" * 400 + "x1" + ")" * 400,
    "~" * 1200 + "x1",
    " & ".join(["x1"] * 1200),
], ids=["parens", "negations", "and-chain"])
def test_deeply_nested_formula_exits_2(capsys, body):
    code, out, err = run_cli(capsys, "classical", "run",
                             "--formula", "A x1 : " + body, "--k", "2")
    assert code == 2 and out == ""
    assert err == "qipsim: error: formula nested too deeply\n"


def test_argparse_error_uses_prefix(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classical", "run", "--formula", "E x1 : x1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "qipsim: error:" in err


def _parse_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    return out.err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_must_be_positive(capsys, trials):
    err = _parse_error(capsys, "classical", "run", "--formula", "A x1 : x1",
                       "--k", "2", "--trials", trials)
    assert f"qipsim: error: argument --trials: must be a positive integer, not {trials}" in err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--xlen", "--n", "--N", "--d", "--m", "--k"])
def test_xlen_must_be_positive(capsys, flag, value):
    args = {"--d": "1", "--N": "7", "--m": "1", "--k": "1", "--xlen": "1"}
    if flag == "--n":
        del args["--N"]  # --n and --N exclude each other
    args[flag] = value
    err = _parse_error(capsys, "bound", *itertools.chain(*args.items()))
    assert f"qipsim: error: argument {flag}: must be a positive integer, not {value}" in err


@pytest.mark.parametrize("flag, counts", [
    ("--m", ["--m", "0"]),
    ("--samples", ["--m", "1", "--u", "sample", "--samples", "-2"]),
])
def test_quantum_counts_must_be_positive(capsys, flag, counts):
    err = _parse_error(capsys, "quantum", "run", "--formula", "A x1 : x1",
                       "--k", "2", *counts)
    assert f"qipsim: error: argument {flag}: must be a positive integer" in err


def test_csv_formats(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "run", "--formula", "E x1 : x1", "--k", "2",
        "--trials", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["trial", "seed", "accepted", "reject_round"]
    assert len(rows) == 4

    code, out, _ = run_cli(
        capsys, "quantum", "run", "--formula", "A x1 : x1", "--k", "2",
        "--m", "1", "--prover", "lookahead:full", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "u", "step1_pass", "accept", "accept_float"]
    assert rows[1][2] == "15/16" and rows[1][3] == "225/256"

    code, _, err = run_cli(
        capsys, "bound", "--xlen", "1", "--d", "3", "--N", "2",
        "--format", "csv")
    assert code == 2 and "csv output is not supported" in err


def test_csv_refused_before_running(capsys):
    # 2^32 challenge rows: running the sweep would hit its cutoff first
    code, out, err = run_cli(
        capsys, "classical", "exhaustive", "--formula", "A x1 : x1", "--k", "16",
        "--format", "csv")
    assert code == 2 and out == ""
    assert "csv output is not supported for 'classical exhaustive'" in err
    assert "cutoff" not in err


def test_dense_check_refused_before_running(capsys):
    # 16^5 branches: running the sparse engine would hit its cutoff first
    code, out, err = run_cli(
        capsys, "quantum", "run", "--formula", "A x1 A x2 : x1 & x2",
        "--k", "4", "--m", "1", "--dense-check")
    assert code == 2 and out == ""
    assert "dense check needs <= 26 qubits, got 100" in err
    assert "cutoff" not in err


def test_formula_file_and_output_file(tmp_path, capsys):
    src = tmp_path / "f.qbf"
    src.write_text("E x1 : x1\n", encoding="utf-8")
    dst = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "classical", "exhaustive", "--formula-file", str(src),
        "--k", "2", "-o", str(dst))
    assert code == 0 and out == ""
    doc = json.loads(dst.read_text(encoding="utf-8"))
    assert doc["result"]["all_accept"] is True
    code, _, err = run_cli(
        capsys, "classical", "exhaustive",
        "--formula-file", str(tmp_path / "missing.qbf"), "--k", "2")
    assert code == 2 and "qipsim: error:" in err


def test_timing_goes_to_stderr(capsys):
    code, out, err = run_cli(
        capsys, "field", "table", "--k", "2", "--timing")
    assert code == 0
    assert "timing" not in out
    assert err.startswith("qipsim: timing:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qipsim ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qipsim", "field", "table", "--k", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["modulus"] == 11


def test_import_does_not_load_mpmath():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qipsim, qipsim.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_golden_cli_corpus():
    """Every invocation in ``golden_cli.json`` prints what it printed when
    the corpus was written; ``python tests/golden_cli.py --write`` lists and
    rewrites the entries that differ."""
    corpus = golden_cli.load()
    assert [e["argv"] for e in corpus] == golden_cli.invocations()
    diff = golden_cli.changed(corpus, [golden_cli.record(e["argv"]) for e in corpus])
    assert diff == [], "\n".join(" ".join(argv) for argv in diff)
