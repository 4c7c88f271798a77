import csv
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import golden_cli
import qipsim
from strategies import formulas
from qipsim.cli import TRIAL_SEED_STRIDE, build_parser, main
from qipsim import quantum, sumcheck
from qipsim.gf2k import Field
from qipsim.qbf import parse_qbf, to_text
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


def test_dense_check_searches_once(capsys, monkeypatch):
    # the run's arrays and the dense oracle's row_phi read one message
    # table, so one lookahead search serves both; row_phi after arrays on a
    # fresh prover searches nothing more either
    calls = []
    search = sumcheck._lookahead_search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(sumcheck, "_lookahead_search", counted)
    text = "A x1 : x1 & x1 & x1"
    res = run_json(capsys, "quantum", "run", "--formula", text, "--k", "2", "--m", "1",
                   "--prover", "lookahead:full", "--dense-check")["result"]
    assert res["dense_check"]["agrees"] is True
    assert len(calls) == 1
    q, field = parse_qbf(text), Field(2)
    spec = quantum.full_lookahead(q, field)
    spec.arrays(q, field)
    assert len(calls) == 2
    for row in itertools.product(field.elements(), repeat=2):
        spec.row_phi(row)
    assert len(calls) == 2


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
    def no_round1(*args):
        raise AssertionError("round 1 ran past the sample cap")

    # the dict stages, the array stages and the search behind the arrays
    monkeypatch.setattr(QuantumProtocol, "prepare_round1", no_round1)
    monkeypatch.setattr(QuantumProtocol, "_row_array_stages", no_round1)
    monkeypatch.setattr(quantum, "lookahead_rows", no_round1)
    for prover in ("honest", "lookahead:full"):
        code, out, err = run_cli(
            capsys, "quantum", "run", "--formula", "E x1 : x1", "--k", "1", "--m", "1",
            "--prover", prover, "--u", "sample", "--samples", "65537",
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


def _count_verifications(monkeypatch) -> list:
    calls = []
    verify = sumcheck._verify

    def counted(*args):
        calls.append(args[-1])
        return verify(*args)

    monkeypatch.setattr(sumcheck, "_verify", counted)
    return calls


@pytest.mark.parametrize("prover", ["honest", "optimal"])
def test_classical_run_verifies_each_string_once(capsys, monkeypatch, prover):
    # k = 1, N = 2: 50 trials draw at most 4 distinct challenge strings
    calls = _count_verifications(monkeypatch)
    res = run_json(capsys, "classical", "run", "--formula", "A x1 : x1", "--k", "1",
                   "--prover", prover, "--trials", "50")["result"]
    rngs = [random.Random(t) for t in range(50)]  # seed 0: trial t draws on seed t
    drawn = {(rng.getrandbits(1), rng.getrandbits(1)) for rng in rngs}
    assert len(calls) == len(drawn) == len({tuple(r) for r in calls})
    assert len(res["per_trial"]) == 50


def test_classical_run_without_memo_verifies_every_trial(capsys, monkeypatch):
    # |F|^N = 2^64 > 3 trials: no memo, one verification per trial
    calls = _count_verifications(monkeypatch)
    res = run_json(capsys, "classical", "run", "--formula", "E x1 : x1", "--k", "32",
                   "--trials", "3")["result"]
    assert len(calls) == 3 and res["accepted"] == 3


@settings(max_examples=30)
@given(formulas(), st.sampled_from((1, 2)), st.sampled_from(("honest", "optimal")),
       st.booleans(), st.data())
def test_classical_run_matches_independent_trials(q, k, prover, above, data):
    """Trial counts above |F|^N run the memo and counts below it do not;
    either way every trial's verdict is that of a fresh ``run_protocol``."""
    field = Field(k)
    schedule = sumcheck.build_schedule(q)
    size = field.order ** schedule.n_rounds
    trials = data.draw(st.integers(size, 2 * size) if above else st.integers(1, size - 1))
    seed = data.draw(st.integers(0, 3))
    event(f"n={q.n} k={k} {prover} {'memo' if above else 'no memo'}")
    args = build_parser().parse_args([
        "classical", "run", "--formula", to_text(q), "--k", str(k), "--prover", prover,
        "--trials", str(trials), "--seed", str(seed)])
    got = args.func(args)["per_trial"]
    if prover == "honest":
        policy = lambda: sumcheck.TranscriptOracle(q, field, schedule)  # noqa: E731
    else:
        table = sumcheck.optimal_cheater(q, field, schedule)[0]
        policy = lambda: table  # noqa: E731
    want = []
    for t in range(trials):
        s = seed * TRIAL_SEED_STRIDE + t
        tr = sumcheck.run_protocol(q, field, policy(), s, schedule)
        want.append({"trial": t, "seed": s, "accepted": tr.accepted,
                     "reject_round": tr.reject_round})
    assert got == want


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
    assert ("the dense oracle needs 100 qubits, a state vector of 2^103 bytes, "
            "past its limit of 26 qubits (512 MiB)") in err
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


@pytest.mark.parametrize("module", ["mpmath", "numpy"])
def test_import_does_not_load(module):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, qipsim, qipsim.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Runs argv lists through ``golden_cli.record`` in a fresh interpreter that
# imports this qipsim; with ``block`` set, any numpy import raises ImportError.
_FRESH_RECORD = """
import json, sys
if {block}:
    sys.modules["numpy"] = None
sys.path[:0] = {paths!r}
import qipsim, qipsim.cli, golden_cli
for argv in json.loads(sys.argv[1]):
    before = sys.modules.get("numpy") is not None
    try:
        rec = golden_cli.record(argv)
    except ImportError:
        rec = {{"argv": argv, "raised": "ImportError"}}
    rec["numpy_before"] = before
    print(json.dumps(rec))
"""


def _fresh_records(argvs, block):
    paths = [str(Path(qipsim.__file__).parents[1]), str(Path(golden_cli.__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RECORD.format(block=block, paths=paths),
         json.dumps(argvs)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _golden(argv):
    (entry,) = [e for e in golden_cli.load() if e["argv"] == list(argv)]
    return entry


_XNOR2 = "A x1 E x2 : (x1 | ~x2) & (~x1 | x2)"

NUMPY_FREE = [
    ("bound", "--xlen", "5", "--d", "3", "--N", "2"),
    ("field", "table", "--k", "3"),
    ("classical", "run", "--formula", _XNOR2, "--k", "4", "--trials", "100"),  # README's
    ("classical", "run", "--formula", "E x1 : x1", "--k", "64", "--trials", "2", "--seed", "7"),
    ("classical", "run", "--formula", "E x1 : x1", "--k", "1", "--trials", "50", "--seed", "3"),
    ("classical", "exhaustive", "--formula", _XNOR2, "--k", "2", "--prover", "honest"),
    ("quantum", "run", "--formula", _XNOR2, "--k", "2", "--m", "2", "--prover", "honest"),
    ("quantum", "run", "--formula", _XNOR2, "--k", "2", "--m", "2", "--prover", "honest",
     "--u", "sample", "--samples", "5", "--seed", "4"),
    ("quantum", "run", "--formula", "E x1 A x2 : x1 & x2", "--k", "2", "--m", "2",
     "--prover", "biased:single"),
]


def test_numpy_free_paths_run_without_numpy():
    """The commands that build no DP table and no dense vector print their
    golden output in a process where numpy cannot be imported; the optimal
    cheater, run in that same process, shows that the block holds."""
    control = ("classical", "exhaustive", "--formula", "A x1 : x1", "--k", "2",
               "--prover", "optimal")
    *records, blocked = _fresh_records([list(a) for a in NUMPY_FREE + [control]], block=True)
    for argv, rec in zip(NUMPY_FREE, records):
        assert rec.pop("numpy_before") is False
        assert rec == _golden(argv), argv
    assert blocked == {"argv": list(control), "raised": "ImportError", "numpy_before": False}


@pytest.mark.parametrize("argv", [
    ("classical", "exhaustive", "--formula", "A x1 : x1", "--k", "2", "--prover", "optimal"),
    ("classical", "exhaustive", "--formula", "A x1 : x1", "--k", "2",
     "--prover", "lookahead:full"),
    ("quantum", "run", "--formula", "A x1 : x1", "--k", "2", "--m", "1",
     "--prover", "lookahead:full", "--dense-check"),
], ids=["optimal", "lookahead", "dense"])
def test_numpy_imported_on_first_use(argv):
    """Each of these is a fresh process's first numpy use; the in-process
    corpus cannot show that, because earlier tests have loaded numpy."""
    (rec,) = _fresh_records([list(argv)], block=False)
    assert rec.pop("numpy_before") is False
    assert rec == _golden(argv)


def test_parser_reused_after_refusal():
    """``main`` builds its parser once per process; an argv it refuses
    leaves nothing behind that changes what the next run prints."""
    assert build_parser() is build_parser()
    refused = ("classical", "run", "--formula", "A x1 : x1", "--k", "2", "--trials", "0")
    valid = ("classical", "run", "--formula", _XNOR2, "--k", "4", "--trials", "100")
    assert _golden(refused)["exit"] == 2
    for argv in (refused, valid, refused, valid):
        assert golden_cli.record(list(argv)) == _golden(argv), argv


def test_golden_cli_corpus():
    """Every invocation in ``golden_cli.json`` prints what it printed when
    the corpus was written; ``python tests/golden_cli.py --write`` lists and
    rewrites the entries that differ."""
    corpus = golden_cli.load()
    assert [e["argv"] for e in corpus] == golden_cli.invocations()
    diff = golden_cli.changed(corpus, [golden_cli.record(e["argv"]) for e in corpus])
    assert diff == [], "\n".join(" ".join(argv) for argv in diff)
