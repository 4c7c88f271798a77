"""Golden CLI corpus: a fixed battery of ``qipsim`` invocations, each stored
as its argv, exit code and the sha256 of its stdout and of its stderr.

    PYTHONPATH=src python tests/golden_cli.py --write

regenerates ``golden_cli.json`` and prints the argv of every entry whose
record changed. ``tests/test_cli.py`` replays the corpus in-process through
``cli.main``. A changed entry is a change in what the CLI prints, so a
regenerated file goes with a note naming each changed entry and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).with_name("golden_cli.json")

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qipsim.cli import main  # noqa: E402

# n = 1 and n = 2, true and false, and one matrix of degree 3.
FORMULAS = (
    "E x1 : x1",
    "A x1 : x1",
    "A x1 : x1 | ~x1",
    "E x1 : x1 & ~x1",
    "A x1 : x1 & x1 & x1",
    "A x1 E x2 : (x1 | ~x2) & (~x1 | x2)",
    "E x1 A x2 : x1 & x2",
)
N2 = frozenset(f for f in FORMULAS if "x2" in f)


def _chain(quant: str, n: int, matrix: str) -> str:
    return " ".join(f"{quant} x{i}" for i in range(1, n + 1)) + " : " + matrix


def invocations() -> list[list[str]]:
    runs: list[list[str]] = []

    def add(*argv: str) -> None:
        runs.append(list(argv))

    for text in FORMULAS:
        n2 = text in N2
        for k in ("1", "2", "3"):
            for prover in ("honest", "optimal", "lookahead:full"):
                if n2 and k == "3" and prover == "lookahead:full":
                    continue  # 3.5 s each
                add("classical", "exhaustive", "--formula", text, "--k", k,
                    "--prover", prover)
            add("classical", "run", "--formula", text, "--k", k,
                "--prover", "optimal", "--trials", "4", "--seed", "2")
            add("classical", "run", "--formula", text, "--k", k,
                "--trials", "3", "--seed", "1")
        for k in ("32", "64"):
            add("classical", "run", "--formula", text, "--k", k, "--trials", "2",
                "--seed", "7")
        add("classical", "run", "--formula", text, "--k", "2", "--trials", "3",
            "--format", "csv")
        for prover in ("honest", "lookahead:full", "biased:single"):
            for k in ("1", "2"):
                for m in ("1", "2"):
                    add("quantum", "run", "--formula", text, "--k", k, "--m", m,
                        "--prover", prover)
            add("quantum", "run", "--formula", text, "--k", "2", "--m", "2",
                "--prover", prover, "--u", "sample", "--samples", "5", "--seed", "4")
            add("quantum", "run", "--formula", text, "--k", "1", "--m", "2",
                "--prover", prover, "--format", "csv")
            if not n2:
                add("quantum", "run", "--formula", text, "--k", "1", "--m", "1",
                    "--prover", prover, "--dense-check")
    add("quantum", "run", "--formula", "A x1 : x1", "--k", "2", "--m", "1",
        "--prover", "lookahead:full", "--dense-check")
    add("quantum", "run", "--formula", "A x1 : x1", "--k", "4", "--m", "3",
        "--prover", "lookahead:full")
    # README's first example.
    add("classical", "run", "--formula", "A x1 E x2 : (x1 | ~x2) & (~x1 | x2)", "--k", "4",
        "--trials", "100")

    for d in ("2", "3"):
        for xlen in ("1", "5", "40"):
            add("bound", "--xlen", xlen, "--d", d, "--n", "3")
            add("bound", "--xlen", xlen, "--d", d, "--N", "2")
        for m, k in (("1", "1"), ("8", "12"), ("120", "30")):
            add("bound", "--m", m, "--k", k, "--d", d, "--N", "9")
        add("bound", "--xlen", "3", "--m", "4", "--k", "20", "--d", d, "--n", "2")
        add("bound", "--xlen", "12", "--d", d, "--N", "200")
    for k in range(10):
        add("field", "table", "--k", str(k))
    add("field", "table", "--k", "16")
    add("--version")

    # A true n = 6 formula: the honest prover must be accepted, not cut off.
    add("classical", "run", "--formula",
        "A x1 E x2 A x3 E x4 A x5 E x6 : (x1 | x2) & (x3 | x4) & (x5 | x6)", "--k", "32")
    # 2^23 formula evaluations behind round 1's message: refused.
    add("classical", "run", "--formula", _chain("A", 24, "x1 | ~x1"), "--k", "8")

    # Refusals and bad input, each exiting 2.
    add("quantum", "run", "--formula", "E x1 : x1", "--k", "1", "--m", "17",
        "--prover", "biased:single")
    add("quantum", "run", "--formula", "E x1 : x1", "--k", "1", "--m", "7000")
    add("quantum", "run", "--formula", "E x1 : x1", "--k", "1", "--m", "1",
        "--u", "sample", "--samples", "65537")
    add("quantum", "run", "--formula", "A x1 A x2 : x1 & x2", "--k", "4", "--m", "1",
        "--dense-check")
    add("quantum", "run", "--formula", "A x1 : x1", "--k", "2", "--m", "0")
    add("bound", "--d", "3", "--N", "9", "--m", "1", "--k", "4000000")
    add("bound", "--d", "3", "--N", "9", "--xlen", "2000000")
    add("bound", "--d", "3", "--N", "2", "--m", "4")
    add("bound", "--d", "3", "--N", "2")
    add("bound", "--xlen", "1", "--d", "3", "--N", "2", "--format", "csv")
    add("classical", "exhaustive", "--formula", _chain("A", 6, "x1 & x2"), "--k", "1")
    add("classical", "exhaustive", "--formula", _chain("A", 6, "x1 & x2"), "--k", "1",
        "--prover", "lookahead:full")
    add("classical", "exhaustive", "--formula", "A x1 A x2 : x1 & x2", "--k", "5",
        "--prover", "optimal")
    add("classical", "exhaustive", "--formula", "A x1 : x1", "--k", "16", "--format", "csv")
    add("classical", "run", "--formula", "A x1 : x1", "--k", "2", "--trials", "0")
    add("classical", "run", "--formula", "E x1 : x1")
    add("classical", "run", "--formula", "A x1 : " + "~" * 1200 + "x1", "--k", "2")
    for text in ("E x1 : x2", "x1 : x1", "A x1 : (x1", "A x1 : x1 E x2", "A x2 : x2",
                 "A x1 : x01", "A x1 : x1 $"):
        add("classical", "run", "--formula", text, "--k", "2")
    add("classical", "run", "--formula-file", "no/such/file.qbf", "--k", "2")
    add()
    return runs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv: list[str]) -> dict:
    """Run one invocation in this process and hash what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def changed(old: list[dict], new: list[dict]) -> list[list[str]]:
    """The argv of every entry of ``new`` with no identical record in ``old``."""
    before = {json.dumps(e["argv"]): e for e in old}
    return [e["argv"] for e in new if before.get(json.dumps(e["argv"])) != e]


def write(entries: list[dict]) -> None:
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def _main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"regenerate {CORPUS.name} and list the changed entries")
    args = ap.parse_args()
    new = [record(argv) for argv in invocations()]
    diff = changed(load() if CORPUS.exists() else [], new)
    for argv in diff:
        print(json.dumps(argv))
    if args.write:
        write(new)
    print(f"{len(new)} entries, {len(diff)} changed", file=sys.stderr)
    return 1 if diff and not args.write else 0


if __name__ == "__main__":
    sys.exit(_main())
