"""Command-line front end.

Subcommands:
    classical run         seeded interactive-proof executions
    classical exhaustive  sweep all verifier randomness / optimal cheater
    quantum run           two-round quantum protocol, exact or sampled u
    bound                 analytic soundness bound and parameter chooser
    field table           modulus and arithmetic tables for GF(2^k)

Reports are UTF-8 JSON (sorted keys, no timestamps) so identical
configurations produce byte-identical output; CSV mode emits one row per
trial (classical run) or per u (quantum run). Errors go to standard error
prefixed "qipsim: error:" with exit status 2. Wall-clock timing is opt-in
via --timing and goes to standard error, never into reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from . import __version__
from .bounds import BoundParams, choose_params, soundness_bound
from .gf2k import MAX_K, Field
from .qbf import QbfSyntaxError, parse_qbf, to_text
from .quantum import (
    MAX_DENSE_QUBITS,
    BiasedSupportProver,
    HonestProver,
    QuantumProtocol,
    SparseShapeError,
    dense_oracle,
    full_lookahead,
)
from .sumcheck import (
    MAX_SWEEP_DRAWS,
    ProtocolSizeError,
    SearchTables,
    accepting_row_messages,
    build_schedule,
    honest_always_accepts,
    honest_policy,
    optimal_cheater,
    run_protocol,
)

TRIAL_SEED_STRIDE = 1_000_003
DENSE_CHECK_TOL = 1e-9


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # uniform error surface: everything lands on stderr as "qipsim: error:"
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"qipsim: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


def _frac_doc(x: Fraction) -> dict:
    return {"rational": f"{x.numerator}/{x.denominator}", "float": float(x)}


def _load_formula(args):
    if args.formula is not None:
        text = args.formula
    else:
        text = Path(args.formula_file).read_text(encoding="utf-8")
    return parse_qbf(text)


def _add_formula_args(p: argparse.ArgumentParser):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--formula", help="inline formula text")
    grp.add_argument("--formula-file", help="path to a formula file")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", help="write the report here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="print wall-clock time to stderr")


# ---------------------------------------------------------------------------
# classical


def cmd_classical_run(args) -> dict:
    q = _load_formula(args)
    field = Field(args.k)
    schedule = build_schedule(q)
    if args.prover == "honest":
        policy = honest_policy(q, field)
        optimal_value = None
    else:
        policy, optimal_value = optimal_cheater(q, field, schedule)
    per_trial = []
    accepted = 0
    for t in range(args.trials):
        trial_seed = args.seed * TRIAL_SEED_STRIDE + t
        tr = run_protocol(q, field, policy, rng=trial_seed, schedule=schedule)
        accepted += tr.accepted
        per_trial.append(
            {
                "trial": t,
                "seed": trial_seed,
                "accepted": tr.accepted,
                "reject_round": tr.reject_round,
            }
        )
    cap = Fraction(schedule.degree_bound * schedule.n_rounds, field.order)
    result = {
        "n": q.n,
        "N": schedule.n_rounds,
        "k": field.k,
        "d": schedule.degree_bound,
        "trials": args.trials,
        "accepted": accepted,
        "acceptance": _frac_doc(Fraction(accepted, args.trials)),
        "soundness_cap": _frac_doc(cap),
        "per_trial": per_trial,
    }
    if optimal_value is not None:
        result["optimal_acceptance"] = _frac_doc(optimal_value)
    return result


def cmd_classical_exhaustive(args) -> dict:
    q = _load_formula(args)
    field = Field(args.k)
    schedule = build_schedule(q)
    cap = Fraction(schedule.degree_bound * schedule.n_rounds, field.order)
    result = {
        "n": q.n,
        "N": schedule.n_rounds,
        "k": field.k,
        "d": schedule.degree_bound,
        "prover": args.prover,
        "soundness_cap": _frac_doc(cap),
    }
    if args.prover == "honest":
        result["all_accept"] = honest_always_accepts(q, field, schedule)
        result["draws"] = field.order ** schedule.n_rounds
    elif args.prover == "optimal":
        _, value = optimal_cheater(q, field, schedule)
        result["max_acceptance"] = _frac_doc(value)
        result["within_cap"] = value <= cap
    else:  # lookahead:full
        total = field.order ** schedule.n_rounds
        if total > MAX_SWEEP_DRAWS:
            raise ProtocolSizeError("challenge space exceeds the exhaustive cutoff")
        tables = SearchTables(q, field, schedule)
        winnable = 0
        for row in itertools.product(field.elements(), repeat=schedule.n_rounds):
            if accepting_row_messages(q, field, row, schedule, tables=tables) is not None:
                winnable += 1
        result["winnable_rows"] = winnable
        result["total_rows"] = total
        result["winnable_fraction"] = _frac_doc(Fraction(winnable, total))
    return result


# ---------------------------------------------------------------------------
# quantum


def _make_quantum_spec(name: str, proto: QuantumProtocol):
    if name == "honest":
        return HonestProver()
    if name == "lookahead:full":
        return full_lookahead(proto.q, proto.field, proto.schedule)
    if name == "biased:single":
        zero = tuple(
            (0,) * proto.layout.n_rounds for _ in range(proto.copies)
        )
        return BiasedSupportProver([zero])
    raise CliError(f"unknown prover {name!r}")


def cmd_quantum_run(args) -> dict:
    q = _load_formula(args)
    proto = QuantumProtocol(q, Field(args.k), args.m)
    spec = _make_quantum_spec(args.prover, proto)
    report = proto.run(
        spec, u_mode=args.u, samples=args.samples, seed=args.seed
    )
    result = report.to_dict()
    if args.dense_check:
        if proto.layout.total_qubits > MAX_DENSE_QUBITS:
            raise CliError(
                f"dense check needs <= {MAX_DENSE_QUBITS} qubits, "
                f"got {proto.layout.total_qubits}"
            )
        worst = 0.0
        for u, accept in sorted(set(report.per_u)):
            dv = dense_oracle(q, args.k, args.m, spec, u)
            worst = max(worst, abs(float(accept) - dv))
        result["dense_check"] = {
            "max_abs_diff": worst,
            "tolerance": DENSE_CHECK_TOL,
            "agrees": worst <= DENSE_CHECK_TOL,
        }
    return result


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args) -> dict:
    if args.n is not None:
        n_rounds = args.n * (args.n + 1) // 2 + args.n
    else:
        n_rounds = args.N
    if args.m is not None or args.k is not None:
        if args.m is None or args.k is None:
            raise CliError("--m and --k must be given together")
        params = BoundParams(d=args.d, n_rounds=n_rounds, m=args.m, k=args.k)
    elif args.xlen is not None:
        params = choose_params(args.xlen, args.d, n_rounds)
    else:
        raise CliError("need either --xlen or explicit --m and --k")
    sb = soundness_bound(params)
    doc = {
        "params": {
            "d": params.d,
            "N": params.n_rounds,
            "m": params.m,
            "k": params.k,
        },
        "bound": float(sb.value),
        "vacuous": sb.vacuous,
        "target": None,
        "satisfied": None,
    }
    if args.xlen is not None:
        target = mpmath.mpf(2) ** (-args.xlen)
        doc["target"] = float(target)
        doc["satisfied"] = bool(sb.value < target)
    return doc


# ---------------------------------------------------------------------------
# field


def cmd_field_table(args) -> dict:
    if not 1 <= args.k <= MAX_K:
        raise CliError(f"k must be in 1..{MAX_K}")
    field = Field(args.k)
    doc = {
        "k": field.k,
        "modulus": field.g,
        "modulus_hex": format(field.g, "#x"),
        "modulus_text": field.modulus_text(),
        "tables_included": args.k <= 6,
    }
    if args.k <= 6:
        elems = list(field.elements())
        doc["add_table"] = [[a ^ b for b in elems] for a in elems]
        doc["mul_table"] = [[field.mul(a, b) for b in elems] for a in elems]
    return doc


# ---------------------------------------------------------------------------
# emission


def _rows_classical(result: dict) -> tuple[list[str], list[list]]:
    header = ["trial", "seed", "accepted", "reject_round"]
    rows = [
        [t["trial"], t["seed"], int(t["accepted"]), t["reject_round"]]
        for t in result["per_trial"]
    ]
    return header, rows


def _rows_quantum(result: dict) -> tuple[list[str], list[list]]:
    header = ["index", "u", "step1_pass", "accept", "accept_float"]
    rows = [
        [
            i,
            " ".join(str(x) for x in entry["u"]),
            entry["step1_pass"]["rational"],
            entry["accept"]["rational"],
            entry["accept"]["float"],
        ]
        for i, entry in enumerate(result["per_u"])
    ]
    return header, rows


def _emit(doc: dict, args, command: str) -> None:
    if args.format == "csv":
        if command == "classical run":
            header, rows = _rows_classical(doc["result"])
        elif command == "quantum run":
            header, rows = _rows_quantum(doc["result"])
        else:
            raise CliError(f"csv output is not supported for '{command}'")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="qipsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"qipsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    classical = sub.add_parser("classical", help="interactive sumcheck proof")
    csub = classical.add_subparsers(dest="subcommand", required=True)

    crun = csub.add_parser("run", help="seeded protocol executions")
    _add_formula_args(crun)
    crun.add_argument("--k", type=int, required=True, help="field bits")
    crun.add_argument("--prover", choices=("honest", "optimal"), default="honest")
    crun.add_argument("--trials", type=_positive_int, default=1)
    crun.add_argument("--seed", type=int, default=0)
    _add_output_args(crun)
    crun.set_defaults(func=cmd_classical_run, label="classical run")

    cexh = csub.add_parser("exhaustive", help="sweep all verifier randomness")
    _add_formula_args(cexh)
    cexh.add_argument("--k", type=int, required=True, help="field bits")
    cexh.add_argument(
        "--prover", choices=("honest", "optimal", "lookahead:full"),
        default="honest",
    )
    _add_output_args(cexh)
    cexh.set_defaults(func=cmd_classical_exhaustive, label="classical exhaustive")

    quantum = sub.add_parser("quantum", help="two-round quantum protocol")
    qsub = quantum.add_subparsers(dest="subcommand", required=True)
    qrun = qsub.add_parser("run", help="exact or sampled protocol run")
    _add_formula_args(qrun)
    qrun.add_argument("--k", type=int, required=True, help="field bits")
    qrun.add_argument("--m", type=_positive_int, required=True, help="register rows")
    qrun.add_argument(
        "--prover", choices=("honest", "lookahead:full", "biased:single"),
        default="honest",
    )
    qrun.add_argument("--u", choices=("exhaustive", "sample"), default="exhaustive")
    qrun.add_argument("--samples", type=_positive_int, default=64,
                      help="u draws in sample mode")
    qrun.add_argument("--seed", type=int, default=0)
    qrun.add_argument("--dense-check", action="store_true",
                      help="cross-check against the dense state-vector oracle")
    _add_output_args(qrun)
    qrun.set_defaults(func=cmd_quantum_run, label="quantum run")

    bound = sub.add_parser("bound", help="analytic soundness bound")
    bound.add_argument("--xlen", type=int, help="input length for the target 2^-xlen")
    bound.add_argument("--d", type=int, required=True, help="degree bound")
    ngrp = bound.add_mutually_exclusive_group(required=True)
    ngrp.add_argument("--n", type=int, help="variable count (derives N)")
    ngrp.add_argument("--N", type=int, help="round count")
    bound.add_argument("--m", type=int, help="explicit register rows")
    bound.add_argument("--k", type=int, help="explicit field bits")
    _add_output_args(bound)
    bound.set_defaults(func=cmd_bound, label="bound")

    fieldp = sub.add_parser("field", help="finite-field utilities")
    fsub = fieldp.add_subparsers(dest="subcommand", required=True)
    ftab = fsub.add_parser("table", help="modulus and arithmetic tables")
    ftab.add_argument("--k", type=int, required=True, help="field bits")
    _add_output_args(ftab)
    ftab.set_defaults(func=cmd_field_table, label="field table")

    return parser


def _config_echo(args) -> dict:
    skip = {"func", "label", "command", "subcommand", "output", "format", "timing"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        out[key.replace("_", "-")] = val
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result = args.func(args)
        doc = {
            "version": __version__,
            "command": args.label,
            "config": _config_echo(args),
            "result": result,
        }
        _emit(doc, args, args.label)
    except (CliError, QbfSyntaxError, ProtocolSizeError, SparseShapeError,
            ValueError, OSError) as exc:
        print(f"qipsim: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if getattr(args, "timing", False):
            elapsed = time.perf_counter() - started
            print(f"qipsim: timing: {elapsed:.3f}s", file=sys.stderr)
    return 0
