"""The benchmark's four workloads as lists of jobs with exact expected answers.

Every call into qipsim goes through a module attribute (``sumcheck.optimal_cheater``,
not a name imported into this file), so that the per-layer trace, which
patches module attributes, sees the benchmark's own calls too.

A job's ``run`` builds every memo it uses (``TranscriptOracle``,
``full_lookahead``, policy tables) itself, so no pass reuses work from an
earlier one. What ``prepare`` builds (parsed formulas, ``Field`` contexts,
round schedules) holds no memo and is shared by all passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from qipsim import cli, gf2k, qbf, quantum, sumcheck

WORKLOADS = ("sweep", "cheater", "quantum", "protocol")

# Acceptance corpus of the test suite: every quantifier prefix over small
# matrix templates (degrees 1 to 3).
N1_MATRICES = ("x1", "~x1", "x1 | ~x1", "x1 & ~x1", "x1 & x1 & x1")
N2_MATRICES = (
    "x1 & x2",
    "x1 | x2",
    "(x1 | ~x2) & (~x1 | x2)",
    "(x1 & x2) | (~x1 & ~x2)",
    "~(x1 & x2)",
    "x1 & (x2 | ~x1)",
)

CUBIC = "A x1 : x1 & x1 & x1"

# Exact optimal cheating values at k=3, measured on the initial commit.
CHEATER_K3 = {
    "A x1 : x1": Fraction(11, 32),
    "A x1 : ~x1": Fraction(11, 32),
    "E x1 : x1 & ~x1": Fraction(11, 32),
    "A x1 : x1 & ~x1": Fraction(11, 32),
    CUBIC: Fraction(29, 64),
}

# CLI reports, byte for byte (sha256 of stdout), with the fields that make a
# mismatch readable.
CLI_REPLAY_TRIALS = 500
CLI_EXPECTED = {
    "lookahead": (
        ["classical", "exhaustive", "--formula", CUBIC, "--k", "3",
         "--prover", "lookahead:full"],
        "f6da3c29a45627e6021be147f6118ff2af5315804669ed4bc0550836daa94c85",
        {"winnable_rows": 63, "total_rows": 64},
    ),
    "replay": (
        ["classical", "run", "--formula", "A x1 : x1", "--k", "3",
         "--prover", "optimal", "--trials", str(CLI_REPLAY_TRIALS), "--seed", "7"],
        "5b7e45485850a780b2ea90173d3036316cf0770fbe213305cf35b4d304a58dbc",
        {"accepted": 187, "trials": CLI_REPLAY_TRIALS},
    ),
}

# Quantum runs: (formula, k, m, prover) -> exact (step1_pass, mean_accept).
WEIGHTED_SUPPORT = (((0, 0), (0, 0)), ((0, 1), (2, 3)))
WEIGHTS = (Fraction(3, 5), Fraction(4, 5))
QUANTUM_EXPECTED = {
    ("A x1 : x1", 2, 3, "lookahead"): (Fraction(3375, 4096), Fraction(325, 512) ** 3),
    ("E x1 : x1", 2, 3, "honest"): (Fraction(1), Fraction(1)),
    (CUBIC, 2, 3, "lookahead"): (Fraction(3375, 4096), Fraction(45499293, 134217728)),
    ("A x1 : x1", 3, 2, "lookahead"): (Fraction(3969, 4096), Fraction(4873, 8192) ** 2),
    ("E x1 : x1", 2, 2, "weighted"): (Fraction(1), Fraction(149, 5120)),
}
# Exact sparse per-u values that the dense state-vector oracle must match.
DENSE_CASE = ("A x1 : x1", 2, 1)
DENSE_SPARSE = {(1,): Fraction(225, 256), (2,): Fraction(25, 64)}
DENSE_TOL = 1e-9

PROTOCOL_KS = (32, 64)
PROTOCOL_FORMULAS = 3
PROTOCOL_TRIALS = 35

# Smoke mode: the same kinds of job at the smallest sizes.
SMOKE_CHEATER = {("A x1 : x1", 2): Fraction(5, 8)}
SMOKE_CLI = {
    "lookahead": (
        ["classical", "exhaustive", "--formula", "A x1 : x1", "--k", "2",
         "--prover", "lookahead:full"],
        "f0e73b2420737afc33db21f6ab46417797ed3f875ffec88dc45928b23c16c227",
        {"winnable_rows": 15, "total_rows": 16},
    ),
    "replay": (
        ["classical", "run", "--formula", "A x1 : x1", "--k", "2",
         "--prover", "optimal", "--trials", "5", "--seed", "7"],
        "aa19dc2c35eff8c5446ce9d43a8809d4fd35cc9108c91e8c1ba0974b2f5d82d9",
        {"accepted": 3, "trials": 5},
    ),
}
SMOKE_QUANTUM = {
    ("A x1 : x1", 2, 1, "lookahead"): (Fraction(15, 16), Fraction(325, 512)),
    ("E x1 : x1", 2, 1, "honest"): (Fraction(1), Fraction(1)),
}
SMOKE_DENSE_CASE = ("E x1 : x1", 1, 1)
SMOKE_DENSE = {(1,): Fraction(1), (2,): Fraction(3, 4)}


@dataclass
class Job:
    """One unit of work. ``check`` returns None when the answer is exact,
    else the reason it is not; ``counts`` adds job-level counters to a
    traced pass."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    counts: Callable[[object], dict[str, int]] | None = None


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def corpus() -> list[str]:
    out = [f"{p} : {mat}" for mat in N1_MATRICES for p in ("E x1", "A x1")]
    out += [
        f"{p1} {p2} : {mat}"
        for mat in N2_MATRICES
        for p1 in ("E x1", "A x1")
        for p2 in ("E x2", "A x2")
    ]
    return out


# ---------------------------------------------------------------------------
# sweep


def _sweep_job(text: str, k: int) -> Job:
    q = qbf.parse_qbf(text)
    field = gf2k.Field(k)
    schedule = sumcheck.build_schedule(q)
    truth = qbf.eval_qbf(q)
    return Job(
        f"sweep k={k} {text}",
        lambda: sumcheck.honest_always_accepts(q, field, schedule),
        lambda verdict: _expect(verdict, truth, "sweep verdict vs eval_qbf"),
    )


def sweep_jobs(smoke: bool) -> list[Job]:
    texts = [t for t in corpus() if qbf.eval_qbf(qbf.parse_qbf(t))]
    if smoke:
        return [_sweep_job(t, 3) for t in texts if "x2" not in t] + [
            _sweep_job("E x1 E x2 : x1 & x2", 2)
        ]
    return [_sweep_job(t, 3) for t in texts]


# ---------------------------------------------------------------------------
# cheater


def _cheater_job(text: str, k: int, want: Fraction) -> Job:
    q = qbf.parse_qbf(text)
    field = gf2k.Field(k)
    schedule = sumcheck.build_schedule(q)
    cap = Fraction(schedule.degree_bound * schedule.n_rounds, field.order)

    def check(value) -> str | None:
        if value > cap:
            return f"optimal value {value} above the soundness cap {cap}"
        return _expect(value, want, "optimal cheating value")

    return Job(
        f"optimal_cheater k={k} {text}",
        lambda: sumcheck.optimal_cheater(q, field, schedule)[1],
        check,
    )


def _cli_job(label: str, argv: list[str], digest: str, fields: dict) -> Job:
    def run() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
        return status, buf.getvalue()

    def check(out) -> str | None:
        status, text = out
        if status != 0:
            return f"exit status {status}"
        result = json.loads(text)["result"]
        for key, want in fields.items():
            bad = _expect(result[key], want, key)
            if bad:
                return bad
        return _expect(hashlib.sha256(text.encode()).hexdigest(), digest,
                       "report sha256")

    return Job(
        f"cli {label}: {' '.join(argv)}",
        run,
        check,
        lambda out: {"cli.report_bytes": len(out[1].encode())},
    )


def cheater_jobs(smoke: bool) -> list[Job]:
    if smoke:
        jobs = [_cheater_job(t, k, v) for (t, k), v in SMOKE_CHEATER.items()]
        table = SMOKE_CLI
    else:
        jobs = [_cheater_job(t, 3, v) for t, v in CHEATER_K3.items()]
        table = CLI_EXPECTED
    return jobs + [_cli_job(label, *spec) for label, spec in table.items()]


# ---------------------------------------------------------------------------
# quantum


def _quantum_spec(kind: str, proto):
    if kind == "honest":
        return quantum.HonestProver()
    if kind == "lookahead":
        return quantum.full_lookahead(proto.q, proto.field, proto.schedule)
    return quantum.BiasedSupportProver(WEIGHTED_SUPPORT, weights=WEIGHTS)


def _quantum_job(text: str, k: int, m: int, kind: str, want) -> Job:
    q = qbf.parse_qbf(text)
    field = gf2k.Field(k)

    def run():
        proto = quantum.QuantumProtocol(q, field, m)
        report = proto.run(_quantum_spec(kind, proto))
        return report.step1_pass, report.mean_accept

    return Job(
        f"quantum {kind} k={k} m={m} {text}",
        run,
        lambda got: _expect(got, want, "(step1_pass, mean_accept)"),
    )


def _dense_job(text: str, k: int, m: int, u: tuple[int, ...], sparse: Fraction) -> Job:
    q = qbf.parse_qbf(text)
    field = gf2k.Field(k)

    def run() -> float:
        spec = quantum.full_lookahead(q, field)
        return quantum.dense_oracle(q, k, m, spec, u)

    def check(value: float) -> str | None:
        if abs(value - float(sparse)) <= DENSE_TOL:
            return None
        return f"dense {value!r} differs from sparse {sparse} by more than {DENSE_TOL}"

    return Job(f"dense_oracle u={u} k={k} m={m} {text}", run, check)


def quantum_jobs(smoke: bool) -> list[Job]:
    runs, (text, k, m), dense = (
        (SMOKE_QUANTUM, SMOKE_DENSE_CASE, SMOKE_DENSE)
        if smoke
        else (QUANTUM_EXPECTED, DENSE_CASE, DENSE_SPARSE)
    )
    jobs = [_quantum_job(*key, want) for key, want in runs.items()]
    return jobs + [_dense_job(text, k, m, u, v) for u, v in dense.items()]


# ---------------------------------------------------------------------------
# protocol


def protocol_formulas(rng: random.Random, count: int) -> list[str]:
    """True 3-variable formulas of one fixed shape: a random prefix and three
    clauses that each hold x1, x2 and x3 with random signs, so every formula
    has the same round schedule and degree bounds."""
    out: list[str] = []
    while len(out) < count:
        prefix = " ".join(f"{rng.choice('EA')} x{i}" for i in (1, 2, 3))
        clauses = [
            "(" + " | ".join(("~" if rng.random() < 0.5 else "") + f"x{i}"
                             for i in (1, 2, 3)) + ")"
            for _ in range(3)
        ]
        text = f"{prefix} : {' & '.join(clauses)}"
        if qbf.eval_qbf(qbf.parse_qbf(text)):
            out.append(text)
    return out


def _protocol_job(text: str, k: int, seeds: list[int]) -> Job:
    q = qbf.parse_qbf(text)
    field = gf2k.Field(k)
    schedule = sumcheck.build_schedule(q)

    def run() -> list[tuple[bool, bool, int | None]]:
        policy = sumcheck.honest_policy(q, field)
        out = []
        for s in seeds:
            tr = sumcheck.run_protocol(q, field, policy, rng=s, schedule=schedule)
            back = sumcheck.transcript_from_dict(tr.to_dict())
            out.append((tr.accepted, back == tr,
                        sumcheck.check_transcript(q, schedule, field, back.r, back.f)))
        return out

    def check(results) -> str | None:
        for t, (accepted, same, reject_round) in enumerate(results):
            if not accepted:
                return f"honest trial {t} rejected on a true formula"
            if not same:
                return f"trial {t} changed in the to_dict round trip"
            if reject_round is not None:
                return f"trial {t} re-verification rejected at round {reject_round}"
        return None

    return Job(f"run_protocol k={k} x{len(seeds)} {text}", run, check)


def protocol_jobs(seed: int, smoke: bool) -> list[Job]:
    rng = random.Random(seed)
    count, trials = (1, 2) if smoke else (PROTOCOL_FORMULAS, PROTOCOL_TRIALS)
    texts = protocol_formulas(rng, count)
    return [
        _protocol_job(text, k, [rng.getrandbits(64) for _ in range(trials)])
        for k in PROTOCOL_KS
        for text in texts
    ]


# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """Parse, build fields and schedules, and return the job list. The seed
    draws the protocol formulas and challenges, and orders every list."""
    if workload == "sweep":
        jobs = sweep_jobs(smoke)
    elif workload == "cheater":
        jobs = cheater_jobs(smoke)
    elif workload == "quantum":
        jobs = quantum_jobs(smoke)
    elif workload == "protocol":
        jobs = protocol_jobs(seed, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(jobs)
    return jobs
