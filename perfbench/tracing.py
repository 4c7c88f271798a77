"""Per-layer tracing of qipsim from outside the program.

``Tracer.install`` wraps the public functions and methods of the layers
``qbf``, ``gf2k``, ``_kernels``, ``sumcheck``, ``quantum``, ``bounds`` and
``cli``. A function imported by name into another module is replaced there
too, since that is where it is looked up (``qipsim.quantum.accepting_row_messages``,
``qipsim.cli.optimal_cheater``). Kernel calls are seen through a proxy that
is set as ``qipsim._kernels.active`` before any ``Field`` is built, so every
``Field`` takes it as its backend; calls inside a kernel are not seen.

Coarse calls record a span ``(name, start_ns, end_ns, parent, job)`` in
memory. Calls made up to millions of times in a pass (field and scalar
kernel arithmetic, formula evaluation, oracle lookups, prover message
functions) only count, so their time is part of their caller's self time. A layer's self time is the duration of
its spans minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from types import SimpleNamespace

from qipsim import _kernels, bounds, cli, gf2k, qbf, quantum, sumcheck

LAYERS = {
    "qbf": qbf,
    "gf2k": gf2k,
    "sumcheck": sumcheck,
    "quantum": quantum,
    "bounds": bounds,
    "cli": cli,
}
# "kernels", not "_kernels": metric names start with a letter.
KERNEL_LAYER = "kernels"
ALL_LAYERS = ("qbf", "gf2k", KERNEL_LAYER, "sumcheck", "quantum", "bounds", "cli")

KERNEL_FUNCS = ("gf_mul", "gf_inv", "poly_eval", "interpolate", "eval_formula",
                "quantified_value", "honest_sweep")

# Counted, never timed.
COUNT_ONLY = frozenset({
    "gf2k.Field.check", "gf2k.Field.add", "gf2k.Field.mul", "gf2k.Field.inv",
    "gf2k.Field.poly_eval",
    "kernels.gf_mul", "kernels.gf_inv", "kernels.poly_eval", "kernels.eval_formula",
    "qbf.arith_eval", "qbf.eval_matrix", "qbf.compile_matrix",
    "sumcheck.RoundSchedule.kind_codes", "sumcheck.RoundSchedule.var_codes",
    "quantum.QuantumProtocol.kept_key", "quantum.QuantumProtocol.padded_f_matrix",
    "quantum.HonestProver.f_matrix", "quantum.LookaheadProver.f_matrix",
    "quantum.BiasedSupportProver.f_matrix",
})

# TranscriptOracle methods -> the memo each one answers from.
ORACLE_MEMOS = {"correct_row": "_rows", "valid": "_verdicts"}

# Per-pass metric -> span names whose inclusive time it sums.
INCLUSIVE_S = {
    "kernels.honest_sweep_s": ("kernels.honest_sweep",),
    "kernels.quantified_value_s": ("kernels.quantified_value",),
    "kernels.interpolate_s": ("kernels.interpolate",),
    "sumcheck.run_protocol_s": ("sumcheck.run_protocol",),
    "sumcheck.check_transcript_s": ("sumcheck.check_transcript",),
    "sumcheck.correct_polynomial_s": ("sumcheck.correct_polynomial",),
    "sumcheck.optimal_cheater_s": ("sumcheck.optimal_cheater",),
    "sumcheck.accepting_row_messages_s": ("sumcheck.accepting_row_messages",),
    "sumcheck.honest_always_accepts_s": ("sumcheck.honest_always_accepts",),
    "quantum.prepare_s": ("quantum.QuantumProtocol.prepare_round1",),
    "quantum.step1_s": ("quantum.QuantumProtocol.step1_filter",),
    "quantum.round2_s": ("quantum.QuantumProtocol.apply_round2_and_cancel",),
    "quantum.step4_s": ("quantum.QuantumProtocol.step4_accept_prob",),
    "quantum.events_s": ("quantum.QuantumProtocol.resume_union_probability",
                         "quantum.QuantumProtocol.event_probability"),
    "quantum.dense_s": ("quantum.dense_oracle",),
    "cli.main_s": ("cli.main",),
    "bounds.soundness_bound_s": ("bounds.soundness_bound",),
}

# Setup-phase metric -> span names, summed over the traced set-up.
SETUP_S = {
    "qbf.parse_s": ("qbf.parse_qbf",),
    "gf2k.field_init_s": ("gf2k.Field.__init__",),
}

# Per-pass metric -> function names whose calls it counts.
CALLS = {
    "gf2k.check_calls": ("gf2k.Field.check",),
    "gf2k.mul_calls": ("gf2k.Field.mul",),
    "gf2k.poly_eval_calls": ("gf2k.Field.poly_eval",),
    **{f"kernels.{f}_calls": (f"kernels.{f}",) for f in KERNEL_FUNCS},
    "qbf.arith_eval_calls": ("qbf.arith_eval",),
    "sumcheck.correct_polynomial_calls": ("sumcheck.correct_polynomial",),
    "sumcheck.accepting_row_messages_calls": ("sumcheck.accepting_row_messages",),
    "quantum.u_evaluated": ("quantum.QuantumProtocol.step4_accept_prob",),
    "quantum.f_matrix_calls": ("quantum.HonestProver.f_matrix",
                               "quantum.LookaheadProver.f_matrix",
                               "quantum.BiasedSupportProver.f_matrix"),
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters for one traced process. Install once, before the
    traced set-up builds any ``Field``; ``reset`` between passes."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.job = "setup"
        self.quiet = False  # set while a hook calls back into qipsim
        self.original: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        if self.stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.calls.clear()
        self.stats.clear()
        self.peaks.clear()

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def _timed(self, name: str, fn, hook=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.quiet:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.quiet = True
                try:
                    hook(tracer, bound.arguments, result)
                finally:
                    tracer.quiet = False
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls, tracer = self.calls, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.quiet:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _oracle_counted(self, name: str, fn, memo: str):
        calls, stats = self.calls, self.stats

        @functools.wraps(fn)
        def wrapper(oracle, key, *rest):
            calls[name] += 1
            memo_key = key if not rest else (key, *rest)
            if memo_key in getattr(oracle, memo):
                stats["oracle_hits"] += 1
            return fn(oracle, key, *rest)

        return wrapper

    def _wrap(self, name: str, fn):
        self.original[name] = fn
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        return self._timed(name, fn, HOOKS.get(name))

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, obj, wrapper) -> None:
        """Replace every binding of obj in qipsim's modules (not inside the
        kernel backends, whose internal calls stay unseen)."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "qipsim" or modname.startswith("qipsim.")):
                continue
            if modname.startswith("qipsim._kernels."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, mod in LAYERS.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj):
                    self._rebind(obj, self._wrap(f"{layer}.{attr}", obj))
        for attr in ("find_modulus", "is_irreducible"):
            obj = getattr(_kernels, attr)
            self._set(_kernels, attr, self._wrap(f"{KERNEL_LAYER}.{attr}", obj))
        backend = _kernels.active
        proxy = SimpleNamespace(NAME=backend.NAME, **{
            f: self._wrap(f"{KERNEL_LAYER}.{f}", getattr(backend, f))
            for f in KERNEL_FUNCS
        })
        self._set(_kernels, "active", proxy)

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and not (cls is gf2k.Field and attr == "__init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if cls is sumcheck.TranscriptOracle and attr in ORACLE_MEMOS:
                wrapper = self._oracle_counted(name, fn, ORACLE_MEMOS[attr])
            else:
                wrapper = self._wrap(name, fn)
            self._set(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- summaries ---------------------------------------------------------

    def _aggregate(self):
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter(self.calls)
        top_ns = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_ns[layer_of(name)] += dur - child[i]
            incl_ns[name] += dur
            calls[name] += 1
            if parent < 0:
                top_ns += dur
        return self_ns, incl_ns, calls, top_ns

    def setup_metrics(self) -> dict[str, float]:
        _, incl_ns, _, _ = self._aggregate()
        return {
            key: sum(incl_ns[n] for n in names) / 1e9
            for key, names in SETUP_S.items()
        }

    def pass_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass just recorded. Keys ending in ``_s``
        are times; every other value must repeat exactly from pass to pass."""
        self_ns, incl_ns, calls, top_ns = self._aggregate()
        out: dict[str, float] = {}
        for layer in ALL_LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for key, names in INCLUSIVE_S.items():
            out[key] = sum(incl_ns[n] for n in names) / 1e9
        for key, names in CALLS.items():
            out[key] = sum(calls[n] for n in names)
        out["bounds.calls"] = sum(c for n, c in calls.items() if layer_of(n) == "bounds")
        oracle_calls = sum(calls[f"sumcheck.TranscriptOracle.{m}"] for m in ORACLE_MEMOS)
        out["sumcheck.oracle_hit_ratio"] = _ratio(self.stats["oracle_hits"], oracle_calls)
        out["sumcheck.winnable_ratio"] = _ratio(
            self.stats["rows_won"], calls["sumcheck.accepting_row_messages"])
        for key in ("sumcheck.dp_states", "sumcheck.sweep_nodes", "cli.report_bytes",
                    "quantum.branches_prepared", "quantum.branches_kept"):
            out[key] = self.stats[key]
        for key in ("sumcheck.search_cap_use", "sumcheck.sweep_cap_use",
                    "quantum.branch_cap_use", "quantum.dense_cap_use"):
            out[key] = self.peaks.get(key, 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.pass_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - top_ns / 1e9
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def write_spans(path, header: dict, groups: dict[str, list]) -> None:
    """Write a header line, then one JSON line per span. ``groups`` maps a
    label (such as the pass number) to a span list; ``parent`` indexes into
    the same group."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for label, spans in groups.items():
            for name, start, end, parent, job in spans:
                fh.write(json.dumps({"group": label, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# Hooks: derived counters taken from a traced call's arguments and result.
# Cap use is the job's size over the cutoff, by the formula its guard uses.


def _schedule(t: Tracer, a: dict):
    return a["schedule"] or t.original["sumcheck.build_schedule"](a["q"])


def _search_cap(t: Tracer, a: dict) -> None:
    order = a["field"].order
    dmax = max(_schedule(t, a).degree_bounds)
    work = order ** (dmax + 1) * order ** (a["q"].n + 1)
    t.peak("sumcheck.search_cap_use", work / sumcheck.MAX_SEARCH_WORK)


def _optimal_cheater(t: Tracer, a: dict, result) -> None:
    _search_cap(t, a)
    t.stats["sumcheck.dp_states"] += len(result[0].choice)


def _accepting_row_messages(t: Tracer, a: dict, result) -> None:
    _search_cap(t, a)
    t.stats["rows_won"] += result is not None


def _honest_always_accepts(t: Tracer, a: dict, result) -> None:
    order = a["field"].order
    n_rounds = _schedule(t, a).n_rounds
    t.stats["sumcheck.sweep_nodes"] += sum(order ** j for j in range(1, n_rounds + 1))
    t.peak("sumcheck.sweep_cap_use", order ** n_rounds / sumcheck.MAX_SWEEP_DRAWS)


def _prepare_round1(t: Tracer, a: dict, result) -> None:
    proto = a["self"]
    t.stats["quantum.branches_prepared"] += result.n_branches
    if not isinstance(a["spec"], quantum.BiasedSupportProver):
        count = proto.field.order ** (proto.copies * proto.layout.n_rounds)
        t.peak("quantum.branch_cap_use", count / quantum.MAX_BRANCHES)


def _step1_filter(t: Tracer, a: dict, result) -> None:
    t.stats["quantum.branches_kept"] += result[1].n_branches


def _dense_oracle(t: Tracer, a: dict, result) -> None:
    layout = t.original["quantum.build_layout"](a["q"], a["k"], a["m"])
    t.peak("quantum.dense_cap_use", layout.total_qubits / quantum.MAX_DENSE_QUBITS)


HOOKS = {
    "sumcheck.optimal_cheater": _optimal_cheater,
    "sumcheck.accepting_row_messages": _accepting_row_messages,
    "sumcheck.honest_always_accepts": _honest_always_accepts,
    "quantum.QuantumProtocol.prepare_round1": _prepare_round1,
    "quantum.QuantumProtocol.step1_filter": _step1_filter,
    "quantum.dense_oracle": _dense_oracle,
}
