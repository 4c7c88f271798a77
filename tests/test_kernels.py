"""Parity between the pure-Python kernels and the compiled extension.

When the extension is not installed, the tracked ``_fastcore.c`` is compiled
into a temporary directory and loaded from there, without entering
``sys.modules``, so the active backend stays the pure one."""

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import pytest

import qipsim._kernels
from qipsim._kernels import backends
from qipsim.gf2k import Field
from qipsim.qbf import compile_matrix, parse_qbf
from qipsim.sumcheck import build_schedule

BOTH = backends()
HAS_FAST = "fast" in BOTH
FAST_NAME = "qipsim._kernels._fastcore"


@pytest.fixture(scope="module")
def fast(tmp_path_factory):
    if HAS_FAST:
        return BOTH["fast"]
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    include = sysconfig.get_paths()["include"]
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler to build the compiled backend")
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h to build the compiled backend")
    source = Path(qipsim._kernels.__file__).with_name("_fastcore.c")
    out = tmp_path_factory.mktemp("fastcore") / (
        "_fastcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(cc + ["-shared", "-fPIC", "-O0", f"-I{include}", str(source),
                         "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location(FAST_NAME, out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(FAST_NAME, None)  # the generated init registers itself
    return module


def test_mul_parity(fast):
    pure = BOTH["pure"]
    rng = random.Random(1)
    for k in (2, 3, 8, 16, 32, 64):
        g = pure.find_modulus(k)
        for _ in range(500):
            a = rng.getrandbits(k)
            b = rng.getrandbits(k)
            assert pure.gf_mul(a, b, g, k) == fast.gf_mul(a, b, g, k)


def test_inv_parity(fast):
    # pure uses the extended Euclidean algorithm, fast exponentiates;
    # both must land on the same inverse
    pure = BOTH["pure"]
    rng = random.Random(2)
    for k in (2, 4, 8, 16, 32, 64):
        g = pure.find_modulus(k)
        for _ in range(200):
            a = rng.getrandbits(k) or 1
            ia = pure.gf_inv(a, g, k)
            assert ia == fast.gf_inv(a, g, k)
            assert pure.gf_mul(a, ia, g, k) == 1


def test_poly_parity(fast):
    pure = BOTH["pure"]
    rng = random.Random(3)
    for k in (2, 8, 16):
        g = pure.find_modulus(k)
        for deg in (0, 1, 2, 3, 6):
            if deg + 1 > (1 << k):
                continue  # not enough field points for these nodes
            coeffs = [rng.getrandbits(k) for _ in range(deg + 1)]
            xs = list(range(deg + 1))
            ys = [pure.poly_eval(coeffs, x, g, k) for x in xs]
            assert ys == [fast.poly_eval(coeffs, x, g, k) for x in xs]
            assert list(pure.interpolate(xs, ys, g, k)) == list(
                fast.interpolate(xs, ys, g, k)
            )


def test_formula_kernels_parity(fast):
    pure = BOTH["pure"]
    q = parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)")
    sched = build_schedule(q)
    prog = compile_matrix(q.matrix)
    kinds, tvars = sched.kind_codes(), sched.var_codes()
    rng = random.Random(4)
    for k in (2, 3):
        g = pure.find_modulus(k)
        for _ in range(50):
            assign = [rng.getrandbits(k) for _ in range(q.n)]
            assert pure.eval_formula(prog, assign, g, k) == fast.eval_formula(
                prog, assign, g, k
            )
            for j in range(sched.n_rounds + 1):
                a = pure.quantified_value(kinds, tvars, j, prog, list(assign), g, k)
                b = fast.quantified_value(kinds, tvars, j, prog, list(assign), g, k)
                assert a == b


def test_sweep_parity(fast):
    pure = BOTH["pure"]
    for text in ("E x1 : x1", "A x1 : x1", "A x1 : (x1 | ~x1)"):
        q = parse_qbf(text)
        sched = build_schedule(q)
        prog = compile_matrix(q.matrix)
        args = (sched.kind_codes(), sched.var_codes(), sched.degree_bounds,
                prog, q.n)
        for k in (2, 3):
            g = pure.find_modulus(k)
            assert pure.honest_sweep(*args, g, k) == fast.honest_sweep(*args, g, k)


def test_fast_sweep_width_guard(fast):
    q = parse_qbf("E x1 : x1")
    sched = build_schedule(q)
    prog = compile_matrix(q.matrix)
    with pytest.raises(ValueError):
        fast.honest_sweep(sched.kind_codes(), sched.var_codes(),
                          sched.degree_bounds, prog, q.n,
                          BOTH["pure"].find_modulus(32), 32)


def _spawn(env_value):
    env = dict(os.environ)
    if env_value is None:
        env.pop("QIPSIM_KERNELS", None)
    else:
        env["QIPSIM_KERNELS"] = env_value
    return subprocess.run(
        [sys.executable, "-c", "import qipsim; print(qipsim.backend_name)"],
        capture_output=True, text=True, env=env,
    )


def test_backend_env_selection():
    out = _spawn("pure")
    assert out.returncode == 0 and out.stdout.strip() == "pure"
    if HAS_FAST:
        out = _spawn("fast")
        assert out.returncode == 0 and out.stdout.strip() == "fast"
    out = _spawn("bogus")
    assert out.returncode != 0


def test_field_backend_injection():
    pure = BOTH["pure"]
    f = Field(4, backend=pure)
    assert f.ops is pure
    assert f.mul(3, 7) == pure.gf_mul(3, 7, f.g, 4)


def test_combine_multiplies_through_active_backend(monkeypatch):
    # a backend set as ``active`` after import (a counting proxy, say) sees
    # every multiply of the verifier's round rule
    pure = BOTH["pure"]
    calls = []

    def counting_mul(a, b, g, k):
        calls.append((a, b))
        return pure.gf_mul(a, b, g, k)

    monkeypatch.setattr(qipsim._kernels, "active", SimpleNamespace(gf_mul=counting_mul))
    f = Field(3)
    for kind, muls in ((pure.K_FORALL, 1), (pure.K_EXISTS, 1), (pure.K_REDUCE, 2)):
        calls.clear()
        got = qipsim._kernels.combine(kind, 5, 3, 6, f.g, f.k)
        assert got == pure.combine(kind, 5, 3, 6, f.g, f.k)
        assert len(calls) == muls
