"""Tests of the benchmark itself: every checker rejects a wrong answer, the
smoke size of each workload runs clean, and the traced run's exact counts
repeat.  Run with `python3 -m pytest bench/test_bench.py` from the repo root.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from arithflow import euler, lax, poly  # noqa: E402
from arithflow.flows import ArithmeticFlow  # noqa: E402
from arithflow.padic import TruncatedPadic  # noqa: E402

BENCHMARK = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
EXACT = ("poly.mul_calls", "poly.mul_term_pairs", "poly.nf_calls",
         "poly.nf_input_terms", "euler.image_terms", "euler.image_den_max",
         "padic.mul_calls")


def _run(*args, env=None, cwd=None, script=run.BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, env=env, cwd=cwd)
    return proc


def _result(workload, trace, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke", env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_construct_point_check_rejects_perturbed_flow():
    wl = workloads.Construct(1, smoke=True)
    s = wl.setup()[0]
    flow = euler.gauge_adjust(euler.build_flow(s), s)
    assert wl.check_points(0, flow) is None
    # the perturbation of `arithflow euler verify --perturb`
    bad = ArithmeticFlow(s.chart, dict(flow.images,
                                       x3=flow.images["x3"] + s.chart.var("x3")))
    assert wl.check_points(0, bad) is not None


def test_fibre_point_check_rejects_wrong_coefficient():
    wl = workloads.Fibres(1, smoke=True)
    s, flow, _, _ = wl.setup()[0]
    p, _, a, fibres, _ = wl.inputs[0]
    h = euler.pullback_coefficient(flow, s)[0]
    terms = [(dict(k), c.val) for k, c in h.num.terms.items()]
    c = next(c for c in fibres if checks.fibre_points(p, a, c))
    ac = checks.hasse_mod_p(p, a, *c)
    assert checks.linearization_holds(p, a, c, terms, h.den, ac)
    assert checks.linearization_holds(p, a, c, terms, h.den, ac + 1) is None


def test_lax_check_rejects_a_changed_entry():
    wl = workloads.Lax(1, smoke=True)
    state = wl.setup()
    for i in (0, len(state) - 1):
        x, alpha = state[i]
        out = workloads._lifts(x, alpha, i)
        assert wl.check(i, out) is None
        for which in range(3):
            for step in (1, x.p):
                rows = [list(r) for r in out[which].rows]
                rows[0][0] = rows[0][0] + step
                changed = list(out)
                changed[which] = lax.PMatrix(rows)
                assert wl.check(i, tuple(changed)) is not None


def test_independent_formulas_agree_with_the_library():
    rng = random.Random(0)
    for p in (5, 7, 11, 13):
        a = rng.sample(range(p), 3)
        for _ in range(20):
            c = (rng.randrange(p), rng.randrange(p))
            assert checks.hasse_mod_p(p, a, *c) == euler.hasse_value(p, a, c) % p
        for n in (2, 3, 4):
            m = p ** 3
            A = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
            P = lax.char_poly(lax.PMatrix([[TruncatedPadic(p, 3, v) for v in r] for r in A]))
            assert checks.char_poly(A, m) == [e.val for e in P]


def test_tracer_restores_the_library():
    before = {(cls, attr): cls.__dict__.get(attr)
              for _, cls, attrs, _ in tracing._METHODS + (tracing._PADIC,) for attr in attrs}
    t = tracing.Tracer(count_padic=True)
    t.install()
    assert euler.build_flow is not tracing._FUNCTIONS[2][1]
    t.uninstall()
    after = {key: key[0].__dict__.get(key[1]) for key in before}
    assert before == after
    assert euler.build_flow is tracing._FUNCTIONS[2][1]
    assert "nf_poly" not in poly.FiberNF.__dict__


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_is_clean(workload):
    res = _result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_counts_repeat(workload):
    first, second = _result(workload, 1, "1"), _result(workload, 1, "2")
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_library(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run("--workload", "lax", "--seed", "1", "--seconds", "1", "--trace", "0",
                env=env, cwd=tmp_path, script=Path("bench") / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
