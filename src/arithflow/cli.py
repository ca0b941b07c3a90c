"""Batch verification command line.

Subcommands run the library's check suites deterministically and write a
single JSON report.  Exit codes: 0 all pass, 1 a check failed, 2 bad
usage/config, 3 internal error.  Per-check RNG seeds are derived from the
master seed and the check id by SHA-256, so enabling or reordering checks
does not change any individual sample set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from collections import namedtuple
from contextlib import contextmanager, nullcontext
from copy import copy

from . import __version__
from .padic import TruncatedPadic, delta_base, teichmuller, _is_prime
from .poly import MultiPoly, Chart, ZZ, Zp, SphereNF, parse_poly, ParseError
from .forms import DiffForm, FiberFrame
from .flows import (ArithmeticFlow, PoissonStructure, check_prime_integral,
                    is_symplectic_hamiltonian, isospectrality_defect)
from . import euler as eu
from . import lax as lx
from . import jets


class ConfigError(ValueError):
    pass


def check_rng(master_seed, check_id):
    h = hashlib.sha256(("%d:%s" % (master_seed, check_id)).encode()).hexdigest()
    return random.Random(int(h[:16], 16))


# ---------------------------------------------------------------------------
# individual checks; each returns (status, witness-or-None)

def _check_padic(cfg, rng):
    for p in cfg.primes:
        N = cfg.prec + 1
        for _ in range(max(cfg.samples, 20)):
            av = rng.randrange(p ** N)
            bv = rng.randrange(p ** N)
            a = TruncatedPadic(p, N, av)
            b = TruncatedPadic(p, N, bv)
            lhs = delta_base(a * b)
            rhs = (a.frobenius() * delta_base(b) + b.frobenius() * delta_base(a)
                   + delta_base(a) * delta_base(b) * p)
            if not lhs == rhs:
                return "fail", "product rule at p=%d a=%d b=%d" % (p, av, bv)
            t = teichmuller(p, av % p, N)
            if not t.frobenius() == t:
                return "fail", "teichmuller not fixed at p=%d r=%d" % (p, av % p)
    return "pass", None


def _check_classical(cfg, rng):
    chart = Chart(("x1", "x2", "x3"), (), ZZ())
    a = tuple(MultiPoly.var(n) for n in ("a1", "a2", "a3"))
    flow = eu.classical_euler_flow(chart, a)
    H1, H2 = eu.euler_h_polys(a)
    for H, name in ((H1, "H1"), (H2, "H2")):
        r = check_prime_integral(flow, H)
        if not r.is_zero():
            return "fail", "delta %s = %s" % (name, r)
    # symplectic side over a random F_p instance
    p = cfg.primes[0]
    gf = Zp(p, 1)
    av = _distinct_triple(rng, p)
    c2 = gf.from_int(rng.randrange(1, p))
    schart = Chart(("x1", "x2", "x3"), tuple(
        MultiPoly.var(n, gf.from_int(1)) for n in ("x1", "x2", "x3")), gf)
    ab = tuple(gf.from_int(v) for v in av)
    sflow = eu.classical_euler_flow(schart, ab)
    frame = FiberFrame(schart, ab)
    eta3 = DiffForm(schart, 2, {(0, 1): schart.one().div_factor(2)})
    if not is_symplectic_hamiltonian(sflow, eta3, frame, SphereNF(schart, c2)):
        return "fail", "Lie derivative of the area form does not restrict to 0"
    return "pass", None


def _distinct_triple(rng, p):
    while True:
        av = [rng.randrange(p) for _ in range(3)]
        if len({v % p for v in av}) == 3:
            return av


def _check_poisson(cfg, rng):
    p = cfg.primes[0]
    gf = Zp(p, 1)
    chart = Chart(("x1", "x2", "x3"), (), gf)
    struct = PoissonStructure.lie_poisson(chart, {
        ("x1", "x2"): {"x3": 1}, ("x2", "x3"): {"x1": 1},
        ("x3", "x1"): {"x2": 1}})
    x = [chart.var(n) for n in ("x1", "x2", "x3")]
    d = struct.jacobi_defect(x[0], x[1], x[2])
    if not d.is_zero():
        return "fail", "Jacobi defect %s" % d
    _, H2 = eu.euler_h_polys((gf.from_int(1),) * 3, gf.from_int(1))
    for xi in x:
        r = struct.bracket(chart.elem(H2), xi)
        if not r.is_zero():
            return "fail", "H2 is not a Casimir: %s" % r
    return "pass", None


def _check_lax_classical(cfg, rng):
    n = 2
    names = ["x%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    chart = Chart(tuple(names), (), ZZ())
    M = [[chart.elem(MultiPoly.var("m%d%d" % (i + 1, j + 1)))
          for j in range(n)] for i in range(n)]
    for j in range(1, n + 1):
        r = isospectrality_defect(chart, M, n, j)
        if not r.is_zero():
            return "fail", "delta P_%d = %s" % (j, r)
    return "pass", None


def _check_euler(cfg, rng):
    for p in cfg.primes:
        av = cfg.a if cfg.a is not None else _distinct_triple(rng, p)
        sysm = eu.EulerSystem(p, cfg.prec, av)
        flow = eu.gauge_adjust(eu.build_flow(sysm), sysm)
        if cfg.perturb:
            x3img = flow.images["x3"] + sysm.chart.var("x3")
            flow = ArithmeticFlow(sysm.chart, dict(flow.images, x3=x3img))
            r = check_prime_integral(flow, sysm.H1)
            if not r.is_zero():
                return "fail", "p=%d perturbed flow: phi(H1) - H1^p = %s" % (
                    p, _witness(r))
        # every admissible fiber, or the one asked for: each is a cheap
        # specialisation of the flow's symbolic fiber normal forms
        cs = [cfg.c] if cfg.c is not None else eu.admissible_fibers(sysm)
        bad = []
        for r1, r2 in cs:
            fiber = eu.AdmissibleFiber(sysm, r1, r2)
            c = (fiber.c1.val % p, fiber.c2.val % p)
            _, ap = eu.count_points_and_ap(p, av, c)
            for label, r in (
                    ("", eu.verify_linearization(flow, sysm, fiber)),
                    (" trace form", eu.derive_new2_form(
                        flow, sysm, fiber, coef=sysm.ring.from_int(ap)))):
                if not r.is_zero():
                    bad.append("p=%d c=(%d,%d)%s: %s" % (p, *c, label, _witness(r)))
            if bad:
                break
        # one residual on the whole chart covers every sphere H2 = c2 with an
        # admissible fiber; at p = 3 there is none, a precondition error
        if not eu.admissible_fibers(sysm, need_c2_unit=True):
            raise eu.NoAdmissibleFiber(
                "no admissible fiber with c2 a unit at p=%d" % p)
        r, _ = eu.sphere_residual(flow, sysm)
        if not r.is_zero():
            bad.append("p=%d sphere form: %s" % (p, _witness(r)))
        if bad:
            return "fail", "; ".join(bad)
    return "pass", None


def _witness(r):
    """str(r), cut to its first 200 characters."""
    text = str(r)
    return text if len(text) <= 200 else text[:200] + "..."


_AP_PRIMES = [q for q in range(3, 102) if _is_prime(q)]


def _check_ap(cfg, rng):
    done = 0
    while done < max(cfg.samples, 20):
        p = rng.choice(_AP_PRIMES)
        av = _distinct_triple(rng, p)
        c = (rng.randrange(p), rng.randrange(p))
        try:
            count, ap = eu.count_points_and_ap(p, av, c)
        except ValueError:
            continue
        hv = eu.hasse_value(p, av, c)
        if (ap - hv) % p != 0:
            return "fail", "p=%d a=%s c=%s: a_p=%d vs A=%d" % (p, av, c, ap, hv)
        if ap * ap > 4 * p:
            return "fail", "p=%d a=%s c=%s: |a_p|=%d beats the bound" % (
                p, av, c, abs(ap))
        done += 1
    return "pass", None


def _rand_pmatrix(rng, n, p, prec):
    return lx.PMatrix([[TruncatedPadic(p, prec, rng.randrange(p ** prec))
                        for _ in range(n)] for _ in range(n)])


def _check_lax(cfg, rng):
    for p in cfg.primes[:2]:
        for n in (2, 3):
            done = 0
            while done < max(cfg.samples, 10):
                ts = rng.sample(range(p), n)
                h = lx.PMatrix.diagonal(
                    [TruncatedPadic(p, cfg.prec,
                                    t + p * rng.randrange(p ** (cfg.prec - 1)))
                     for t in ts])
                g = _rand_pmatrix(rng, n, p, cfg.prec)
                if not g.det().is_unit():
                    continue
                x = lx.conj(h, g)
                lhs = lx.frobenius_star(x)
                rhs = lx.conj(lx.phi0_entrywise(h), lx.phi0_entrywise(g))
                if not lhs == rhs:
                    return "fail", "eigenvalue-lift diagram at p=%d n=%d" % (p, n)
                y = lx.frobenius_star_star(x, rng)
                P = lx.char_poly(x)
                Py = lx.char_poly(y)
                if not all(Py[j] == P[j].frobenius() for j in range(n)):
                    return "fail", "char-poly-lift diagram at p=%d n=%d" % (p, n)
                done += 1
    return "pass", None


def _check_spectrum(cfg, rng):
    p, n = cfg.primes[0], 2
    done = 0
    while done < max(cfg.samples, 10):
        ts = rng.sample(range(1, p), n)
        h = lx.PMatrix.diagonal([teichmuller(p, t, cfg.prec) for t in ts])
        g = _rand_pmatrix(rng, n, p, cfg.prec).map_entries(
            lambda e: teichmuller(p, e.val % p, cfg.prec))
        if not g.det().is_unit():
            continue
        try:
            teichmuller_spectrum = lx.spectrum_delta_constant_check(lx.conj(h, g))
        except lx.NotFixedError:
            return "fail", "constructed matrix is not a fixed point"
        if not teichmuller_spectrum:
            return "fail", "fixed point with non-Teichmuller spectrum"
        done += 1
    return "pass", None


CHECK_FUNCS = {
    "padic": _check_padic,
    "classical": _check_classical,
    "poisson": _check_poisson,
    "lax_classical": _check_lax_classical,
    "euler": _check_euler,
    "ap": _check_ap,
    "lax": _check_lax,
    "spectrum": _check_spectrum,
}
ALL_CHECKS = tuple(CHECK_FUNCS)


# ---------------------------------------------------------------------------
# run options: each is one row of _OPTIONS, which the config file, the flags,
# RunConfig and the report's config all read.  A parser takes the option's
# text and raises ConfigError on a bad value.

def _primes(val):
    primes = sorted({int(v) for v in val.split(",") if v.strip()})
    if not primes:
        raise ConfigError("p needs at least one prime")
    try:
        return [Zp(p, 1).p for p in primes]
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _prec(val):
    if int(val) < 1:
        raise ConfigError("prec must be >= 1")
    return int(val)


def _entries(count, message):
    def parse(val):
        vals = [int(v) for v in val.split(",")]
        if len(vals) != count:
            raise ConfigError(message)
        return vals
    return parse


def _checks(val):
    names = [v.strip() for v in val.split(",") if v.strip()]
    if not names:
        raise ConfigError("checks needs at least one check")
    for n in names:
        if n not in ALL_CHECKS:
            raise ConfigError("unknown check %r" % n)
    return sorted(set(names), key=ALL_CHECKS.index)


# attr: the RunConfig attribute; parse: option text -> value; type: the
# flag's, where bool makes a switch; reported: in the report's config
_Option = namedtuple("_Option", "attr default parse type help reported")

# keyed by the config key and flag name; flags are applied in this order
_OPTIONS = {
    "p": _Option("primes", [5, 7, 13], _primes, str,
                 "comma-separated odd primes", True),
    "prec": _Option("prec", 3, _prec, int, "working precision (digits)", True),
    "a": _Option("a", None, _entries(3, "a needs three entries"), str,
                 "Euler parameters a1,a2,a3", True),
    "c": _Option("c", None, _entries(2, "c needs two entries"), str,
                 "fiber point c1,c2", True),
    "samples": _Option("samples", 10, int, int, (
        "draws per sampled check, with a floor: padic and ap draw at least "
        "20, lax and spectrum at least 10; the other checks ignore it (euler "
        "checks every admissible fiber and every sphere at once)"), True),
    "seed": _Option("seed", 0, int, int, "master RNG seed", True),
    "out": _Option("out", None, str, str, "write the JSON report here", False),
    "checks": _Option("checks", list(ALL_CHECKS), _checks, str,
                      "comma-separated check subset", True),
    "perturb": _Option("perturb", False, lambda v: v.lower() in ("1", "true", "yes"),
                       bool, "perturb the flow to demonstrate a failing report", True),
}


class RunConfig:
    """One attribute per option, at its default (a and c: None, sampled)."""

    def __init__(self):
        for opt in _OPTIONS.values():
            setattr(self, opt.attr, copy(opt.default))

    def to_dict(self):
        return {k: getattr(self, o.attr) for k, o in _OPTIONS.items() if o.reported}


def parse_config(text):
    """key=value lines; '#' starts a comment."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value" % lineno)
        key, val = [s.strip() for s in line.split("=", 1)]
        _apply_option(cfg, key, val)
    return cfg


def _apply_option(cfg, key, val):
    if key not in _OPTIONS:
        raise ConfigError("unknown key %r" % key)
    setattr(cfg, _OPTIONS[key].attr, _OPTIONS[key].parse(str(val)))


# suite subcommands: help text and the checks each runs; selftest runs the
# configured checks
SUITES = {
    "selftest": ("run every check suite", None),
    "euler": ("arithmetic Euler flow checks", ("euler",)),
    "lax": ("arithmetic Lax checks", ("lax", "spectrum")),
    "classical": ("classical flow checks",
                  ("classical", "poisson", "lax_classical")),
}


def run(cfg):
    checks = []
    for cid in cfg.checks:
        rng = check_rng(cfg.seed, cid)
        t0 = time.time()
        try:
            status, witness = CHECK_FUNCS[cid](cfg, rng)
        except eu.PreconditionError:
            raise  # bad input, not a failure of the check
        except Exception as e:  # internal failure, reported as such
            raise RuntimeError("internal error in check %r: %s" % (cid, e)) from e
        rec = {"check": cid, "params": {"p": cfg.primes, "prec": cfg.prec},
               "status": status, "elapsed": round(time.time() - t0, 3)}
        if witness:
            rec["residual"] = witness
        checks.append(rec)
    summary = {s: sum(c["status"] == s for c in checks)
               for s in ("pass", "fail", "skip")}
    return {"version": __version__, "config": cfg.to_dict(),
            "checks": checks, "summary": summary}


@contextmanager
def _file_errors():
    """An OSError of --config, --out or stdout is a usage error."""
    try:
        yield
    except OSError as e:
        raise ConfigError(str(e)) from None


def _print(text):
    """print(text), flushed; a stdout closed early drops the rest quietly."""
    with _file_errors():
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # a reader such as `| head -1` is gone: the command keeps its own
            # exit code, print to a None stdout does nothing, and the flush at
            # exit skips it
            sys.stdout = None


def _emit(report, out):
    """Write the report to the open file out (or None) and to stdout."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with _file_errors():
            out.write(text + "\n")
            out.flush()
    _print(text)
    for c in report["checks"]:
        print("%-14s %s" % (c["check"], c["status"].upper()), file=sys.stderr)
    return 1 if report["summary"]["fail"] else 0


def _build_config(args):
    """The config file's options, overridden by each flag that is not None."""
    cfg = RunConfig()
    if args.config:
        with _file_errors(), open(args.config) as fh:
            cfg = parse_config(fh.read())
    for key in _OPTIONS:
        val = getattr(args, key, None)
        if val is not None:
            _apply_option(cfg, key, val)
    return cfg


# the largest values that each subject of an error message takes, where the
# time grows steeply with them (2-core Xeon, CPython 3.11.7; check time in one
# process for the checks, the whole command otherwise).
# - the euler check: flow construction; --p 41 --prec 2 and --p 5 --prec 12
#   ran past 20 s.  With the packed polynomial storage, at the caps it took
#   0.45-0.78 s at p = 17 over seeds 1-4 and 1.1-1.2 s with --p 5,7,11,13,17
#   (seed 1); one step past, 0.63-0.69 s at p = 19 alone and 1.6-2.0 s with
#   --p 5,7,11,13 --prec 4.  The caps are kept until the construction's reach
#   is measured as a workload of its own.
# - the lax and spectrum checks: linear in p and steep in prec.  With the
#   matrices held as int residues of one ring, together they took 0.44-0.65 s
#   at the caps at p = 1009 and 0.67-0.96 s with --p 997,1009 (seeds 1-4;
#   0.75-0.97 s for the whole lax verify command), against 0.82-1.31 s and
#   1.38-1.73 s with an object per entry on the same machine.  With one eigen
#   split per spectrum draw instead of three, re-measured on a busier machine:
#   0.52-0.53 s at p = 1009 and 0.88-0.89 s with --p 997,1009 (0.81-0.96 s
#   for the command), against 0.58-0.77 s and 0.86-1.22 s (1.26-1.27 s) with
#   three; the spectrum check alone went 0.30-0.43 -> 0.17-0.18 s at p = 1009.
#   Past the caps they took 0.55-0.67 s at p = 2003, 0.37-0.46 s at prec 100
#   (p = 5, 7, 13), 0.40 s at p = 10007 (prec 3) and 5.5 s at p = 5, prec 400.
# - samples, in the four checks that draw: the time is linear in the draws,
#   max(samples, floor).  At the other caps (prec 50, seeds 1-4) lax took
#   0.74-0.90 s at 30 draws at p = 1009, 1.64-1.72 s with --p 997,1009 and
#   3.0-3.2 s at 60 draws there; spectrum 1.3-1.6 s at 100 draws and 3.0-3.3 s
#   at 200; padic 0.03 s at 30 draws at p = 1009 alone, 3.4-3.8 s with all 168
#   odd primes up to 1009 (2.4-2.9 s at its floor of 20); ap, which draws its
#   own p < 102, 1.4-1.7 s at 2000 draws and 2.9-3.2 s at 4000.  Without a
#   cap, --samples 1000000000 ran until stopped.
# - the padic check: every prime at prec + 1 digits; --prec 3000 took 16 s at
#   p = 5.  At the caps it took 3.1 s with all 168 odd primes up to 1009, and
#   14.3 s at prec 100; with the Teichmuller lift as one modular power,
#   1.7-2.5 s and 10.8 s.
# - hasse and ap: at these caps hasse (a = 1,2,4) took 1.0 s and ap 1.3 s.
# - arithmetic jet prolong: each order raises the previous relation to the
#   p-th power (--f x^2).  At the caps it took 1.6-1.8 s at p = 17, order 3;
#   one step past, 3.2 s at p = 19, 6.7 s at p = 5, order 4, and past 30 s at
#   p = 7, order 4; order 5 at p = 3 and order 3 at p = 1009 ran past 30 s.
#   The time grows steeply with the relation too, which the caps do not
#   bound: x^3+y^2+x*y took 4.8 s at p = 3, order 3, and ran past 30 s at
#   p = 5, order 3.
# - classical jet prolong: the relation chain grows polynomially with the
#   order.  At the cap, --f x^2 took 0.2 s and x^3+y^2+x*y 1.6-1.7 s, which
#   prints 4 MB; one step past, order 120, x^3+y^2+x*y took 3.2 s, and in
#   one process order 150 took 9.3 s and x^2 at order 400 4.8 s.
_CAPS = {"the euler check": {"p": 17, "prec": 3},
         "the lax check": {"p": 1009, "prec": 50, "samples": 30},
         "the spectrum check": {"p": 1009, "prec": 50, "samples": 100},
         "the padic check": {"p": 1009, "prec": 50, "samples": 30},
         "the ap check": {"samples": 2000},
         "hasse": {"p": 101},
         "ap": {"p": 2003},
         "arithmetic jet prolong": {"p": 17, "order": 3},
         "classical jet prolong": {"order": 100}}


def _check_caps(what, **values):
    """Raise ConfigError for the first given value above its cap in
    _CAPS[what]; a subject without caps, or a value None, passes."""
    for key, cap in _CAPS.get(what, {}).items():
        if values[key] is not None and values[key] > cap:
            raise ConfigError("%s takes %s <= %d, got %d"
                              % (what, key, cap, values[key]))


def _one_prime(val):
    """The single odd prime of a --p value, checked like the config option."""
    primes = _OPTIONS["p"].parse(val)
    if len(primes) != 1:
        raise ConfigError("p needs one prime")
    return primes[0]


def _curve_args(args):
    """(p, a, c) of hasse and ap, parsed like the options; hasse has c None."""
    p, a = _one_prime(args.p), _OPTIONS["a"].parse(args.a)
    c = _OPTIONS["c"].parse(args.c) if args.command == "ap" else None
    _check_caps(args.command, p=p)
    # hasse expands F^{(p-1)/2} over the integers, so its time grows with the
    # size of the a_i as well; the Hasse invariant is a mod-p object, and at
    # p = 101 a = 10^30,2,4 took 11.7 s against 0.83 s for a = 1,2,4
    if args.command == "hasse" and any(abs(ai) >= p for ai in a):
        raise ConfigError("hasse takes |a_i| < p = %d" % p)
    return p, a, c


def _add_common(sp, keys):
    """The flags of the options keys: the switches, --config, then the others;
    an absent switch is None, like an absent value, so it overrides nothing."""
    switches = [key for key in keys if _OPTIONS[key].type is bool]
    for key in switches:
        sp.add_argument("--" + key, action="store_true", default=None,
                        help=_OPTIONS[key].help)
    sp.add_argument("--config", help="key=value config file")
    for key in keys:
        if key not in switches:
            sp.add_argument("--" + key, type=_OPTIONS[key].type,
                            help=_OPTIONS[key].help)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="arithflow",
        description="exact verification of classical and p-adic flows")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, checks) in SUITES.items():
        sp = sub.add_parser(name, help=help_text)
        if checks is not None:
            sp.add_argument("mode", choices=["verify"])
        # only euler verify perturbs its flow
        _add_common(sp, [k for k in _OPTIONS if k != "perturb" or name == "euler"])

    for name, help_text, keys in (
            ("hasse", "print the Hasse invariant polynomial", "pa"),
            ("ap", "point count and trace congruence", "pac")):
        sp = sub.add_parser(name, help=help_text)
        for key in keys:
            sp.add_argument("--" + key, required=True)

    sp = sub.add_parser("jet", help="jet prolongation")
    sp.add_argument("mode", choices=["prolong"])
    sp.add_argument("--f", required=True, help="relation polynomial")
    sp.add_argument("--order", type=int, default=1)
    sp.add_argument("--flavor", choices=["classical", "arithmetic"],
                    default="classical")
    sp.add_argument("--p", help="prime (arithmetic flavor)")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except (ConfigError, ParseError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RuntimeError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3


def _dispatch(args):
    if args.command in SUITES:
        cfg = _build_config(args)
        # selftest (None) runs the configured checks
        cfg.checks = list(SUITES[args.command][1] or cfg.checks)
        for cid in cfg.checks:
            _check_caps("the %s check" % cid, p=max(cfg.primes), prec=cfg.prec,
                        samples=cfg.samples)
        # the report file is opened before the checks run, so a path that
        # cannot be written fails at once
        with _file_errors():
            out = open(cfg.out, "w") if cfg.out else nullcontext()
        with out as fh:
            return _emit(run(cfg), fh)
    if args.command == "hasse":
        p, a, _ = _curve_args(args)
        _print(eu.hasse_invariant(p, a))
        return 0
    if args.command == "ap":
        p, a, c = _curve_args(args)
        count, ap = eu.count_points_and_ap(p, a, c)
        hv = eu.hasse_value(p, a, c)
        out = {"p": p, "a": a, "c": c, "count": count, "a_p": ap,
               "hasse": hv, "congruent": (ap - hv) % p == 0}
        _print(json.dumps(out, sort_keys=True))
        return 0 if out["congruent"] else 1
    if args.command == "jet":
        if args.order < 0:
            raise ConfigError("order must be >= 0, got %d" % args.order)
        p = _one_prime(args.p) if args.p is not None else None
        _check_caps("%s jet prolong" % args.flavor, p=p, order=args.order)
        f = parse_poly(args.f)
        pres = jets.prolong(f, args.order, args.flavor, p)
        for k, rel in enumerate(pres.relations):
            _print("delta^%d: %s" % (k, rel))
        return 0
    raise ConfigError("unknown command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
