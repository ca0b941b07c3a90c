"""Command line: config parsing, determinism, exit codes, reports."""

import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from arithflow import cli, euler as eu


def test_parse_config_basic():
    cfg = cli.parse_config("p = 5, 7\nprec=3\nchecks = euler , lax\n")
    assert cfg.primes == [5, 7]
    assert cfg.prec == 3
    assert cfg.checks == ["euler", "lax"]


def test_parse_config_comments_and_blanks():
    cfg = cli.parse_config("# header\n\nseed = 42  # trailing\nsamples=5\n")
    assert cfg.seed == 42
    assert cfg.samples == 5


def test_parse_config_rejects_bad_input():
    with pytest.raises(cli.ConfigError):
        cli.parse_config("p=2")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("p=9")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("no equals sign")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("checks=bogus")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("wat=1")
    with pytest.raises(cli.ConfigError):
        cli.parse_config("a=1,2")


def test_checks_are_normalized_in_canonical_order():
    cfg = cli.parse_config("checks=lax,euler,padic,euler")
    assert cfg.checks == ["padic", "euler", "lax"]


def test_check_rng_is_stable_per_check():
    r1 = cli.check_rng(0, "padic")
    r2 = cli.check_rng(0, "padic")
    assert [r1.randrange(10 ** 9) for _ in range(5)] == \
        [r2.randrange(10 ** 9) for _ in range(5)]
    # different check id gives an independent stream
    r3 = cli.check_rng(0, "euler")
    assert [cli.check_rng(0, "padic").randrange(10 ** 9) for _ in range(1)] != \
        [r3.randrange(10 ** 9) for _ in range(1)]


def _small_cfg(checks):
    cfg = cli.RunConfig()
    cfg.primes = [5]
    cfg.prec = 2
    cfg.samples = 3
    cfg.seed = 7
    cfg.checks = checks
    return cfg


def test_run_report_shape_and_determinism():
    r1 = cli.run(_small_cfg(["padic", "poisson"]))
    r2 = cli.run(_small_cfg(["padic", "poisson"]))
    assert r1["summary"] == {"pass": 2, "fail": 0, "skip": 0}
    for c in r1["checks"]:
        assert c["status"] == "pass"
        assert "elapsed" in c
    strip = lambda r: [{k: v for k, v in c.items() if k != "elapsed"}
                       for c in r["checks"]]
    assert strip(r1) == strip(r2)
    assert r1["config"] == r2["config"]


def test_run_subset_unaffected_by_other_checks():
    # the padic record is identical whether or not other checks run
    full = cli.run(_small_cfg(["padic", "poisson", "lax_classical"]))
    solo = cli.run(_small_cfg(["padic"]))
    pick = lambda r: [{k: v for k, v in c.items() if k != "elapsed"}
                      for c in r["checks"] if c["check"] == "padic"]
    assert pick(full) == pick(solo)


def test_main_selftest_exit_zero(capsys, tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["selftest", "--p", "5", "--prec", "2", "--samples", "3",
                   "--seed", "1", "--checks", "padic,poisson,lax_classical",
                   "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout) == report


def test_main_euler_perturb_exit_one(capsys):
    rc = cli.main(["euler", "verify", "--p", "5", "--prec", "2",
                   "--samples", "2", "--perturb"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["fail"] == 1
    assert "residual" in report["checks"][0]


def test_main_bad_usage_exit_two(capsys):
    assert cli.main(["selftest", "--p", "4"]) == 2
    assert cli.main(["selftest", "--checks", "nope"]) == 2
    assert cli.main([]) == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("p=5\nprec=3\nchecks=padic\nsamples=3\nseed=9\n")
    rc = cli.main(["selftest", "--config", str(cfile), "--prec", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["prec"] == 2
    assert report["config"]["p"] == [5]
    # a flag of 0 is a value too: it overrides the file, or is refused
    assert cli.main(["selftest", "--config", str(cfile), "--seed", "0",
                     "--samples", "0"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["seed"], config["samples"], config["prec"]) == (0, 0, 3)
    assert cli.main(["selftest", "--config", str(cfile), "--prec", "0"]) == 2
    assert _one_line_error(capsys) == "error: prec must be >= 1\n"


def test_file_errors_exit_two_before_any_check(tmp_path, monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run", no_run)
    for argv in (["selftest", "--config", str(tmp_path / "missing.cfg")],
                 ["selftest", "--checks", "padic", "--p", "5",
                  "--out", str(tmp_path / "missing" / "r.json")]):
        assert cli.main(argv) == 2
        assert "No such file or directory" in _one_line_error(capsys)
        assert capsys.readouterr().out == ""


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as after `| head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_keeps_the_exit_code(monkeypatch, capsys):
    for argv, code in ((["selftest", "--checks", "padic", "--p", "5"], 0),
                       (["euler", "verify", "--p", "5", "--prec", "2",
                         "--samples", "2", "--perturb"], 1),
                       (["jet", "prolong", "--f", "x^2", "--order", "3"], 0)):
        monkeypatch.setattr(cli.sys, "stdout", ClosedStdout())
        assert cli.main(argv) == code
        assert "error" not in capsys.readouterr().err


def test_spectrum_check_splits_each_draw_once(monkeypatch, capsys):
    calls = []
    split = cli.lx.eigen_split

    def spy(x):
        calls.append(x)
        return split(x)

    monkeypatch.setattr(cli.lx, "eigen_split", spy)
    assert cli.main(["selftest", "--checks", "spectrum", "--seed", "1"]) == 0
    assert len(calls) == 10


def test_hasse_subcommand(capsys):
    assert cli.main(["hasse", "--p", "3", "--a", "0,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "3*z1 - 2*z2"
    assert cli.main(["hasse", "--p", "4", "--a", "0,1,2"]) == 2


def test_ap_subcommand(capsys):
    rc = cli.main(["ap", "--p", "13", "--a", "1,2,3", "--c", "5,1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["congruent"] is True
    assert (out["a_p"] - out["hasse"]) % 13 == 0
    # degenerate quartic rejected as a usage error
    assert cli.main(["ap", "--p", "7", "--a", "1,2,3", "--c", "2,1"]) == 2


def test_jet_subcommand(capsys):
    rc = cli.main(["jet", "prolong", "--f", "x^2", "--order", "1",
                   "--flavor", "arithmetic", "--p", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta^0: x^2"
    assert lines[1] == "delta^1: 2*x^3*x' + 3*x'^2"


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_euler_without_admissible_sphere_fiber_exit_two(capsys):
    t0 = time.time()
    assert cli.main(["euler", "verify", "--p", "3", "--prec", "2"]) == 2
    assert time.time() - t0 < 5
    assert "no admissible fiber" in _one_line_error(capsys)


def test_euler_inadmissible_fiber_exit_two(capsys):
    # c = (0, 0): N(c) = 0
    assert cli.main(["euler", "verify", "--p", "5", "--prec", "2",
                     "--c", "0,0"]) == 2
    assert "inadmissible fiber" in _one_line_error(capsys)


def test_euler_precision_one_exit_two(capsys):
    assert cli.main(["euler", "verify", "--p", "5", "--prec", "1"]) == 2
    assert "prec must be >= 2" in _one_line_error(capsys)


def test_ap_rejects_nonprime_exit_two(capsys):
    assert cli.main(["ap", "--p", "9", "--a", "1,2,4", "--c", "1,2"]) == 2
    assert "odd prime" in _one_line_error(capsys)


def test_ap_and_hasse_check_a_alike(capsys):
    assert cli.main(["ap", "--p", "7", "--a", "1,2", "--c", "1,2"]) == 2
    assert _one_line_error(capsys) == "error: a needs three entries\n"
    assert cli.main(["hasse", "--p", "7", "--a", "1,2"]) == 2
    assert _one_line_error(capsys) == "error: a needs three entries\n"
    assert cli.main(["hasse", "--p", "9", "--a", "1,2,4"]) == 2
    assert "odd prime" in _one_line_error(capsys)


def test_euler_build_mode_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["euler", "build", "--p", "5", "--prec", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'build'" in capsys.readouterr().err


def _csv(values):
    # --a=-1,2,3: a value that starts with "-" must be joined to its flag
    return ",".join(str(v) for v in values)


# hypothesis favours the first entries of sampled_from, so the values that
# pass the argument checks come first and some draws run the whole verify
@settings(max_examples=40, deadline=None)
@given(st.sampled_from((5, 7, 3, 9, 4, 2)), st.sampled_from((2, 3, 1, 0)),
       st.lists(st.integers(-3, 8), min_size=3, max_size=3, unique=True),
       st.none() | st.lists(st.integers(-2, 8), min_size=2, max_size=2))
def test_euler_verify_ends_in_bounded_time_with_a_documented_code(p, prec, a, c):
    argv = ["euler", "verify", "--p", str(p), "--prec", str(prec),
            "--a=" + _csv(a), "--samples", "1"]
    if c is not None:
        argv.append("--c=" + _csv(c))
    out, err = io.StringIO(), io.StringIO()
    t0 = time.time()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
            usage_error = False
        except SystemExit as exc:   # argparse rejects the command line
            rc, usage_error = exc.code, True
    assert time.time() - t0 < 2.0
    assert rc in (0, 2), (argv, rc, err.getvalue())
    if rc == 2 and not usage_error:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("argv", [
    ["euler", "verify", "--p", ",", "--prec", "2"],
    ["selftest", "--p", ","],
    ["lax", "verify", "--p", ","],
    ["selftest", "--checks", ","],
])
def test_empty_list_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    assert "at least one" in _one_line_error(capsys)


@pytest.mark.parametrize("text", ["p=", "p = ,", "checks=", "checks = , "])
def test_config_file_empty_list_is_a_usage_error(text, tmp_path, capsys):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(text)
    cfile = tmp_path / "run.cfg"
    cfile.write_text(text + "\n")
    assert cli.main(["selftest", "--config", str(cfile)]) == 2
    assert "at least one" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["hasse", "--p", "211", "--a", "1,2,4"],
    ["ap", "--p", "10007", "--a", "1,2,4", "--c", "1,2"],
])
def test_hasse_and_ap_reject_p_above_their_cap(argv, capsys):
    t0 = time.time()
    assert cli.main(argv) == 2
    assert time.time() - t0 < 1.0
    assert "takes p <=" in _one_line_error(capsys)


def test_euler_fibre_witness_is_bounded(monkeypatch, capsys):
    # without the gauge step the fibre congruences fail, and each residual
    # would otherwise be printed in full (about 4 kB at p = 5)
    monkeypatch.setattr(cli.eu, "gauge_adjust", lambda flow, sys: flow)
    rc = cli.main(["euler", "verify", "--p", "5", "--prec", "2",
                   "--samples", "2", "--seed", "1"])
    assert rc == 1
    residual = json.loads(capsys.readouterr().out)["checks"][0]["residual"]
    pieces = residual.split("; ")
    assert pieces and all(len(piece) <= 240 for piece in pieces)
    assert any(piece.endswith("...") for piece in pieces)


@pytest.mark.parametrize("argv, message", [
    (["euler", "verify", "--p", "41", "--prec", "2"], "takes p <= 17"),
    (["euler", "verify", "--p", "5", "--prec", "12"], "takes prec <= 3"),
    (["hasse", "--p", "101", "--a", "1000000000000000000000000000000,2,4"],
     "takes |a_i| < p"),
    (["lax", "verify", "--p", "100003"], "the lax check takes p <= 1009"),
    (["lax", "verify", "--p", "5", "--prec", "400"],
     "the lax check takes prec <= 50"),
    (["selftest", "--checks", "spectrum", "--p", "2003"],
     "the spectrum check takes p <= 1009"),
    (["selftest", "--checks", "padic", "--prec", "100000"],
     "the padic check takes prec <= 50"),
    (["selftest", "--checks", "padic", "--samples", "1000000000"],
     "the padic check takes samples <= 30, got 1000000000"),
    (["selftest", "--checks", "ap", "--samples", "1000000000"],
     "the ap check takes samples <= 2000, got 1000000000"),
    (["lax", "verify", "--samples", "1000000000"],
     "the lax check takes samples <= 30, got 1000000000"),
    (["selftest", "--checks", "spectrum", "--samples", "1000000000"],
     "the spectrum check takes samples <= 100, got 1000000000"),
])
def test_euler_and_hasse_reject_inputs_above_their_caps(argv, message, capsys):
    t0 = time.time()
    assert cli.main(argv) == 2
    assert time.time() - t0 < 1.0
    assert message in _one_line_error(capsys)


def test_euler_checks_every_admissible_fibre(monkeypatch, capsys):
    seen = set()
    derive = cli.eu.derive_new2_form

    def spy(flow, sysm, fiber, coef=None):
        seen.add((fiber.c1.val % sysm.p, fiber.c2.val % sysm.p))
        return derive(flow, sysm, fiber, coef)

    monkeypatch.setattr(cli.eu, "derive_new2_form", spy)
    assert cli.main(["euler", "verify", "--p", "5", "--prec", "2",
                     "--a", "1,2,4"]) == 0
    assert seen == set(eu.admissible_fibers(eu.EulerSystem(5, 2, (1, 2, 4))))
    seen.clear()
    assert cli.main(["euler", "verify", "--p", "5", "--prec", "2",
                     "--a", "1,2,4", "--c", "4,3"]) == 0
    assert seen == {(4, 3)}


def test_euler_witness_names_the_first_failing_fibre(monkeypatch, capsys):
    # without the gauge step the linearization congruence fails on every
    # admissible fiber, so the first failing one is the first admissible one
    monkeypatch.setattr(cli.eu, "gauge_adjust", lambda flow, sys: flow)
    first = eu.admissible_fibers(eu.EulerSystem(5, 2, (1, 2, 4)))[0]
    for extra, c in (([], first), (["--c", "4,3"], (4, 3))):
        assert cli.main(["euler", "verify", "--p", "5", "--prec", "2",
                         "--a", "1,2,4"] + extra) == 1
        residual = json.loads(capsys.readouterr().out)["checks"][0]["residual"]
        named = re.findall(r"c=\((\d+),(\d+)\)", residual)
        assert named and {tuple(map(int, n)) for n in named} == {c}


@pytest.mark.parametrize("extra, message", [
    (["--flavor", "arithmetic", "--p", "4"], "odd prime"),
    (["--flavor", "arithmetic", "--p", "0"], "odd prime"),
    (["--flavor", "arithmetic", "--p", "2"], "odd prime"),
    (["--flavor", "arithmetic", "--p", "3,5"], "p needs one prime"),
    (["--order", "-1"], "order must be >= 0"),
])
def test_jet_checks_its_arguments(extra, message, capsys):
    assert cli.main(["jet", "prolong", "--f", "x^2"] + extra) == 2
    assert message in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["selftest", "--checks", "padic", "--p", "1000000000000000003"],
     "the padic check takes p <= 1009"),
    (["selftest", "--checks", "padic", "--p", str(2 ** 89 - 1)],
     "primes must be below"),
    (["jet", "prolong", "--f", "x^2", "--flavor", "arithmetic", "--p", "3",
      "--order", "5"], "arithmetic jet prolong takes order <= 3"),
    (["jet", "prolong", "--f", "x^2", "--flavor", "arithmetic", "--p", "19"],
     "arithmetic jet prolong takes p <= 17"),
])
def test_large_primes_and_jet_orders_exit_two_at_once(argv, message, capsys):
    t0 = time.time()
    assert cli.main(argv) == 2
    assert time.time() - t0 < 1.0
    assert message in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


def test_jet_caps_admit_their_largest_inputs(capsys):
    for extra in (["--p", "3", "--order", "3"], ["--p", "17", "--order", "1"]):
        assert cli.main(["jet", "prolong", "--f", "x^2", "--flavor",
                         "arithmetic"] + extra) == 0
    # the classical flavor takes no prime and has no cap
    assert cli.main(["jet", "prolong", "--f", "x^2", "--order", "5"]) == 0
    assert capsys.readouterr().out.count("delta^") == 4 + 2 + 6


def test_euler_checks_every_sphere_at_once(monkeypatch, capsys):
    # one whole-chart residual replaces the sampled spheres; without the
    # gauge step it is nonzero, and the witness names the prime only
    def no_sampling(*args, **kwargs):
        raise AssertionError("the euler check sampled a sphere")

    monkeypatch.setattr(cli.eu, "sample_admissible_fiber", no_sampling)
    assert cli.main(["euler", "verify", "--p", "5,7", "--prec", "2",
                     "--a", "1,2,4"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli.eu, "gauge_adjust", lambda flow, sys: flow)
    assert cli.main(["euler", "verify", "--p", "5", "--prec", "2",
                     "--a", "1,2,4"]) == 1
    residual = json.loads(capsys.readouterr().out)["checks"][0]["residual"]
    spheres = [piece for piece in residual.split("; ")
               if "sphere form" in piece]
    assert len(spheres) == 1 and spheres[0].startswith("p=5 sphere form: ")


def test_classical_jet_order_cap(capsys):
    t0 = time.time()
    assert cli.main(["jet", "prolong", "--f", "x^2", "--order", "1000"]) == 2
    assert time.time() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "classical jet prolong takes order <= 100, got 1000" in err
    # the cap itself is admitted
    assert cli.main(["jet", "prolong", "--f", "x^2", "--order", "100"]) == 0
    assert capsys.readouterr().out.count("delta^") == 101
