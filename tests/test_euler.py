"""Arithmetic Euler construction: Hasse invariant, staged flow, gauge,
fiber congruences, point counts."""

import random

import pytest

from arithflow.padic import TruncatedPadic, teichmuller
from arithflow.poly import (MultiPoly, Chart, ChartElement, ChartError,
                            FiberNF, parse_poly, reduce_poly_mod_p)
from arithflow.forms import DiffForm, FiberFrame, phi_star_over_p
from arithflow.flows import ArithmeticFlow, check_prime_integral
from arithflow import euler as eu


def test_hasse_invariant_p3_symbolic():
    a = tuple(MultiPoly.var(n) for n in ("a1", "a2", "a3"))
    A = eu.hasse_invariant(3, a)
    z1, z2 = MultiPoly.var("z1"), MultiPoly.var("z2")
    expect = (a[1] - a[2]) * (a[0] * z2 - z1) + (a[2] - a[0]) * (z1 - a[1] * z2)
    assert A == expect


def test_hasse_invariant_p3_numeric():
    A = eu.hasse_invariant(3, (0, 1, 2))
    assert A == parse_poly("3*z1 - 2*z2")


def test_hasse_invariant_degree():
    A = eu.hasse_invariant(5, (1, 2, 3))
    assert A.total_degree() == 2


def test_hasse_value_matches_symbolic():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([5, 7, 11])
        a = rng.sample(range(p), 3)
        c = (rng.randrange(p), rng.randrange(p))
        A = eu.hasse_invariant(p, a)
        sym = A.eval({"z1": c[0], "z2": c[1]}) % p
        assert sym == eu.hasse_value(p, a, c)


@pytest.fixture(scope="module")
def sys5():
    return eu.EulerSystem(5, 3, (2, 3, 6))


@pytest.fixture(scope="module")
def flow5(sys5):
    return eu.gauge_adjust(eu.build_flow(sys5), sys5)


def test_nonunit_differences_rejected():
    with pytest.raises(ValueError):
        eu.EulerSystem(5, 3, (1, 6, 2))


def test_precision_below_two_rejected():
    with pytest.raises(eu.PreconditionError):
        eu.EulerSystem(5, 1, (1, 2, 4))


def test_no_admissible_sphere_fiber_at_p3():
    # the three distinct a_i exhaust F_3, so N(c) vanishes when c2 is a unit
    sysm = eu.EulerSystem(3, 2, (0, 1, 2))
    assert eu.admissible_fibers(sysm, need_c2_unit=True) == []
    with pytest.raises(eu.NoAdmissibleFiber):
        eu.sample_admissible_fiber(sysm, random.Random(0), need_c2_unit=True)


def _rejection_sample(sysm, rng, need_c2_unit):
    p = sysm.p
    while True:
        r1 = rng.randrange(p)
        r2 = rng.randrange(1, p) if need_c2_unit else rng.randrange(p)
        try:
            return eu.AdmissibleFiber(sysm, r1, r2)
        except ChartError:
            continue


@pytest.mark.parametrize("need_c2_unit", [False, True])
def test_sampler_draws_like_rejection_sampling(sys5, need_c2_unit):
    """The bounded sampler gives a seeded rng's fibers unchanged."""
    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(20):
        got = eu.sample_admissible_fiber(sys5, ours, need_c2_unit)
        want = _rejection_sample(sys5, theirs, need_c2_unit)
        assert (got.c1, got.c2) == (want.c1, want.c2)
    assert len(eu.admissible_fibers(sys5, need_c2_unit)) < sys5.p ** 2


def test_sampler_is_bounded(sys5, monkeypatch):
    # with no rejection draws allowed it picks from the enumerated list
    monkeypatch.setattr(eu, "_DRAWS_PER_CANDIDATE", 0)
    fiber = eu.sample_admissible_fiber(sys5, random.Random(3), True)
    r = (fiber.c1.val % sys5.p, fiber.c2.val % sys5.p)
    assert r in eu.admissible_fibers(sys5, True)


def test_build_flow_prime_integrals(sys5):
    flow = eu.build_flow(sys5)
    for H in (sys5.H1, sys5.H2):
        assert check_prime_integral(flow, H).is_zero()


def test_kernel_vector_orthogonality(sys5):
    # Jacobian rows of the two prime integrals, Frobenius-twisted
    p = sys5.p
    v = sys5.kernel_vector()
    one = sys5.ring.from_int(1)
    for w in (sys5.a, (one, one, one)):
        total = sys5.chart.zero()
        for i, wi in enumerate(w):
            row = sys5.chart.elem(
                MultiPoly.monomial(wi, **{"x%d" % (i + 1): p}))
            total = total + row * v[i]
        assert total.is_zero()


def test_gauge_preserves_prime_integrals(sys5, flow5):
    for H in (sys5.H1, sys5.H2):
        assert check_prime_integral(flow5, H).is_zero()


def test_gauge_direction_preserves_integrals_mod_p2(sys5, flow5):
    # adding t * kernel_vector leaves the residual 0 mod p^2 for any t
    t = sys5.chart.elem(parse_poly("x3^2 + 1", sys5.ring))
    images = {n: flow5.images[n] + t * v
              for (n, v) in zip(sys5.chart.vars, sys5.kernel_vector())}
    moved = ArithmeticFlow(sys5.chart, images)
    for H in (sys5.H1, sys5.H2):
        r = check_prime_integral(moved, H)
        assert r.exact_div_p(2) is not None   # divisible by p^2


def test_perturbation_off_kernel_breaks_integrals(sys5, flow5):
    images = dict(flow5.images)
    images["x3"] = images["x3"] + sys5.chart.var("x3")
    bad = ArithmeticFlow(sys5.chart, images)
    assert not check_prime_integral(bad, sys5.H1).is_zero()


def test_linearization_congruence(sys5, flow5):
    rng = random.Random(11)
    for _ in range(6):
        fiber = eu.sample_admissible_fiber(sys5, rng)
        assert eu.verify_linearization(flow5, sys5, fiber).is_zero()


def test_linearization_fails_before_gauge(sys5):
    # the raw staged flow has u3 = 0, which cannot satisfy the congruence
    flow = eu.build_flow(sys5)
    rng = random.Random(2)
    bad = 0
    for _ in range(4):
        fiber = eu.sample_admissible_fiber(sys5, rng)
        if not eu.verify_linearization(flow, sys5, fiber).is_zero():
            bad += 1
    assert bad > 0


def test_supersingular_fiber_rejected():
    sysm = eu.EulerSystem(7, 3, (2, 3, 6))
    p = sysm.p
    found = None
    for r1 in range(p):
        for r2 in range(p):
            c1 = teichmuller(p, r1, 1)
            c2 = teichmuller(p, r2, 1)
            nv = sysm.N_z.eval({"z1": c1, "z2": c2})
            av = sysm.A_z.eval({"z1": c1, "z2": c2})
            if nv.is_unit() and not av.is_unit():
                found = (r1, r2)
    if found is None:
        pytest.skip("no ordinary-locus complement point for these parameters")
    with pytest.raises(ChartError):
        eu.AdmissibleFiber(sysm, *found)


def test_new1_congruence(sys5, flow5):
    rng = random.Random(13)
    for _ in range(3):
        fiber = eu.sample_admissible_fiber(sys5, rng, need_c2_unit=True)
        assert eu.verify_new1(flow5, sys5, fiber.c2).is_zero()


def test_new1_cached_residual_matches_fresh_flow(sys5, flow5):
    # one cached c2-independent part serves every c2
    assert eu.sphere_residual(flow5, sys5) is eu.sphere_residual(flow5, sys5)
    for r2 in sorted({r2 for _, r2 in eu.admissible_fibers(sys5, True)}):
        c2 = teichmuller(sys5.p, r2, sys5.prec)
        fresh = ArithmeticFlow(sys5.chart, dict(flow5.images))
        got = eu.verify_new1(flow5, sys5, c2)
        want = eu.verify_new1(fresh, sys5, c2)
        assert got.num.terms == want.num.terms and got.den == want.den


def test_new1_shifted_lambda_shifts_residual(sys5, flow5):
    fiber = eu.sample_admissible_fiber(sys5, random.Random(17),
                                       need_c2_unit=True)
    r = eu.verify_new1(flow5, sys5, fiber.c2)
    assert r.is_zero()
    # replacing lambda by lambda + 1 must shift the residual to -1
    cp = sys5.chart.reduce_mod_p()
    shifted = r - cp.one()
    assert shifted == -cp.one()


def test_new1_needs_exact_prime_integrals(sys5, flow5):
    # with the x1 image + x1 the sphere residual's closed form would be zero,
    # so verify_new1 must refuse the flow rather than pass it
    chart = sys5.chart
    bad = ArithmeticFlow(chart, dict(
        flow5.images, x1=flow5.images["x1"] + chart.var("x1")))
    c2 = teichmuller(sys5.p, eu.admissible_fibers(sys5, True)[0][1], sys5.prec)
    with pytest.raises(ArithmeticError):
        eu.verify_new1(bad, sys5, c2)


def test_per_flow_results_are_kept_on_the_flow_object(sys5, flow5,
                                                      monkeypatch):
    for fn in (eu.pullback_coefficient, eu._fibre_normal_forms,
               eu.sphere_residual):
        first = fn(flow5, sys5)
        assert fn(flow5, sys5) is first
        fresh = ArithmeticFlow(sys5.chart, dict(flow5.images))
        again = fn(fresh, sys5)
        assert again is not first and again == first
    # the flow's phi images, the chart's mod-p chart and the system's
    # admissible fibres are kept per object and per argument, the same way
    chart = sys5.chart
    fresh = ArithmeticFlow(chart, dict(flow5.images))
    for fn, args in ((ArithmeticFlow.phi_var, ("x1", "x2")),
                     (ArithmeticFlow.inv_phi_factor, (0, 1))):
        first = [fn(flow5, a) for a in args]
        assert all(fn(flow5, a) is r for a, r in zip(args, first))
        again = [fn(fresh, a) for a in args]
        assert all(g is not r and g == r for g, r in zip(again, first))
        assert first[0] is not first[1] and first[0] != first[1]
    cp = chart.reduce_mod_p()
    assert chart.reduce_mod_p() is cp
    other = Chart(chart.vars, chart.factors, chart.ring).reduce_mod_p()
    assert other is not cp and other.factors == cp.factors
    units = eu.admissible_fibers(sys5, True)
    anyc2 = eu.admissible_fibers(sys5, False)
    assert units is not anyc2 and set(units) < set(anyc2)
    assert eu.admissible_fibers(sys5, True) is units
    assert eu.admissible_fibers(sys5, False) is anyc2
    twin = eu.EulerSystem(sys5.p, sys5.prec, sys5.a)
    assert eu.admissible_fibers(twin, False) is not anyc2
    assert eu.admissible_fibers(twin, False) == anyc2
    # the p^2 scan runs once per system, whatever the flag and its spelling
    scanned = eu.EulerSystem(sys5.p, sys5.prec, sys5.a)
    scans = []
    N_z = scanned.N_z

    class CountingN:
        def eval(self, c):
            scans.append(c)
            return N_z.eval(c)

    scanned.N_z = CountingN()
    eu.sample_admissible_fiber(scanned, random.Random(0))
    assert eu.admissible_fibers(scanned) is eu.admissible_fibers(scanned, False) \
        is eu.admissible_fibers(scanned, need_c2_unit=False)
    assert eu.admissible_fibers(scanned) == anyc2
    assert eu.admissible_fibers(scanned, need_c2_unit=True) == units
    assert len(scans) == sys5.p ** 2
    calls = []

    def spy(flow, H):
        calls.append(H)
        return check_prime_integral(flow, H)

    monkeypatch.setattr(eu, "check_prime_integral", spy)
    fresh = ArithmeticFlow(sys5.chart, dict(flow5.images))
    for _ in range(2):
        eu._require_prime_integrals(fresh, sys5)
    assert len(calls) == 2   # H1 and H2, on the first call only
    # a failing check keeps nothing: every call checks and raises again
    chart = sys5.chart
    bad = ArithmeticFlow(chart, dict(
        flow5.images, x3=flow5.images["x3"] + chart.var("x3")))
    fiber = eu.AdmissibleFiber(sys5, *eu.admissible_fibers(sys5)[0])
    for call in (lambda: eu.sphere_residual(bad, sys5),
                 lambda: eu.fiber_frobenius(bad, sys5, fiber)) * 2:
        calls.clear()
        with pytest.raises(ArithmeticError):
            call()
        assert calls


def test_fiber_frobenius(sys5, flow5):
    rng = random.Random(19)
    fiber = eu.sample_admissible_fiber(sys5, rng)
    images = eu.fiber_frobenius(flow5, sys5, fiber)
    # at a fiber point with unit denominators, phi moves P to P^p mod p
    p = sys5.p
    pt = None
    for x1 in range(1, p):
        for x2 in range(1, p):
            for x3 in range(p):
                vals = {"x1": x1, "x2": x2, "x3": x3}
                H1v = sys5.H1.eval({k: sys5.ring.from_int(v)
                                    for k, v in vals.items()})
                H2v = sum(v * v for v in vals.values()) % p
                if H1v.truncate(1).val == fiber.c1.val % p \
                        and H2v == fiber.c2.val % p:
                    pt = vals
                    break
            if pt:
                break
        if pt:
            break
    if pt is None:
        pytest.skip("fiber has no chart point over F_p")
    gf = images["x1"].chart.ring
    vals = {k: gf.from_int(v) for k, v in pt.items()}
    try:
        for name in ("x1", "x2", "x3"):
            got = images[name].eval(vals)
            assert got == gf.from_int(pt[name] ** p)
    except ChartError:
        pytest.skip("point lies outside the localized chart")


def test_fiber_frobenius_rejects_flows_without_prime_integrals(sys5, flow5):
    fiber = eu.sample_admissible_fiber(sys5, random.Random(19))
    chart = sys5.chart
    perturbed = ArithmeticFlow(chart, dict(
        flow5.images, x3=flow5.images["x3"] + chart.var("x3")))
    for bad in (perturbed, ArithmeticFlow(chart, {})):
        assert not check_prime_integral(bad, sys5.H1).is_zero()
        with pytest.raises(ArithmeticError):
            eu.fiber_frobenius(bad, sys5, fiber)
    # the good flow passes, and its images are phi(x_i) mod p = x_i^p
    images = eu.fiber_frobenius(flow5, sys5, fiber)
    cp = chart.reduce_mod_p()
    one = cp.ring.from_int(1)
    for name in chart.vars:
        want = flow5.phi_var(name).reduce_mod_p()
        assert images[name].num.terms == want.num.terms
        assert images[name].den == want.den
        assert images[name] == cp.elem(MultiPoly.monomial(one, **{name: sys5.p}))


def test_new2_form(sys5, flow5):
    rng = random.Random(23)
    fiber = eu.sample_admissible_fiber(sys5, rng)
    assert eu.derive_new2_form(flow5, sys5, fiber).is_zero()
    a_int = [x.val for x in sys5.a]
    _, ap = eu.count_points_and_ap(sys5.p, a_int,
                                   (fiber.c1.val, fiber.c2.val))
    gf = sys5.chart.reduce_mod_p().ring
    assert eu.derive_new2_form(flow5, sys5, fiber,
                               coef=gf.from_int(ap)).is_zero()


@pytest.fixture(scope="module", params=(5, 7, 11))
def flow_pair(request):
    """A system, its gauged flow, and that flow with x3 image + x3, which
    breaks the prime integrals and both fiber congruences."""
    p = request.param
    sysm = eu.EulerSystem(p, 3, random.Random(1).sample(range(1, p), 3))
    good = eu.gauge_adjust(eu.build_flow(sysm), sysm)
    x3img = good.images["x3"] + sysm.chart.var("x3")
    return sysm, good, ArithmeticFlow(sysm.chart, dict(good.images, x3=x3img))


def test_linearization_identity(flow_pair):
    sysm, good, perturbed = flow_pair
    assert eu.linearization_identity(good, sysm).is_zero()
    assert not eu.linearization_identity(perturbed, sysm).is_zero()


def _exact(elem):
    return ({k: (c.p, c.prec, c.val) for k, c in elem.num.terms.items()},
            elem.den)


def test_specialised_residual_matches_per_fibre_normal_form(flow_pair):
    # the reference reduces 1 - coef h with a FiberNF at each fiber's scalars
    sysm, good, perturbed = flow_pair
    p, a = sysm.p, [x.val for x in sysm.a]
    nonzero = 0
    for flow in (good, perturbed):
        h, cp = eu.pullback_coefficient(flow, sysm)
        for r1, r2 in eu.admissible_fibers(sysm):
            fiber = eu.AdmissibleFiber(sysm, r1, r2)
            nf = FiberNF(cp, sysm.a_mod_p(), fiber.c1.truncate(1),
                         fiber.c2.truncate(1))
            _, ap = eu.count_points_and_ap(p, a, (r1, r2))
            for coef in (sysm.hasse_at(fiber.c1, fiber.c2), cp.ring.from_int(ap)):
                got = eu.derive_new2_form(flow, sysm, fiber, coef=coef)
                want = nf.nf(cp.one() - h * coef)
                assert got.chart is cp
                assert _exact(got) == _exact(want), (p, r1, r2)
                nonzero += not got.is_zero()
    assert nonzero == 2 * len(eu.admissible_fibers(sysm))


def _omega(cp, ab):
    """dx3 / ((a1 - a2) x1 x2), the fiber 1-form: <omega, v> = 1."""
    coeff = ChartElement(cp, MultiPoly.const((ab[0] - ab[1]).inv()),
                         (1, 1) + (0,) * (cp.nfac - 2))
    return DiffForm(cp, 1, {(2,): coeff})


def _pullback_by_forms(flow, sysm):
    """<(phi*/p) omega, v>, by pulling the 1-form back."""
    fp, ab = flow.reduce_mod_p(), sysm.a_mod_p()
    pulled = phi_star_over_p(_omega(fp.chart, ab), fp)
    return FiberFrame(fp.chart, ab).contract_1form(pulled)


def _sphere_residual_by_forms(flow, sysm):
    """<(phi*/p^2) eta, pi> - H1^{p-1}/A_{p-1}(H1,H2) with eta = -1/2 dH1 ^
    omega, by pulling the 2-form back."""
    fp, ab = flow.reduce_mod_p(), sysm.a_mod_p()
    cp = fp.chart
    H1 = cp.elem(reduce_poly_mod_p(sysm.H1, cp.ring))
    beta = -(DiffForm.function(H1).d().wedge(_omega(cp, ab)))
    pulled = phi_star_over_p(beta, fp)
    eta_pi = (FiberFrame(cp, ab).contract_2form(pulled)
              * cp.ring.from_int(2).inv())
    return eta_pi - (H1 ** (sysm.p - 1)).div_factor(3)


def test_closed_forms_match_the_form_pullbacks(flow_pair):
    # the library takes h in closed form and the sphere residual as
    # H1^{p-1} (h - 1/A); the reference pulls the forms back
    sysm, good, perturbed = flow_pair
    chart = sysm.chart
    ungauged = eu.build_flow(sysm)
    for flow in (good, ungauged):
        fresh = ArithmeticFlow(chart, dict(flow.images))
        assert eu.pullback_coefficient(fresh, sysm)[0] == \
            _pullback_by_forms(fresh, sysm)
        assert eu.sphere_residual(fresh, sysm)[0] == \
            _sphere_residual_by_forms(fresh, sysm)
    assert not eu.sphere_residual(ungauged, sysm)[0].is_zero()
    fresh = ArithmeticFlow(chart, dict(perturbed.images))
    assert eu.pullback_coefficient(fresh, sysm)[0] == \
        _pullback_by_forms(fresh, sysm)
    # the x1 image + x1 leaves h as it is but breaks phi(H1) = H1^p, and with
    # it the sphere identity: the 2-form pullback no longer matches
    x1_perturbed = ArithmeticFlow(chart, dict(
        good.images, x1=good.images["x1"] + chart.var("x1")))
    assert eu.pullback_coefficient(x1_perturbed, sysm)[0] == \
        eu.pullback_coefficient(good, sysm)[0]
    assert not _sphere_residual_by_forms(x1_perturbed, sysm).is_zero()
    with pytest.raises(ArithmeticError):
        eu.sphere_residual(x1_perturbed, sysm)


def test_point_count_examples():
    # Hasse bound and the supersingular match on a small sweep
    p = 7
    for a in ((1, 2, 3), (0, 1, 3)):
        for c1 in range(p):
            for c2 in range(p):
                try:
                    count, ap = eu.count_points_and_ap(p, a, (c1, c2))
                except ValueError:
                    continue
                assert ap * ap <= 4 * p
                hv = eu.hasse_value(p, a, (c1, c2))
                assert (ap - hv) % p == 0
                assert (hv == 0) == (ap % p == 0)


def test_degenerate_quartic_rejected():
    with pytest.raises(ValueError):
        eu.count_points_and_ap(7, (1, 2, 3), (2, 1))  # c1 = a2 c2


@pytest.mark.parametrize("p, prec, a", [(5, 3, (0, 1, 2)), (7, 3, (1, 2, 4)),
                                        (5, 4, (1, 2, 4))])
def test_builder_residuals_match_fresh_flows(p, prec, a, monkeypatch):
    # the builder shares each increment product between both rows, and the
    # CLI trusts its residuals; so after every stage and gauge step they must
    # be the residuals of a flow with the builder's images.  a_1 = 0 at
    # (5, 3) gives a zero weight in the H1 row
    sysm = eu.EulerSystem(p, prec, a)
    steps = []

    def checked(method):
        def run(b, arg):
            method(b, arg)
            fresh = ArithmeticFlow(sysm.chart, dict(b.u))
            for r, H in zip(b.R, (sysm.H1, sysm.H2)):
                assert r == check_prime_integral(fresh, H), (method.__name__, arg)
            steps.append(method.__name__)
        return run

    for name in ("run_stage", "apply_gauge"):
        monkeypatch.setattr(eu.FlowBuilder, name,
                            checked(getattr(eu.FlowBuilder, name)))
    eu.gauge_adjust(eu.build_flow(sysm), sysm)
    assert steps == (["run_stage"] * (prec - 1) + ["apply_gauge"]
                     + ["run_stage"] * (prec - 2))
