"""Mass bijection and full profiles."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2mono import energy, fps, metric, ode, shooting
from g2mono.metric import DomainError
from g2mono.shooting import (MonopoleProfile, NoSolutionError,
                             OutOfRangeError, beta_of_mass, bubbling_report,
                             mass_of_beta, profile_of_beta, solve_monopole)
from g2mono.series import SeriesOverflowError

BACKENDS = (metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4, metric.BS_CP2)


def test_mass_of_beta_bps():
    assert abs(mass_of_beta(-1.0 / 3.0, metric.EUCLIDEAN) - 1.0) <= 1e-9
    assert abs(mass_of_beta(-4.0 / 3.0, metric.EUCLIDEAN) - 2.0) <= 1e-9


def test_mass_of_beta_hyperbolic():
    # closed-form mass 1 solution has v2 = -(m^2 + 2m)/3 = -1
    assert abs(mass_of_beta(-1.0, metric.HYPERBOLIC) - 1.0) <= 1e-9


def test_mass_of_beta_zero_and_positive():
    assert mass_of_beta(0.0, metric.BS_S4) == 0.0
    with pytest.raises(NoSolutionError):
        mass_of_beta(0.25, metric.EUCLIDEAN)


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
@pytest.mark.parametrize("beta", [-1e52, -1e300])
@pytest.mark.parametrize("fn", [mass_of_beta, profile_of_beta], ids=lambda f: f.__name__)
def test_huge_beta_raises_naming_beta(met, beta, fn):
    # the head's floats overflow: v_12 ~ beta^6 is past the float range
    with pytest.raises(SeriesOverflowError, match=re.escape(f"beta = {beta!r}: the series head")):
        fn(beta, met)
    assert issubclass(SeriesOverflowError, ValueError)


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
def test_large_beta_still_solves(met):
    # the model root beta = -(m^2 + 4 g0 m)/3: m ~ sqrt(-3 beta) - 2 g0 at large -beta
    for beta in (-1e20, -1e50):
        assert abs(mass_of_beta(beta, met) / math.sqrt(-3.0 * beta) - 1.0) <= 1e-9


_PARENT_MASSES = json.loads(
    (Path(__file__).parent / "data" / "mass_of_beta_parent.json").read_text())


@pytest.mark.parametrize("metric_id", ["euclidean", "hyperbolic", "bs_s4"])
def test_mass_of_beta_matches_the_scipy_stepper(metric_id):
    # masses computed once with scipy's DOP853 (see the file's note): the
    # float stepper rounds its stage sums differently, but the mass moves
    # by no more than 1e-14 max(1, m)
    met = metric.get_metric(metric_id)
    records = [r for r in _PARENT_MASSES["records"] if r[0] == metric_id]
    assert len(records) == 36
    for _, tol, beta, mass in records:
        m = mass_of_beta(beta, met, tol=tol)
        assert abs(m - mass) <= 1e-14 * max(1.0, mass), (tol, beta)


def test_beta_of_mass_inverts():
    b = beta_of_mass(1.0, metric.EUCLIDEAN)
    assert abs(b + 1.0 / 3.0) <= 1e-9
    b = beta_of_mass(1.0, metric.HYPERBOLIC)
    assert abs(b + 1.0) <= 1e-8


def test_beta_of_mass_requires_positive():
    with pytest.raises(ValueError):
        beta_of_mass(0.0, metric.EUCLIDEAN)


def test_profile_invariants_bs():
    prof = solve_monopole(metric.BS_CP2, 1.0)
    assert isinstance(prof, MonopoleProfile)
    pos = prof.r > 0
    assert np.all(prof.a[pos] > 0) and np.all(prof.a[pos] <= 1.0)
    assert np.all(prof.phi[pos] < 0)
    # mass consistency against the tail identity
    R, a_R, bound = prof.tail
    G_R = metric.BS_CP2.green_tail(R)
    phi_R = prof.eval_phi(R)
    assert abs(prof.mass - 2.0 * (G_R - phi_R)) <= 1e-12
    assert bound <= prof.tol


def test_zero_set_only_at_origin():
    prof = solve_monopole(metric.BS_S4, 1.0)
    sel = (prof.r > 0) & (prof.r <= 1.0)
    assert np.min(np.abs(prof.phi[sel]) / prof.r[sel]) > 0


def test_flat_profile():
    prof = profile_of_beta(0.0, metric.EUCLIDEAN)
    assert prof.result is None and prof.mass == 0.0
    assert np.all(prof.a == 1.0) and np.all(prof.phi == 0.0)


def test_flat_profile_fields():
    # beta = 0 has no trace to evaluate: every radius, past R_end too
    prof = profile_of_beta(0.0, metric.BS_S4)
    a, phi = prof.fields([0.0, 0.5, 3.0, 1e4])
    assert a.tolist() == [1.0] * 4 and phi.tolist() == [0.0] * 4


def test_tail_correction_consistency():
    # extracting at twice the radius moves the mass by less than the
    # advertised bound 2 a^2(R) G(R)
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    R, a_R, bound = prof.tail
    R2 = 2.0 * R
    a2 = prof.eval_a(R2)
    phi2 = prof.eval_phi(R2)
    m2 = 2.0 * (metric.EUCLIDEAN.green_tail(R2) - phi2)
    assert abs(m2 - prof.mass) <= bound + 1e-12


def test_profile_eval_piecewise_continuity():
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    # across the series/integrator hand-off and the tail hand-off
    for r0 in (prof.delta, prof.R_end):
        lo = prof.eval_a(r0 * (1 - 1e-9)), prof.eval_phi(r0 * (1 - 1e-9))
        hi = prof.eval_a(r0 * (1 + 1e-9)), prof.eval_phi(r0 * (1 + 1e-9))
        assert abs(lo[0] - hi[0]) <= 1e-7
        assert abs(lo[1] - hi[1]) <= 1e-7


def test_bubbling_euclidean_exact():
    rep = bubbling_report([2.0, 4.0], metric.EUCLIDEAN)
    assert max(rep.sup_bps) <= 1e-7
    assert all(rep.translated_ok)


@pytest.mark.parametrize("masses", [[], [3.0], [2.0, 2.0], [1.0, 3.0, 1.0]])
def test_bubbling_needs_two_masses(masses):
    # a repeated mass repeats its sup, which would read as "not decreasing"
    with pytest.raises(ValueError, match="two masses"):
        bubbling_report(masses, metric.EUCLIDEAN)


@pytest.mark.parametrize("sup_decreasing, translated_ok, passed", [
    (True, [True, True], True), (False, [True, True], False),
    (True, [True, False], False),
])
def test_bubbling_report_passed(sup_decreasing, translated_ok, passed):
    rep = shooting.BubblingReport("euclidean", [1.0, 2.0], [0.1, 0.05],
                                  sup_decreasing, translated_ok, 0.0)
    assert rep.passed is passed


# -- Newton with forward sensitivities ------------------------------------

def _flat_table_metric(tmp_path):
    rs = np.geomspace(0.5, 200.0, 300)
    table = tmp_path / "flat.csv"
    table.write_text("r,h\n" + "".join(f"{r:.17g},{r:.17g}\n" for r in rs))
    cfg = tmp_path / "flat.txt"
    zeros = ",0" * 12                          # flat series to order 12
    cfg.write_text(f"type=custom\ncoeffs=1{zeros}\ntable={table}\n")
    return metric.load_custom(str(cfg))


def test_slope_shot_keeps_the_plain_shot(tmp_path):
    # the variational rows are outside error control and the (v, w)
    # tolerances undo the RMS norm over four rows, so the slope shot
    # takes the plain shot's steps.  The stage sums over two and four
    # rows can round differently in the last bit, which has been seen to
    # flip one step decision (hyperbolic, beta = -0.02, tol 1e-9): allow
    # one step (15 evaluations) on a case, and the same nfev on most.
    cases = equal = 0
    for met in BACKENDS + (_flat_table_metric(tmp_path),):
        for beta in (-0.02, -1.0 / 3.0, -3.0, -12.0, -80.0):
            for tol in (1e-9, 1e-10):
                m0, _, _, plain, _ = shooting._shoot(beta, met, tol)
                m1, _, _, sens, _ = shooting._shoot(beta, met, tol, slope=True)
                assert abs(m1 - m0) <= 1e-14 * max(1.0, m0), (met.id, beta)
                diff = sens.stats["nfev"] - plain.stats["nfev"]
                assert abs(diff) <= 15, (met.id, beta, tol, diff)
                cases += 1
                equal += diff == 0
    assert equal >= cases - 2


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
def test_slope_matches_central_difference(met):
    for beta in (-0.1, -2.0, -30.0):
        _, slope = shooting._mass_slope(beta, met, 1e-12)
        h = 1e-4 * abs(beta)
        diff = (mass_of_beta(beta + h, met, 1e-12)
                - mass_of_beta(beta - h, met, 1e-12)) / (2.0 * h)
        assert slope < 0
        assert abs(slope - diff) <= 1e-6 * abs(diff), (met.id, beta)


def _count_shots(monkeypatch):
    count = [0]
    series = shooting.v_series

    def counted(*args, **kwargs):
        count[0] += 1
        return series(*args, **kwargs)

    monkeypatch.setattr(shooting, "v_series", counted)
    return count


@pytest.mark.parametrize("met,budget", [(metric.EUCLIDEAN, 2),
                                        (metric.HYPERBOLIC, 2),
                                        (metric.BS_S4, 4)],
                         ids=["euclidean", "hyperbolic", "bs_s4"])
def test_beta_of_mass_shot_budget(monkeypatch, met, budget):
    count = _count_shots(monkeypatch)
    for m in (0.25, 1.0, 4.0, 16.0):
        count[0] = 0
        beta = beta_of_mass(m, met)
        assert count[0] <= budget, (met.id, m, count[0])
        assert abs(mass_of_beta(beta, met, 1e-9) - m) <= 1e-9


def test_start_above_the_root_expands_the_bracket_down(monkeypatch):
    # m(-1e4) is far above 1 and the Newton step is too long, so the
    # bracket grows downward by _X_STEP until m < 1, then Newton closes
    count = _count_shots(monkeypatch)
    slopes = []
    mass_slope = shooting._mass_slope

    def recorded(beta, *args):
        slopes.append(beta)
        return mass_slope(beta, *args)

    monkeypatch.setattr(shooting, "_mass_slope", recorded)
    monkeypatch.setattr(shooting, "_start", lambda mass, c: math.log(1e4))
    beta = beta_of_mass(1.0, metric.EUCLIDEAN)
    assert abs(3.0 * beta + 1.0) <= 1e-10
    steps = np.diff(np.log([-b for b in slopes[:5]]))
    assert np.allclose(steps, -shooting._X_STEP, rtol=0, atol=1e-12)
    assert count[0] <= 7


def test_failed_check_takes_another_slope_shot(monkeypatch):
    slopes = [0]
    true_slope = shooting._mass_slope

    def counted(*args):
        slopes[0] += 1
        return true_slope(*args)

    monkeypatch.setattr(shooting, "_mass_slope", counted)
    for met, m in ((metric.EUCLIDEAN, 1.0), (metric.BS_S4, 2.5)):
        slopes[0] = 0
        beta_of_mass(m, met)
        n_plain = slopes[0]
        checks = []
        true_check = shooting.mass_of_beta

        def fails_once(*args):
            checks.append(args[0])
            return math.inf if len(checks) == 1 else true_check(*args)

        monkeypatch.setattr(shooting, "mass_of_beta", fails_once)
        slopes[0] = 0
        beta = beta_of_mass(m, met)
        monkeypatch.setattr(shooting, "mass_of_beta", true_check)
        assert slopes[0] == n_plain + 1, (met.id, slopes[0], n_plain)
        assert len(checks) == 2 and beta == checks[-1]
        assert abs(mass_of_beta(beta, met, 1e-9) - m) <= 1e-9


class _ScriptEnd(Exception):
    pass


def _scripted(monkeypatch, shots):
    """Feed beta_of_mass the (m, dm) of `shots` in turn, and pass every
    root check; return the betas shot and, for each check, the number of
    slope shots taken before it."""
    script = iter(shots)
    taken, checks = [], []

    def slope(beta, met, tol):
        taken.append(beta)
        try:
            return next(script)
        except StopIteration:
            raise _ScriptEnd from None

    def check(beta, met, tol):
        checks.append(len(taken))
        return 1.0

    monkeypatch.setattr(shooting, "_mass_slope", slope)
    monkeypatch.setattr(shooting, "mass_of_beta", check)
    return taken, checks


def test_model_curvature_predicts_the_check(monkeypatch):
    # from beta = -1 to mass 1 at tol 1e-9: a Newton step from m is checked
    # once the model predicts its residual, k log(m)^2, to be <= 1e-10
    monkeypatch.setattr(shooting, "_start", lambda mass, c: 0.0)
    # euclidean: k = 0, so the first Newton shot is checked
    assert shooting._curvature(1.0, shooting._model_c(1.0, metric.EUCLIDEAN)) == 0.0
    taken, checks = _scripted(monkeypatch, [(1.01, -0.5)])
    beta_of_mass(1.0, metric.EUCLIDEAN)
    assert checks == [1]
    # bs_s4: k = 0.078 predicts 7.7e-6 from a residual of 1e-2, not
    # checked, and 7.8e-12 from 1e-5, checked
    assert 0.07 < shooting._curvature(1.0, shooting._model_c(1.0, metric.BS_S4)) < 0.09
    taken, checks = _scripted(monkeypatch, [(1.01, -0.5), (1.0 + 1e-5, -0.5)])
    beta_of_mass(1.0, metric.BS_S4)
    assert checks == [2]
    # a bisection (a positive slope inside the bracket) checks the shot's
    # own beta, once the shot's own residual is <= 1e-10
    taken, checks = _scripted(monkeypatch, [(1.01, -0.5), (1.0 - 1e-11, 0.5)])
    assert beta_of_mass(1.0, metric.BS_S4) == taken[1] and checks == [2]
    taken, checks = _scripted(monkeypatch, [(1.01, -0.5), (1.0 - 1e-9, 0.5)])
    with pytest.raises(_ScriptEnd):
        beta_of_mass(1.0, metric.BS_S4)
    assert checks == []


@pytest.mark.parametrize("corrupt", [lambda dm: -dm, lambda dm: 10.0 * dm],
                         ids=["sign", "x10"])
def test_bad_slope_falls_back_to_bisection(monkeypatch, corrupt):
    true_slope = shooting._mass_slope

    def bad(beta, met, tol):
        m, dm = true_slope(beta, met, tol)
        return m, corrupt(dm)

    monkeypatch.setattr(shooting, "_mass_slope", bad)
    for met, m in ((metric.EUCLIDEAN, 1.0), (metric.BS_S4, 2.5)):
        beta = beta_of_mass(m, met)
        assert abs(mass_of_beta(beta, met, 1e-9) - m) <= 1e-9


def test_beta_of_mass_out_of_range(monkeypatch):
    with pytest.raises(OutOfRangeError, match="near beta = 0"):
        beta_of_mass(1e-7, metric.EUCLIDEAN)
    with pytest.raises(OutOfRangeError, match="beta >= -1e6"):
        beta_of_mass(3000.0, metric.EUCLIDEAN)
    # a root check that never passes ends at the shot cap
    monkeypatch.setattr(shooting, "_MAX_SHOTS", 4)
    monkeypatch.setattr(shooting, "mass_of_beta", lambda *a: math.inf)
    with pytest.raises(OutOfRangeError, match="root polish"):
        beta_of_mass(1.0, metric.EUCLIDEAN)


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
@pytest.mark.parametrize("m", [1e-200, 1e-300, 1e-308, 5e-324])
def test_tiny_masses_collapse_the_bracket_near_zero(met, m):
    # the model root's beta is far below -1e-12: on euclidean the
    # curvature's 2 (2m) m used to underflow to a division by zero, and
    # elsewhere c / m overflowed to a start past beta = -1e6
    with pytest.raises(OutOfRangeError, match="^bracket collapse near beta = 0$"):
        beta_of_mass(m, met)


# the exact mass maps of the flat backgrounds
_EXACT_MASS = {"euclidean": lambda b: math.sqrt(-3.0 * b),
               "hyperbolic": lambda b: -1.0 + math.sqrt(1.0 - 3.0 * b)}


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
@pytest.mark.parametrize("m", [1e-3, 1e-2])
def test_small_masses_solve(met, m):
    prof = solve_monopole(met, m)
    assert abs(prof.mass - m) <= 1e-9
    if met.id in _EXACT_MASS:
        assert abs(_EXACT_MASS[met.id](prof.beta) - m) <= 1e-9


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
@pytest.mark.parametrize("m", [1e-3, 1e-2, 0.05, 1.0, 40.0, 1500.0])
def test_roots_across_the_mass_range(met, m):
    # the root's own contract at every scale; the exact maps allow the
    # shot's ODE error, which grows like m tol (7.4e-8 at m = 1500)
    beta = beta_of_mass(m, met)
    assert abs(mass_of_beta(beta, met, 1e-9) - m) <= 1e-9
    if met.id in _EXACT_MASS:
        assert abs(_EXACT_MASS[met.id](beta) - m) <= 1e-9 + 1e-10 * m


@pytest.mark.parametrize("met,m", [(metric.EUCLIDEAN, 0.01), (metric.EUCLIDEAN, 1000.0),
                                   (metric.HYPERBOLIC, 1000.0)],
                         ids=["euclidean-0.01", "euclidean-1000", "hyperbolic-1000"])
def test_tight_tol_roots(met, m):
    # a check that waits for the linear change |dm dbeta| <= tol/10 never
    # comes here ("root polish failed to reach tolerance"): the shot's own
    # error keeps that change above tol/10.  On geomspace(1e-3, 1.5e3, 61)
    # bs_s4 at tol 1e-12 solves m = 458.58 but still fails at m = 933.73,
    # where an absolute tol is below the shot's error (ROADMAP item 14's
    # relative tol)
    tol = 1e-12
    beta = beta_of_mass(m, met, tol)
    assert abs(mass_of_beta(beta, met, tol) - m) <= tol
    assert abs(_EXACT_MASS[met.id](beta) - m) <= tol * (1.0 + m)


def test_start_reads_g0_off_the_green_function(monkeypatch):
    # g0 = lim (1/(2r) - G(r)): 0 on euclidean, where the start is the
    # flat root to the bit, 1/2 on hyperbolic, _G_ZERO on Bryant-Salamon
    def start(m, met):
        return shooting._start(m, shooting._model_c(m, met))

    for m in (1e-3, 0.3, 1.0, 7.0, 1500.0):
        assert start(m, metric.EUCLIDEAN) == 2.0 * math.log(m) - math.log(3.0)
        for met, g0 in ((metric.HYPERBOLIC, 0.5), (metric.BS_S4, metric._G_ZERO)):
            beta0 = -math.exp(start(m, met))
            assert beta0 == pytest.approx(-(m * m + 4.0 * g0 * m) / 3.0, rel=1e-10)
    # with g0 = -1 the model root m^2 - 4m would be > 0; 4 g0/m is held at -1/2
    below = dataclasses.replace(metric.EUCLIDEAN, _green=lambda r: 0.5 / r + 1.0)
    assert start(1e-2, below) == pytest.approx(math.log(1e-4 / 6.0), rel=1e-12)
    # a parabolic one raises from the start, before any shot
    count = _count_shots(monkeypatch)
    parabolic = dataclasses.replace(metric.EUCLIDEAN, _green=None)
    with pytest.raises(metric.NonparabolicRequired):
        beta_of_mass(1.0, parabolic)
    assert count[0] == 0


def test_a_start_that_does_not_decay_counts_as_below(monkeypatch):
    # from the flat root beta = -m^2/3 at m = 0.01 on hyperbolic the first
    # shot has not decayed by _R_FAR: it is the m < mass side of the bracket
    monkeypatch.setattr(shooting, "_start",
                        lambda mass, c: 2.0 * math.log(mass) - math.log(3.0))
    exhausted = []
    mass_slope = shooting._mass_slope

    def recorded(*args):
        try:
            return mass_slope(*args)
        except OutOfRangeError:
            exhausted.append(args[0])
            raise

    monkeypatch.setattr(shooting, "_mass_slope", recorded)
    beta = beta_of_mass(0.01, metric.HYPERBOLIC)
    assert exhausted[0] == pytest.approx(-0.01 ** 2 / 3.0, rel=1e-12)
    assert abs(_EXACT_MASS["hyperbolic"](beta) - 0.01) <= 1e-9


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
@pytest.mark.parametrize("m", [3e-5, 1e-4])
def test_a_mass_that_does_not_decay_by_r_far_names_the_range(monkeypatch, met, m):
    count = _count_shots(monkeypatch)
    with pytest.raises(OutOfRangeError, match="range exhausted: mass"):
        beta_of_mass(m, met)
    assert count[0] <= 10


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected_before_any_shot(monkeypatch, value):
    count = _count_shots(monkeypatch)
    for call in (lambda: mass_of_beta(value, metric.BS_S4),
                 lambda: beta_of_mass(value, metric.BS_S4),
                 lambda: solve_monopole(metric.BS_S4, value),
                 lambda: profile_of_beta(value, metric.BS_S4)):
        with pytest.raises(ValueError, match="must be finite"):
            call()
    assert count[0] == 0


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(BACKENDS),
       st.floats(math.log(0.1), math.log(20.0)).map(math.exp))
def test_mass_properties(met, m):
    prof = solve_monopole(met, m)
    assert abs(mass_of_beta(prof.beta, met) - m) <= 1e-8
    assert beta_of_mass(m * (1.0 + 1e-3), met) < prof.beta
    assert abs(energy.intermediate_energy(prof, met).value - m / 2.0) <= 1e-5
    assert ode.envelope_check(prof.result).passed


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(BACKENDS),
       st.floats(math.log(1e-3), math.log(1.5e3)).map(math.exp))
def test_every_mass_in_range_solves(met, m):
    # ROADMAP item 12: any m from 1e-3 to 1.5e3, drawn log-uniform
    prof = solve_monopole(met, m)
    assert abs(prof.mass - m) <= 1e-8 * max(1.0, m)


# -- one bare-stepper integration per shot ---------------------------------

def _count_integrations(monkeypatch):
    calls = []
    integrate = ode.integrate

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ode, "integrate", counted)
    return calls


def test_shot_is_one_integration_past_the_tail_bound(tmp_path, monkeypatch):
    calls = _count_integrations(monkeypatch)
    for met in BACKENDS + (_flat_table_metric(tmp_path),):
        for beta in (-0.02, -0.4, -3.0, -30.0):
            for tol in (1e-9, 1e-10):
                for slope in (False, True):
                    calls.clear()
                    m, _, _, res, (R, a_R, G_R) = shooting._shoot(
                        beta, met, tol, slope=slope)
                    assert len(calls) == 1, (met.id, beta, tol, slope)
                    assert not calls[0]["dense"]
                    a_end = math.exp(0.5 * res.y[0, -1])
                    G_end = met.chart.green_of_x(res.x[-1])
                    assert (R, a_R, G_R) == (res.r_end, a_end, G_end)
                    # G_R is read at x_end, green_tail(R) after x -> r -> x
                    assert abs(G_R - met.green_tail(R)) <= 16.0 * math.ulp(G_R)
                    assert 2.0 * a_end ** 2 * G_end <= tol / 10.0, (met.id, beta)
                    assert m == 2.0 * (G_end - 0.25 * res.y[1, -1])


def test_bs_shot_maps_rho_to_s_twice(monkeypatch):
    # the two ends of the span; the tail test reads G in s, at the step
    calls = []
    s_of_rho = metric.s_of_rho

    def counted(rho):
        calls.append(rho)
        return s_of_rho(rho)

    monkeypatch.setattr(metric, "s_of_rho", counted)
    for beta in (-0.02, -0.4, -3.0, -30.0):
        for tol in (1e-9, 1e-10):
            calls.clear()
            shooting._shoot(beta, metric.BS_S4, tol)
            assert len(calls) == 2, (beta, tol, calls)


def test_solve_checks_tol_before_shooting(monkeypatch):
    calls = _count_integrations(monkeypatch)
    for tol in (1e-15, 1e-5, math.nan):
        with pytest.raises(ValueError, match="tol must lie"):
            solve_monopole(metric.BS_S4, 1.0, tol=tol)
    assert calls == []


@pytest.mark.parametrize("beta", [0.0, -0.5, 0.25])
@pytest.mark.parametrize("fn", [mass_of_beta, profile_of_beta], ids=lambda f: f.__name__)
def test_beta_calls_check_tol_first(monkeypatch, fn, beta):
    # at beta = 0 no shot is taken, and beta > 0 has no solution: tol is checked first
    calls = _count_integrations(monkeypatch)
    for tol in (-1.0, 5.0, 1e-15, math.nan):
        with pytest.raises(ValueError, match="tol must lie"):
            fn(beta, metric.BS_S4, tol)
    assert calls == []


def test_blowup_shot_raises_through_the_loop(monkeypatch):
    calls = _count_integrations(monkeypatch)
    for met in (metric.EUCLIDEAN, metric.BS_S4):
        calls.clear()
        with pytest.raises(NoSolutionError, match="blew up"):
            shooting._shoot(0.5, met, 1e-10)
        assert len(calls) == 1


def test_exhausted_range_raises(monkeypatch):
    monkeypatch.setattr(shooting, "_R_FAR", 3.0)
    with pytest.raises(OutOfRangeError, match="range exhausted"):
        mass_of_beta(-0.4, metric.EUCLIDEAN)


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
def test_profile_is_the_only_dense_shot(monkeypatch, met):
    calls = _count_integrations(monkeypatch)
    for tol in (1e-9, 1e-10):
        calls.clear()
        prof = solve_monopole(met, 1.5, tol=tol)
        assert [c["dense"] for c in calls] == [False] * (len(calls) - 1) + [True]
        assert prof.tail[2] <= tol / 10.0
        assert prof.R_end == prof.result.r_end
        # the profile's grid ends on the shot's last accepted step
        assert prof.r[-1] == prof.R_end
        assert abs(prof.phi[-1] - 0.25 * prof.result.y[1, -1]) <= 1e-14


# -- one metric series build per solve --------------------------------------

def _count_reversions(monkeypatch):
    count = [0]
    reversion = fps.FormalSeries.reversion

    def counted(self, *args, **kwargs):
        count[0] += 1
        return reversion(self, *args, **kwargs)

    monkeypatch.setattr(fps.FormalSeries, "reversion", counted)
    return count


def test_one_series_build_per_solve(monkeypatch):
    # the BS expansion reverts rho(s) once per build; every shot of a
    # solve shares that build, and the next solve on the same metric
    # object builds again (no memo outlives its solve)
    builds = _count_reversions(monkeypatch)
    shots = _count_shots(monkeypatch)
    calls = [("solve 0.5", lambda: solve_monopole(metric.BS_S4, 0.5), 3),
             ("solve 4", lambda: solve_monopole(metric.BS_S4, 4.0), 3),
             ("solve 4 again", lambda: solve_monopole(metric.BS_S4, 4.0), 3),
             ("root", lambda: beta_of_mass(2.0, metric.BS_S4), 3),
             ("mass", lambda: mass_of_beta(-1.0, metric.BS_S4), 1),
             ("profile", lambda: profile_of_beta(-1.0, metric.BS_S4), 1)]
    for name, call, min_shots in calls:
        builds[0] = shots[0] = 0
        call()
        assert builds[0] == 1, (name, builds[0], shots[0])
        assert shots[0] >= min_shots, (name, shots[0])


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
def test_solve_keeps_the_callers_metric(met):
    series = met._series
    prof = solve_monopole(met, 1.5)
    assert met._series is series
    assert prof.metric_id == prof.result.metric.id == met.id
    assert prof.result.metric._chart is met._chart
    assert prof.result.metric.chart.r_of_x is met.chart.r_of_x
    assert prof.result.metric.series_coeffs(12) == met.series_coeffs(12)


@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.BS_S4],
                         ids=lambda m: m.id)
def test_profile_rejects_nan_and_negative_radii(met):
    # NaN matches none of the head, middle and tail pieces, and a
    # negative radius used to evaluate the series head out of its domain
    prof = solve_monopole(met, 1.0)
    flat = profile_of_beta(0.0, met)
    for p in (prof, flat):
        for ev in (p.eval_a, p.eval_phi):
            for r in (math.nan, np.array([1.0, math.nan, 2.0]), -1.0,
                      np.array([0.5, -1e-300])):
                with pytest.raises(DomainError, match="NaN"):
                    ev(r)
    # every other radius falls in exactly one piece
    rs = np.array([0.0, 0.5 * prof.delta, prof.delta, prof.R_end,
                   2.0 * prof.R_end])
    a, phi = prof.fields(rs)
    assert np.all((a > 0) & (a <= 1)) and np.all((phi <= 0) & (phi > -1))


@pytest.mark.parametrize("met", BACKENDS, ids=lambda m: m.id)
def test_profile_samples_are_the_energy_grid(met):
    # a knot at 0, 20 Gauss-Legendre nodes on [0, delta), a knot at delta,
    # then per accepted step 20 nodes in the chart and a knot at its end
    prof = solve_monopole(met, 1.7)
    res, chart, n = prof.result, met.chart, len(metric._GL_NODES)
    steps = res.x.size - 1
    assert prof.r.size == 2 + n + (n + 1) * steps
    knots = np.flatnonzero(prof.w == 0)
    assert np.array_equal(knots, np.r_[0, n + 1 + (n + 1) * np.arange(steps + 1)])
    assert prof.r[0] == 0.0 and abs(prof.r[n + 1] / prof.delta - 1.0) <= 1e-15
    assert prof.r[-1] == prof.R_end and np.all(np.diff(prof.r) > 0)
    # the knots hold the step-end states, bit for bit
    assert prof.v[0] == prof.phi[0] == 0.0 and prof.a[0] == 1.0
    assert np.array_equal(prof.v[knots[1:]], res.y[0])
    assert np.array_equal(prof.phi[knots[1:]], 0.25 * res.y[1])
    assert np.array_equal(prof.a[knots[1:]], np.exp(0.5 * res.y[0]))
    # the nodes hold the series on the head and the step interpolant after
    r_head = prof.delta * metric._GL_NODES
    assert np.array_equal(prof.r[1:n + 1], r_head)
    assert np.array_equal(prof.v[1:n + 1], prof.series.v_at(r_head))
    assert np.array_equal(prof.phi[1:n + 1], 0.25 * prof.series.vdot_at(r_head))
    dx = np.diff(res.x)[:, None]
    x_nodes = res.x[:-1, None] + dx * metric._GL_NODES
    nodes = (knots[1:-1, None] + 1 + np.arange(n)).ravel()
    v, w = res.eval_x(x_nodes.ravel())[:2]
    assert np.array_equal(prof.v[nodes], v)
    assert np.array_equal(prof.phi[nodes], 0.25 * w)
    # the weights of each step (and of the head) add up to its length in r
    sums = np.add.reduceat(prof.w, knots[:-1])
    lengths = np.diff(prof.r[knots])
    assert np.max(np.abs(sums / lengths - 1.0)) <= 1e-14
    # from delta on, r and h^2 are the chart's maps of the chart points;
    # h^2 is metric.h2 on the head nodes
    x_rest = np.concatenate([res.x[:1], np.column_stack(
        [x_nodes, res.x[1:]]).ravel()])
    assert np.array_equal(prof.r[n + 1:], chart.r_of_x(x_rest.copy()))
    assert np.array_equal(prof.h2[n + 1:], chart.h2_of_x(x_rest))
    assert prof.h2[0] == 0.0
    assert np.array_equal(prof.h2[1:n + 1], met.h2(r_head))
