"""Acceptance gate: one test per criterion, one pass/fail line each.

Runs the full solver stack end to end; each test prints a single
summary line (visible with ``pytest -s`` or on failure).
"""

import time
from fractions import Fraction

import numpy as np

from g2mono import energy, green, metric, ode, oracles, series, shooting
from series_oracle import v_series_oracle

F = Fraction
BACKENDS = (metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4, metric.BS_CP2)


def _report(n, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {name} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_bps_reproduction():
    t0 = time.time()
    prof = shooting.solve_monopole(metric.EUCLIDEAN, 1.0)
    elapsed = time.time() - t0
    rs = np.linspace(0.0, 10.0, 401)
    a_ref = np.where(rs > 0, rs / np.sinh(np.where(rs > 0, rs, 1.0)), 1.0)
    phi_ref = np.where(
        rs > 0,
        0.5 * (1.0 / np.where(rs > 0, rs, 1.0)
               - 1.0 / np.tanh(np.where(rs > 0, rs, 1.0))),
        0.0)
    err_a = float(np.max(np.abs(prof.eval_a(rs) - a_ref)))
    err_p = float(np.max(np.abs(prof.eval_phi(rs) - phi_ref)))
    ok = err_a <= 1e-6 and err_p <= 1e-6 and elapsed < 1.0
    _report(1, "BPS reproduction",
            ok, f"sup|a|err={err_a:.1e} sup|phi|err={err_p:.1e} t={elapsed:.2f}s")


def test_criterion_02_hyperbolic_reproduction():
    prof = shooting.solve_monopole(metric.HYPERBOLIC, 1.0)
    rs = np.linspace(0.0, 10.0, 401)
    refs = [oracles.hyperbolic(1.0).state(r) for r in rs]
    err_a = float(np.max(np.abs(prof.eval_a(rs) - [s.a for s in refs])))
    err_p = float(np.max(np.abs(prof.eval_phi(rs) - [s.phi for s in refs])))
    ok = err_a <= 1e-6 and err_p <= 1e-6
    _report(2, "hyperbolic reproduction",
            ok, f"sup|a|err={err_a:.1e} sup|phi|err={err_p:.1e}")


def test_criterion_03_series_recurrence():
    betas = (F(-1, 3), F(-1), F(-4, 3), F(-1, 10))
    exact = all(
        series.v_series(b, met.series_coeffs(12), 12).coeffs
        == v_series_oracle(b, met.series_coeffs(12), 12).coeffs
        for met in BACKENDS for b in betas)
    sol = series.v_series(F(-1, 3), metric.EUCLIDEAN.series_coeffs(4), 4)
    v4 = sol.coeffs[4] == sol.coeffs[2] ** 2 / 10
    ok = exact and v4
    _report(3, "series recurrence vs oracle",
            ok, f"exact on 4x4={exact}, euclid v4=v2^2/10: {v4}")


def test_criterion_04_no_solution_barrier():
    results = []
    for met in BACKENDS:
        for beta in (0.01, 1.0):
            sol = series.v_series(F(beta).limit_denominator(100),
                                  met.series_coeffs(12), 12)
            d, a, phi = series.initial_data(sol)
            # small positive beta grows v only linearly with a tiny
            # slope on the fast-opening backends; give the v = 50
            # event room to fire
            res = ode.integrate("minus", ode.ProfileState(d, a, phi),
                                met, 5000.0, tol=1e-10)
            results.append(res.classification == "blowup")
        flat = ode.integrate("minus", ode.ProfileState(0.1, 1.0, 0.0),
                             met, 5.0).classification == "flat"
        results.append(flat)
    ok = all(results)
    _report(4, "no-solution barrier",
            ok, f"blowup/flat verdicts all correct on {len(BACKENDS)} backends")


def test_criterion_05_mass_bijection():
    mono_ok, round_ok, worst = True, True, 0.0
    for met in BACKENDS:
        ms = [shooting.mass_of_beta(-k / 8.0, met) for k in range(1, 65)]
        mono_ok &= all(b > a for a, b in zip(ms, ms[1:]))
        for m in (0.25, 1.0, 4.0):
            err = abs(shooting.mass_of_beta(
                shooting.beta_of_mass(m, met), met) - m)
            worst = max(worst, err)
            round_ok &= err <= 1e-8
    ok = mono_ok and round_ok
    _report(5, "mass bijection",
            ok, f"monotone={mono_ok} roundtrip worst={worst:.1e}")


def test_criterion_06_sign_maximum_principles():
    sign_ok, env_ok = True, True
    for met in BACKENDS:
        for m in (0.5, 2.0):
            prof = shooting.solve_monopole(met, m)
            rs = np.linspace(prof.delta, prof.R_end, 300)
            a, phi = prof.result.eval_a_phi(rs)
            # monotone up to rounding: phi saturates at -m/2 to machine
            # precision in the far tail
            sign_ok &= bool(np.all(a > 0) and np.all(a <= 1.0)
                            and np.all(phi < 0)
                            and np.all(np.diff(a) < 1e-13)
                            and np.all(np.diff(phi) < 1e-13))
            env_ok &= ode.envelope_check(prof.result).passed
    ok = sign_ok and env_ok
    _report(6, "sign/maximum principles + envelopes",
            ok, f"signs/monotone={sign_ok} envelopes={env_ok}")


def test_criterion_07_instanton_residuals():
    rs = np.geomspace(0.01, 10.0, 120)
    inst = max(oracles.residual(oracles.bs_instanton(1), "minus", met, rs)
               for met in (metric.BS_S4, metric.BS_CP2))
    rhos = np.array([metric.rho_of_s(s) for s in np.geomspace(0.01, 50, 120)])
    su3 = max(oracles.residual(oracles.su3_instanton(c, br), "su3",
                               metric.BS_S4, rhos)
              for c in (0.0, 1.0, 2.0, 5.0) for br in (1, -1))
    ok = inst <= 1e-10 and su3 <= 1e-10
    _report(7, "instanton residuals",
            ok, f"b=1 branch={inst:.1e} su3 worst={su3:.1e}")


def test_criterion_08_dirac_asymptotics():
    worst_p, worst_amp = 0.0, 0.0
    for met in (metric.BS_S4, metric.BS_CP2):
        fit = green.asymptotic_fit(green.dirac(met, 1, 1.0))
        worst_p = max(worst_p, abs(fit.exponent + 5.0))
        worst_amp = max(worst_amp, abs(fit.amplitude - 6.4) / 6.4)
    ok = worst_p <= 0.05 and worst_amp <= 0.02
    _report(8, "Dirac asymptotics",
            ok, f"|slope+5|={worst_p:.1e} |amp/6.4-1|={worst_amp:.1e}")


def test_criterion_09_plus_type_blowup():
    res = ode.integrate("plus", ode.ProfileState(1.0, 0.0, 0.0),
                        metric.BS_S4, r_max=1e-3, tol=1e-12, sigma=-1)
    val = res.r_end * res.y[1, -1]
    ok = abs(val - 0.5) <= 0.01 * 0.5
    _report(9, "plus-type blow-up rate",
            ok, f"rho*phi at rho=1e-3: {val:.4f} (target 0.5 +/- 1%)")


def test_criterion_10_bubbling():
    rep = shooting.bubbling_report([5.0, 10.0, 20.0, 40.0], metric.BS_S4)
    ok = rep.sup_decreasing and all(rep.translated_ok)
    sups = ", ".join(f"{s:.2e}" for s in rep.sup_bps)
    _report(10, "bubbling",
            ok, f"sup_bps decreasing=[{sups}] inequality={all(rep.translated_ok)}")


def test_criterion_11_energy_identity():
    worst_id, worst_part = 0.0, 0.0
    part_ok = True
    for met in BACKENDS:
        for m in (1.0, 2.0, 4.0):
            prof = shooting.solve_monopole(met, m)
            rep = energy.intermediate_energy(prof, met)
            worst_id = max(worst_id, rep.identity_residual)
            worst_part = max(worst_part, rep.max_partial_residual)
            part_ok &= rep.max_partial_residual <= rep.quad_tol
    ok = worst_id <= 1e-5 and part_ok
    _report(11, "energy identity",
            ok, f"|E-m/2| worst={worst_id:.1e} partial-vs-boundary "
                f"worst={worst_part:.1e} within quad tol={part_ok}")
