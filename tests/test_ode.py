"""Reduced systems: right-hand sides, integration, classification,
comparison envelopes."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from g2mono import metric, ode, oracles, shooting
from g2mono.metric import DomainError
from g2mono.ode import (ProfileState, SU3State, StiffnessError,
                        envelope_check, integrate, rhs)
from g2mono.series import initial_data, v_series


def _bps_initial(delta, m=1.0):
    a = m * delta / math.sinh(m * delta)
    phi = 0.5 * (1.0 / delta - m / math.tanh(m * delta))
    return ProfileState(delta, a, phi)


def test_rhs_minus_flat_fixed_point():
    assert rhs("minus", ProfileState(1.0, 1.0, 0.0),
               metric.EUCLIDEAN) == (0.0, 0.0)


def test_rhs_minus_matches_bps_derivative():
    st = oracles.bps_mass(1.0).state(1.0)
    d = oracles.bps_mass(1.0).derivative(1.0)
    got = rhs("minus", st, metric.EUCLIDEAN)
    assert abs(d[0] - got[0]) <= 1e-13
    assert abs(d[1] - got[1]) <= 1e-13


def test_rhs_minus_matches_hyperbolic_derivative():
    st = oracles.hyperbolic(1.0).state(1.0)
    d = oracles.hyperbolic(1.0).derivative(1.0)
    got = rhs("minus", st, metric.HYPERBOLIC)
    assert max(abs(d[0] - got[0]), abs(d[1] - got[1])) <= 1e-12


def test_rhs_plus_signs_and_decoupled():
    st = ProfileState(1.0, 0.0, 0.3)
    for sigma in (-1, 1):
        da, dphi = rhs("plus", st, metric.EUCLIDEAN, sigma)
        assert da == 0.0
        assert dphi == sigma * 0.5 / metric.EUCLIDEAN.h2(1.0)


def test_rhs_domain_errors():
    with pytest.raises(DomainError):
        rhs("minus", ProfileState(0.0, 1.0, 0.0), metric.EUCLIDEAN)
    # the radius is checked by metric.h2, on every backend
    for met in (metric.HYPERBOLIC, metric.BS_S4):
        for r in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                rhs("minus", ProfileState(r, 1.0, 0.0), met)
            with pytest.raises(DomainError):
                rhs("plus", ProfileState(r, 1.0, 0.0), met, 1)
    with pytest.raises(ValueError):
        rhs("plus", ProfileState(1.0, 1.0, 0.0), metric.EUCLIDEAN, 2)


def test_rhs_su3_reduces_to_minus():
    # b1 = b3 = 0, phi1 = -phi2 = phi, b2 = a collapses onto the
    # two-field monopole system
    s = 1.3
    rho = metric.rho_of_s(s)
    a, phi = 0.7, -0.2
    st = SU3State(rho, 0.0, a, 0.0, phi, -phi)
    d = rhs("su3", st, metric.BS_S4)
    da, dphi = rhs("minus", ProfileState(rho, a, phi), metric.BS_S4)
    assert abs(complex(d[1]).real - da) <= 1e-12
    assert abs(d[3] - dphi) <= 1e-12
    assert abs(d[4] + dphi) <= 1e-12
    assert abs(complex(d[0])) <= 1e-15 and abs(complex(d[2])) <= 1e-15


def test_rhs_su3_abelian_limit():
    rho = metric.rho_of_s(2.0)
    st = SU3State(rho, 0.0, 0.0, 0.0, 0.0, 0.0)
    d = rhs("su3", st, metric.BS_S4)
    h2 = metric.BS_S4.h2(rho)
    assert abs(d[3] + 1.0 / (2.0 * h2)) <= 1e-14
    assert abs(d[4] - 1.0 / (2.0 * h2)) <= 1e-14


def test_su3_rejected_off_bs_backgrounds():
    st = oracles.su3_instanton(2.0, 1).state(metric.rho_of_s(0.5))
    for met in (metric.EUCLIDEAN, metric.HYPERBOLIC):
        with pytest.raises(DomainError):
            rhs("su3", st, met)
        with pytest.raises(DomainError):
            integrate("su3", st, met, 5.0)


def test_integrate_bps_accuracy():
    res = integrate("minus", _bps_initial(0.05), metric.EUCLIDEAN, 10.0,
                    tol=1e-11)
    assert res.classification == "bounded"
    rs = np.linspace(0.05, 10.0, 200)
    a, phi = res.eval_a_phi(rs)
    a_ref = rs / np.sinh(rs)
    assert np.max(np.abs(a - a_ref)) <= 1e-8


def test_integrate_blowup_positive_beta():
    for met in (metric.EUCLIDEAN, metric.BS_S4):
        sol = v_series(0.5, met.series_coeffs(12), 12)
        d, a, phi = initial_data(sol)
        res = integrate("minus", ProfileState(d, a, phi),
                        met, 200.0, tol=1e-10)
        assert res.classification == "blowup", met.id


def test_integrate_flat():
    res = integrate("minus", ProfileState(0.1, 1.0, 0.0),
                    metric.EUCLIDEAN, 5.0)
    assert res.classification == "flat"


def test_integrate_order_convergence():
    # halving tol must not increase the oracle error
    errs = []
    for tol in (1e-7, 1e-9, 1e-11):
        res = integrate("minus", _bps_initial(0.05), metric.EUCLIDEAN, 10.0,
                        tol=tol)
        rs = np.linspace(0.1, 8.0, 100)
        a, _ = res.eval_a_phi(rs)
        errs.append(np.max(np.abs(a - rs / np.sinh(rs))))
    assert errs[2] <= errs[0] + 1e-14


def test_plus_backward_blowup_rate():
    # sigma=-1 abelian flow from rho=1 back to the origin:
    # rho * phi -> 1/2 like the Green's function
    res = integrate("plus", ProfileState(1.0, 0.0, 0.0), metric.EUCLIDEAN,
                    r_max=1e-3, tol=1e-12, sigma=-1)
    a_end, phi_end = res.y[0, -1], res.y[1, -1]
    r_end = res.r_end
    assert abs(r_end - 1e-3) <= 1e-12
    assert abs(r_end * phi_end - 0.5) <= 0.01 * 0.5
    assert a_end == 0.0


def test_plus_sign_symmetry():
    r0, a0, p0 = 1.0, 0.4, -0.2
    res_m = integrate("plus", ProfileState(r0, a0, p0), metric.EUCLIDEAN,
                      5.0, tol=1e-11, sigma=-1)
    res_p = integrate("plus", ProfileState(r0, a0, -p0), metric.EUCLIDEAN,
                      5.0, tol=1e-11, sigma=1)
    rs = np.linspace(1.0, 5.0, 50)
    am, pm = res_m.eval(rs)
    ap, pp = res_p.eval(rs)
    assert np.max(np.abs(am - ap)) <= 1e-8
    assert np.max(np.abs(pm + pp)) <= 1e-8


def test_su3_instanton_constraint_drift():
    c, branch = 2.0, 1
    s0, s1 = 0.05, 100.0
    rho0 = metric.rho_of_s(s0)
    st = oracles.su3_instanton(c, branch).state(rho0)
    res = integrate("su3", st, metric.BS_S4, metric.rho_of_s(s1), tol=1e-11)
    assert res.classification == "bounded"
    b1, b2 = res.y[0], res.y[1]
    drift = np.max(np.abs(b2 * b2 - b1 * b1 - 1.0))
    assert drift <= 1e-9


def test_su3_integration_matches_instanton():
    # end state within the ODE tolerance of the closed form (observed 2.1e-12)
    c, branch = 2.0, 1
    form = oracles.su3_instanton(c, branch)
    res = integrate("su3", form.state(metric.rho_of_s(0.05)),
                    metric.BS_S4, metric.rho_of_s(6.0), tol=1e-11)
    end = form.state(res.r_end)
    ref = [end.b1, end.b2, end.b3, end.phi1, end.phi2]
    assert res.classification == "bounded"
    assert np.max(np.abs(res.y[:, -1] - ref)) <= 1e-10


def test_envelope_bps():
    res = integrate("minus", _bps_initial(0.05), metric.EUCLIDEAN, 10.0,
                    tol=1e-11)
    rep = envelope_check(res)
    assert rep.passed


def test_envelope_bs():
    sol = v_series(-1, metric.BS_S4.series_coeffs(12), 12)
    d, a, phi = initial_data(sol)
    res = integrate("minus", ProfileState(d, a, phi), metric.BS_S4, 15.0,
                    tol=1e-10)
    rep = envelope_check(res)
    assert rep.passed


def test_maximum_principle_and_monotonicity():
    sol = v_series(-1, metric.HYPERBOLIC.series_coeffs(12), 12)
    d, a0, phi0 = initial_data(sol)
    res = integrate("minus", ProfileState(d, a0, phi0), metric.HYPERBOLIC,
                    12.0, tol=1e-10)
    rs = np.linspace(d, res.r_end, 300)
    a, phi = res.eval_a_phi(rs)
    assert np.all(a > 0) and np.all(a <= 1.0)
    assert np.all(phi < 0)
    assert np.all(np.diff(a) < 0)
    assert np.all(np.diff(phi) < 0)


def test_tol_validation():
    with pytest.raises(ValueError):
        integrate("minus", _bps_initial(0.05), metric.EUCLIDEAN, 5.0, tol=1e-3)


def test_expm1_clipped_scalar_matches_array_form():
    # the right-hand side clips with min() on a float; the array form
    # np.clip is what it replaced
    vs = np.concatenate([np.linspace(-800.0, 800.0, 4001),
                         [-1e-300, 0.0, 1e-17, 699.99, 700.0, 700.01, 1e308]])
    for v in vs:
        want = np.expm1(np.clip(v, None, 700.0))
        assert ode._expm1_clipped(float(v)) == want
        assert ode._expm1_clipped(v) == want           # numpy scalar


# -- forward variation --------------------------------------------------------

def test_variation_rows_match_bps_family():
    # euclidean beta = -m^2/3 is v = 2 log(m r / sinh(m r)); its beta-
    # derivative is (dv/dm)(dm/dbeta) with dm/dbeta = -3/(2m)
    m = 1.3
    sol = v_series(-m * m / 3.0, metric.EUCLIDEAN.series_coeffs(12), 12)
    d, a0, phi0 = initial_data(sol)
    res = integrate("minus", ProfileState(d, a0, phi0), metric.EUCLIDEAN,
                    12.0, tol=1e-11, variation=sol.beta_derivative_at(d))
    rs = np.linspace(0.5, 12.0, 60)
    v, w, dv, dw = res.eval(rs)
    x, dm = m * rs, -1.5 / m
    assert np.max(np.abs(v - 2.0 * np.log(x / np.sinh(x)))) <= 1e-9
    dv_ref = 2.0 * (1.0 / m - rs / np.tanh(x)) * dm
    dw_ref = -2.0 * (1.0 / np.tanh(x) - x / np.sinh(x) ** 2) * dm
    assert np.max(np.abs(dv - dv_ref) / np.abs(dv_ref)) <= 1e-7
    assert np.max(np.abs(dw - dw_ref) / np.abs(dw_ref)) <= 1e-7
    a, phi = res.eval_a_phi(rs)                # still two rows
    assert a.shape == phi.shape == rs.shape


def test_variation_only_on_the_minus_system():
    with pytest.raises(ValueError):
        integrate("plus", ProfileState(1.0, 0.0, 0.0), metric.EUCLIDEAN, 2.0,
                  variation=(0.0, 1.0))


# -- tail-stop stepping loop ---------------------------------------------------

def _shot_initial(beta, met):
    sol = v_series(beta, met.series_coeffs(12), 12)
    d, a, phi = initial_data(sol)
    return ProfileState(d, a, phi)


def _chart_rhs(system, met, sigma=-1):
    """The system's right-hand side in the chart x, as `integrate` steps it."""
    f, c = ode._SYSTEMS[system].f, met.chart
    return lambda x, y: f(x, y, c.dr_dx(x), c.h2_of_x(x), sigma)


def _solve_ivp(system, init, met, r1, tol, sigma=-1, dense=False):
    """scipy's solve_ivp DOP853 from init.r to r1, in the chart x."""
    c = met.chart
    sol = solve_ivp(_chart_rhs(system, met, sigma),
                    (float(c.x_of_r(init.r)), float(c.x_of_r(r1))),
                    ode._SYSTEMS[system].to_y(init),
                    method="DOP853", rtol=0.9 * tol, atol=0.1 * tol,
                    dense_output=dense)
    assert sol.status == 0
    return sol


def _su3_initial():
    return oracles.su3_instanton(2.0, 1).state(metric.rho_of_s(0.05))


_PLAIN_RUNS = {
    # system, initial state, metric, r_max, keyword arguments
    "minus-euclidean": lambda: ("minus", _shot_initial(-0.4, metric.EUCLIDEAN),
                                metric.EUCLIDEAN, 15.0, {}),
    "minus-bs_s4": lambda: ("minus", _shot_initial(-0.4, metric.BS_S4),
                            metric.BS_S4, 15.0, {}),
    "plus-backward": lambda: ("plus", ProfileState(1.0, 0.0, 0.0),
                              metric.BS_S4, 1e-3, {"sigma": -1}),
    "su3": lambda: ("su3", _su3_initial(), metric.BS_S4, metric.rho_of_s(6.0),
                    {}),
}


@pytest.mark.parametrize("case", sorted(_PLAIN_RUNS))
def test_plain_run_takes_the_solve_ivp_steps(case):
    # a run that reaches its end takes as many steps and evaluations as
    # scipy's DOP853, and its dense output agrees within the tolerance.
    # The steps agree up to rounding, not to the bit: scipy's stage sums
    # are BLAS dots, and the error estimate cancels O(1) stage values
    # down to about tol, so one ulp in a stage moves later step sizes.
    system, init, met, r_max, kw = _PLAIN_RUNS[case]()
    tol = 1e-11
    sol = _solve_ivp(system, init, met, r_max, tol, kw.get("sigma", -1),
                     dense=True)
    n_steps = len(sol.t) - 1
    bare = integrate(system, init, met, r_max, tol=tol, dense=False, **kw)
    dense = integrate(system, init, met, r_max, tol=tol, **kw)
    for res in (bare, dense):
        assert res.classification == "bounded" and res.stats["status"] == 0
        assert res.stats["n_steps"] == n_steps
        assert res.r_end == met.chart.r_of_x(sol.t[-1])
    assert np.array_equal(bare.r, dense.r) and np.array_equal(bare.y, dense.y)
    # solve_ivp's count includes its interpolants' three evaluations a step
    assert bare.stats["nfev"] == sol.nfev - 3 * n_steps
    assert dense.stats["nfev"] == sol.nfev
    rs = np.linspace(init.r, r_max, 301)
    ref = sol.sol(met.chart.x_of_r(rs))
    assert np.all(np.abs(dense.eval(rs) - ref) <= tol * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.BS_S4],
                         ids=lambda m: m.id)
def test_tail_stop_takes_the_solve_ivp_steps(met):
    # the shot's accepted steps are those of solve_ivp over a longer
    # range, up to rounding; it stops at the first step past the tail test
    init, tol = _shot_initial(-0.4, met), 1e-10
    shot = integrate("minus", init, met, 1e5, tol=tol, tail_stop=True)
    R, a_R, G_R = shot.tail
    assert R == shot.r_end and a_R == math.exp(0.5 * shot.y[0, -1])
    assert G_R == met.green_tail(R) and 2.0 * a_R ** 2 * G_R <= tol / 10.0
    sol = _solve_ivp("minus", init, met, 2.0 * R, tol)
    r = met.chart.r_of_x(sol.t)
    n = len(shot.r)
    assert shot.stats["n_steps"] == n - 1
    assert np.max(np.abs(r[:n] / shot.r - 1.0)) <= 1e-6
    assert r[n] > R * (1.0 + 1e-6)


def test_integrate_never_calls_solve_ivp():
    # no module of the package imports or names scipy's drivers, so every
    # integration below runs on ode's own stepper
    banned = {"solve_ivp", "DOP853", "OdeSolution"}
    paths = sorted(pathlib.Path(ode.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.rsplit(".", 1)[-1] for a in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            assert not names & banned, (path.name, node.lineno, names & banned)
    for case in _PLAIN_RUNS.values():
        system, init, met, r_max, kw = case()
        assert integrate(system, init, met, r_max, **kw).r_end > 0
    shot = integrate("minus", _shot_initial(-0.4, metric.HYPERBOLIC),
                     metric.HYPERBOLIC, 1e5, tail_stop=True)
    assert shot.tail is not None


@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.HYPERBOLIC,
                                 metric.BS_S4], ids=lambda m: m.id)
@pytest.mark.parametrize("m", [0.5, 4.0])
def test_envelope_linear_matches_solve_ivp(met, m):
    # the linear comparison curve v'' = 2 v / h^2, stepped by ode's own
    # DOP853, against scipy's at the same tolerances and in the same chart
    prof = shooting.solve_monopole(met, m)
    rep = envelope_check(prof.result)
    c = met.chart

    def lin(x, y):
        J = c.dr_dx(x)
        return [J * y[1], J * 2.0 * y[0] / c.h2_of_x(x)]

    v0, w0 = prof.result.eval(rep.r[0])[:2, 0]
    x_span = (float(c.x_of_r(rep.r[0])), float(c.x_of_r(rep.r[-1])))
    sol = solve_ivp(lin, x_span, [v0, w0], method="DOP853",
                    dense_output=True, rtol=1e-10, atol=1e-12)
    ref = sol.sol(c.x_of_r(rep.r))[0]
    assert np.all(np.abs(rep.lower_linear - ref)
                  <= 1e-12 * np.maximum(1.0, np.abs(rep.v)))
    assert rep.passed


def test_stops_end_at_the_first_step_past_the_threshold():
    # stops are per-step tests: the last accepted step is past the
    # threshold and the one before it is not
    res = integrate("minus", _shot_initial(0.5, metric.EUCLIDEAN),
                    metric.EUCLIDEAN, 5000.0, tol=1e-10)
    assert res.classification == "blowup" and res.stats["status"] == 1
    past = (res.y[0] > ode.V_BLOWUP) | (
        np.abs(res.y[1]) * 0.25 * res.r > ode.PHI_R_BLOWUP)
    assert past[-1] and not past[:-1].any()

    res = integrate("plus", ProfileState(1.0, 0.4, -0.2), metric.EUCLIDEAN,
                    5.0, tol=1e-11, sigma=-1)
    assert res.classification == "blowup" and res.r_end < 5.0
    past = np.abs(res.y[1]) * res.r > ode.PHI_R_BLOWUP
    assert past[-1] and not past[:-1].any()

    # a falls to A_FLOOR: a "bounded" stop short of r_max
    res = integrate("minus", _shot_initial(-0.4, metric.EUCLIDEAN),
                    metric.EUCLIDEAN, 3000.0, tol=1e-10)
    assert res.classification == "bounded" and res.r_end < 3000.0
    assert res.stats["status"] == 1
    assert res.y[0, -1] <= ode._V_FLOOR < res.y[0, -2]


def test_plus_and_su3_blowup_are_per_step_tests():
    # a start past the bound stops after one step, with no crossing
    res = integrate("plus", ProfileState(1.0, 0.0, 2e6), metric.EUCLIDEAN,
                    5.0)
    assert res.classification == "blowup" and res.stats["n_steps"] == 1
    # backward, the bound uses the largest radius of the span
    res = integrate("plus", ProfileState(1.0, 0.0, 2e6), metric.BS_S4, 1e-3,
                    sigma=-1)
    assert res.classification == "blowup" and res.stats["n_steps"] == 1
    st = SU3State(metric.rho_of_s(0.5), 0.0, 0.0, 0.0, 2e6, 0.0)
    res = integrate("su3", st, metric.BS_S4, metric.rho_of_s(6.0))
    assert res.classification == "blowup" and res.stats["n_steps"] == 1


def _scaled_green_shot(scale, tol=1e-10):
    """The euclidean beta = -0.4 shot with G scaled by `scale`, and the
    radii of its G evaluations."""
    radii = []

    def green(r):
        radii.append(float(r))
        return scale * 0.5 / r

    met = dataclasses.replace(metric.EUCLIDEAN, _green=green)
    res = integrate("minus", _shot_initial(-0.4, met), met, 1e5, tol=tol,
                    tail_stop=True, dense=False)
    return res, radii


def test_tail_stop_lowers_the_v_threshold_after_a_failed_test():
    # a G large enough that the test at a < 1e-8 fails: the next test is
    # at the first step below the v where that G would pass, and passes
    tol = 1e-10
    res, radii = _scaled_green_shot(1e30, tol)
    v = dict(zip(res.r, res.y[0]))
    G0 = 1e30 * 0.5 / radii[0]
    assert v[radii[0]] <= ode.V_TAIL
    assert 2.0 * math.exp(v[radii[0]]) * G0 > tol / 10.0
    assert len(radii) == 2 and radii[1] == res.r_end
    R, a_R, G_R = res.tail
    assert 2.0 * a_R ** 2 * G_R <= tol / 10.0
    lowered = math.log(tol / (20.0 * G0))
    between = (res.r > radii[0]) & (res.r < R)
    assert np.count_nonzero(between) >= 3
    assert np.all(res.y[0][between] > lowered)


def test_tail_stop_needs_a_tenth_of_tol():
    # scale G so that the first test reads tol/2: not yet a stop
    tol = 1e-10
    res, radii = _scaled_green_shot(1.0, tol)
    v0 = dict(zip(res.r, res.y[0]))[radii[0]]
    scale = 0.5 * tol / (math.exp(v0) / radii[0])
    res, radii = _scaled_green_shot(scale, tol)
    assert len(radii) == 2 and res.r_end > radii[0]
    assert 2.0 * res.tail[1] ** 2 * res.tail[2] <= tol / 10.0


def test_tail_stop_dense_output_only_on_request():
    init, tol = _shot_initial(-0.4, metric.HYPERBOLIC), 1e-10
    bare = integrate("minus", init, metric.HYPERBOLIC, 1e5, tol=tol,
                     tail_stop=True, dense=False)
    dense = integrate("minus", init, metric.HYPERBOLIC, 1e5, tol=tol,
                      tail_stop=True)
    assert np.array_equal(bare.y, dense.y)
    # DOP853's interpolant costs three extra evaluations per step
    assert dense.stats["nfev"] == bare.stats["nfev"] + 3 * bare.stats["n_steps"]
    assert np.max(np.abs(dense.eval(dense.r) - dense.y)) <= 1e-12
    for call in (bare.eval, bare.eval_a_phi):
        with pytest.raises(ValueError, match="built without dense output"):
            call(1.0)


def test_non_dense_plain_integration_refuses_eval():
    res = integrate("plus", ProfileState(1.0, 0.0, 0.0), metric.EUCLIDEAN,
                    2.0, dense=False)
    assert res.classification == "bounded" and res.r_end == 2.0
    with pytest.raises(ValueError, match="built without dense output"):
        res.eval(1.5)


def test_tail_stop_blowup_is_a_per_step_test():
    for met in (metric.EUCLIDEAN, metric.BS_S4):
        res = integrate("minus", _shot_initial(0.5, met), met, 1e5,
                        tail_stop=True, dense=False)
        assert res.classification == "blowup", met.id
        assert res.tail is None
        assert (res.y[0, -1] > ode.V_BLOWUP
                or abs(res.y[1, -1]) * 0.25 * res.r_end > ode.PHI_R_BLOWUP)
    # |phi| r is tested on the state, so a trace that starts past
    # PHI_R_BLOWUP stops at its first step
    res = integrate("minus", ProfileState(1.0, 0.5, -2e6), metric.EUCLIDEAN,
                    1e5, tail_stop=True)
    assert res.classification == "blowup" and res.stats["n_steps"] == 1


def test_tail_stop_far_bound_leaves_no_tail():
    # the tail test cannot pass before r = 3: the trace ends at the bound
    res = integrate("minus", _shot_initial(-0.4, metric.EUCLIDEAN),
                    metric.EUCLIDEAN, 3.0, tail_stop=True)
    assert res.tail is None and res.r_end == 3.0
    assert res.classification == "bounded"


def test_tail_stop_only_on_the_minus_system():
    with pytest.raises(ValueError):
        integrate("plus", ProfileState(1.0, 0.0, 0.0), metric.EUCLIDEAN, 2.0,
                  tail_stop=True)


# -- the float stepper against scipy's DOP853 ---------------------------------

def test_tableau_literals_are_scipys():
    # every coefficient bit for bit, zeros and their signs included (repr)
    from scipy.integrate._ivp import dop853_coefficients as dop
    assert ode._N == dop.N_STAGES
    stages = [(dop.A[s, :s].tolist(), float(dop.C[s]))
              for s in range(1, dop.N_STAGES_EXTENDED)]
    assert repr(ode._STEP + ode._DENSE) == repr(stages)
    assert repr([ode._E3, ode._E5, ode._D]) == repr(
        [dop.E3.tolist(), dop.E5.tolist(), dop.D.tolist()])


def test_controller_constants_are_scipys():
    from scipy.integrate._ivp import rk
    assert (ode._SAFETY, ode._MIN_FACTOR, ode._MAX_FACTOR) == (
        rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert ode._ERROR_EXPONENT == -1.0 / (rk.DOP853.error_estimator_order + 1)


def test_one_step_matches_scipys_rk_step():
    # 300 steps on bs_s4 from states of four shots, with steps 0.5 to 1.5
    # times the accepted ones: y_new to rounding; the error norm is a
    # cancellation of O(1) stage values, so only to a relative 1e-2
    from scipy.integrate._ivp.rk import DOP853, rk_step
    met, tol = metric.BS_S4, 1e-10
    fun = _chart_rhs("minus", met)
    states = []
    for beta in (-0.02, -0.4, -3.0, -30.0):
        res = integrate("minus", _shot_initial(beta, met), met, 1e5, tol=tol,
                        tail_stop=True, dense=False)
        xs = met.chart.x_of_r(res.r)
        states += [(float(xs[k]), res.y[:, k].tolist(), xs[k + 1] - xs[k])
                   for k in range(len(xs) - 1)]
    rng = np.random.default_rng(7)
    for k in rng.integers(len(states), size=300):
        x, y, h = states[k]
        h = float(h * rng.uniform(0.5, 1.5))
        f = fun(x, y)
        K = [[fi] for fi in f]
        y_new, f_new = ode._add_stages(fun, x, h, y, K, ode._STEP)
        assert all(type(v) is float for v in y_new + f_new)
        K_ref = np.empty((DOP853.n_stages + 1, 2))
        y_ref, _ = rk_step(lambda t, z: np.asarray(fun(t, z)), x, np.array(y),
                           np.array(f), h, DOP853.A, DOP853.B, DOP853.C, K_ref)
        assert np.all(np.abs(np.array(y_new) - y_ref) <= 4e-15 * np.abs(y_ref))
        scale = 0.1 * tol + np.maximum(np.abs(y), np.abs(y_ref)) * 0.9 * tol
        err_ref = DOP853._estimate_error_norm(DOP853, K_ref, h, scale)
        err = ode._error_norm(K, h, y, y_new, 0.9 * tol, 0.1 * tol, 2)
        assert abs(err / err_ref - 1.0) <= 1e-2


# -- failure paths on Python floats -------------------------------------------

def _euclidean_with_h2(h2):
    return dataclasses.replace(metric.EUCLIDEAN, _h2=h2)


def test_nan_metric_raises_stiffness_error():
    # a NaN right-hand side rejects every step until the step is below
    # 10 ulp of x
    met = _euclidean_with_h2(lambda r: np.where(r > 1.0, np.nan, r * r))
    with pytest.raises(StiffnessError) as info:
        integrate("plus", ProfileState(0.5, 0.1, -0.1), met, 3.0)
    x, y = info.value.state
    assert isinstance(info.value.state, tuple)
    assert 0.5 < x <= 1.0 and len(y) == 2


def test_steep_metric_blows_up_without_overflow():
    # past r = 1, phi and then a grow fast enough to overflow a square
    met = _euclidean_with_h2(lambda r: np.where(r > 1.0, 1e-6, 1.0) * r * r)
    res = integrate("plus", ProfileState(0.5, 0.1, -0.1), met, 3.0)
    assert res.classification == "blowup" and res.r_end < 3.0


def test_empty_range_rejected():
    with pytest.raises(DomainError, match="empty"):
        integrate("minus", _bps_initial(0.05), metric.EUCLIDEAN, 0.05)


_E = metric.EUCLIDEAN


@pytest.mark.parametrize("call, exc, match", [
    (lambda: ode.integrate("minus", ProfileState(0.0, 1.0, 0.0), _E, 1.0),
     DomainError, "initial radius must be > 0"),
    (lambda: ode.integrate("minus", ProfileState(0.1, 0.0, 0.5), _E, 1.0),
     DomainError, "minus system requires a > 0"),
    (lambda: ode.integrate("nope", ProfileState(0.1, 1.0, 0.0), _E, 1.0),
     ValueError, "unknown system 'nope'"),
    (lambda: ode.envelope_check(
        ode.integrate("plus", ProfileState(1.0, 0.5, 0.1), _E, 2.0)),
     ValueError, "applies to the minus system"),
    (lambda: ode.envelope_check(                             # phi > 0: v grows
        ode.integrate("minus", ProfileState(0.1, 1.0, 5.0), _E, 100.0)),
     ValueError, "requires a non-blowup solution"),
    (lambda: ode.envelope_check(                             # a > 1: v(d) > 0
        ode.integrate("minus", ProfileState(0.1, 1.1, -2.0), _E, 100.0)),
     ValueError, r"requires v\(d\) <= 0"),
], ids=["r-zero", "a-zero", "unknown-system", "envelope-plus",
        "envelope-blowup", "envelope-v-positive"])
def test_ode_input_checks(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
