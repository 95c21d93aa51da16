"""Reduced systems: right-hand sides, integration, classification,
comparison envelopes."""

import ast
import dataclasses
import math
import pathlib
import struct

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import dop853_oracle
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
    # the radius is checked first, by the rule of h2 and green_tail:
    # 0 < r < inf on every backend
    for met in (metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4):
        for r in (0.0, -1.0, float("nan"), math.inf):
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
    assert res_m.r_end == res_p.r_end           # both blow up before 5
    rs = np.linspace(1.0, res_m.r_end, 50)
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


def test_generated_clip_matches_array_form():
    # the minus right-hand side clips v as min(v, 700.0) does, without
    # the call, and takes math's expm1, within 1 ulp of numpy's on the
    # array form np.clip; at J = 1 and h^2 = 2, phi's row is that expm1
    # exactly, NaN and -0.0 included
    f = _function(ode._MINUS)
    assert "e = _expm1(700.0 if 700.0 < a0 else a0)" in ode._function_source(ode._MINUS)
    vs = np.concatenate([np.linspace(-800.0, 800.0, 4001),
                         [-1e-300, 0.0, -0.0, 1e-17, 699.99, 700.0, 700.01, 1e308,
                          math.inf, -math.inf, math.nan]])
    for v in vs:
        want = math.expm1(min(float(v), 700.0))
        for got in (f(1.0, [float(v), 0.0], 1.0, 2.0, -1)[1],
                    f(1.0, [v, 0.0], 1.0, 2.0, -1)[1]):        # numpy scalar
            assert type(got) is float
            assert math.isnan(got) if math.isnan(want) else _bits(got) == _bits(want), v
        if math.isfinite(v):
            array_form = np.expm1(np.clip(v, None, 700.0))
            assert abs(want - array_form) <= np.spacing(abs(array_form))


def _calls_per_shot(monkeypatch, owner, names):
    """(metric id, nfev, calls) of one mass_of_beta(-1) shot on hyperbolic
    and on euclidean, counting the calls of owner.<name> for each name."""
    calls, nfev = [0], []
    for name in names:
        def counted(*args, _f=getattr(owner, name), **kwargs):
            calls[0] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    true_integrate = ode.integrate

    def recorded(*args, **kwargs):
        res = true_integrate(*args, **kwargs)
        nfev.append(res.stats["nfev"])
        return res

    monkeypatch.setattr(ode, "integrate", recorded)
    for met in (metric.HYPERBOLIC, metric.EUCLIDEAN):
        calls[0], nfev[:] = 0, []
        shooting.mass_of_beta(-1.0, met)
        yield met.id, nfev[0], calls[0]


def test_shot_calls_no_numpy_scalar_per_stage(monkeypatch):
    # np.expm1 and np.sinh only outside the stages: far fewer calls than
    # the right-hand side's evaluations
    for met, nfev, calls in _calls_per_shot(monkeypatch, np, ("expm1", "sinh")):
        assert nfev > 200 and calls < 10, (met, nfev, calls)


def test_flat_shot_calls_h2_only_off_the_stages(monkeypatch):
    # the stages write out euclidean's and hyperbolic's float h^2, so
    # MetricProfile.h2 runs only where the first step is chosen (twice a
    # shot), not once a stage
    for met, nfev, calls in _calls_per_shot(monkeypatch, metric.MetricProfile, ("h2",)):
        assert nfev > 200 and calls < 10, (met, nfev, calls)


def _stage_h2(chart):
    """xs -> (J, h2) as the chart's stage sets them at a float xs, in the
    generated loop's globals but with no h2_of_x to call."""
    def no_call(x):
        raise AssertionError("the stage called h2_of_x")

    scope = {"_sqrt": math.sqrt, "_sinh": math.sinh, "h2_of_x": no_call, **dict(chart.scope)}
    exec("def stage(xs):\n" + "".join(f"    {line}\n" for line in chart.stage)
         + "    return J, h2\n", scope)
    return scope["stage"]


@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.HYPERBOLIC], ids=lambda m: m.id)
def test_inlined_h2_is_the_metric_h2_to_the_bit(met):
    # the identity chart's stage writes out the metric's float h^2 with
    # no call of h2_of_x, and sets the same bits as MetricProfile.h2
    assert "h2_of_x" not in "".join(met.chart.stage)
    stage = _stage_h2(met.chart)
    for x in (1e-8, 0.3, 1.0, 349.99, 350.0, 350.01, 1e5):
        J, h2 = stage(x)
        assert J == 1.0 and _bits(h2) == _bits(met.h2(x)), (met.id, x)


def test_inlined_table_h2_is_the_metric_h2_to_the_bit(tmp_path):
    # a table's stage writes out MetricProfile.h2's float branch, numpy's
    # log and exp around a bisect on the log radii, with the rows in its
    # scope: the same bits at the rows, both float neighbours of each,
    # between rows, below the first row (the series) and past the last
    rng = np.random.default_rng(37)
    rs = np.sort(np.geomspace(0.4, 300.0, 257) * rng.uniform(0.97, 1.03, 257))
    met = _table_metric(tmp_path, rs.tolist(), (rs ** 1.4 * rng.uniform(0.9, 1.1, 257)).tolist(),
                        coeffs="1,0,1/3,0,-2/45")
    points = np.concatenate([rs, np.nextafter(rs, 0.0), np.nextafter(rs, np.inf),
                             np.sqrt(rs[1:] * rs[:-1]), rng.uniform(rs[0], rs[-1], 20_000),
                             np.geomspace(1e-6, rs[0], 500), np.geomspace(rs[-1], 1e8, 500)])
    assert "h2_of_x" not in "".join(met.chart.stage)
    stage = _stage_h2(met.chart)
    for x in points.tolist():
        J, h2 = stage(x)
        assert J == 1.0 and _bits(h2) == _bits(met.h2(x)), x
    # a series-only metric writes out its Horner expression too
    (tmp_path / "s.txt").write_text("type=custom\ncoeffs=1,0,1/3,0,-2/45,0,1/7\n")
    series = metric.load_custom(str(tmp_path / "s.txt"))
    assert series.chart.scope == frozenset()
    stage = _stage_h2(series.chart)
    for x in np.geomspace(1e-6, 10.0, 500).tolist():
        J, h2 = stage(x)
        assert J == 1.0 and _bits(h2) == _bits(series.h2(x)), x


def test_tables_with_one_stage_source_get_their_own_kernels(tmp_path, monkeypatch):
    # two tables with the same series and first row, so the same stage
    # source, but other rows: each shot runs a kernel of its own table's
    # rows, and equals, bit for bit, the shot whose stages call
    # MetricProfile.h2 through h2_of_x
    monkeypatch.setattr(ode, "_KERNELS", {})
    rs = np.geomspace(0.5, 200.0, 257)
    tables = [_table_metric(tmp_path, rs.tolist(), (rs * (rs / 0.5) ** p).tolist(), name=f"m{i}")
              for i, p in enumerate((0.0, 0.1))]
    assert tables[0].chart.stage == tables[1].chart.stage
    assert tables[0].chart.scope != tables[1].chart.scope
    masses = [shooting.mass_of_beta(-0.4, met) for met in tables]
    assert masses[0] != masses[1]
    assert len([key for key in ode._KERNELS if key[0] is ode._loop_source]) == 2
    for met, mass in zip(tables, masses):
        called = dataclasses.replace(met, _h2=lambda r, _h2=met._h2: _h2(r))
        assert called.chart.stage == ("J = 1.0", "h2 = h2_of_x(xs)")
        assert _bits(shooting.mass_of_beta(-0.4, called)) == _bits(mass)


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


def _function(rhs):
    """The callable f(x, y, J, h2, sigma) compiled from a right-hand side's
    source, as `rhs` and the first step call it."""
    return ode._generated(ode._function_source, rhs)


def _chart_rhs(rhs, met, sigma=-1):
    """A right-hand side in the chart x, read through the chart's callables."""
    f, c = _function(rhs), met.chart
    return lambda x, y: f(x, y, c.dr_dx(x), c.h2_of_x(x), sigma)


def _solve_ivp(system, init, met, r1, tol, sigma=-1, dense=False):
    """scipy's solve_ivp DOP853 from init.r to r1, in the chart x."""
    c = met.chart
    sol = solve_ivp(_chart_rhs(ode._SYSTEMS[system].rhs, met, sigma),
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
    # G is read in the chart, at the last step's x; read off R = r(x), it
    # carries the x -> r -> x round trip
    assert G_R == met.chart.green_of_x(shot.x[-1]) and 2.0 * a_R ** 2 * G_R <= tol / 10.0
    assert abs(G_R - met.green_tail(R)) <= 16.0 * math.ulp(G_R)
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


def test_ode_reads_the_background_only_through_the_chart(monkeypatch):
    # ode names neither MetricProfile.h2 nor green_tail; on bs_s4, whose
    # chart does not route through them, a shot, its envelope and rhs run
    # with both removed
    path = pathlib.Path(ode.__file__)
    attrs = {node.attr for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)}
    assert not attrs & {"h2", "green_tail"}

    def removed(*args):
        raise AssertionError("read past the chart")

    met = metric.BS_S4
    init = _shot_initial(-0.4, met)
    want = integrate("minus", init, met, 1e5, tail_stop=True)
    want_rhs = ode.rhs("minus", init, met)
    monkeypatch.setattr(metric.MetricProfile, "h2", removed)
    monkeypatch.setattr(metric.MetricProfile, "green_tail", removed)
    shot = integrate("minus", init, met, 1e5, tail_stop=True)
    assert shot.tail == want.tail and np.array_equal(shot.y, want.y)
    assert ode.rhs("minus", init, met) == want_rhs
    assert ode.envelope_check(shot).passed


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

    v0, w0 = prof.result.eval(rep.r[0])[:2]
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


@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4,
                                 metric.BS_CP2], ids=lambda m: m.id)
def test_eval_does_not_extrapolate(met):
    res = shooting.solve_monopole(met, 1.0).result
    r0, R = float(res.r[0]), res.r_end
    # both ends evaluate, as fields and envelope_check ask, however x(R)
    # rounds against the grid's last point
    assert np.allclose(res.eval([r0, R]), res.y[:, [0, -1]], rtol=1e-12, atol=0.0)
    a, phi = res.eval_a_phi(R)
    assert np.allclose([a, 4.0 * phi], [res.tail[1], res.y[1, -1]], rtol=1e-12, atol=0.0)
    lo, hi = float(res.x[0]), float(res.x[-1])
    assert np.array_equal(res.eval_x([lo, hi]), res.y[:, [0, -1]])
    # the last step's polynomial past r_end gave a = 1e152 at 10 R on euclidean
    for call, bad in ((res.eval, 10.0 * R), (res.eval_a_phi, 10.0 * R),
                      (res.eval, math.nextafter(r0, 0.0)), (res.eval_a_phi, math.nan),
                      (res.eval, [R, 2.0 * R]), (res.eval_x, math.nextafter(hi, 1e300)),
                      (res.eval_x, [lo, 0.5 * lo]), (res.eval_x, math.nan)):
        with pytest.raises(DomainError, match="outside the integrated range"):
            call(bad)


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


@pytest.mark.parametrize("tol", [1e-6, 1e-14])
@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.BS_S4], ids=lambda m: m.id)
def test_step_grid_is_mapped_to_r_when_read(met, tol):
    # a shot maps only its last step to r_end; the grid is mapped on the
    # first read of r, and ends at r_end to the bit, on fewer and on more
    # than 64 points (rho_of_s's float and numpy paths on bs_s4)
    res = integrate("minus", _shot_initial(-0.4, met), met, 1e5, tol=tol,
                    tail_stop=True, dense=False)
    assert "r" not in vars(res)
    r = res.r
    assert (r.size >= 64) == (tol < 1e-12) and res.r is r
    assert r[-1].tobytes() == np.float64(res.r_end).tobytes() == np.float64(res.tail[0]).tobytes()
    assert r.tobytes() == met.chart.r_of_x(res.x).tobytes()


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
    # 300 steps on bs_s4 from states of four shots, tried at 0.5 to 1.5
    # times the accepted ones: the generated loop's first accepted step
    # (the tried one, or a shorter one after rejections) against scipy's
    # rk_step of the same length, y_new to rounding; the error norm is a
    # cancellation of O(1) stage values, so only to a relative 1e-2
    from scipy.integrate._ivp.rk import DOP853, rk_step
    met, tol = metric.BS_S4, 1e-10
    fun = _chart_rhs(ode._MINUS, met)
    step = _first_accepted_step(ode._MINUS, met, -1, 2, False)
    states = []
    for beta in (-0.02, -0.4, -3.0, -30.0):
        res = integrate("minus", _shot_initial(beta, met), met, 1e5, tol=tol,
                        tail_stop=True, dense=False)
        xs = met.chart.x_of_r(res.r)
        states += [(float(xs[k]), res.y[:, k].tolist(), xs[k + 1] - xs[k])
                   for k in range(len(xs) - 1)]
    rng = np.random.default_rng(7)
    shorter = 0
    for k in rng.integers(len(states), size=300):
        x, y, h = states[k]
        h = float(h * rng.uniform(0.5, 1.5))
        f = fun(x, y)
        x_new, y_new, f_new, nfev, err, _ = step(x, h, y, f, math.inf, 0.9 * tol, 0.1 * tol)
        assert all(type(v) is float for v in y_new + f_new)
        shorter += nfev > 2 + ode._N
        h = x_new - x
        K_ref = np.empty((DOP853.n_stages + 1, 2))
        y_ref, _ = rk_step(lambda t, z: np.asarray(fun(t, z)), x, np.array(y),
                           np.array(f), h, DOP853.A, DOP853.B, DOP853.C, K_ref)
        assert np.all(np.abs(np.array(y_new) - y_ref) <= 4e-15 * np.abs(y_ref))
        scale = 0.1 * tol + np.maximum(np.abs(y), np.abs(y_ref)) * 0.9 * tol
        err_ref = DOP853._estimate_error_norm(DOP853, K_ref, h, scale)
        assert abs(err / err_ref - 1.0) <= 1e-2
    assert 20 <= shorter <= 280             # 37: both kinds of step are covered


# -- the generated loop against the oracle's controller ------------------------

def _first_accepted_step(rhs, met, sigma, n_err, dense):
    """The loop `integrate` generates for rhs on met's chart, with a stop
    test that ends it at its first accepted step, as (x, h, y, f(x, y),
    x_end, rtol, atol) -> (x_new, y_new, f_new, nfev, err, F): the step
    tried first is h long, and F is its interpolant rows if `dense`, else
    None."""
    c, n = met.chart, len(rhs.dy)
    stop = (f"stop = err, [{ode._names(f'k{ode._N}_', n)}]",)
    loop = ode._generated(ode._loop_source, rhs, stop, c.stage, n, n_err, dense, scope=c.scope)

    def first(x, h, y, fx, x_end, rtol, atol):
        grid, states, rows, nfev, (err, f_new), _ = loop(
            c.h2_of_x, c.r_of_x, c.green_of_x, sigma, math.inf, None, x, y, fx, abs(h), x_end,
            rtol, atol)
        return grid[1], states[1], f_new, nfev, err, rows[0] if dense else None
    return first


def _oracle_first_accepted_step(rhs, met, sigma, n_err, dense):
    """The same step from the oracle's controller and stage loop."""
    fun = _chart_rhs(rhs, met, sigma)

    def first(x, h, y, fx, x_end, rtol, atol):
        x_new, y_new, f_new, nfev, F, err = next(dop853_oracle.controller(
            fun, x, y, fx, abs(h), x_end, rtol, atol, n_err, dense))
        return x_new, y_new, f_new, nfev, err, F
    return first


def _bits(v):
    """v (nested lists and tuples of floats, complex numbers and None) as
    (type, bytes) pairs, so that NaNs and signed zeros compare too."""
    if isinstance(v, (list, tuple)):
        return [b for vi in v for b in _bits(vi)]
    z = complex(0.0 if v is None else v)
    return [(type(v).__name__, struct.pack("<dd", z.real, z.imag))]


def _outcome(step, *args):
    try:
        return _bits(step(*args))
    except ArithmeticError as exc:          # e.g. abs of a huge complex
        return type(exc).__name__
    except StiffnessError as exc:
        return "StiffnessError", tuple(_bits(exc.state))


def _finite(bits):
    return isinstance(bits, list) and all(
        math.isfinite(v) for _, b in bits for v in struct.unpack("<dd", b))


def _oracle_states(system, n, rng, count):
    """(x, h, y): ordinary states, then states whose stages overflow."""
    out = []
    for k in range(count):
        x = float(rng.uniform(0.2, 5.0))
        h = float(x * rng.uniform(0.02, 0.6) * rng.choice([-1.0, 1.0]))
        if system == "su3":
            y = [complex(*rng.normal(size=2)) for _ in range(n)]
        else:
            y = rng.normal(scale=3.0, size=n).tolist()
        if system != "plus":
            y[0] = float(rng.uniform(-40.0, 3.0))
        if k >= count // 2:                 # |y| to 1e308, |h| to 1e9
            y = [yi * b for yi, b in zip(y, (10.0 ** rng.uniform(295.0, 308.0, n)).tolist())]
            h *= float(10.0 ** rng.uniform(3.0, 9.0))
            if k % 5 == 0:
                y[int(rng.integers(n))] *= math.nan
            x = max(x, 1.5 * abs(h))        # x + c h > 0 for the identity chart
        out.append((x, h, y))
    return out


_ORACLE_CASES = {
    # right-hand side, metric, sigma, error-controlled length
    "minus-euclidean": (ode._MINUS, metric.EUCLIDEAN, -1, 2),
    "minus-bs_s4": (ode._MINUS, metric.BS_S4, -1, 2),
    "plus-euclidean": (ode._PLUS, metric.EUCLIDEAN, 1, 2),
    "plus-bs_s4": (ode._PLUS, metric.BS_S4, -1, 2),
    "variation-hyperbolic": (ode._MINUS_VARIATION, metric.HYPERBOLIC, -1, 2),
    "variation-bs_s4": (ode._MINUS_VARIATION, metric.BS_S4, -1, 2),
    "su3-bs_s4": (ode._SU3, metric.BS_S4, -1, 5),
    "linear-hyperbolic": (ode._LINEAR, metric.HYPERBOLIC, -1, 2),
}


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_generated_step_is_the_stage_loop_to_the_bit(case, dense):
    # the first accepted step of each loop `integrate` runs, with the
    # right-hand side and the chart's J and h^2 inlined at every stage,
    # against the oracle's controller stepping the generic stage loop on
    # the chart's own dr_dx and h2_of_x: x, y_new, f_new, nfev, the error
    # norm and the interpolant rows, or the StiffnessError and its state,
    # bit for bit, rejected tries included.  Where a stage overflows the
    # two may part (see below).  A loop builds rows only for an accepted
    # step, so a second pass at rtol = atol = 1e300 accepts most finite
    # states at their first try
    rhs, met, sigma, n_err = _ORACLE_CASES[case]
    fun = _chart_rhs(rhs, met, sigma)
    n, system = len(rhs.dy), case.split("-")[0]
    reference = _oracle_first_accepted_step(rhs, met, sigma, n_err, dense)
    generated = _first_accepted_step(rhs, met, sigma, n_err, dense)
    states = _oracle_states(system, n, np.random.default_rng(17), 80)
    for rtol, atol in ((1e-10, 1e-11), (1e300, 1e300)):
        overflowed = with_rows = 0
        for x, h, y in states:
            fx = fun(x, y)
            first_try = _outcome(dop853_oracle.step, fun, x, h, y, fx, rtol, atol, n_err, dense)
            want = _outcome(reference, x, h, y, fx, x + h, rtol, atol)
            got = _outcome(generated, x, h, y, fx, x + h, rtol, atol)
            overflowed += not _finite(first_try)
            # an accepted first try: x, y_new, f_new, nfev, err and 7 rows
            with_rows += got == want and isinstance(want, list) and len(want) == 9 * n + 3
            if got != want:
                # at 1e300 an overflowed scale turns the oracle's 0.0 * inf
                # terms into a NaN error norm, and the loop's into 0.0
                assert rtol > 1.0 and not _finite(first_try), (x, h, y)
        assert overflowed >= 15
        assert with_rows >= (35 if dense and rtol == 1e300 else 0)


def test_interpolant_rows_are_generated_on_first_dense_use(monkeypatch):
    # one cache: a slope shot compiles its right-hand side and a loop
    # without rows; a dense trace compiles the loop that builds them
    monkeypatch.setattr(ode, "_KERNELS", {})
    met = metric.EUCLIDEAN
    init, flat, none = _shot_initial(-0.4, met), met.chart.stage, frozenset()
    f, loop = ode._function_source, ode._loop_source
    integrate("minus", init, met, 1e5, tail_stop=True, dense=False, variation=(0.0, 1.0))
    assert list(ode._KERNELS) == [
        (f, ode._MINUS_VARIATION, none),
        (loop, ode._MINUS_VARIATION, ode._TAIL_STOP, flat, 4, 2, False, none)]
    integrate("minus", init, met, 5.0)
    integrate("plus", ProfileState(1.0, 0.5, -0.1), met, 2.0)
    assert list(ode._KERNELS)[2:] == [
        (f, ode._MINUS, none), (loop, ode._MINUS, ode._MINUS_STOP, flat, 2, 2, True, none),
        (f, ode._PLUS, none), (loop, ode._PLUS, ode._PLUS_STOP, flat, 2, 2, True, none)]


def test_second_shot_compiles_nothing(monkeypatch):
    # kernels are keyed on source, though each read of an identity
    # metric's chart builds a new Chart: euclidean and hyperbolic share
    # the right-hand side and each has its own loop, which a second shot
    # reuses
    monkeypatch.setattr(ode, "_KERNELS", {})
    for met in (metric.EUCLIDEAN, metric.HYPERBOLIC):
        shooting.mass_of_beta(-0.4, met)
    kernels = dict(ode._KERNELS)
    loop = (ode._loop_source, ode._MINUS, ode._TAIL_STOP)
    assert list(kernels) == [(ode._function_source, ode._MINUS, frozenset()),
                             (*loop, metric.EUCLIDEAN.chart.stage, 2, 2, False, frozenset()),
                             (*loop, metric.HYPERBOLIC.chart.stage, 2, 2, False, frozenset())]

    def compiled(*args):
        raise AssertionError("compiled a second kernel")

    monkeypatch.setattr(ode, "compile", compiled, raising=False)
    assert metric.EUCLIDEAN.chart is not metric.EUCLIDEAN.chart
    for met in (metric.EUCLIDEAN, metric.HYPERBOLIC):
        shooting.mass_of_beta(-0.4, met)
    assert ode._KERNELS == kernels


def _table_metric(tmp_path, rs, hs, coeffs="1" + ",0" * 12, name="m"):
    (tmp_path / f"{name}.csv").write_text(
        "r,h\n" + "".join(f"{r!r},{h!r}\n" for r, h in zip(rs, hs)))
    (tmp_path / f"{name}.txt").write_text(f"type=custom\ncoeffs={coeffs}\ntable={name}.csv\n")
    return metric.load_custom(str(tmp_path / f"{name}.txt"))


def _h_equals_r_table(tmp_path):
    """h = r on 257 rows from r = 0.5 to 200, as `beta-scan` tabulates it."""
    rs = np.geomspace(0.5, 200.0, 257).tolist()
    return _table_metric(tmp_path, rs, rs)


def _minus_runs(met):
    """The three minus shots of beta = -0.4: plain, slope and dense."""
    sol = v_series(-0.4, met.series_coeffs(12), 12)
    d, a, phi = initial_data(sol)
    init = ProfileState(d, a, phi)
    return {"plain": ("minus", init, met, 1e5, {"tail_stop": True, "dense": False}),
            "slope": ("minus", init, met, 1e5, {"tail_stop": True, "dense": False,
                                                "variation": sol.beta_derivative_at(d)}),
            "dense": ("minus", init, met, 1e5, {"tail_stop": True})}


_SHOT_METRICS = {"euclidean": lambda tmp_path: metric.EUCLIDEAN,
                 "hyperbolic": lambda tmp_path: metric.HYPERBOLIC,
                 "bs_s4": lambda tmp_path: metric.BS_S4, "table": _h_equals_r_table}
_TRACES = {
    # system, initial state, metric, r_max, keyword arguments
    **{f"minus-{m}-{kind}": lambda tmp_path, m=m, kind=kind:
       _minus_runs(_SHOT_METRICS[m](tmp_path))[kind]
       for m in _SHOT_METRICS for kind in ("plain", "slope", "dense")},
    "minus-blowup": lambda tmp_path: ("minus", _shot_initial(0.5, metric.EUCLIDEAN),
                                      metric.EUCLIDEAN, 5000.0, {}),
    "minus-a-floor": lambda tmp_path: ("minus", _shot_initial(-0.4, metric.HYPERBOLIC),
                                       metric.HYPERBOLIC, 3000.0, {"dense": False}),
    "plus-sigma-minus": lambda tmp_path: ("plus", ProfileState(1.0, 0.4, -0.2),
                                          metric.EUCLIDEAN, 5.0, {"sigma": -1, "tol": 1e-11}),
    "plus-sigma-plus": lambda tmp_path: ("plus", ProfileState(1.0, 0.4, 0.2),
                                         metric.BS_S4, 5.0, {"sigma": 1}),
    "plus-backward": lambda tmp_path: ("plus", ProfileState(1.0, 0.0, 0.0), metric.BS_S4,
                                       1e-3, {"sigma": -1}),
    "su3": lambda tmp_path: ("su3", _su3_initial(), metric.BS_S4, metric.rho_of_s(6.0), {}),
    # past r = 1 the right-hand side jumps by 1e6: the steps there are rejected
    "plus-rejections": lambda tmp_path: (
        "plus", ProfileState(0.5, 0.1, -0.1),
        _euclidean_with_h2(lambda r: np.where(r > 1.0, 1e-6, 1.0) * r * r), 3.0, {}),
}


@pytest.mark.parametrize("case", sorted(_TRACES))
def test_generated_loop_is_the_oracle_controller_to_the_bit(case, tmp_path):
    # every trace of `integrate`, against the Python controller and stop
    # tests it replaced: the grid, the states, nfev, the interpolant
    # rows, the stop's message and the tail, bit for bit
    system, init, met, r_max, kw = _TRACES[case](tmp_path)
    res = integrate(system, init, met, r_max, **kw)
    want = dop853_oracle.integrate(system, init, met, r_max, **kw)
    assert res.x.tobytes() == np.array(want["x"]).tobytes()
    assert res.y.dtype == np.array(want["y"]).dtype
    assert res.y.tobytes() == np.array(want["y"]).T.tobytes()
    if want["F"] is None:
        assert res._F is None
    else:
        assert res._F.tobytes() == np.array(want["F"]).tobytes()
    assert (res.stats["nfev"], res.stats["message"]) == (want["nfev"], want["message"])
    assert (res.tail is None) == (want["tail"] is None)
    assert res.tail is None or _bits(res.tail) == _bits(want["tail"])
    assert bool(want["rejected"]) >= (case == "plus-rejections")
    if case.endswith("-plain") or case == "minus-blowup":
        assert res.stats["message"] == ("tail bound reached" if kw else "blow-up")
    assert (res.stats["message"] == "a fell to A_FLOOR") == (case == "minus-a-floor")


@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.BS_S4], ids=lambda m: m.id)
def test_envelope_linear_run_is_the_oracle_controller_to_the_bit(met):
    res = integrate("minus", _shot_initial(-0.4, met), met, 15.0)
    rep = envelope_check(res)
    chart, fun = met.chart, _chart_rhs(ode._LINEAR, met)
    v, w = res.eval(rep.r)
    x0, y, x1 = float(chart.x_of_r(rep.r[0])), [float(v[0]), float(w[0])], float(
        chart.x_of_r(rep.r[-1]))
    fx, h_abs = dop853_oracle.first_step(fun, x0, y, x1, 1e-10, 1e-12, 2)
    xs, ys, Fs = [x0], [y], []
    for x, y, _, _, F, _ in dop853_oracle.controller(fun, x0, y, fx, h_abs, x1, 1e-10, 1e-12,
                                                     2, True):
        xs.append(x)
        ys.append(y)
        Fs.append(F)
    want = ode._interpolate(np.array(xs), np.array(Fs), np.array(ys).T, chart.x_of_r(rep.r))
    assert rep.lower_linear.tobytes() == want[0].tobytes()


def test_stiffness_error_is_the_oracle_controllers():
    # a NaN right-hand side past r = 1: both reject down to 10 ulp of x
    met = _euclidean_with_h2(lambda r: np.where(r > 1.0, np.nan, r * r))
    init = ProfileState(0.5, 0.1, -0.1)
    with pytest.raises(StiffnessError) as got:
        integrate("plus", init, met, 3.0)
    with pytest.raises(StiffnessError) as want:
        dop853_oracle.integrate("plus", init, met, 3.0)
    assert str(got.value) == str(want.value)
    assert _bits(got.value.state) == _bits(want.value.state)


def test_loop_names_are_not_the_stages(tmp_path):
    # the loop's bookkeeping (its grid, states, step sizes and stop) sets
    # none of the names that a stage sets, or a stage would overwrite it
    charts = [metric.EUCLIDEAN.chart, metric.HYPERBOLIC.chart, metric.S_CHART,
              _h_equals_r_table(tmp_path).chart, _euclidean_with_h2(lambda r: r * r).chart]
    systems = [(ode._MINUS, ode._TAIL_STOP, 2), (ode._MINUS_VARIATION, ode._TAIL_STOP, 2),
               (ode._PLUS, ode._PLUS_STOP, 2), (ode._SU3, ode._SU3_STOP, 5), (ode._LINEAR, (), 2)]
    for chart in charts:
        for rhs, stop, n_err in systems:
            n = len(rhs.dy)
            stage = set(ode._stage_lines(rhs, chart.stage, ode._STEP + ode._DENSE, 1, n))
            for dense in (False, True):
                source = ode._loop_source(rhs, stop, chart.stage, n, n_err, dense)
                lines = source.splitlines()
                names = {True: set(), False: set()}         # in a stage line or not
                for node in ast.walk(ast.parse(source)):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        names[lines[node.lineno - 1].strip() in stage].add(node.id)
                assert {"xs", "J", "h2", "a0", f"k{ode._N}_0"} <= names[True]
                assert {"x", "y0", "k0_0", "h", "grid", "states", "stop"} <= names[False]
                assert not names[True] & names[False], (chart.stage, rhs, dense)


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
