"""Closed-form families: values, derivatives, residuals, field conversion."""

import numpy as np
import pytest

from g2mono import metric, ode, oracles
from g2mono.metric import S_CHART, DomainError, bs_f2
from g2mono.ode import ProfileState
from g2mono.shooting import solve_monopole

RS = np.geomspace(0.01, 10.0, 200)


def test_bps_point_values():
    st = oracles.bps_mass(1.0).state(1.0)
    assert abs(st.a - 0.85092) <= 1e-5
    assert abs(st.phi + 0.15652) <= 1e-5


def test_hyperbolic_point_values():
    st = oracles.hyperbolic(1.0).state(1.0)
    assert abs(st.a - 2 * np.sinh(1) / np.sinh(2)) <= 1e-12
    assert abs(st.a - 0.64805) <= 1e-5
    assert abs(st.phi + 0.38079) <= 1e-5


def test_small_r_stability():
    # bps(C, 0) is one formula at every r: it has the right limits at 0
    # and no seam across r = 1e-3
    st = oracles.bps_mass(1.0).state(0.0)
    assert st.a == 1.0 and st.phi == 0.0
    lo = oracles.bps_mass(1.0).state(9.99e-4)
    hi = oracles.bps_mass(1.0).state(1.001e-3)
    # the fields themselves vary by ~|f'| * 2e-6 across the gap
    assert abs(lo.a - hi.a) <= 1e-6
    assert abs(lo.phi - hi.phi) <= 1e-6


def test_bps_matches_mpmath():
    # 40-digit reference at the argument x = C r the helpers see (a at
    # x ~ 300 also carries x times the rounding of C r).  All four hold
    # 1e-14 across the |x| = 0.2 switch: the derivative series carry one
    # term more than the value series for that.
    mp = pytest.importorskip("mpmath")
    bounds = (1e-14, 1e-14, 1e-14, 1e-14)            # a, phi, a', phi'
    for C in (1.0, 7.3):
        form = oracles.bps(C, 0.0)
        for r in map(float, np.geomspace(1e-6, 40.0, 300)):
            st = form.state(r)
            got = (st.a, st.phi, *form.derivative(r))
            with mp.workdps(40):
                x, c = mp.mpf(C * r), mp.mpf(C)
                sh = mp.sinh(x)
                exact = (x / sh, -c / 2 * (mp.coth(x) - 1 / x),
                         c * (1 / sh - x * mp.cosh(x) / sh ** 2),
                         -c * c / 2 * (1 / x ** 2 - 1 / sh ** 2))
                for g, e, bound in zip(got, exact, bounds):
                    assert abs((g - e) / e) <= bound, (C, r, g, e)


def test_bps_residual():
    r = oracles.residual(oracles.bps_mass(1.0), "minus", metric.EUCLIDEAN, RS)
    assert r <= 1e-12


def test_bps_general_family_residual():
    # D > 0: solves the system but is not extendable (a(0) != 1)
    form = oracles.bps(2.0, 0.5)
    r = oracles.residual(form, "minus", metric.EUCLIDEAN, RS)
    assert r <= 1e-12
    a0 = form.state(1e-6).a
    assert abs(a0 - 1.0) > 0.5


def test_hyperbolic_residual():
    for m in (1.0, 2.5):
        r = oracles.residual(oracles.hyperbolic(m), "minus",
                             metric.HYPERBOLIC, RS)
        assert r <= 5e-12


def test_dirac_exact():
    form = oracles.dirac_euclidean(1.0)
    st = form.state(2.0)
    assert st.a == 0.0 and st.phi == 1.25
    assert oracles.residual(form, "minus", metric.EUCLIDEAN, RS) == 0.0
    with pytest.raises(DomainError):
        form.state(0.0)


def test_flat_residual_zero():
    for met in (metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4):
        assert oracles.residual(oracles.flat(), "minus", met, RS) == 0.0


def test_residual_checks_the_integrated_rhs(monkeypatch):
    # the residual and a shot evaluate the one minus right-hand side
    spec, calls = ode._SYSTEMS["minus"], []

    def counted(*args):
        calls.append(args[0])
        return spec.f(*args)

    monkeypatch.setitem(ode._SYSTEMS, "minus", spec._replace(f=counted))
    assert oracles.residual(oracles.bps_mass(1.0), "minus", metric.EUCLIDEAN,
                            RS) <= 1e-12
    assert calls == RS.tolist()
    calls.clear()
    res = ode.integrate("minus", oracles.bps_mass(1.0).state(0.05),
                        metric.EUCLIDEAN, 10.0)
    assert res.classification == "bounded"
    assert len(calls) == res.stats["nfev"]


def test_minus_system_is_odd_in_a():
    # a -> -a maps solutions to solutions: a' changes sign, phi' does not
    assert oracles.residual(oracles.bs_instanton(-1), "minus", metric.BS_S4,
                            RS) == 0.0
    for met in (metric.EUCLIDEAN, metric.HYPERBOLIC, metric.BS_S4):
        for r, a, phi in ((0.3, 0.9, -0.1), (1.7, 2.5, 0.4), (6.0, 1e-9, -3.0)):
            da, dphi = ode.rhs("minus", ProfileState(r, a, phi), met)
            got = ode.rhs("minus", ProfileState(r, -a, phi), met)
            assert list(map(float.hex, got)) == [(-da).hex(), dphi.hex()]


def test_residual_does_not_hide_nan():
    # max(worst, nan) keeps worst: a NaN term must not read as 0.0
    with np.errstate(invalid="ignore"):
        for form, met in ((oracles.bps_mass(np.nan), metric.EUCLIDEAN),
                          (oracles.bps(np.nan, 0.0), metric.EUCLIDEAN),
                          (oracles.hyperbolic(np.inf), metric.HYPERBOLIC)):
            assert not np.isfinite(oracles.residual(form, "minus", met, RS))

    # the flat state, NaN past r = 2.5: one NaN term after a finite one
    nan_late = oracles.ClosedForm(
        "nan_late", (), lambda r: ProfileState(r, np.nan if r > 2.5 else 1.0, 0.0),
        lambda r: (0.0, 0.0))
    assert oracles.residual(nan_late, "minus", metric.EUCLIDEAN, [1.0, 2.0]) == 0.0
    assert np.isnan(oracles.residual(nan_late, "minus", metric.EUCLIDEAN, [1.0, 3.0]))


def test_su3_u_values():
    assert oracles.su3_u(0.0, 3.7) == 1.0
    assert oracles.su3_u(5.0, 0.0) == 1.0
    # c=1, s->inf: limit (1-c)/(1+c) = 0
    assert abs(oracles.su3_u(1.0, 1e8)) <= 1e-7


@pytest.mark.parametrize("s", [np.nan, np.inf, -1.0, [0.0, np.nan],
                               [0.5, np.inf]],
                         ids=["nan", "inf", "negative", "array-nan", "array-inf"])
def test_s_domain_oracles_reject_non_finite_s(s):
    with pytest.raises(DomainError, match="s must be finite and >= 0"):
        oracles.su3_u(1.0, s)
    with pytest.raises(DomainError, match="s must be finite and >= 0"):
        oracles.bs_instanton_profile(1, s)


def test_su3_instanton_residuals():
    rhos = np.array([metric.rho_of_s(s) for s in np.geomspace(0.01, 50, 80)])
    for c in (0.0, 1.0, 2.0, 5.0):
        for branch in (1, -1):
            form = oracles.su3_instanton(c, branch)
            r = oracles.residual(form, "su3", metric.BS_S4, rhos)
            assert r <= 1e-10, (c, branch)


def test_su3_branch_and_domain_validation():
    with pytest.raises(DomainError):
        oracles.su3_instanton(1.0, 2)
    with pytest.raises(DomainError):
        oracles.su3_instanton(-0.5)
    oracles.su3_instanton(-1.0)     # the flat special case is allowed


def test_bs_instanton_profile():
    s = np.array([0.0, 1.0, 3.0])
    out = oracles.bs_instanton_profile(1, s)
    assert np.all(out["b"] == 1.0)
    assert abs(out["a_conn"][0] - 1.0) <= 1e-15
    assert abs(out["a_conn"][1] - 2 ** -0.5) <= 1e-12
    assert oracles.residual(oracles.bs_instanton(1), "minus",
                            metric.BS_S4, RS) == 0.0


def test_solver_matches_oracles():
    for met, form in ((metric.EUCLIDEAN, oracles.bps_mass(0.5)),
                      (metric.HYPERBOLIC, oracles.hyperbolic(0.5))):
        prof = solve_monopole(met, 0.5)
        rs = np.linspace(0.0, 10.0, 101)
        a_ref = np.array([form.state(r).a for r in rs])
        assert np.max(np.abs(prof.eval_a(rs) - a_ref)) <= 1e-6


def physical_fields(profile, background: str):
    """Convert the rescaled solver field a to the
    geometric connection coefficient a_conn = f^2 * a on a BS
    background, with the asymptotic decay diagnostic."""
    chart = metric.get_metric(background).chart
    if chart is not S_CHART:
        raise ValueError("physical_fields requires a BS background")
    rho = np.asarray(profile.r, dtype=float)
    a = np.asarray(profile.a, dtype=float)
    pos = rho > 0
    a_conn = np.ones_like(rho)
    a_conn[pos] = bs_f2(chart.x_of_r(rho[pos])) * a[pos]
    return {"rho": rho, "a_conn": a_conn,
            "phi": np.asarray(profile.phi, dtype=float),
            "ratio_to_f2": np.where(pos, a, 1.0),
            "a_conn_limit": float(a_conn[-1])}


def test_physical_fields():
    prof = solve_monopole(metric.BS_S4, 1.0)
    table = physical_fields(prof, "bs_s4")
    assert table["a_conn"][0] == 1.0               # the first sample is r = 0
    assert abs(table["a_conn"][1] - 1.0) <= 1e-4   # the next is delta/128
    # monopole decays faster than the instanton's f^2 envelope
    assert table["a_conn_limit"] <= 1e-6
    assert table["ratio_to_f2"][-1] <= 1e-6
    with pytest.raises(ValueError):
        physical_fields(prof, "euclidean")


def test_parameter_validation():
    with pytest.raises(DomainError):
        oracles.bps(-1.0, 0.0)
    with pytest.raises(DomainError):
        oracles.bps_mass(0.0)
    with pytest.raises(DomainError):
        oracles.hyperbolic(-2.0)
    with pytest.raises(DomainError, match="sign must be"):
        oracles.bs_instanton(sign=0)
