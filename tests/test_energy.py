"""Intermediate energy: quadrature, exact boundary identity."""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from g2mono import metric, oracles
from g2mono.energy import (UndefinedEnergyError, boundary_term,
                           cumulative_simpson, cumulative_trapezoid,
                           energy_density, intermediate_energy)
from g2mono.ode import ProfileState, integrate
from g2mono.series import initial_data, v_series
from g2mono.shooting import MonopoleProfile, profile_of_beta, solve_monopole


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 4225])
def test_cumulative_rules_are_scipys(n):
    # the same floats as scipy.integrate's on uneven grids, to the bit
    from scipy.integrate import cumulative_simpson as simpson_ref
    from scipy.integrate import cumulative_trapezoid as trapezoid_ref
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.3
        y = rng.normal(size=n) * np.exp(rng.normal(size=n))
        assert cumulative_simpson(y, x).tobytes() == simpson_ref(
            y, x=x, initial=0.0).tobytes()
        assert cumulative_trapezoid(y, x).tobytes() == trapezoid_ref(
            y, x, initial=0.0).tobytes()


def test_flat_zero_energy():
    prof = profile_of_beta(0.0, metric.EUCLIDEAN)
    rep = intermediate_energy(prof, metric.EUCLIDEAN)
    assert rep.value == 0.0 and rep.identity_residual == 0.0


def test_mass_0_alone_does_not_make_a_profile_flat():
    # a solved m = 1.7 profile given mass 0 is integrated, and fails
    prof = solve_monopole(metric.EUCLIDEAN, 1.7)
    rep = intermediate_energy(replace(prof, mass=0.0), metric.EUCLIDEAN)
    assert abs(rep.value - 0.85) <= 1e-6
    assert rep.identity_residual == rep.value and not rep.passed


def test_euclidean_identity():
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    rep = intermediate_energy(prof, metric.EUCLIDEAN)
    assert rep.identity_residual <= 1e-6
    assert rep.max_partial_residual <= rep.quad_tol
    assert rep.passed


def test_boundary_term_values():
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    # BPS closed form: phi(10)(a(10)^2 - 1) with phi(10) = -0.45...
    ref = 0.5 * (1.0 / 10 - 1.0 / np.tanh(10.0))
    ref *= (10.0 / np.sinh(10.0)) ** 2 - 1.0
    assert abs(boundary_term(prof, 10.0) - ref) <= 1e-6
    # small-R limit: phi(0) = 0 kills the term
    assert abs(boundary_term(prof, 1e-3)) <= 1e-5


def test_boundary_term_converges_to_half_mass():
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    b_near = boundary_term(prof, 10.0)
    b_far = boundary_term(prof, 200.0)
    assert abs(b_far - 0.5) < abs(b_near - 0.5)
    assert abs(b_far - 0.5) <= 1e-2


def test_density_nonnegative_and_zero_at_origin():
    prof = solve_monopole(metric.BS_S4, 1.0)
    dens = energy_density(prof.r, prof.a, prof.phi, prof.h2)
    assert np.all(dens >= 0.0)
    assert energy_density(np.array([0.0]), np.array([1.0]),
                          np.array([0.0]), np.array([0.0]))[0] == 0.0


def test_linearity_in_mass():
    vals = []
    for m in (1.0, 2.0):
        prof = solve_monopole(metric.HYPERBOLIC, m)
        vals.append(intermediate_energy(prof, metric.HYPERBOLIC).value)
    assert abs(vals[0] - 0.5) <= 1e-5
    assert abs(vals[1] - 1.0) <= 1e-5


def test_blowup_energy_undefined():
    sol = v_series(1.0, metric.EUCLIDEAN.series_coeffs(12), 12)
    d, a, phi = initial_data(sol)
    res = integrate("minus", ProfileState(d, a, phi), metric.EUCLIDEAN,
                    100.0, tol=1e-10)

    class Bad:
        result = res
        mass = 1.0
        flat = False

    with pytest.raises(UndefinedEnergyError):
        intermediate_energy(Bad(), metric.EUCLIDEAN)


def test_instanton_branch_zero_energy():
    # a = 1, phi = 0 has vanishing reduced energy density everywhere
    rs = np.geomspace(0.01, 30.0, 100)
    dens = energy_density(rs, np.ones_like(rs), np.zeros_like(rs),
                          metric.BS_S4.h2(rs))
    assert np.max(np.abs(dens)) == 0.0


def _coarse(prof, met, n):
    """The solved profile with the rule on each step replaced by the
    n-node Gauss-Legendre rule, from the same interpolant and knots (the
    series head is kept)."""
    from numpy.polynomial.legendre import leggauss
    t, wk = leggauss(n)
    t, wk = 0.5 * (t + 1.0), 0.5 * wk
    res, chart = prof.result, met.chart
    dx = np.diff(res.x)[:, None]
    x_nodes = res.x[:-1, None] + dx * t
    v, w4 = res.eval_x(x_nodes.ravel())[:2]

    def then_knots(nodes, knots):
        return np.column_stack([nodes.reshape(len(knots), -1), knots]).ravel()

    head = 2 + 20                    # the knots at 0 and delta, the head nodes
    x = then_knots(x_nodes, res.x[1:])
    return SimpleNamespace(
        r=np.concatenate([prof.r[:head], chart.r_of_x(x)]),
        a=np.concatenate([prof.a[:head], then_knots(np.exp(0.5 * v),
                                                    np.exp(0.5 * res.y[0, 1:]))]),
        phi=np.concatenate([prof.phi[:head], then_knots(0.25 * w4, 0.25 * res.y[1, 1:])]),
        h2=np.concatenate([prof.h2[:head], chart.h2_of_x(x)]),
        w=np.concatenate([prof.w[:head], then_knots(dx * wk * chart.dr_dx(x_nodes),
                                                    np.zeros(len(dx)))]),
        mass=prof.mass)


def test_passed_is_criterion_11():
    # the helper rebuilds the solved rule at 20 nodes, to the bit; the
    # midpoint rule on the same steps misses m/2 by ~1e-3 and fails, and
    # so does the 2-node rule at m = 6 (~1e-5)
    for met in (metric.EUCLIDEAN, metric.BS_S4):
        prof = solve_monopole(met, 1.0)
        fine = intermediate_energy(prof, met)
        assert fine.passed is True
        assert intermediate_energy(_coarse(prof, met, 20), met).value == fine.value
        coarse = intermediate_energy(_coarse(prof, met, 1), met)
        assert coarse.identity_residual > 1e-5
        assert coarse.passed is False
        prof = solve_monopole(met, 6.0)
        assert intermediate_energy(prof, met).passed is True
        assert intermediate_energy(_coarse(prof, met, 2), met).passed is False


@pytest.mark.parametrize("met", [metric.EUCLIDEAN, metric.HYPERBOLIC,
                                 metric.BS_S4, metric.BS_CP2], ids=lambda m: m.id)
def test_energy_rule_meets_the_identity(met):
    # every solve's rule reaches E_I = m/2 far inside criterion 11's 1e-5
    for m in np.geomspace(0.25, 16.0, 7):
        rep = intermediate_energy(solve_monopole(met, m), met)
        assert rep.identity_residual <= 1e-9, (m, rep.identity_residual)
        assert rep.quad_tol <= 1e-7, (m, rep.quad_tol)
        assert rep.passed, m


_NAN, _INF = float("nan"), float("inf")
_RULE = dict(h2=[0.0, 1.0, 4.0], w=[0.0, 0.5, 0.0])


@pytest.mark.parametrize("r,a,phi,rule,match", [
    ([], [], [], dict(h2=[], w=[]), "at least 2 samples, not 0"),
    ([0.0], [1.0], [0.0], dict(h2=[0.0], w=[0.0]), "at least 2 samples, not 1"),
    ([0.0, 1.0, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], _RULE, "strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], _RULE, "strictly increasing"),
    ([-1.0, 0.0, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], _RULE, ">= 0"),
    ([0.0, _NAN, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], _RULE, "finite"),
    ([0.0, 1.0, _INF], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], _RULE, "finite"),
    ([0.0, 1.0, 2.0], [1.0, _NAN, 0.2], [0.0, -0.1, -0.2], _RULE, "a and phi"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -_INF, -0.2], _RULE, "a and phi"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], dict(w=_RULE["w"]),
     "lacks h2:"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], dict(h2=_RULE["h2"]),
     "lacks w:"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], {}, "lacks h2 and w"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2],
     dict(h2=_RULE["h2"], w=[0.0, _NAN, 0.0]), "weights w must be finite"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2],
     dict(h2=_RULE["h2"], w=[0.0, -0.5, 0.0]), "weights w must be finite and >= 0"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2],
     dict(h2=_RULE["h2"], w=[0.0, 0.5, 0.5]), "0 on the first and last"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2],
     dict(h2=_RULE["h2"], w=[0.0, 0.5]), "one length"),
], ids=["empty", "one-sample", "repeated-r", "decreasing-r", "negative-r",
        "nan-r", "inf-r", "nan-a", "inf-phi", "no-h2", "no-w", "no-h2-no-w",
        "nan-w", "negative-w", "end-w", "short-w"])
def test_malformed_samples_rejected(r, a, phi, rule, match):
    prof = SimpleNamespace(r=r, a=a, phi=phi, mass=1.0, **rule)
    with pytest.raises(ValueError, match=match):
        intermediate_energy(prof, metric.EUCLIDEAN)


def _flat_custom(tmp_path):
    """The custom backend h = r: a 13-term series and a 40-row table."""
    rows = "".join(f"{r!r},{r!r}\n" for r in np.geomspace(0.5, 200.0, 40).tolist())
    (tmp_path / "table.csv").write_text("r,h\n" + rows)
    cfg = tmp_path / "metric.txt"
    cfg.write_text("type=custom\ncoeffs=1" + ",0" * 12
                   + f"\ntable={tmp_path / 'table.csv'}\n")
    return metric.load_custom(str(cfg))


def _backend(name, tmp_path):
    return _flat_custom(tmp_path) if name == "custom" else metric.get_metric(name)


_BACKENDS = ["euclidean", "hyperbolic", "bs_s4", "bs_cp2", "custom"]


def test_energy_reads_the_solved_samples(monkeypatch, tmp_path):
    def no_fields(self, r):
        raise AssertionError("intermediate_energy evaluated the profile")

    monkeypatch.setattr(MonopoleProfile, "fields", no_fields)
    for name in _BACKENDS:
        met = _backend(name, tmp_path)
        prof = solve_monopole(met, 1.7)
        ref = intermediate_energy(prof, met)
        knots = prof.w == 0
        assert np.array_equal(ref.r, prof.r[knots])
        assert ref.r[0] == 0.0 and ref.r[-1] == prof.R_end
        assert abs(ref.r[1] / prof.delta - 1.0) <= 1e-15
        tail = float(met.green_tail(prof.R_end)) + 0.5 * prof.mass * prof.a[-1] ** 2
        assert ref.value == ref.partial[-1] + tail
        columns = dict(r=prof.r, a=prof.a, phi=prof.phi, h2=prof.h2, w=prof.w)
        copy = SimpleNamespace(mass=prof.mass, **{k: c.copy() for k, c in columns.items()})
        rep = intermediate_energy(copy, met)
        assert rep.value == ref.value and rep.quad_tol == ref.quad_tol, name
        assert np.array_equal(rep.partial, ref.partial), name
        for col in ("h2", "w"):              # no fallback to another rule
            del columns[col]
            with pytest.raises(ValueError, match=f"lacks {col}:"):
                intermediate_energy(SimpleNamespace(mass=prof.mass, **columns), met)
            columns[col] = getattr(prof, col)


@pytest.mark.parametrize("name", _BACKENDS)
def test_profile_h2_is_metric_h2(tmp_path, name):
    # to the bit on an identity chart, where h2_of_x is metric.h2; to the
    # 1e-12 that `g2mono energy` checks a CSV's h2 column against on BS
    met = _backend(name, tmp_path)
    prof = solve_monopole(met, 1.7)
    assert prof.h2.shape == prof.r.shape and prof.h2[0] == 0.0
    ref = met.h2(prof.r[1:])
    if met.chart.r_of_x is metric.BS_S4.chart.r_of_x:
        assert np.max(np.abs(prof.h2[1:] / ref - 1.0)) <= 1e-12
    else:
        assert np.array_equal(prof.h2[1:], ref)


def test_bs_solve_and_energy_invert_the_grid_once(monkeypatch):
    # nothing on the profile path is mapped r -> s: only the 20 series-head
    # radii go through metric.h2 as one array.  Scalar calls (shot
    # starts, G at R_end) are counted apart
    sizes, scalars = [], [0]
    s_of_rho = metric.s_of_rho

    def counted(rho):
        if np.ndim(rho):
            sizes.append(np.size(rho))
        else:
            scalars[0] += 1
        return s_of_rho(rho)

    monkeypatch.setattr(metric, "s_of_rho", counted)
    prof = solve_monopole(metric.BS_S4, 1.7)
    rep = intermediate_energy(prof, metric.BS_S4)
    assert rep.passed
    assert sizes and max(sizes) <= 20
    assert scalars[0] > 0


_PARENT = json.loads(
    (Path(__file__).parent / "data" / "solve_energy_parent.json").read_text())


@pytest.mark.parametrize("metric_id", ["euclidean", "hyperbolic", "bs_s4", "bs_cp2"])
def test_solve_and_energy_match_the_recorded_values(metric_id):
    # beta, mass, R_end and E_I as recorded in the file (see its note),
    # within 1e-14 max(1, |x|) to allow for other libm builds; the step
    # rule's |E_I - mass/2| is at most the replaced grid rule's
    met = metric.get_metric(metric_id)
    records = [r for r in _PARENT["records"] if r[0] == metric_id]
    assert len(records) == 6
    for _, m, *expected, grid, res, res_grid in records:
        assert res == abs(expected[-1] - 0.5 * expected[1]) <= res_grid
        assert res_grid == abs(grid - 0.5 * expected[1])
        prof = solve_monopole(met, m)
        got = (prof.beta, prof.mass, prof.R_end,
               intermediate_energy(prof, met).value)
        for g, x in zip(got, expected, strict=True):
            assert abs(g - x) <= 1e-14 * max(1.0, abs(x)), (m, got, expected)


def test_energy_rejects_a_profile_from_another_metric():
    # a euclidean profile on bs_s4 would give E_I = 0.4805 for m = 1
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    with pytest.raises(ValueError, match="profile solved on 'euclidean', not 'bs_s4'"):
        intermediate_energy(prof, metric.BS_S4)
    csv_like = SimpleNamespace(r=prof.r, a=prof.a, phi=prof.phi, h2=prof.h2,
                               w=prof.w, mass=prof.mass)
    assert intermediate_energy(csv_like, metric.EUCLIDEAN).value == \
        intermediate_energy(prof, metric.EUCLIDEAN).value
