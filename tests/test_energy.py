"""Intermediate energy: quadrature, exact boundary identity."""

import json
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
    dens = energy_density(prof.r, prof.a, prof.phi, metric.BS_S4)
    assert np.all(dens >= 0.0)
    assert energy_density(np.array([0.0]), np.array([1.0]),
                          np.array([0.0]), metric.BS_S4)[0] == 0.0


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
                          metric.BS_S4)
    assert np.max(np.abs(dens)) == 0.0


def _subsampled(prof, step):
    """The profile's series head plus every `step`-th dense-output sample."""
    keep = np.r_[0:128, 128 + np.arange(0, 4097, step)]
    return SimpleNamespace(r=prof.r[keep], a=prof.a[keep],
                           phi=prof.phi[keep], mass=prof.mass)


def test_passed_is_criterion_11():
    # coarse grids used to pass through a 10 * quad_tol escape
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    fine = intermediate_energy(prof, metric.EUCLIDEAN)
    assert fine.passed is True
    coarse = intermediate_energy(_subsampled(prof, 256), metric.EUCLIDEAN)
    assert coarse.identity_residual > 1e-5
    assert coarse.passed is False
    two = intermediate_energy(_subsampled(prof, 4096), metric.EUCLIDEAN)
    assert two.passed is False
    prof = solve_monopole(metric.BS_S4, 1.0)
    assert intermediate_energy(prof, metric.BS_S4).passed is True
    assert intermediate_energy(_subsampled(prof, 256), metric.BS_S4).passed is False


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("r,a,phi,match", [
    ([], [], [], "at least 2 samples, not 0"),
    ([0.0], [1.0], [0.0], "at least 2 samples, not 1"),
    ([0.0, 1.0, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], "strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], "strictly increasing"),
    ([-1.0, 0.0, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], ">= 0"),
    ([0.0, _NAN, 1.0], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], "finite"),
    ([0.0, 1.0, _INF], [1.0, 0.5, 0.2], [0.0, -0.1, -0.2], "finite"),
    ([0.0, 1.0, 2.0], [1.0, _NAN, 0.2], [0.0, -0.1, -0.2], "a and phi"),
    ([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [0.0, -_INF, -0.2], "a and phi"),
], ids=["empty", "one-sample", "repeated-r", "decreasing-r", "negative-r",
        "nan-r", "inf-r", "nan-a", "inf-phi"])
def test_malformed_samples_rejected(r, a, phi, match):
    prof = SimpleNamespace(r=r, a=a, phi=phi, mass=1.0)
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
        # without `h2`, the copy takes h^2 from metric.h2(r)
        copy = SimpleNamespace(r=prof.r.copy(), a=prof.a.copy(),
                               phi=prof.phi.copy(), mass=prof.mass)
        for p in (prof, copy):
            rep = intermediate_energy(p, met)
            assert rep.value == ref.value and rep.quad_tol == ref.quad_tol, name
            assert np.array_equal(rep.r, prof.r)
            assert np.array_equal(rep.partial, ref.partial), name


@pytest.mark.parametrize("name", _BACKENDS)
def test_profile_h2_is_metric_h2(tmp_path, name):
    met = _backend(name, tmp_path)
    prof = solve_monopole(met, 1.7)
    assert prof.h2.shape == prof.r.shape and prof.h2[0] == 0.0
    assert np.array_equal(prof.h2[1:], met.h2(prof.r[1:]))


def test_bs_solve_and_energy_invert_the_grid_once(monkeypatch):
    # the 4097 dense radii are mapped to s once, for the interpolant and
    # h^2 alike; only the 127 positive series-head radii go through
    # metric.h2.  Scalar calls (shot ends, G at R_end) are counted apart
    points, scalars = [0], [0]
    s_of_rho = metric.s_of_rho

    def counted(rho):
        if np.ndim(rho):
            points[0] += np.size(rho)
        else:
            scalars[0] += 1
        return s_of_rho(rho)

    monkeypatch.setattr(metric, "s_of_rho", counted)
    prof = solve_monopole(metric.BS_S4, 1.7)
    rep = intermediate_energy(prof, metric.BS_S4)
    assert rep.passed
    assert points[0] <= 4097 + 127
    assert scalars[0] > 0


_PARENT = json.loads(
    (Path(__file__).parent / "data" / "solve_energy_parent.json").read_text())


@pytest.mark.parametrize("metric_id", ["euclidean", "hyperbolic", "bs_s4", "bs_cp2"])
def test_solve_and_energy_match_the_recorded_values(metric_id):
    # beta, mass, R_end and E_I as recorded in the file (see its note),
    # within 1e-14 max(1, |x|) to allow for other libm builds
    met = metric.get_metric(metric_id)
    records = [r for r in _PARENT["records"] if r[0] == metric_id]
    assert len(records) == 6
    for _, m, *expected in records:
        prof = solve_monopole(met, m)
        got = (prof.beta, prof.mass, prof.R_end,
               intermediate_energy(prof, met).value)
        for g, x in zip(got, expected):
            assert abs(g - x) <= 1e-14 * max(1.0, abs(x)), (m, got, expected)


def test_energy_rejects_a_profile_from_another_metric():
    # a euclidean profile on bs_s4 would give E_I = 0.4805 for m = 1
    prof = solve_monopole(metric.EUCLIDEAN, 1.0)
    with pytest.raises(ValueError, match="profile solved on 'euclidean', not 'bs_s4'"):
        intermediate_energy(prof, metric.BS_S4)
    csv_like = SimpleNamespace(r=prof.r, a=prof.a, phi=prof.phi, mass=prof.mass)
    assert intermediate_energy(csv_like, metric.EUCLIDEAN).value == \
        intermediate_energy(prof, metric.EUCLIDEAN).value
