"""Dirac monopoles: harmonicity, singular/asymptotic behavior."""

import math

import numpy as np
import pytest

from g2mono import metric, green, ode
from g2mono.metric import DomainError, NonparabolicRequired

RS = np.geomspace(0.1, 50.0, 40)


def test_dirac_euclidean_closed_form():
    d = green.dirac(metric.EUCLIDEAN, 1, 1.0)
    for r in (0.5, 2.0, 10.0):
        assert abs(d.phi(r) - (-1.0 - 0.5 / r)) <= 1e-14
        assert abs(abs(d.phi(r)) - (1.0 + 0.5 / r)) <= 1e-14


def test_charge_zero_constant():
    d = green.dirac(metric.BS_S4, 0, 2.0)
    assert d.phi(0.3) == -2.0 and d.phi(30.0) == -2.0
    assert green.harmonicity_check(d, RS) == 0.0


def test_mass_at_infinity_and_singularity():
    d = green.dirac(metric.BS_CP2, 2, 1.5)
    assert abs(abs(d.phi(500.0)) - 1.5) <= 1e-10
    assert abs(d.phi(1e-4)) > 1e3


def test_harmonicity_residuals():
    assert green.harmonicity_check(green.dirac(metric.EUCLIDEAN, 1, 1.0),
                                   RS) <= 1e-9
    assert green.harmonicity_check(green.dirac(metric.BS_S4, 1, 1.0),
                                   RS) <= 1e-7
    assert green.harmonicity_check(green.dirac(metric.HYPERBOLIC, 3, 0.5),
                                   RS) <= 1e-7


def test_dirac_is_a_to_zero_limit():
    # integrating the monopole flow with a = 0 reproduces phi_D up to a
    # constant: phi' = -1/(2h^2) = G', the charge -1 abelian field
    met = metric.BS_S4
    res = ode.integrate("plus", ode.ProfileState(1.0, 0.0, 0.0), met,
                        r_max=30.0, tol=1e-12, sigma=-1)
    d = green.dirac(met, -1, 0.0)
    rs = np.linspace(1.0, 30.0, 60)
    phi_flow = res.eval(rs)[1]
    shift = d.phi(1.0) - phi_flow[0]
    assert np.max(np.abs(phi_flow + shift - d.phi(rs))) <= 1e-9


def test_asymptotic_fit_bs():
    # G = (32/5)(rho + c)^-5 + O(rho^-9), c = 2 sqrt(pi) Gamma(3/4)/Gamma(1/4)
    c = 2.0 * math.sqrt(math.pi) * math.gamma(0.75) / math.gamma(0.25)
    for met in (metric.BS_S4, metric.BS_CP2):
        for charge in (1, 2):
            fit = green.asymptotic_fit(green.dirac(met, charge, 1.0))
            assert abs(fit.exponent + 5.0) <= 1e-6
            assert abs(fit.offset - c) <= 1e-6
            assert abs(fit.amplitude / charge - 32.0 / 5.0) <= 1e-6 * 6.4
            assert fit.max_rel_residual <= 1e-9


def test_asymptotic_fit_euclidean_is_exact():
    for charge in (1, -3):
        fit = green.asymptotic_fit(green.dirac(metric.EUCLIDEAN, charge, 0.5))
        assert abs(fit.exponent + 1.0) <= 1e-12
        assert abs(fit.amplitude - abs(charge) / 2.0) <= 1e-12
        assert abs(fit.offset) <= 1e-12 and fit.max_rel_residual <= 1e-12


def test_asymptotic_fit_does_not_depend_on_the_mass():
    for met in (metric.EUCLIDEAN, metric.BS_S4):
        fits = {repr(green.asymptotic_fit(green.dirac(met, 2, m)))
                for m in (0.0, 1.0, 100.0)}
        assert len(fits) == 1, fits


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_asymptotic_fit_rejects_an_exponential_tail(mass):
    # on hyperbolic 2 h^2 G = 1/2 at the fit radii: no power law to read off
    with pytest.raises(DomainError, match="not a power law"):
        green.asymptotic_fit(green.dirac(metric.HYPERBOLIC, 1, mass))


def test_loglog_slope_raw():
    # even without the offset, the raw log-log slope is near -5 over
    # rho in [20, 100]
    d = green.dirac(metric.BS_S4, 1, 1.0)
    rs = np.geomspace(20.0, 100.0, 30)
    y = np.log(np.abs(np.asarray(d.phi(rs)) + 1.0))
    slope = np.polyfit(np.log(rs), y, 1)[0]
    assert abs(slope + 5.0) <= 0.25


def test_validation():
    with pytest.raises(DomainError):
        green.dirac(metric.EUCLIDEAN, 1, -1.0)
    with pytest.raises(DomainError):
        green.asymptotic_fit(green.dirac(metric.BS_S4, 0, 1.0))


def test_parabolic_rejected(tmp_path):
    rs = np.geomspace(0.5, 100.0, 80)
    table = tmp_path / "t.csv"
    table.write_text("r,h\n" + "\n".join(f"{r},{r**0.4}" for r in rs) + "\n")
    cfg = tmp_path / "m.txt"
    cfg.write_text(f"type=custom\ncoeffs=1,0\ntable={table}\n")
    met = metric.load_custom(str(cfg))
    with pytest.raises(NonparabolicRequired):
        green.dirac(met, 1, 1.0)
    # charge 0 needs no Green's function
    assert green.dirac(met, 0, 1.0).phi(2.0) == -1.0


@pytest.mark.parametrize("call, match", [
    (lambda: green.dirac(metric.EUCLIDEAN, 1.5, 1.0), "charge must be an integer"),
    (lambda: green.harmonicity_check(green.dirac(metric.EUCLIDEAN, 1, 0.0),
                                     [1.0, 0.0]), "radii must be > 0"),
    # at charge 0 too, where the check is 0 at every radius
    (lambda: green.harmonicity_check(green.dirac(metric.EUCLIDEAN, 0, 1.0),
                                     [1.0, 0.0]), "radii must be > 0"),
    (lambda: green.harmonicity_check(green.dirac(metric.BS_S4, 0, 1.0),
                                     math.nan), "radii must be > 0"),
], ids=["dirac-charge", "harmonicity-radius", "harmonicity-charge-0-radius",
        "harmonicity-charge-0-nan"])
def test_green_input_checks(call, match):
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("charge", [0, 1])
def test_harmonicity_check_rejects_infinite_radii(charge):
    # one 0 < r < inf check before the charge-0 return and before G is read
    d = green.dirac(metric.EUCLIDEAN, charge, 1.0)
    for radii in ([1.0, math.inf], math.inf, np.array([2.0, math.inf])):
        with pytest.raises(DomainError, match=r"^radii must be > 0 and < inf$"):
            green.harmonicity_check(d, radii)
