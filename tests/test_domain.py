"""One entry rule for every public function that takes radii: NaN and
out-of-domain input raise DomainError, a float gives a float, an array
an array, and both take one path to the same bits.  h^2 and G take
0 < r < inf on every background.  A non-finite parameter of a closed
form, a Dirac monopole or an integration start raises DomainError
naming it."""

import functools
import math

import numpy as np
import pytest

from g2mono import green, metric, ode, oracles, shooting
from g2mono.metric import BS_S4, EUCLIDEAN, HYPERBOLIC, DomainError
from g2mono.ode import ProfileState, SU3State


@functools.lru_cache(maxsize=None)
def _profile():
    return shooting.solve_monopole(EUCLIDEAN, 1.0)


def _values(fn, x):
    """fn(x) as a list of values: a dict's values, the rows of a state, or
    the output itself."""
    out = fn(x)
    if isinstance(out, dict):
        return list(out.values())
    return list(out) if np.ndim(out) > np.ndim(x) else [out]


# name -> (function of the radius, a radius in the domain, radii outside it)
CASES = {
    "rho_of_s": (metric.rho_of_s, 1.5, [-1.0]),
    "s_of_rho": (metric.s_of_rho, 1.5, [-1.0, math.inf]),
    "bs_green_of_s": (metric.bs_green_of_s, 1.5, [-1.0]),
    "h2-euclidean": (EUCLIDEAN.h2, 1.5, [0.0, -1.0, math.inf]),
    "h2-hyperbolic": (HYPERBOLIC.h2, 1.5, [0.0, -1.0, math.inf]),
    "h2-bs_s4": (BS_S4.h2, 1.5, [0.0, -1.0, math.inf]),
    "green_tail-euclidean": (EUCLIDEAN.green_tail, 1.5, [0.0, -1.0, math.inf]),
    "green_tail-hyperbolic": (HYPERBOLIC.green_tail, 1.5, [0.0, -1.0, math.inf]),
    "green_tail-bs_s4": (BS_S4.green_tail, 1.5, [0.0, -1.0, math.inf]),
    "su3_u": (lambda s: oracles.su3_u(2.0, s), 1.5, [-1.0, math.inf]),
    "bs_instanton_profile": (lambda s: oracles.bs_instanton_profile(-1, s), 1.5,
                             [-1.0, math.inf]),
    "phi-charge-0": (lambda r: green.dirac(BS_S4, 0, 1.0).phi(r), 1.5,
                     [0.0, -1.0, math.inf]),
    "phi-charge-1": (lambda r: green.dirac(BS_S4, 1, 1.0).phi(r), 1.5,
                     [0.0, -1.0, math.inf]),
    "eval_a": (lambda r: _profile().eval_a(r), 1.5, [-1.0, math.inf]),
    "eval_phi": (lambda r: _profile().eval_phi(r), 1.5, [-1.0, math.inf]),
    "IntegrationResult.eval": (lambda r: _profile().result.eval(r), 1.5,
                               [1e-3, 1e4]),
}


@pytest.mark.parametrize("name", CASES)
def test_radius_convention(name):
    fn, r, bad = CASES[name]
    for x in [math.nan, np.array([r, math.nan])] + bad + [np.array([r, b]) for b in bad]:
        with pytest.raises(DomainError):
            fn(x)
    one = _values(fn, r)
    assert all(isinstance(v, float) for v in one)
    assert _values(fn, np.array(r)) == one           # a 0-d array is a float
    rs = np.array([r, 2.0 * r, r])
    many = _values(fn, rs)
    assert all(isinstance(v, np.ndarray) and v.shape == rs.shape for v in many)
    assert [v[0] for v in many] == one and [v[2] for v in many] == one


def _start(**change):
    state = dict(r=0.1, a=0.9, phi=-0.1)
    state.update(change)
    return lambda: ode.integrate("minus", ProfileState(**state), EUCLIDEAN, 5.0)


# name -> (call, the parameter its error must name)
NON_FINITE = {
    "bps-C-inf": (lambda: oracles.bps(math.inf, 0.0), "C"),
    "bps-C-nan": (lambda: oracles.bps(math.nan, 0.0), "C"),
    "bps-D-inf": (lambda: oracles.bps(1.0, math.inf), "D"),
    "bps-D-nan": (lambda: oracles.bps(1.0, math.nan), "D"),
    "bps_mass-inf": (lambda: oracles.bps_mass(math.inf), "m"),
    "bps_mass-nan": (lambda: oracles.bps_mass(math.nan), "m"),
    "hyperbolic-inf": (lambda: oracles.hyperbolic(math.inf), "m"),
    "hyperbolic-nan": (lambda: oracles.hyperbolic(math.nan), "m"),
    "dirac_euclidean-inf": (lambda: oracles.dirac_euclidean(-math.inf), "m"),
    "dirac_euclidean-nan": (lambda: oracles.dirac_euclidean(math.nan), "m"),
    "su3_instanton-inf": (lambda: oracles.su3_instanton(math.inf), "c"),
    "su3_instanton-nan": (lambda: oracles.su3_instanton(math.nan), "c"),
    "dirac-mass-inf": (lambda: green.dirac(BS_S4, 1, math.inf), "mass"),
    "dirac-mass-nan": (lambda: green.dirac(BS_S4, 1, math.nan), "mass"),
    "dirac-charge-inf": (lambda: green.dirac(BS_S4, math.inf, 1.0), "charge"),
    "dirac-charge-nan": (lambda: green.dirac(BS_S4, math.nan, 1.0), "charge"),
    "integrate-r-nan": (_start(r=math.nan), "initial r"),
    "integrate-r-inf": (_start(r=math.inf), "initial r"),
    "integrate-a-nan": (_start(a=math.nan), "initial a"),
    "integrate-a-inf": (_start(a=math.inf), "initial a"),
    "integrate-phi-nan": (_start(phi=math.nan), "initial phi"),
    "integrate-r_max-nan": (lambda: ode.integrate(
        "minus", ProfileState(0.1, 0.9, -0.1), EUCLIDEAN, math.nan), "r_max"),
    "integrate-su3-nan": (lambda: ode.integrate(
        "su3", SU3State(0.5, 1j, 1.0, 1j, 0.0, complex(math.nan, 0.0)), BS_S4, 1.0),
        "initial phi2"),
}


@pytest.mark.parametrize("name", NON_FINITE)
def test_non_finite_parameters_name_themselves(name):
    call, param = NON_FINITE[name]
    with pytest.raises(DomainError, match=f"^{param} must be"):
        call()
