"""One entry rule for every public function that takes radii: NaN and
out-of-domain input raise DomainError, a float gives a float, an array
an array, and both take one path to the same bits."""

import functools
import math

import numpy as np
import pytest

from g2mono import green, metric, oracles, shooting
from g2mono.metric import BS_S4, EUCLIDEAN, DomainError


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
    "h-euclidean": (EUCLIDEAN.h, 1.5, [0.0, -1.0]),
    "h-bs_s4": (BS_S4.h, 1.5, [0.0, -1.0]),
    "h2-bs_s4": (BS_S4.h2, 1.5, [0.0, -1.0]),
    "green_tail-bs_s4": (BS_S4.green_tail, 1.5, [0.0, -1.0]),
    "su3_u": (lambda s: oracles.su3_u(2.0, s), 1.5, [-1.0, math.inf]),
    "bs_instanton_profile": (lambda s: oracles.bs_instanton_profile(-1, s), 1.5,
                             [-1.0, math.inf]),
    "phi-charge-0": (lambda r: green.dirac(BS_S4, 0, 1.0).phi(r), 1.5, [0.0, -1.0]),
    "phi-charge-1": (lambda r: green.dirac(BS_S4, 1, 1.0).phi(r), 1.5, [0.0, -1.0]),
    "eval_a": (lambda r: _profile().eval_a(r), 1.5, [-1.0]),
    "eval_phi": (lambda r: _profile().eval_phi(r), 1.5, [-1.0]),
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
