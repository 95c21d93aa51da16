"""Closed-form solution families used as oracles.

Families (all exact solutions of their reduced systems):

* bps(C, D):       a = C r / sinh(Cr + D),  phi = (1/r - C coth(Cr+D))/2
                   (D = 0, C = m is the extendable BPS monopole)
* hyperbolic(m):   a = (m+1) sinh r / sinh((m+1) r),
                   phi = (coth r - (m+1) coth((m+1) r))/2
* dirac_euclidean(m):  a = 0,  phi = m + 1/(2r)  (the abelian solution
                   of the minus system in the fixed G >= 0 convention)
* flat:            a = 1, phi = 0
* bs_instanton(sign):  solver fields b = sign, phi = 0; geometric
                   connection coefficient a_conn = f^2 = (1+s^2)^(-1/2)
* su3_instanton(c, branch):  the five-field family built from u_c(s);
                   b1, b3 are purely imaginary for c > 0 (the closed form
                   sqrt(u_c^2 - 1) with u_c^2 <= 1), so evaluation and
                   residuals are done in complex arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .metric import MetricProfile, DomainError, bs_f, bs_f2, s_of_rho
from .ode import ProfileState, SU3State, rhs

# series of x/sinh(x) and of coth(x) - 1/x.  The values sum their first
# six terms below |x| = 0.2, the derivatives all of theirs below |x| = 0.4:
# their closed forms lose up to 2.6e-14 to cancellation just above 0.2
_A_SER = (1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0, 127.0 / 604800.0,
          -73.0 / 3421440.0, 1414477 / 653837184000, -8191 / 37362124800,
          16931177 / 762187345920000, -5749691557 / 2554547108585472000,
          91546277357 / 401428831349145600000)
_COTH_SER = (1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0, -1.0 / 4725.0,
             2.0 / 93555.0, -1382.0 / 638512875.0, 4 / 18243225,
             -3617 / 162820783125, 87734 / 38979295480125,
             -349222 / 1531329465290625)
_VALUE_TERMS, _PRIME_SWITCH = 6, 0.4


def _series_or_closed(x: float, coeffs, odd, closed, switch=0.2) -> float:
    """sum_k coeffs[k] x^(2k), times x when `odd`, for |x| < switch, else
    closed(x): numpy's sinh, cosh, tanh give inf where math's raise."""
    if not abs(x) < switch:
        return float(closed(x))
    x2 = x * x
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x2 + c
    return x * acc if odd else acc


def _x_over_sinh(x: float) -> float:
    """x / sinh(x), stable near 0."""
    return _series_or_closed(x, _A_SER[:_VALUE_TERMS], False, lambda t: t / np.sinh(t))


def _x_over_sinh_prime(x: float) -> float:
    """d/dx of x / sinh(x), stable near 0."""
    return _series_or_closed(
        x, [2 * k * c for k, c in enumerate(_A_SER)][1:], True,
        lambda t: 1.0 / np.sinh(t) - t * np.cosh(t) / (np.sinh(t) * np.sinh(t)),
        _PRIME_SWITCH)


def _coth_minus_inv(x: float) -> float:
    """coth(x) - 1/x, stable near 0."""
    return _series_or_closed(x, _COTH_SER[:_VALUE_TERMS], True,
                             lambda t: 1.0 / np.tanh(t) - 1.0 / t)


def _coth_minus_inv_prime(x: float) -> float:
    """d/dx of coth(x) - 1/x, i.e. 1/x^2 - csch^2(x), stable near 0."""
    return _series_or_closed(
        x, [(2 * k + 1) * c for k, c in enumerate(_COTH_SER)], False,
        lambda t: 1.0 / (t * t) - 1.0 / (np.sinh(t) * np.sinh(t)), _PRIME_SWITCH)


@dataclass(frozen=True)
class ClosedForm:
    """One member of a family: its fields at r and their analytic d/dr
    (explicit differentiation of the closed form, not the ODE
    right-hand sides)."""

    family: str
    params: tuple
    state: Callable = field(repr=False, compare=False)
    derivative: Callable = field(repr=False, compare=False)


def bps(C: float, D: float) -> ClosedForm:
    if C <= 0 or D < 0:
        raise DomainError("bps family requires C > 0, D >= 0")
    C, D = float(C), float(D)

    def state(r):
        if r <= 0 and not (D == 0 and r == 0):
            raise DomainError("bps requires r > 0")
        if D == 0:                      # a = xos(Cr), phi = -(C/2) cmi(Cr)
            return ProfileState(r, _x_over_sinh(C * r),
                                -0.5 * C * _coth_minus_inv(C * r))
        X = C * r + D
        return ProfileState(r, float(C * r / np.sinh(X)),
                            float(0.5 * (1.0 / r - C / np.tanh(X))))

    def derivative(r):
        if D == 0:
            return (C * _x_over_sinh_prime(C * r),
                    -0.5 * C * C * _coth_minus_inv_prime(C * r))
        X = C * r + D
        sh, ch = np.sinh(X), np.cosh(X)
        da = C / sh - C * r * C * ch / sh ** 2
        dphi = 0.5 * (-1.0 / r ** 2 + C * C / sh ** 2)
        return (float(da), float(dphi))

    return ClosedForm("bps", (C, D), state, derivative)


def bps_mass(m: float) -> ClosedForm:
    if m <= 0:
        raise DomainError("bps_mass requires m > 0")
    return bps(m, 0.0)


def hyperbolic(m: float) -> ClosedForm:
    """a and phi are the quotient of the a's and the difference of the
    phi's of bps(m+1, 0) and bps(1, 0)."""
    if m <= 0:
        raise DomainError("hyperbolic family requires m > 0")
    top, bottom = bps(m + 1.0, 0.0), bps(1.0, 0.0)

    def state(r):
        t, b = top.state(r), bottom.state(r)
        return ProfileState(r, t.a / b.a, t.phi - b.phi)

    def derivative(r):
        t, b = top.state(r).a, bottom.state(r).a
        (dt, dphi_t), (db, dphi_b) = top.derivative(r), bottom.derivative(r)
        return ((dt * b - t * db) / (b * b), dphi_t - dphi_b)

    return ClosedForm("hyperbolic", (float(m),), state, derivative)


def dirac_euclidean(m: float) -> ClosedForm:
    m = float(m)

    def state(r):
        if r <= 0:
            raise DomainError("Dirac monopole is singular at r = 0")
        return ProfileState(r, 0.0, m + 0.5 / r)

    return ClosedForm("dirac_euclidean", (m,), state,
                      lambda r: (0.0, -0.5 / r ** 2))


def _constant(family: str, params: tuple, a: float) -> ClosedForm:
    """a fixed, phi = 0."""
    return ClosedForm(family, params, lambda r: ProfileState(r, a, 0.0),
                      lambda r: (0.0, 0.0))


def flat() -> ClosedForm:
    return _constant("flat", (), 1.0)


def bs_instanton(sign: int = 1) -> ClosedForm:
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    return _constant("bs_instanton", (sign,), float(sign))


def su3_instanton(c: float, branch: int = 1) -> ClosedForm:
    if branch not in (-1, 1):
        raise DomainError("branch must be +1 or -1")
    if c < 0 and c != -1:
        raise DomainError("family requires c >= 0 (or the flat case c = -1)")
    c = float(c)

    def fields(r):                      # s, u_c(s), b1 = sqrt(u_c^2 - 1)
        s = s_of_rho(r)
        u = su3_u(c, s)
        return s, u, complex(np.sqrt(complex(u * u - 1.0)))

    def state(r):
        _, u, b1 = fields(r)
        return SU3State(r, b1, branch * u, branch * b1, 0.0, 0.0)

    def derivative(r):
        s, u, b1 = fields(r)
        up = _su3_u_prime(c, s)
        f = bs_f(s)
        # d/d rho = f^{-1} d/ds; d b1/ds = u u' / sqrt(u^2-1)
        db1 = (u * up / b1) / f if b1 != 0 else 0.0j
        db2 = branch * up / f
        return (db1, db2, branch * db1, 0.0, 0.0)

    return ClosedForm("su3_instanton", (c, branch), state, derivative)


# ---------------------------------------------------------------------------
# u_c and the BS instanton profile
# ---------------------------------------------------------------------------

def _fiber_coordinate(s):
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0) & (s < np.inf)):
        raise DomainError("s must be finite and >= 0")
    return s


def su3_u(c: float, s):
    """u_c(s) = 1 - 2 c s^2 / (s^2 (1+c) + 2 (sqrt(1+s^2) + 1))."""
    s = _fiber_coordinate(s)
    den = s * s * (1.0 + c) + 2.0 * (np.sqrt(1.0 + s * s) + 1.0)
    if np.any(den <= 0):
        raise DomainError("u_c denominator must be positive")
    out = 1.0 - 2.0 * c * s * s / den
    return float(out) if out.ndim == 0 else out


def _su3_u_prime(c: float, s: float) -> float:
    """Analytic d u_c/ds by the quotient rule (independent of the ODE)."""
    den = s * s * (1.0 + c) + 2.0 * (math.sqrt(1.0 + s * s) + 1.0)
    dden = 2.0 * s * (1.0 + c) + 2.0 * s / math.sqrt(1.0 + s * s)
    num = 2.0 * c * s * s
    dnum = 4.0 * c * s
    return -(dnum * den - num * dden) / (den * den)


def bs_instanton_profile(sign: int, s):
    """Solver-variable instanton (b = sign) plus the geometric
    connection coefficient a_conn = f^2(s)."""
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    s = _fiber_coordinate(s)
    return {"b": sign * np.ones_like(s), "a_conn": bs_f2(s)}


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residual(form: ClosedForm, system: str, metric: MetricProfile, radii) -> float:
    """sup over radii of |d(state)/dr - ode.rhs(system, state)| (plus:
    sigma = -1) for a ClosedForm.  A NaN term makes the result NaN."""
    terms = []
    for r in np.atleast_1d(radii):
        r = float(r)
        terms += [abs(x - y) for x, y in
                  zip(form.derivative(r), rhs(system, form.state(r), metric))]
    # np.max, unlike max(), does not drop a NaN that follows a number
    return float(np.max(terms, initial=0.0))
