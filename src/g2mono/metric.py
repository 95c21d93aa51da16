"""Radial metric backgrounds g = dr^2 + h^2(r) g_{S^2}.

Four built-in backends (euclidean, hyperbolic and the two Bryant-Salamon
manifolds Lambda^2_-(S^4) and Lambda^2_-(CP^2)), plus a file-defined
custom backend.  The two Bryant-Salamon metrics have the same radial
function h^2 = s^2 sqrt(1+s^2), so one profile serves both: BS_CP2 is
BS_S4 under another id, sharing its functions.  Each background exposes

* exact evaluation h(r),
* the local expansion h^2(r) = r^2 (phi_0 + phi_1 r + ...) with exact
  rational coefficients,
* the Green's-function tail G(r) = int_r^inf dt / (2 h^2(t))  (fixed
  sign convention: G >= 0, G(inf) = 0),
* the integration chart: the radial coordinate x(r) the ODEs are
  integrated in, with its inverse r(x), the Jacobian dr/dx and h^2 as a
  function of x.  Every background but the two BS profiles uses the
  identity chart x = r; the BS profiles use the fiber coordinate s, in
  which h^2 = s^2 sqrt(1+s^2) is explicit, so no right-hand side has to
  invert rho(s).

The BS reparametrization rho(s) = int_0^s (1+t^2)^(-1/4) dt and the tail
integral both reduce to Gauss hypergeometric functions, summed here as
power series in a variable of at most 1/2 (plain floats for a float,
numpy for an array); a custom table's tail integral has a closed form on
each log-log linear segment.  So no runtime quadrature is needed, and the
module needs numpy only; independent quadrature oracles live in the
tests.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fps import FormalSeries


class DomainError(ValueError):
    pass


class NonparabolicRequired(ValueError):
    """Raised when a Green's-function tail is requested on a background
    whose tail integral diverges."""


class UnsupportedBackend(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bryant-Salamon reparametrization
# ---------------------------------------------------------------------------

def bs_f2(s):
    """f^2 = (1+s^2)^(-1/2)."""
    return 1.0 / np.sqrt(1.0 + s * s)


def bs_f(s):
    """f = (1+s^2)^(-1/4) = d rho/ds."""
    return (1.0 + s * s) ** -0.25


# Past s = _S_FAR, rho(s) = 2 sqrt(s) - _RHO_OFFSET to double precision
# (the next term, s^(-3/2)/6, is below 1e-40 of rho), and the series
# below would overflow s^2 from s ~ 1.3e154 on.
_S_FAR = 1e20
_RHO_OFFSET = 1.1981402347355922     # 2 sqrt(pi) Gamma(3/4) / Gamma(1/4)
_RHO_FAR = 2.0 * math.sqrt(_S_FAR) - _RHO_OFFSET
_G_ZERO = 0.65551438857302995        # sqrt(pi) Gamma(5/4) / (2 Gamma(3/4))

# rho(s) and G(s) are Gauss hypergeometric functions F(a, b; c; z).  With
# q = 1 + s^2, w = s^2/q and u = 1/q:
#   s <= _S_SERIES:  rho = s F(1/2, 1/4; 3/2; -s^2), the defining series
#                    (s^2 <= 0.04, so about ten terms),
#   s <= 1:          rho = s q^(-1/4) F(1/4, 1; 3/2; w),
#                    G = F(1, 3/4; 1/2; w) / (2 s q^(3/4)) - _G_ZERO,
#   s > 1:           rho = 2 s q^(-1/4) F(1/4, 1; 3/4; u) - _RHO_OFFSET,
#                    G = u^(5/4) F(5/4, 3/2; 9/4; u) / 5.
# w and u are at most 1/2 where they are used (see _hyp for the number of
# terms).  A float and an array run the same operations, so they agree to
# the bit; fractional powers are built from sqrt, which is correctly
# rounded in math and numpy alike.
_S_SERIES = 0.2
_HYP_TERMS = 60
_SMALL = 64                 # rho_of_s takes shorter arrays one float at a time
_EPS = 2.0 ** -53


def _hyp2f1_coeffs(a: Fraction, b: Fraction, c: Fraction) -> list[float]:
    """The first _HYP_TERMS Taylor coefficients of F(a, b; c; z), highest
    first, each rounded once from its exact value."""
    term, out = Fraction(1), []
    for n in range(_HYP_TERMS):
        out.append(float(term))
        term *= (a + n) * (b + n) / ((c + n) * (n + 1))
    return out[::-1]


_F_RHO_W = _hyp2f1_coeffs(Fraction(1, 4), Fraction(1), Fraction(3, 2))
_F_RHO_U = _hyp2f1_coeffs(Fraction(1, 4), Fraction(1), Fraction(3, 4))
_F_G_W = _hyp2f1_coeffs(Fraction(1), Fraction(3, 4), Fraction(1, 2))
_F_G_U = _hyp2f1_coeffs(Fraction(5, 4), Fraction(3, 2), Fraction(9, 4))


def _horner(coeffs, z):
    acc = 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


def _hyp(coeffs, z):
    """F(z) from its Taylor coefficients, highest first: the lowest 16 of
    them where z <= 1/16, all _HYP_TERMS up to z = 1/2.  Either leaves
    out less than 1e-17 of F."""
    if isinstance(z, float):
        return _horner(coeffs[-16:] if z <= 1.0 / 16.0 else coeffs, z)
    return _split(z, 1.0 / 16.0, lambda t: _horner(coeffs[-16:], t),
                  lambda t: _horner(coeffs, t))


def _sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _rho_series(s):
    # the terms summed first to last, each from the one before, until one
    # is at most _EPS of the sum: the order in which the hypergeometric
    # function of scipy.special sums them, so that s_of_rho keeps the
    # floats of the hand-off radii that the recorded BS solves started from
    z = -s * s
    total = term = 1.0
    k = 0.0
    if isinstance(s, float):
        while True:
            term = term * ((0.5 + k) * (0.25 + k) * z / ((1.5 + k) * (k + 1.0)))
            total += term
            k += 1.0
            if not abs(term / total) > _EPS:
                return s * total
    running = np.ones_like(s, dtype=bool)
    while running.any():
        term = term * ((0.5 + k) * (0.25 + k) * z / ((1.5 + k) * (k + 1.0)))
        total = np.where(running, total + term, total)
        running &= np.abs(term / total) > _EPS
        k += 1.0
    return s * total


def _rho_w(s):
    q = 1.0 + s * s
    return s / _sqrt(_sqrt(q)) * _hyp(_F_RHO_W, s * s / q)


def _rho_u(s):
    q = 1.0 + s * s
    return 2.0 * s / _sqrt(_sqrt(q)) * _hyp(_F_RHO_U, 1.0 / q) - _RHO_OFFSET


def _green_w(s):
    q = 1.0 + s * s
    return _hyp(_F_G_W, s * s / q) * _sqrt(_sqrt(q)) / (2.0 * s * q) - _G_ZERO


def _green_u(s):
    u = 1.0 / (1.0 + s * s)
    return 0.2 * u * _sqrt(_sqrt(u)) * _hyp(_F_G_U, u)


def _split(s, bound, below, above):
    """below(s) where s <= bound, above(s) elsewhere; s is a float or an
    array."""
    if isinstance(s, float):
        return below(s) if s <= bound else above(s)
    out = np.empty_like(s)
    lo = s <= bound
    with np.errstate(over="ignore", divide="ignore"):
        for part, fn in ((lo, below), (~lo, above)):
            if part.any():
                out[part] = fn(s[part])
    return out


def _rho_near(s):
    return _split(s, _S_SERIES, _rho_series, _rho_w)


def _rho(s):
    """rho(s) by the series, for s below ~1e154 (each of s_of_rho's
    Halley steps calls it once)."""
    return _split(s, 1.0, _rho_near, _rho_u)


def _float_or_array(x):
    """x as a Python float when it is 0-d, else as a float array."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return x
    return float(x)


def rho_of_s(s):
    """Geodesic radius rho(s) = int_0^s (1+t^2)^(-1/4) dt: the series
    above, or its asymptote past _S_FAR."""
    s = _float_or_array(s)
    if isinstance(s, float):
        if not s >= 0:
            raise DomainError("s must be >= 0")
        return 2.0 * math.sqrt(s) - _RHO_OFFSET if s >= _S_FAR else _rho(s)
    if not np.all(s >= 0):
        raise DomainError("s must be >= 0")
    near = np.minimum(s, _S_FAR)
    if s.size < _SMALL:     # a shot's steps: faster one float at a time
        near = np.array([_rho(x) for x in near.ravel().tolist()]).reshape(s.shape)
    else:
        near = _rho(near)
    return np.where(s < _S_FAR, near, 2.0 * np.sqrt(s) - _RHO_OFFSET)


def _halley(s, rho):
    """Three Halley steps on rho(s) - rho from s: rho' = q^(-1/4),
    rho'' = -s q^(-5/4) / 2."""
    for _ in range(3):
        q = 1.0 + s * s
        g = _rho(s) - rho
        s = s - g / (1.0 / _sqrt(_sqrt(q)) + g * s / (4.0 * q))
    return s


def s_of_rho(rho):
    """Inverse of rho_of_s: three Halley steps, which reach the rounding
    of rho(s) from the series head rho (1 + rho^2/12) below rho = 1.5
    and from the inverted asymptote of rho_of_s above.  Past _RHO_FAR
    that asymptote is the answer; s is inf where it overflows."""
    rho = _float_or_array(rho)
    if isinstance(rho, float):
        if not 0.0 <= rho < math.inf:
            raise DomainError("rho must be finite and >= 0")
        half = 0.5 * (rho + _RHO_OFFSET)
        if rho >= _RHO_FAR:
            return half * half
        return _halley(rho * (1.0 + rho * rho / 12.0) if rho < 1.5 else half * half, rho)
    if not np.all((rho >= 0) & (rho < np.inf)):
        raise DomainError("rho must be finite and >= 0")
    near = np.minimum(rho, _RHO_FAR)
    half = 0.5 * (near + _RHO_OFFSET)
    s = _halley(np.where(near < 1.5, near * (1.0 + near * near / 12.0), half * half), near)
    with np.errstate(over="ignore"):
        return np.where(rho < _RHO_FAR, s, np.square(0.5 * (rho + _RHO_OFFSET)))


def bs_h2_of_s(s):
    """h^2 as a function of s: s^2 sqrt(1+s^2)."""
    if isinstance(s, float):
        return s * s * math.sqrt(1.0 + s * s)
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):                # inf past s ~ 5.6e102
        out = s * s * np.sqrt(1.0 + s * s)
    return float(out) if out.ndim == 0 else out


def bs_green_of_s(s):
    """G as a function of s: int_s^inf f(t) dt / (2 h^2(t)), by the
    series above; G(0) = inf."""
    s = _float_or_array(s)
    if isinstance(s, float) and s == 0.0:
        return math.inf
    return _split(s, 1.0, _green_w, _green_u)


def _bs_series_coeffs(order: int) -> list[Fraction]:
    """Exact rational expansion of h^2(rho)/rho^2 for the BS profile.

    rho(s) is expanded and reverted, then composed into s^2 sqrt(1+s^2).
    """
    n = order + 4
    # integrand (1+t^2)^(-1/4) as series in t
    one_plus_t2 = FormalSeries([1, 0, 1], n)
    integrand = one_plus_t2.pow(Fraction(-1, 4))
    rho_ser = integrand.integrate().truncate(n + 1)  # rho(s), no constant term
    s_ser = rho_ser.reversion()                      # s(rho)
    s2 = s_ser * s_ser
    h2 = s2 * (FormalSeries([1], s2.order) + s2).pow(Fraction(1, 2))
    phi = h2.shift(-2)
    return [phi[i] for i in range(order + 1)]


# ---------------------------------------------------------------------------
# MetricProfile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Integration coordinate x(r).  Each map takes a float or an array
    and returns the same kind, except that the identity chart's dr_dx
    returns 1.0, which broadcasts."""

    x_of_r: Callable
    r_of_x: Callable
    dr_dx: Callable
    h2_of_x: Callable


# BS fiber coordinate s; s_of_rho is looked up when called
S_CHART = Chart(x_of_r=lambda rho: s_of_rho(rho), r_of_x=rho_of_s,
                dr_dx=bs_f, h2_of_x=bs_h2_of_s)


def _identity(x):
    return x


@dataclass(frozen=True)
class MetricProfile:
    """Immutable radial background; all evaluations are pure."""

    id: str
    _h2: Callable = field(repr=False)
    _green: Optional[Callable] = field(repr=False)   # None: the tail diverges
    _series: Callable = field(repr=False)   # order -> list[Fraction]
    _chart: Optional[Chart] = field(default=None, repr=False)  # None: x = r

    @property
    def nonparabolic(self) -> bool:
        return self._green is not None

    @property
    def chart(self) -> Chart:
        if self._chart is not None:
            return self._chart
        return Chart(x_of_r=_identity, r_of_x=_identity,
                     dr_dx=lambda x: 1.0, h2_of_x=self.h2)

    def h(self, r):
        out = np.sqrt(self.h2(r))
        return float(out) if out.ndim == 0 else out

    def h2(self, r):
        if isinstance(r, float):            # the right-hand side's hot path
            if not r > 0:
                raise DomainError("h2(r) requires r > 0")
            return float(self._h2(r))
        r_arr = np.asarray(r, dtype=float)
        if not np.all(r_arr > 0):
            raise DomainError("h2(r) requires r > 0")
        out = self._h2(r_arr)
        return float(out) if np.ndim(out) == 0 else out

    def series_coeffs(self, order: int) -> list[Fraction]:
        if order < 0:
            raise ValueError("order must be >= 0")
        return self._series(order)

    def green_tail(self, r):
        if not self.nonparabolic:
            raise NonparabolicRequired(
                f"metric {self.id!r} has a divergent Green's-function tail"
            )
        if isinstance(r, float):            # a shot's tail test
            if not r > 0:
                raise DomainError("green_tail requires r > 0")
            return float(self._green(r))
        r_arr = np.asarray(r, dtype=float)
        if not np.all(r_arr > 0):
            raise DomainError("green_tail requires r > 0")
        out = self._green(r_arr)
        return float(out) if np.ndim(out) == 0 else out


EUCLIDEAN = MetricProfile(
    id="euclidean",
    _h2=lambda r: r * r,
    _green=lambda r: 0.5 / r,
    _series=lambda order: [Fraction(1)] + [Fraction(0)] * order,
)


def _hyperbolic_series(order: int) -> list[Fraction]:
    # sinh^2 r / r^2 = sum_{i even} 2^(i+1) r^i / (i+2)!
    return [Fraction(2 ** (i + 1), math.factorial(i + 2)) if i % 2 == 0
            else Fraction(0) for i in range(order + 1)]


HYPERBOLIC = MetricProfile(
    id="hyperbolic",
    # arguments clipped below the overflow threshold; values beyond
    # it are ~1e303 and behave as +inf for every caller
    _h2=lambda r: np.sinh(np.minimum(r, 350.0)) ** 2,
    _green=lambda r: 1.0 / np.expm1(np.minimum(2.0 * r, 700.0)),  # (coth r - 1)/2
    _series=_hyperbolic_series,
)


def _bs_h2(rho):
    return bs_h2_of_s(s_of_rho(rho))


def _bs_green(rho):
    return bs_green_of_s(s_of_rho(rho))


BS_S4 = MetricProfile(id="bs_s4", _h2=_bs_h2, _green=_bs_green,
                      _series=_bs_series_coeffs, _chart=S_CHART)
BS_CP2 = replace(BS_S4, id="bs_cp2")

_REGISTRY = {m.id: m for m in (EUCLIDEAN, HYPERBOLIC, BS_S4, BS_CP2)}


def get_metric(name: str) -> MetricProfile:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedBackend(
            f"unknown metric {name!r}; choose from {sorted(_REGISTRY)} or load a custom file"
        ) from None


# ---------------------------------------------------------------------------
# custom backend from a key=value file
# ---------------------------------------------------------------------------

# Gauss-Legendre rule on [0, 1] for the smooth part of a custom G below its
# table: nodes, and weights summing to 1
_GL_NODES, _GL_WEIGHTS = leggauss(20)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def load_custom(path: str) -> MetricProfile:
    """Load `type=custom` metric: series coefficients plus an optional
    sampled far-field table (CSV with header r,h, from r <= 0.5); a
    relative `table=` path is read from the metric file's directory."""
    keys: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, _, v = line.partition("=")
            keys[k.strip()] = v.strip()
    if keys.get("type") != "custom":
        raise UnsupportedBackend("custom metric file must declare type=custom")
    if "coeffs" not in keys:
        raise UnsupportedBackend("custom metric file must give coeffs=")
    coeffs = [Fraction(c) for c in keys["coeffs"].split(",")]
    if coeffs[0] != 1 or (len(coeffs) > 1 and coeffs[1] != 0):
        raise UnsupportedBackend("custom series must start with 1, 0 (smoothness at 0)")

    table_r = table_h = None
    if "table" in keys:
        rs, hs = [], []
        with open(os.path.join(os.path.dirname(path), keys["table"])) as fh:
            reader = csv.DictReader(fh)
            if not {"r", "h"} <= set(reader.fieldnames or ()):
                raise UnsupportedBackend("custom table needs the header r,h")
            for row in reader:
                rs.append(float(row["r"]))
                hs.append(float(row["h"]))
        table_r = np.asarray(rs)
        table_h = np.asarray(hs)
        if len(table_r) < 4:
            raise UnsupportedBackend("custom table needs at least 4 rows")
        if not np.all((table_r > 0) & (table_h > 0)
                      & np.isfinite(table_r) & np.isfinite(table_h)):
            raise UnsupportedBackend("custom table r and h must be finite and > 0")
        if np.any(np.diff(table_r) <= 0):
            raise UnsupportedBackend("custom table radii must be increasing")
        if table_r[0] > 0.5:
            raise UnsupportedBackend("custom table must start at r <= 0.5")

    n_series = len(coeffs) - 1
    horner = [float(c) for c in reversed(coeffs)]

    # estimated far-field power law h ~ c r^p from the last table decade,
    # or the last two rows if the decade holds fewer
    tail_p = tail_c = None
    if table_r is not None:
        sel = table_r >= min(table_r[-1] / 10.0, table_r[-2])
        lp = np.polyfit(np.log(table_r[sel]), np.log(table_h[sel]), 1)
        tail_p, tail_c = lp[0], float(np.exp(lp[1]))
        log_r, log_h = np.log(table_r), np.log(table_h)
        r_series = float(table_r[0])   # series inside, table beyond
    nonparabolic = tail_p is not None and 2.0 * tail_p > 1.0

    def h2(r):
        # the series inside r_series, log-log interpolation on the table,
        # the power law past it: a float (the right-hand side) is looked
        # up in its one region, an array in all three at once
        if isinstance(r, float):
            if table_r is None or r <= r_series:
                return r * r * _horner(horner, r)
            if r <= table_r[-1]:
                h = np.exp(np.interp(np.log(r), log_r, log_h))
            else:               # the ufunc: scalar ** can round otherwise
                h = tail_c * np.power(r, tail_p)
            return float(h * h)
        out = r * r * _horner(horner, r)
        if table_r is not None:
            h = np.where(r <= table_r[-1], np.exp(np.interp(np.log(r), log_r, log_h)),
                         tail_c * r ** tail_p)
            out = np.where(r <= r_series, out, h * h)
        return out

    def tail_from(x):
        return x ** (1.0 - 2.0 * tail_p) / (2.0 * tail_c ** 2 * (2.0 * tail_p - 1.0))

    def segment(x, i):
        """int_x^{r_{i+1}} dt / (2 h^2) inside table segment i.  There
        h(t) = h(x) (t/x)^p with p the segment's log-log slope, so the
        integral is x L E((1 - 2p) L) / (2 h(x)^2), where L = ln(r_{i+1}/x)
        and E(z) = expm1(z)/z, E(0) = 1."""
        log_x = np.log(x)
        span = log_r[i + 1] - log_x
        z = (1.0 - 2.0 * slope[i]) * span
        nonzero = np.where(z == 0.0, 1.0, z)
        expm1_ratio = np.where(z == 0.0, 1.0, np.expm1(nonzero) / nonzero)
        h2_x = np.exp(2.0 * (log_h[i] + slope[i] * (log_x - log_r[i])))
        return x * span * expm1_ratio / (2.0 * h2_x)

    def green(x):
        """G = int_x^inf dt / (2 h^2): the power-law tail past the table,
        closed forms on its log-log linear segments, and below the table
        1/(2x) - 1/(2 r_series) plus a Gauss-Legendre rule on the smooth
        rest (1/P - 1)/(2t^2) = -Q/(2P), where h^2 = t^2 P and P = 1 + t^2 Q."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        far = xs >= table_r[-1]
        out[far] = tail_from(xs[far])
        near = xs < r_series
        mid = ~far & ~near
        i = np.searchsorted(table_r, xs[mid], side="right") - 1
        out[mid] = segment(xs[mid], i) + suffix[i + 1]
        x_in = xs[near, None]
        t = x_in + (r_series - x_in) * _GL_NODES
        smooth = -_horner(horner_q, t) / (2.0 * _horner(horner, t))
        out[near] = (0.5 / xs[near] - 0.5 / r_series + suffix[0]
                     + (r_series - xs[near]) * (smooth @ _GL_WEIGHTS))
        return out if np.ndim(x) else float(out[0])

    if nonparabolic:
        horner_q = horner[:-2]                     # Q(t) = (P(t) - 1) / t^2
        slope = np.diff(log_h) / np.diff(log_r)
        pieces = segment(table_r[:-1], np.arange(len(table_r) - 1))
        # suffix[i] = G(r_i)
        suffix = np.append(np.cumsum(pieces[::-1])[::-1], 0.0) + tail_from(table_r[-1])

    def series(order):
        if order > n_series:
            raise UnsupportedBackend(
                f"custom backend has analytic data only to order {n_series}"
            )
        return coeffs[: order + 1]

    return MetricProfile(
        id="custom",
        _h2=h2,
        _green=green if nonparabolic else None,
        _series=series,
    )
