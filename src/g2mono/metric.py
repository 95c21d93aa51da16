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
  integrated in, with its inverse r(x), the Jacobian dr/dx, and h^2 and
  G as functions of x.  Every background but the two BS profiles uses
  the identity chart x = r; the BS profiles use the fiber coordinate s,
  in which h^2 = s^2 sqrt(1+s^2) and G are explicit, so no right-hand
  side or tail test has to invert rho(s).

The BS reparametrization rho(s) = int_0^s (1+t^2)^(-1/4) dt and the tail
integral both reduce to Gauss hypergeometric functions, summed here as
power series in a variable of at most 1/2.  A float and an array take
one path: one domain check, then `_split` gives a float its formula and
an array each formula on its part, so the two agree to the bit.  A
custom table's tail integral has a closed form on each log-log linear
segment.  So no runtime quadrature is needed, and the module needs numpy
only; independent quadrature oracles live in the tests.
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

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
#                    (s^2 <= 0.04: _RHO_TERMS terms),
#   s <= 1:          rho = s q^(-1/4) F(1/4, 1; 3/2; w),
#                    G = F(1, 3/4; 1/2; w) / (2 s q^(3/4)) - _G_ZERO,
#   s > 1:           rho = 2 s q^(-1/4) F(1/4, 1; 3/4; u) - _RHO_OFFSET,
#                    G = u^(5/4) F(5/4, 3/2; 9/4; u) / 5.
# w and u are at most 1/2 where they are used (see _hyp2f1 for the number of
# terms).  Each formula takes a float or an array and runs the same
# operations on either, so the two agree to the bit; fractional powers are
# built from sqrt, which is correctly rounded in math and numpy alike.
_S_SERIES = 0.2
_RHO_TERMS = 12
_HYP_TERMS = 60
# s_of_rho starts from the series head below rho = 1.5 (at 1.5 itself the
# two starts end on different floats, and the asymptote's is the recorded one)
_RHO_HEAD = math.nextafter(1.5, 0.0)


def _float_or_array(x, ok, message):
    """x as a Python float when it is 0-d, else as a float array, checked
    once: DomainError(message) unless ok(x) holds (at every element of an
    array).  A float, a numpy scalar, a 0-d array and an array element
    are then the same input to the maps below."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        x = x if x.ndim else float(x)
    if not (ok(x) if isinstance(x, float) else ok(x).all()):
        raise DomainError(message)
    return x


def _require(name: str, value, ok, what: str):
    """value, or DomainError(f"{name} must be {what}, not {value!r}") unless ok(value)."""
    if not ok(value):
        raise DomainError(f"{name} must be {what}, not {value!r}")
    return value


def _split(x, bound, below, above):
    """below(x) where x <= bound, above(x) elsewhere: the one place where
    a float and an array part ways.  A float takes one of the formulas;
    an array is split by a mask, and each formula runs on its part."""
    if isinstance(x, float):
        return below(x) if x <= bound else above(x)
    out = np.empty_like(x)
    lo = x <= bound
    with np.errstate(over="ignore", divide="ignore"):
        for part, fn in ((lo, below), (~lo, above)):
            if part.any():
                out[part] = fn(x[part])
    return out


def _horner(coeffs, z):
    acc = 0.0
    for c in coeffs:
        acc = acc * z + c
    return acc


def _hyp2f1(a: Fraction, b: Fraction, c: Fraction):
    """z -> F(a, b; c; z) from the first _HYP_TERMS Taylor coefficients,
    each rounded once from its exact value: the lowest 16 of them where
    z <= 1/16, all up to z = 1/2.  Either leaves out less than 1e-17 of F."""
    term, coeffs = Fraction(1), []
    for n in range(_HYP_TERMS):
        coeffs.insert(0, float(term))
        term *= (a + n) * (b + n) / ((c + n) * (n + 1))
    short = functools.partial(_horner, coeffs[-16:])
    full = functools.partial(_horner, coeffs)
    return lambda z: _split(z, 1.0 / 16.0, short, full)


_F_RHO_W = _hyp2f1(Fraction(1, 4), Fraction(1), Fraction(3, 2))
_F_RHO_U = _hyp2f1(Fraction(1, 4), Fraction(1), Fraction(3, 4))
_F_G_W = _hyp2f1(Fraction(1), Fraction(3, 4), Fraction(1, 2))
_F_G_U = _hyp2f1(Fraction(5, 4), Fraction(3, 2), Fraction(9, 4))


def _sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _rho_series(s):
    # _RHO_TERMS terms (the rest are below half an ulp of the sum), each
    # from the one before and summed as scipy.special's hyp2f1 sums them, so
    # that s_of_rho keeps the hand-off radii the recorded BS solves used
    z = -s * s
    total = term = 1.0
    for k in range(_RHO_TERMS - 1):
        term = term * ((0.5 + k) * (0.25 + k) * z / ((1.5 + k) * (k + 1.0)))
        total = total + term
    return s * total


def _rho_w(s):
    q = 1.0 + s * s
    return s / _sqrt(_sqrt(q)) * _F_RHO_W(s * s / q)


def _rho_u(s):
    q = 1.0 + s * s
    return 2.0 * s / _sqrt(_sqrt(q)) * _F_RHO_U(1.0 / q) - _RHO_OFFSET


def _green_w(s):
    q = 1.0 + s * s
    return _F_G_W(s * s / q) * _sqrt(_sqrt(q)) / (2.0 * s * q) - _G_ZERO


def _green_u(s):
    u = 1.0 / (1.0 + s * s)
    return 0.2 * u * _sqrt(_sqrt(u)) * _F_G_U(u)


def _green_near(s):
    # G(0) = inf, where a float's division in _green_w would raise
    return _split(s, 0.0, lambda t: t + math.inf, _green_w)


def _rho_near(s):
    return _split(s, _S_SERIES, _rho_series, _rho_w)


def _rho(s):
    """rho(s) by the series, for s below ~1e154 (each of s_of_rho's
    Halley steps calls it once)."""
    return _split(s, 1.0, _rho_near, _rho_u)


def rho_of_s(s):
    """Geodesic radius rho(s) = int_0^s (1+t^2)^(-1/4) dt: the series
    above, or its asymptote past _S_FAR."""
    s = _float_or_array(s, lambda t: t >= 0, "s must be >= 0")
    return _split(s, _S_FAR, _rho, lambda t: 2.0 * _sqrt(t) - _RHO_OFFSET)


def _s_far(rho):
    """The asymptote of rho_of_s inverted; inf where it overflows."""
    half = 0.5 * (rho + _RHO_OFFSET)
    return half * half


def _halley(rho):
    """Three Halley steps on rho(s) - rho, from the series head
    rho (1 + rho^2/12) below rho = 1.5 and from the inverted asymptote
    above: rho' = q^(-1/4), rho'' = -s q^(-5/4) / 2."""
    s = _split(rho, _RHO_HEAD, lambda p: p * (1.0 + p * p / 12.0), _s_far)
    for _ in range(3):
        q = 1.0 + s * s
        g = _rho(s) - rho
        s = s - g / (1.0 / _sqrt(_sqrt(q)) + g * s / (4.0 * q))
    return s


def s_of_rho(rho):
    """Inverse of rho_of_s: three Halley steps, which reach the rounding
    of rho(s).  Past _RHO_FAR the inverted asymptote is the answer; s is
    inf where it overflows."""
    rho = _float_or_array(rho, lambda p: (p >= 0) & (p < math.inf),
                          "rho must be finite and >= 0")
    return _split(rho, _RHO_FAR, _halley, _s_far)


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
    s = _float_or_array(s, lambda t: t >= 0, "s must be >= 0")
    return _split(s, 1.0, _green_near, _green_u)


def _bs_series_coeffs(order: int) -> list[Fraction]:
    """Exact rational expansion of h^2(rho)/rho^2 for the BS profile.

    rho(s) is expanded and reverted, then composed into s^2 sqrt(1+s^2).
    """
    n = order + 1           # the lowest order that fills phi_0 .. phi_order
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
    """Integration coordinate x(r), and h^2 and the Green's-function tail
    G read in it.  Each map takes a float or an array and returns the
    same kind, except that the identity chart's dr_dx returns 1.0, which
    broadcasts."""

    x_of_r: Callable
    r_of_x: Callable
    dr_dx: Callable
    h2_of_x: Callable
    green_of_x: Callable


# BS fiber coordinate s; s_of_rho is looked up when called
S_CHART = Chart(x_of_r=lambda rho: s_of_rho(rho), r_of_x=rho_of_s,
                dr_dx=bs_f, h2_of_x=bs_h2_of_s, green_of_x=bs_green_of_s)


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
        return Chart(x_of_r=_identity, r_of_x=_identity, dr_dx=lambda x: 1.0,
                     h2_of_x=self.h2, green_of_x=self.green_tail)

    def h(self, r):
        return _sqrt(self.h2(r))

    def _radii(self, r):
        """r as a float or an array, checked: h^2 and G take 0 < r < inf
        on every background, else DomainError."""
        return _float_or_array(r, lambda x: (x > 0) & (x < math.inf),
                               "the geodesic radius r or rho must be finite and > 0")

    def h2(self, r):
        if isinstance(r, float) and 0 < r < math.inf:   # an identity chart's hot path
            return float(self._h2(r))
        r = self._radii(r)
        return float(self._h2(r)) if isinstance(r, float) else self._h2(r)

    def series_coeffs(self, order: int) -> list[Fraction]:
        if order < 0:
            raise ValueError("order must be >= 0")
        return self._series(order)

    def green_tail(self, r):
        if not self.nonparabolic:
            raise NonparabolicRequired(
                f"metric {self.id!r} has a divergent Green's-function tail"
            )
        r = self._radii(r)
        return float(self._green(r)) if isinstance(r, float) else self._green(r)


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
    # it are ~1e303 and behave as +inf for every caller; a float takes
    # math's sinh, within 3 ulp of numpy's and without a numpy call
    _h2=lambda r: (math.sinh(min(r, 350.0)) ** 2 if isinstance(r, float)
                   else np.sinh(np.minimum(r, 350.0)) ** 2),
    _green=lambda r: 1.0 / np.expm1(np.minimum(2.0 * r, 700.0)),  # (coth r - 1)/2
    _series=_hyperbolic_series,
)


BS_S4 = MetricProfile(id="bs_s4", _h2=lambda rho: bs_h2_of_s(s_of_rho(rho)),
                      _green=lambda rho: bs_green_of_s(s_of_rho(rho)),
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

# 20-node Gauss-Legendre rule on [0, 1] for the smooth part of a custom G
# below its table: nodes, and weights summing to 1.  These are numpy's
# 0.5 * (leggauss(20)[0] + 1) and 0.5 * leggauss(20)[1], written out so
# that importing g2mono does not import numpy.polynomial (tests/test_metric.py
# compares them bit for bit).
_GL_NODES = np.array([
    0.003435700407452502, 0.018014036361043095, 0.04388278587433703,
    0.08044151408889061, 0.1268340467699246, 0.1819731596367425,
    0.24456649902458644, 0.3131469556422902, 0.38610707442917747,
    0.46173673943325133, 0.5382632605667487, 0.6138929255708225,
    0.6868530443577098, 0.7554335009754136, 0.8180268403632576,
    0.8731659532300754, 0.9195584859111094, 0.956117214125663,
    0.981985963638957, 0.9965642995925474])
_GL_WEIGHTS = np.array([
    0.008807003569575447, 0.020300714900193223, 0.031336024167054395,
    0.04163837078835236, 0.05096505990862035, 0.0590972659807593,
    0.06584431922458844, 0.0710480546591912, 0.07458649323630212,
    0.07637669356536314, 0.07637669356536314, 0.07458649323630212,
    0.0710480546591912, 0.06584431922458844, 0.0590972659807593,
    0.05096505990862035, 0.04163837078835236, 0.031336024167054395,
    0.020300714900193223, 0.008807003569575447])


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
        xs, ys = log_r.tolist(), log_h.tolist()
        r_series = float(table_r[0])   # series inside, table beyond
    nonparabolic = tail_p is not None and 2.0 * tail_p > 1.0

    def h2(r):
        # the series inside r_series, log-log interpolation on the table,
        # the power law past it: a float (the right-hand side) is looked
        # up in its one region, an array in all three at once
        if isinstance(r, float):
            if table_r is None or r <= r_series:
                return r * r * _horner(horner, r)
            if r <= table_r[-1]:      # np.interp's rule, without its wrapper
                x = np.log(r)
                j = max(bisect.bisect_right(xs, x) - 1, 0)
                h = np.exp(ys[j] if x <= xs[j] or j == len(xs) - 1 else
                           (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + ys[j])
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
        # h(x)^2 from the table's law, as h2 reads it
        return x * span * expm1_ratio / (2.0 * np.exp(2.0 * np.interp(log_x, log_r, log_h)))

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
