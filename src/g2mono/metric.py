"""Radial metric backgrounds g = dr^2 + h^2(r) g_{S^2}.

Four built-in backends (euclidean, hyperbolic and the two Bryant-Salamon
manifolds Lambda^2_-(S^4) and Lambda^2_-(CP^2)), plus a file-defined
custom backend.  The two Bryant-Salamon metrics have the same radial
function h^2 = s^2 sqrt(1+s^2), so one profile serves both: BS_CP2 is
BS_S4 under another id, sharing its functions.  Each background exposes

* exact evaluation of h^2(r),
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
#   s <= 1:  rho = s q^(-1/4) F(1/4, 1; 3/2; w),
#            G = F(1, 3/4; 1/2; w) / (2 s q^(3/4)) - _G_ZERO,
#   s > 1:   rho = 2 s q^(-1/4) F(1/4, 1; 3/4; u) - _RHO_OFFSET,
#            G = u^(5/4) F(5/4, 3/2; 9/4; u) / 5.
# w and u are at most 1/2 where they are used (see _hyp2f1 for the number of
# terms).  Each formula takes a float or an array and runs the same
# operations on either, so the two agree to the bit; fractional powers are
# built from sqrt, which is correctly rounded in math and numpy alike.
_HYP_TERMS = 60


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


def _rho(s):
    """rho(s) by the series, for s below ~1e154 (each of s_of_rho's
    Halley steps calls it once)."""
    return _split(s, 1.0, _rho_w, _rho_u)


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
    rho (1 + rho^2/12) up to rho = 1.5 and from the inverted asymptote
    above: rho' = q^(-1/4), rho'' = -s q^(-5/4) / 2."""
    s = _split(rho, 1.5, lambda p: p * (1.0 + p * p / 12.0), _s_far)
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
    broadcasts.  `stage` is the same dr_dx and h2_of_x at a float xs as
    source lines, which `ode` inlines into its generated DOP853 loop: they
    set J and h2, equal to the bit to dr_dx(xs) and h2_of_x(xs) at a float
    0 < xs < inf, and may call `h2_of_x`, `_sqrt` (math.sqrt), `_sinh`
    (math.sinh) and `scope`'s (name, value) pairs, the loop's globals."""

    x_of_r: Callable
    r_of_x: Callable
    dr_dx: Callable
    h2_of_x: Callable
    green_of_x: Callable
    stage: tuple
    scope: frozenset = frozenset()


# BS fiber coordinate s; s_of_rho is looked up when called.  Its stage
# writes out bs_f and bs_h2_of_s's float branch
S_CHART = Chart(x_of_r=lambda rho: s_of_rho(rho), r_of_x=rho_of_s,
                dr_dx=bs_f, h2_of_x=bs_h2_of_s, green_of_x=bs_green_of_s,
                stage=("q = 1.0 + xs * xs", "J = q ** -0.25", "h2 = xs * xs * _sqrt(q)"))


def _identity(x):
    return x


def _inlined(h2, stage, **scope):
    """h2, carrying its float branch as `h2.stage`, lines on the float xs that
    set h2 (the identity chart inlines them), and the names they read."""
    h2.stage, h2.scope = stage, frozenset(scope.items())
    return h2


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
                     h2_of_x=self.h2, green_of_x=self.green_tail,
                     stage=("J = 1.0", *getattr(self._h2, "stage", ("h2 = h2_of_x(xs)",))),
                     scope=getattr(self._h2, "scope", frozenset()))

    def _radii(self, r):
        """r as a float or an array, checked: h^2 and G take 0 < r < inf
        on every background, else DomainError."""
        return _float_or_array(r, lambda x: (x > 0) & (x < math.inf),
                               "the geodesic radius r or rho must be finite and > 0")

    def h2(self, r):
        if isinstance(r, float) and 0 < r < math.inf:   # first steps, custom-table stages
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
    _h2=_inlined(lambda r: r * r, ("h2 = xs * xs",)),
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
    _h2=_inlined(lambda r: (math.sinh(min(r, 350.0)) ** 2 if isinstance(r, float)
                            else np.sinh(np.minimum(r, 350.0)) ** 2),
                 ("h2 = _sinh(350.0 if 350.0 < xs else xs) ** 2",)),
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


def _roots_in(p, b: Fraction) -> int:
    """The number of distinct roots in (0, b] of sum_i p[i] t^i, with
    p[0] != 0: Sturm's theorem, in exact arithmetic."""
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while any(seq[-1]):
        r, q = seq[-2], seq[-1][:max(i for i, c in enumerate(seq[-1]) if c) + 1]
        while len(r) >= len(q):         # r mod q: cancel r's leading term
            f, pad = r[-1] / q[-1], [0] * (len(r) - len(q))
            r = [a - f * c for a, c in zip(r, pad + q)][:-1]
        seq[-1:] = [q, [-a for a in r]]

    def changes(t):
        signs = [v for v in (sum(c * t ** i for i, c in enumerate(s)) for s in seq) if v]
        return sum(u * v < 0 for u, v in zip(signs, signs[1:]))
    return changes(0) - changes(b)


def load_custom(path: str) -> MetricProfile:
    """Load `type=custom` metric: series coefficients plus an optional
    sampled table (CSV with header r,h, from r <= 0.5); a relative
    `table=` path is read from the metric file's directory."""
    keys: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, eq, v = (part.strip() for part in line.partition("="))
            if not eq or k not in ("type", "coeffs", "table") or k in keys:
                raise UnsupportedBackend(f"custom metric file: unknown or repeated key in {line!r}")
            keys[k] = v
    if keys.get("type") != "custom":
        raise UnsupportedBackend("custom metric file must declare type=custom")
    if "coeffs" not in keys:
        raise UnsupportedBackend("custom metric file must give coeffs=")
    try:
        coeffs = [Fraction(c) for c in keys["coeffs"].split(",")]
    except (ValueError, ZeroDivisionError):
        raise UnsupportedBackend(f"custom metric file {path}: each coefficient of "
                                 f"'coeffs={keys['coeffs']}' must be a rational number") from None
    if coeffs[0] != 1 or (len(coeffs) > 1 and coeffs[1] != 0):
        raise UnsupportedBackend("custom series must start with 1, 0 (smoothness at 0)")
    horner = [float(c) for c in reversed(coeffs)]
    # r * r * _horner(horner, r) as source: at a finite xs its leading
    # 0.0 * xs + horner[0] is horner[0], which is not -0.0
    series_h2 = "xs * xs * (" + functools.reduce(
        lambda acc, c: f"({acc}) * xs + {c!r}", horner[1:], repr(horner[0])) + ")"

    def series(order):
        if order >= len(coeffs):
            raise UnsupportedBackend(
                f"custom backend has analytic data only to order {len(coeffs) - 1}")
        return coeffs[: order + 1]

    if "table" not in keys:
        return MetricProfile(id="custom", _series=series, _green=None, _h2=_inlined(
            lambda r: r * r * _horner(horner, r), (f"h2 = {series_h2}",)))
    rs, hs = [], []
    table = os.path.join(os.path.dirname(path), keys["table"])
    with open(table) as fh:
        reader = csv.DictReader(fh)
        if not {"r", "h"} <= set(reader.fieldnames or ()):
            raise UnsupportedBackend("custom table needs the header r,h")
        for row in reader:
            try:      # a short row has h None
                rs.append(float(row["r"]))
                hs.append(float(row["h"]))
            except (TypeError, ValueError):
                raise UnsupportedBackend(
                    f"custom table {table}, line {reader.line_num}: r and h must be numbers") from None
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
    r_series = float(table_r[0])   # series inside, table beyond
    if _roots_in(coeffs, Fraction(r_series)):
        raise UnsupportedBackend(f"custom series h^2/r^2 must be > 0 for 0 < r <= {r_series!r}")

    log_r, log_h = np.log(table_r), np.log(table_h)
    # the log-log slope from each row to the next; the last row takes the
    # last segment's, which continues past the table: far out h ~ r^p
    slopes = np.diff(log_h) / np.diff(log_r)
    slopes = np.append(slopes, slopes[-1])
    log_next = np.append(log_r[1:], math.inf)
    xs, ys, ks = log_r.tolist(), log_h.tolist(), slopes.tolist()

    def lookup(log_x):
        """The segment j of each log r, and log h there: np.interp's rule
        on the table, and the last segment continued past it."""
        log_x = np.maximum(log_x, log_r[0])
        j = np.searchsorted(log_r, log_x, side="right") - 1
        return j, slopes[j] * (log_x - log_r[j]) + log_h[j]

    def h2(r):
        # the series up to the first row, log-log segments from there on:
        # a float (the first step, rhs, a stage below) takes lookup's rule by bisect
        if isinstance(r, float):
            if r <= r_series:
                return r * r * _horner(horner, r)
            x = max(np.log(r), xs[0])
            j = bisect.bisect_right(xs, x) - 1
            h = np.exp(ks[j] * (x - xs[j]) + ys[j])
            return float(h * h)
        h = np.exp(lookup(np.log(r))[1])
        return np.where(r <= r_series, r * r * _horner(horner, r), h * h)

    def segment(x):
        """(j, int_x^{r_{j+1}} dt / (2 h^2)) on the segment j that holds x,
        r_{j+1} = inf on the last.  There h(t) = h(x) (t/x)^k, so with
        w = 1 - 2k and L = ln(r_{j+1}/x) the integral is x expm1(w L) /
        (2 w h(x)^2): x L / (2 h(x)^2) at w = 0, x / (2 (2k - 1) h(x)^2) past the table."""
        log_x = np.log(x)
        j, log_hx = lookup(log_x)
        w = 1.0 - 2.0 * slopes[j]
        span = log_next[j] - log_x
        ratio = np.where(w == 0.0, span, np.expm1(w * span) / np.where(w == 0.0, 1.0, w))
        return j, x * ratio / (2.0 * np.exp(2.0 * log_hx))

    def green(x):
        """G = int_x^inf dt / (2 h^2): from the first row on, the closed
        form on x's segment plus G at the segment's end; below the table
        1/(2x) - 1/(2 r_series) plus a Gauss-Legendre rule on the smooth
        rest (1/P - 1)/(2t^2) = -Q/(2P), where h^2 = t^2 P and P = 1 + t^2 Q."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        near = xs < r_series
        j, piece = segment(xs[~near])
        out[~near] = piece + suffix[j + 1]
        x_in = xs[near, None]
        t = x_in + (r_series - x_in) * _GL_NODES
        smooth = -_horner(horner[:-2], t) / (2.0 * _horner(horner, t))
        out[near] = (0.5 / xs[near] - 0.5 / r_series + suffix[0]
                     + (r_series - xs[near]) * (smooth @ _GL_WEIGHTS))
        return out if np.ndim(x) else float(out[0])

    _inlined(h2, (f"if xs <= {r_series!r}: h2 = {series_h2}",
                  f"else: lx = max(float(_np_log(xs)), {xs[0]!r}); j = _bisect(_LOG_R, lx) - 1; "
                  "hx = float(_np_exp(_SLOPE[j] * (lx - _LOG_R[j]) + _LOG_H[j])); h2 = hx * hx"),
             _np_log=np.log, _np_exp=np.exp, _bisect=bisect.bisect_right,
             _LOG_R=tuple(xs), _LOG_H=tuple(ys), _SLOPE=tuple(ks))
    nonparabolic = 2.0 * ks[-1] > 1.0
    if nonparabolic:        # suffix[i] = G(r_i), and 0 past the last segment
        suffix = np.append(np.cumsum(segment(table_r)[1][::-1])[::-1], 0.0)
    return MetricProfile(id="custom", _h2=h2, _green=green if nonparabolic else None,
                         _series=series)
