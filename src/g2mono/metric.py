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
integral both reduce to Gauss hypergeometric functions, so no runtime
quadrature is needed on the hot paths; an independent quadrature oracle
lives in the tests.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import hyp2f1

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
# (the next term, s^(-3/2)/6, is below 1e-40 of rho), and the closed
# form below would overflow s^2 from s ~ 1.3e154 on.
_S_FAR = 1e20
_RHO_OFFSET = 1.1981402347355922     # 2 sqrt(pi) Gamma(3/4) / Gamma(1/4)
_RHO_FAR = 2.0 * math.sqrt(_S_FAR) - _RHO_OFFSET


def rho_of_s(s):
    """Geodesic radius rho(s) = int_0^s (1+t^2)^(-1/4) dt.

    Closed form: rho = s * 2F1(1/4, 1/2; 3/2; -s^2), or its asymptote
    past _S_FAR.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0):
        raise DomainError("s must be >= 0")
    near = np.minimum(s, _S_FAR)
    out = np.where(s < _S_FAR, near * hyp2f1(0.25, 0.5, 1.5, -near * near),
                   2.0 * np.sqrt(s) - _RHO_OFFSET)
    return float(out) if out.ndim == 0 else out


def s_of_rho(rho):
    """Inverse of rho_of_s: three Halley steps on the whole array, which
    reach hyp2f1's rounding from the series head rho (1 + rho^2/12) below
    rho = 1.5 and from the inverted asymptote of rho_of_s above.  Past
    _RHO_FAR that asymptote is the answer; s is inf where it overflows."""
    rho = np.asarray(rho, dtype=float)
    if not np.all((rho >= 0) & (rho < np.inf)):
        raise DomainError("rho must be finite and >= 0")
    near = np.minimum(rho, _RHO_FAR)
    half = 0.5 * (near + _RHO_OFFSET)
    s = np.where(near < 1.5, near * (1.0 + near * near / 12.0), half * half)
    for _ in range(3):
        # Halley on rho(s) - rho: rho' = q^(-1/4), rho'' = -s q^(-5/4) / 2
        q = 1.0 + s * s
        g = s * hyp2f1(0.25, 0.5, 1.5, -s * s) - near
        s = s - g / (1.0 / np.sqrt(np.sqrt(q)) + g * s / (4.0 * q))
    with np.errstate(over="ignore"):
        out = np.where(rho < _RHO_FAR, s, np.square(0.5 * (rho + _RHO_OFFSET)))
    return float(out) if out.ndim == 0 else out


def bs_h2_of_s(s):
    """h^2 as a function of s: s^2 sqrt(1+s^2)."""
    if isinstance(s, float):
        return s * s * math.sqrt(1.0 + s * s)
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):                # inf past s ~ 5.6e102
        out = s * s * np.sqrt(1.0 + s * s)
    return float(out) if out.ndim == 0 else out


# Below s = _S_NEAR the hypergeometric form loses G's 1/(2s) pole to
# rounding in 1 - u (and is inf below s ~ 1e-8); the expansion
#   G = 1/(2s) - _G_ZERO + 3s/8 - 7s^3/64 + 77s^5/1280 - 165s^7/4096
#       + 1463s^9/49152
# is used there instead (its next term, -0.023 s^11, is below 8e-16 of G).
_S_NEAR = 0.07
_G_ZERO = 0.65551438857302995        # sqrt(pi) Gamma(5/4) / (2 Gamma(3/4))


def bs_green_of_s(s):
    """G as a function of s: int_s^inf f(t) dt / (2 h^2(t)).

    Substituting u = 1/(1+t^2) turns this into an incomplete beta
    integral; in hypergeometric form
        G = (1/5) u^(5/4) 2F1(5/4, 3/2; 9/4; u),  u = 1/(1+s^2),
    or its expansion at s = 0 below _S_NEAR.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):                # u = 0 past s ~ 1.3e154
        u = 1.0 / (1.0 + s * s)
    t = np.minimum(s, _S_NEAR)
    t2 = t * t
    with np.errstate(divide="ignore"):              # G(0) = inf
        near = (0.5 / t - _G_ZERO + t * (0.375 - t2 * (7 / 64 - t2 * (
            77 / 1280 - t2 * (165 / 4096 - t2 * (1463 / 49152))))))
    out = np.where(s < _S_NEAR, near, 0.2 * u ** 1.25 * hyp2f1(1.25, 1.5, 2.25, u))
    return float(out) if out.ndim == 0 else out


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
                acc = 0.0
                for c in horner:
                    acc = acc * r + c
                return r * r * acc
            if r <= table_r[-1]:
                h = np.exp(np.interp(np.log(r), log_r, log_h))
            else:               # the ufunc: scalar ** can round otherwise
                h = tail_c * np.power(r, tail_p)
            return float(h * h)
        acc = np.zeros_like(r)
        for c in horner:
            acc = acc * r + c
        out = r * r * acc
        if table_r is not None:
            h = np.where(r <= table_r[-1], np.exp(np.interp(np.log(r), log_r, log_h)),
                         tail_c * r ** tail_p)
            out = np.where(r <= r_series, out, h * h)
        return out

    def tail_from(x):
        return x ** (1.0 - 2.0 * tail_p) / (2.0 * tail_c ** 2 * (2.0 * tail_p - 1.0))

    def green_at(x):
        """G at one radius: quadrature up to the end of the table, the
        power-law tail beyond it."""
        if x >= table_r[-1]:
            return tail_from(x)
        return (quad(lambda t: 1.0 / (2.0 * h2(t)), x, table_r[-1],
                     limit=200)[0] + tail_from(table_r[-1]))

    def series(order):
        if order > n_series:
            raise UnsupportedBackend(
                f"custom backend has analytic data only to order {n_series}"
            )
        return coeffs[: order + 1]

    return MetricProfile(
        id="custom",
        _h2=h2,
        _green=np.vectorize(green_at, otypes=[float]) if nonparabolic else None,
        _series=series,
    )
