"""Singular-point initializer for v = 2 log a.

The reduced monopole system has a regular singular point at r = 0; the
second-order form

    v'' = (2/h^2) (e^v - 1),   v(0) = v'(0) = 0,

admits a unique formal power-series solution once the r^2 coefficient
v_2 = beta is fixed.  Writing h^2 = r^2 phi(r), psi = 1/phi, the
coefficients satisfy

    (n - 2)(n + 1) v_n = 2 * [r^n] ( psi(r) (e^v - 1) ),   n >= 3,

where the right-hand side is evaluated with v_n := 0 (its linear
occurrence, psi_0 * v_n, has been moved to the left).

The recurrence runs in exact rational arithmetic.  Each v_n is a
polynomial in beta; `v_series` builds these polynomials once per metric
series and order and evaluates them exactly at each beta.  A beta so
large in magnitude that the floats of the head (its coefficients, or a
and phi at the hand-off) are not finite raises SeriesOverflowError.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .fps import FormalSeries, common_denominator


TRUNCATION_BOUND = 1e-14     # largest truncation monitor at the hand-off
MAX_DELTA = 0.1              # largest hand-off radius


class SeriesOverflowError(ValueError):
    """|beta| is so large that the series head's floats are not finite."""


def _overflow(beta: Fraction) -> SeriesOverflowError:
    value = float(beta) if abs(beta) <= sys.float_info.max else beta
    return SeriesOverflowError(f"beta = {value}: the series head's floats are not finite "
                               "(|beta| is too large)")


@dataclass(frozen=True)
class SeriesSolution:
    beta: Fraction
    ratios: tuple            # v_0 .. v_N, each an integer (numerator, denominator)
    metric_coeffs: tuple     # phi_0 .. as used
    order: int

    @functools.cached_property
    def coeffs(self) -> tuple:
        """v_0 .. v_N, exact rationals in lowest terms."""
        return tuple(Fraction(*nd) for nd in self.ratios)

    @functools.cached_property
    def floats(self) -> tuple:
        """The coefficients, correctly rounded (as float(Fraction) is, by
        int / int); SeriesOverflowError where one is past the float range."""
        try:
            return tuple([num / den for num, den in self.ratios])
        except OverflowError:
            raise _overflow(self.beta) from None

    def v_at(self, r: float) -> float:
        acc = 0.0
        for c in reversed(self.floats):
            acc = acc * r + c
        return acc

    def vdot_at(self, r: float) -> float:
        acc = 0.0
        for i in range(self.order, 0, -1):
            acc = acc * r + i * self.floats[i]
        return acc

    def beta_derivative_at(self, r: float) -> tuple[float, float]:
        """(dv/dbeta, dv'/dbeta) at r, from the derivatives of the exact
        beta-polynomials; float arithmetic, as it only steers Newton."""
        b = float(self.beta)
        d = []
        for slope in _polynomial_set(_key(self.metric_coeffs), self.order)[1]:
            acc = 0.0
            for c in reversed(slope):
                acc = acc * b + c
            d.append(acc)
        dv = dw = 0.0                              # v_0 = 0 for every beta
        for n in range(self.order, 0, -1):
            dv = (dv + d[n]) * r
            dw = dw * r + n * d[n]
        return dv, dw

    def truncation_bound(self, delta: float) -> float:
        # a-posteriori monitor: magnitude of the last retained terms
        n = self.order
        return max([abs(self.floats[i]) * delta ** i for i in (n - 1, n)])


def _key(phi) -> tuple:
    # phi as integer (numerator, denominator) pairs: they hash faster than Fractions
    return tuple(map(Fraction.as_integer_ratio, phi))


@functools.lru_cache(maxsize=16)
def _polynomial_set(key: tuple, order: int) -> tuple:
    """`_beta_polynomials` of phi = `key`, and the float coefficients
    k c_k / den (k >= 1) of each one's beta-derivative."""
    polys = _beta_polynomials(tuple(Fraction(*nd) for nd in key), order)
    return polys, tuple(tuple(k * num[k] / den for k in range(1, len(num)))
                        for num, den in polys)


def _beta_polynomials(phi: tuple, order: int) -> tuple:
    """v_n as exact polynomials in beta, each (integer coefficients
    c_0 .. c_d, common denominator).

    The recurrence runs once, over polynomials in beta (FormalSeries of
    degree order // 2) from v_2 = beta.  Every monomial of
    [r^n] psi (e^v - 1) is psi_j * prod v_{k_i} with k_i >= 2 and
    j + sum k_i = n, so v_n has degree at most n // 2 and no product is
    truncated.  E = e^v is kept term by term: with v_n := 0,
    n E_n = sum_{j=2}^{n-1} j v_j E_{n-j}; once v_n is solved, E_n gains
    v_n (the j = n term).
    """
    p = FormalSeries(phi).inverse().truncate(order).coeffs
    deg = order // 2
    zero = FormalSeries([0], deg)
    v = [zero, zero, FormalSeries([0, 1], deg)] + [zero] * (order - 2)
    E = [FormalSeries([1], deg), zero, v[2]] + [zero] * (order - 2)
    for n in range(3, order + 1):
        E[n] = sum((v[j] * E[n - j] * j for j in range(2, n) if any(v[j])),
                   zero) * Fraction(1, n)
        rhs = sum((E[n - j] * p[j] for j in range(n) if p[j]),
                  zero)                                   # [r^n] psi (E - 1)
        v[n] = rhs * Fraction(2, (n - 2) * (n + 1))
        E[n] += v[n]
    polys = []
    for vn in v:
        poly = list(vn)
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        polys.append(common_denominator(poly))
    return tuple(polys)


def v_series(beta, metric_coeffs, order: int) -> SeriesSolution:
    """Recurrence solution of the formal initial value problem,
    evaluated exactly from the cached beta-polynomials."""
    if order < 2:
        raise ValueError("order must be >= 2")
    beta = Fraction(beta)
    phi = [c if isinstance(c, Fraction) else Fraction(c) for c in metric_coeffs][: order + 1]
    phi = tuple(phi) + (Fraction(0),) * (order + 1 - len(phi))
    if phi[0] != 1:
        raise ValueError("metric series must have phi_0 = 1")
    p, q = beta.numerator, beta.denominator
    ratios = []
    for num, den in _polynomial_set(_key(phi), order)[0]:
        # Horner in p/q over the common denominator den * q^deg
        acc, qk = num[-1], 1
        for c in reversed(num[:-1]):
            qk *= q
            acc = acc * p + c * qk
        ratios.append((acc, den * qk))
    return SeriesSolution(beta, tuple(ratios), phi, order)


def initial_data(series: SeriesSolution) -> tuple[float, float, float]:
    """(delta, a, phi) at the hand-off radius: the largest delta from
    MAX_DELTA down by factors 3/4 whose truncation monitor is at most
    TRUNCATION_BOUND, a = exp(v(delta)/2) and phi = v'(delta)/4;
    SeriesOverflowError, naming beta, unless v, a and phi are finite."""
    delta = MAX_DELTA
    while series.truncation_bound(delta) > TRUNCATION_BOUND:
        delta *= 0.75
    v, phi = series.v_at(delta), 0.25 * series.vdot_at(delta)
    if not (-math.inf < v < 1419.0 and math.isfinite(phi)):   # exp(v/2) < inf
        raise _overflow(series.beta)
    return delta, math.exp(0.5 * v), phi
