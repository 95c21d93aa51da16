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
series and order and evaluates them exactly at each beta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .fps import FormalSeries, common_denominator


TRUNCATION_BOUND = 1e-14     # largest truncation monitor at the hand-off
MAX_DELTA = 0.1              # largest hand-off radius


class SeriesTruncationError(ValueError):
    def __init__(self, msg, admissible_delta):
        super().__init__(msg)
        self.admissible_delta = admissible_delta


@dataclass(frozen=True)
class SeriesSolution:
    beta: Fraction
    coeffs: tuple            # v_0 .. v_N, exact rationals
    metric_coeffs: tuple     # phi_0 .. as used
    order: int

    def v_at(self, r: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * r + float(c)
        return acc

    def vdot_at(self, r: float) -> float:
        acc = 0.0
        for i in range(self.order, 0, -1):
            acc = acc * r + i * float(self.coeffs[i])
        return acc

    def beta_derivative_at(self, r: float) -> tuple[float, float]:
        """(dv/dbeta, dv'/dbeta) at r, from the derivatives of the exact
        beta-polynomials; float arithmetic, as it only steers Newton."""
        b = float(self.beta)
        d = []
        for num, den in _beta_polynomials(self.metric_coeffs, self.order):
            acc = 0.0
            for k in range(len(num) - 1, 0, -1):
                acc = acc * b + k * num[k] / den
            d.append(acc)
        dv = dw = 0.0                              # v_0 = 0 for every beta
        for n in range(self.order, 0, -1):
            dv = (dv + d[n]) * r
            dw = dw * r + n * d[n]
        return dv, dw

    def truncation_bound(self, delta: float) -> float:
        # a-posteriori monitor: magnitude of the last retained terms
        n = self.order
        tail = [abs(float(self.coeffs[i])) * delta ** i for i in (n - 1, n)]
        return max(tail)


def _checked_metric(metric_coeffs, order) -> FormalSeries:
    phi = FormalSeries([Fraction(c) for c in metric_coeffs], order)
    if phi[0] != 1:
        raise ValueError("metric series must have phi_0 = 1")
    return phi


@functools.lru_cache(maxsize=16)
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
    phi = tuple(_checked_metric(metric_coeffs, order))
    p, q = beta.numerator, beta.denominator
    coeffs = []
    for num, den in _beta_polynomials(phi, order):
        # Horner in p/q over the common denominator den * q^deg
        acc, qk = num[-1], 1
        for c in reversed(num[:-1]):
            qk *= q
            acc = acc * p + c * qk
        coeffs.append(Fraction(acc, den * qk))
    return SeriesSolution(beta=beta, coeffs=tuple(coeffs), metric_coeffs=phi,
                          order=order)


def choose_delta(series: SeriesSolution) -> float:
    """Largest hand-off radius, from MAX_DELTA down by factors 3/4, with
    truncation monitor at most TRUNCATION_BOUND."""
    delta = MAX_DELTA
    while delta > 1e-6 and series.truncation_bound(delta) > TRUNCATION_BOUND:
        delta *= 0.75
    return delta


def initial_data(series: SeriesSolution,
                 delta: float) -> tuple[float, float, float]:
    """Evaluate (a, phi, truncation bound) at the hand-off radius, whose
    truncation monitor must be at most TRUNCATION_BOUND.

    a = exp(v(delta)/2),  phi = v'(delta)/4.
    """
    tb = series.truncation_bound(delta)
    if tb > TRUNCATION_BOUND:
        raise SeriesTruncationError(
            f"delta={delta} too large for order {series.order} "
            f"(monitor {tb:.2e} > {TRUNCATION_BOUND:.2e})",
            admissible_delta=min(choose_delta(series), delta),
        )
    a = math.exp(0.5 * series.v_at(delta))
    phi = 0.25 * series.vdot_at(delta)
    return a, phi, tb
