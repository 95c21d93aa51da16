"""Test-side oracles for the singular-point series.

`v_series_oracle` builds the series of `g2mono.series.v_series` in an
independent way: by fixed-point iteration of the double integral of
(2/h^2)(exp(v) - 1).  `recurrence_oracle` is the per-n recurrence with
e^v rebuilt from scratch for every n, by `series_exp`.  `compose` and
`differentiate` are the series operations that only the tests use.
`bs_series_oracle` is the Bryant-Salamon metric series built at full
order in s, where `g2mono.metric` builds it at half order.
"""

from fractions import Fraction

from g2mono.fps import FormalSeries
from g2mono.series import SeriesSolution


def series_exp(f: FormalSeries) -> FormalSeries:
    """exp of a series with zero constant term, from e' = f' e:
    k e_k = sum_{j=1..k} j f_j e_{k-j}."""
    if f[0] != 0:
        raise ValueError("exp requires zero constant term")
    n = f.order
    out = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        out[k] = sum(j * f[j] * out[k - j] for j in range(1, k + 1)) / k
    return FormalSeries(out)


def compose(outer: FormalSeries, inner: FormalSeries) -> FormalSeries:
    """outer(inner(x)); inner must have zero constant term."""
    if inner[0] != 0:
        raise ValueError("composition requires inner constant term 0")
    n = min(outer.order, inner.order)
    out = FormalSeries([outer[n]], n)
    for i in range(n - 1, -1, -1):  # Horner
        out = out * inner + outer[i]
    return out.truncate(n)


def differentiate(f: FormalSeries) -> FormalSeries:
    if f.order == 0:
        return FormalSeries([0])
    return FormalSeries([i * f[i] for i in range(1, f.order + 1)])


def bs_series_oracle(order: int) -> list:
    """phi_0 .. phi_order of h^2(rho)/rho^2 on the BS profile, at full order:
    rho(s) = int_0^s (1+t^2)^(-1/4) dt expanded to order + 2 and reverted
    at order + 2, then s(rho)^2 composed into h^2 = s^2 sqrt(1+s^2)."""
    n = order + 1           # the lowest order that fills phi_0 .. phi_order
    integrand = FormalSeries([1, 0, 1], n).pow(Fraction(-1, 4))
    rho_ser = integrand.integrate().truncate(n + 1)  # rho(s), no constant term
    s_ser = rho_ser.reversion()                      # s(rho)
    s2 = s_ser * s_ser
    h2 = s2 * (FormalSeries([1], s2.order) + s2).pow(Fraction(1, 2))
    phi = h2.shift(-2)
    return [phi[i] for i in range(order + 1)]


def recurrence_oracle(beta: Fraction, psi: FormalSeries, order: int) -> list:
    """v_0 .. v_order at one exact beta, psi = 1/phi, with e^v taken as
    `FormalSeries.exp` of the coefficients known so far (v_n := 0)."""
    v = [Fraction(0), Fraction(0), beta] + [Fraction(0)] * (order - 2)
    for n in range(3, order + 1):
        ev = series_exp(FormalSeries(v, n)) - FormalSeries([1], n)
        rhs = (psi.truncate(n) * ev)[n]
        v[n] = 2 * rhs / ((n - 2) * (n + 1))
    return v


def v_series_oracle(beta, metric_coeffs, order: int) -> SeriesSolution:
    """Independent construction: iterate

        v  <-  double integral of  psi(r) * (e^v - 1) * 2 / r^2

    starting from v = beta r^2.  The map is affine in each coefficient
    (the e^v linear term feeds v_n back into itself with slope
    lambda_n = 2/((n-1)n)), so each raw sweep only contracts; a
    per-coefficient affine extrapolation x = (m - lambda*x_old)/(1-lambda)
    turns every sweep into an exact solve of its lowest unconverged
    order.  `order` sweeps therefore suffice for exact agreement.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    beta = Fraction(beta)
    phi = FormalSeries([Fraction(c) for c in metric_coeffs], order)
    if phi[0] != 1:
        raise ValueError("metric series must have phi_0 = 1")
    psi = phi.inverse()
    v = FormalSeries([0, 0, beta], order)
    for _ in range(order):
        ev = series_exp(v) - FormalSeries([1], order)
        w = (psi * ev * 2).shift(-2)           # (2/h^2)(e^v - 1), regular at 0
        mapped = w.integrate().integrate().truncate(order)
        out = [Fraction(0), Fraction(0), beta]
        for n in range(3, order + 1):
            lam = Fraction(2, (n - 1) * n)
            out.append((mapped[n] - lam * v[n]) / (1 - lam))
        v_new = FormalSeries(out, order)
        if v_new == v:
            break
        v = v_new
    return SeriesSolution(
        beta=beta,
        ratios=tuple(v[i].as_integer_ratio() for i in range(order + 1)),
        metric_coeffs=tuple(phi[i] for i in range(order + 1)),
        order=order,
    )
