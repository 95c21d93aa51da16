"""Truncated formal power series over exact rationals.

All operations are exact (fractions.Fraction) and truncated at a fixed
order.  This is deliberately a small, boring toolkit: enough to expand
metric coefficients, raise to powers and revert series, nothing more.
Powers, inverses (power -1) and reversions (Lagrange inversion, power -k
for coefficient k) run one integer recurrence, one Fraction per output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul


def common_denominator(cs) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators of `cs`."""
    d = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def _as_fraction(x) -> Fraction:
    # floats are converted exactly; callers who want rational results
    # should pass Fraction/int/str themselves
    return x if isinstance(x, Fraction) else Fraction(x)


class FormalSeries:
    """A polynomial c0 + c1 x + ... + cN x^N standing in for a power
    series truncated at order N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            cs = cs[: order + 1]
            cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = cs or [Fraction(0)]

    # -- basics -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i <= self.order else Fraction(0)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        n = max(self.order, other.order)
        return all(self[i] == other[i] for i in range(n + 1))

    def __repr__(self) -> str:
        return f"FormalSeries({[str(c) for c in self.coeffs]})"

    def truncate(self, order: int) -> "FormalSeries":
        return FormalSeries(self.coeffs, order)

    # -- ring operations ---------------------------------------------

    def _join(self, other) -> tuple["FormalSeries", int]:
        if not isinstance(other, FormalSeries):
            other = FormalSeries([other], self.order)
        return other, min(self.order, other.order)

    def __add__(self, other) -> "FormalSeries":
        other, n = self._join(other)
        return FormalSeries([self[i] + other[i] for i in range(n + 1)])

    __radd__ = __add__

    def __sub__(self, other) -> "FormalSeries":
        other, n = self._join(other)
        return FormalSeries([self[i] - other[i] for i in range(n + 1)])

    def __mul__(self, other) -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            c = _as_fraction(other)
            return FormalSeries([c * a for a in self.coeffs])
        # integer convolution over the product of the common denominators:
        # one normalisation per output coefficient instead of one per term
        n = min(self.order, other.order)
        na, da = common_denominator(self.coeffs[: n + 1])
        nb, db = common_denominator(other.coeffs[: n + 1])
        d = da * db
        return FormalSeries([
            Fraction(sum(map(mul, na[: k + 1], reversed(nb[: k + 1]))), d)
            for k in range(n + 1)
        ])

    __rmul__ = __mul__

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse; requires nonzero constant term."""
        if self[0] == 0:
            raise ZeroDivisionError("series has zero constant term")
        A, E = common_denominator(self.coeffs)      # 1/f = (E/A_0) (f/f_0)^(-1)
        return FormalSeries([Fraction(N * E, den * A[0])
                             for N, den in _power_terms(A, -1, 1, self.order)])

    # -- calculus -----------------------------------------------------

    def integrate(self) -> "FormalSeries":
        """Antiderivative with zero constant term; order grows by one."""
        return FormalSeries(
            [Fraction(0)] + [self[i] / (i + 1) for i in range(self.order + 1)]
        )

    def shift(self, k: int) -> "FormalSeries":
        """Multiply by x^k (k may be negative; low-order terms must vanish)."""
        if k >= 0:
            return FormalSeries([Fraction(0)] * k + self.coeffs)
        if any(self[i] != 0 for i in range(-k)):
            raise ValueError("shift would drop nonzero low-order terms")
        return FormalSeries(self.coeffs[-k:])

    # -- transcendental -----------------------------------------------

    def pow(self, p) -> "FormalSeries":
        """Raise to a rational power; requires constant term 1."""
        p = _as_fraction(p)
        if self[0] != 1:
            raise ValueError("pow requires constant term 1")
        A, _ = common_denominator(self.coeffs)
        return FormalSeries([Fraction(N, den) for N, den in
                             _power_terms(A, p.numerator, p.denominator, self.order)])

    def reversion(self) -> "FormalSeries":
        """Compositional inverse g with self(g(x)) = x.

        Requires coefficients (0, nonzero, ...).  By Lagrange inversion,
        g_k = [x^(k-1)] w^(-k) / (k a1^k) for w = self/(a1 x) = 1 + ...
        """
        if self[0] != 0 or self[1] == 0:
            raise ValueError("reversion requires series of the form a1 x + ...")
        # f_j = F_j/E, so a1 = F_1/E and w_j = F_(j+1)/F_1
        F, E = common_denominator(self.coeffs[1:])
        g = [0]
        for k in range(1, self.order + 1):
            N, den = _power_terms(F, -k, 1, k - 1)[-1]
            g.append(Fraction(N * E ** k, den * F[0] ** k * k))
        return FormalSeries(g)


def _power_terms(A, P: int, Q: int, n: int) -> list[tuple[int, int]]:
    """[x^k] (A(x)/A_0)^(P/Q) as integers (N_k, (Q A_0)^k k!), k = 0 .. n,
    for integers A_j with A_0 != 0.

    a^p with a_0 = 1 obeys k f_k = sum_{j=1..k} (j p - (k - j)) a_j f_{k-j};
    at a_j = A_j/A_0 and p = P/Q that is N_0 = 1 and
      N_k = sum_j (jP - (k-j)Q) A_j N_{k-j} (Q A_0)^(j-1) (k-1)!/(k-j)!.
    """
    qd = Q * A[0]
    N, dens = [1], [1]
    for k in range(1, n + 1):
        acc = 0
        scale = 1                           # (Q A_0)^(j-1) (k-1)!/(k-j)!
        for j in range(1, k + 1):
            if A[j]:
                acc += (j * P - (k - j) * Q) * A[j] * N[k - j] * scale
            scale *= qd * (k - j)
        N.append(acc)
        dens.append(dens[-1] * qd * k)
    return list(zip(N, dens))
