"""Truncated formal power series over exact rationals.

All operations are exact and truncated at a fixed order: enough to
expand metric coefficients, raise to powers and revert series.  A series
holds integer numerators over one denominator, and every operation runs
on those integers; a Fraction (in lowest terms) is made only where a
caller reads a coefficient: `coeffs`, `[]` and iteration.  Powers,
inverses (power -1) and reversions (Lagrange inversion, power -k for
coefficient k) run one integer recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from operator import mul


def common_denominator(cs) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators of `cs`."""
    d = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def _as_fraction(x):
    """x as an int or a Fraction; a float is converted exactly."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _of(num: list, den: int) -> "FormalSeries":
    """num / den, with the common factor and the sign taken out of den."""
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    f = object.__new__(FormalSeries)
    f._num, f._den = ([x // g for x in num], den // g) if g != 1 else (num, den)
    return f


class FormalSeries:
    """A polynomial c0 + c1 x + ... + cN x^N standing in for a power
    series truncated at order N, as numerators `_num` over `_den` > 0."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs, order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        self._num, self._den = common_denominator(cs or [0])

    # -- basics -------------------------------------------------------

    @property
    def coeffs(self) -> list[Fraction]:     # a new list on every read
        return [Fraction(a, self._den) for a in self._num]

    @property
    def order(self) -> int:
        return len(self._num) - 1

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self._num[i], self._den) if 0 <= i <= self.order else Fraction(0)

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return all(x * other._den == y * self._den
                   for x, y in zip_longest(self._num, other._num, fillvalue=0))

    def __repr__(self) -> str:
        return f"FormalSeries({[str(c) for c in self.coeffs]})"

    def truncate(self, order: int) -> "FormalSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        return _of(self._num[: order + 1] + [0] * (order - self.order) or [0], self._den)

    # -- operations ---------------------------------------------------

    def _join(self, other, sign: int = 1) -> "FormalSeries":
        # self + sign * other over the lcm of the denominators, at the lower order
        if not isinstance(other, FormalSeries):
            other = FormalSeries([other], self.order)
        d = math.lcm(self._den, other._den)
        ka, kb = d // self._den, sign * (d // other._den)
        return _of([a * ka + b * kb for a, b in zip(self._num, other._num)], d)

    def __add__(self, other) -> "FormalSeries":
        return self._join(other)

    __radd__ = __add__

    def __sub__(self, other) -> "FormalSeries":
        return self._join(other, -1)

    def __mul__(self, other) -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            c = _as_fraction(other)
            return _of([c.numerator * a for a in self._num], c.denominator * self._den)
        n = min(self.order, other.order)
        na, nb = self._num[: n + 1], other._num[: n + 1]
        return _of([sum(map(mul, na[: k + 1], reversed(nb[: k + 1])))
                    for k in range(n + 1)], self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse; requires nonzero constant term."""
        if self._num[0] == 0:
            raise ZeroDivisionError("series has zero constant term")
        N, D = _power_terms(self._num, -1, 1, self.order)   # 1/f = (den/A_0) (f/f_0)^(-1)
        return _of([x * self._den for x in N], D * self._num[0])

    def integrate(self) -> "FormalSeries":
        """Antiderivative with zero constant term; order grows by one."""
        L = math.lcm(*range(1, len(self._num) + 1))
        return _of([0] + [a * (L // i) for i, a in enumerate(self._num, 1)], L * self._den)

    def shift(self, k: int) -> "FormalSeries":
        """Multiply by x^k (k may be negative; low-order terms must vanish)."""
        if k >= 0:
            return _of([0] * k + self._num, self._den)
        if any(self._num[:-k]):
            raise ValueError("shift would drop nonzero low-order terms")
        return _of(self._num[-k:] or [0], self._den)

    def pow(self, p) -> "FormalSeries":
        """Raise to a rational power; requires constant term 1."""
        p = _as_fraction(p)
        if self._num[0] != self._den:
            raise ValueError("pow requires constant term 1")
        return _of(*_power_terms(self._num, p.numerator, p.denominator, self.order))

    def reversion(self) -> "FormalSeries":
        """Compositional inverse g with self(g(x)) = x.

        Requires coefficients (0, nonzero, ...).  By Lagrange inversion,
        g_k = [x^(k-1)] w^(-k) / (k a1^k) for w = self/(a1 x) = 1 + ...
        """
        F, E, n = self._num[1:], self._den, self.order   # f_(j+1) = F_j/E, w_j = F_j/F_0
        if self._num[0] != 0 or not F or F[0] == 0:
            raise ValueError("reversion requires series of the form a1 x + ...")
        g, scale = [0] * (n + 1), 1          # g_k = N E^k / (F_0^(2k-1) k!), over
        for k in range(n, 0, -1):            # F_0^(2n-1) n! by scale = F_0^(2(n-k)) n!/k!
            g[k] = _power_terms(F, -k, 1, k - 1)[0][-1] * E ** k * scale
            scale *= F[0] * F[0] * k
        return _of(g, F[0] ** (2 * n - 1) * math.factorial(n))


def _power_terms(A, P: int, Q: int, n: int) -> tuple[list[int], int]:
    """[x^k] (A(x)/A_0)^(P/Q), k = 0 .. n, for integers A_j with A_0 != 0,
    as integer numerators over the one denominator (Q A_0)^n n!.

    a^p with a_0 = 1 obeys k f_k = sum_{j=1..k} (j p - (k - j)) a_j f_{k-j};
    at a_j = A_j/A_0 and p = P/Q that is N_0 = 1 and, over (Q A_0)^k k!,
      N_k = sum_j (jP - (k-j)Q) A_j N_{k-j} (Q A_0)^(j-1) (k-1)!/(k-j)!.
    """
    qd, N = Q * A[0], [1]
    for k in range(1, n + 1):
        acc, scale = 0, 1                   # scale: (Q A_0)^(j-1) (k-1)!/(k-j)!
        for j in range(1, k + 1):
            if A[j]:
                acc += (j * P - (k - j) * Q) * A[j] * N[k - j] * scale
            scale *= qd * (k - j)
        N.append(acc)
    scale = 1                               # (Q A_0)^(n-k) n!/k!, k = n .. 0
    for k in range(n, 0, -1):
        scale *= qd * k
        N[k - 1] *= scale
    return N, scale
