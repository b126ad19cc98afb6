"""Shift-invariant operators on polynomials, given as series in d/dx.

A :class:`DiffOpSeries` holds coefficients b_k (EGF-style, in the
derivative symbol) and acts as sum_k b_k D^k / k!.  Applying it to a
polynomial of degree d consumes exactly d+1 terms, which makes the
truncated action exact: D^{d+1} annihilates the argument.
"""

from dataclasses import dataclass
from math import factorial

from .errors import SeriesTooShort
from .poly import Poly, lincomb
from .qformat import count, exact
from .series import Egf, _binomial_scaled, expm1_scaled, log1p_scaled


@dataclass(frozen=True, slots=True)
class DiffOpSeries:
    """Linear operator sum_k b_k D^k / k! with b taken from an Egf in D."""

    series: Egf

    @property
    def order(self) -> int:
        return self.series.order

    def __call__(self, p: Poly) -> Poly:
        if p.degree > self.order:
            raise SeriesTooShort(
                "operator truncated at order %d applied to degree %d" % (self.order, p.degree)
            )
        terms, dp = [], p
        for k in range(max(p.degree, 0) + 1):
            terms.append((self.series.a[k] / factorial(k), dp))
            dp = dp.deriv()
        return lincomb(terms)


def shift_op(a, order: int) -> DiffOpSeries:
    """E^a with E^a p(x) = p(x + a); the series is e^{aD}."""
    return DiffOpSeries(Egf.exp_linear(a, order))


def derivative_op(order: int) -> DiffOpSeries:
    """The plain derivative d/dx."""
    return DiffOpSeries(Egf.t(order))


def forward_difference_op(m, order: int) -> DiffOpSeries:
    """(E^m - I)/m."""
    count(m, "m", 1)
    return DiffOpSeries(expm1_scaled(m, order))


def scaled_log_op(m, order: int) -> DiffOpSeries:
    """ln(1 + mD)/m, the delta operator whose basic family has steps of m."""
    count(m, "m", 1)
    return DiffOpSeries(log1p_scaled(m, order))


def binomial_power_op(m, q, order: int) -> DiffOpSeries:
    """(1 + mD)^q for rational q, which is (1 + mD)^(-r/m) at r = -qm."""
    count(m, "m", 1)
    count(order, "order")
    return DiffOpSeries(_binomial_scaled(m, -exact(q) * m, order))
