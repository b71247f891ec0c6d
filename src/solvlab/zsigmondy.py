"""Primitive prime divisors of q^d - 1.

A prime r is primitive for (q, d) when r divides q^d - 1 but no q^i - 1
with 0 < i < d; equivalently the multiplicative order of q modulo r is
exactly d.  For d >= 2 every such prime divides the d-th cyclotomic value
at q, so candidates are found by factoring that value (far smaller than
q^d - 1) and filtering by multiplicative order.

Conventions at the low end, where the classical statement is silent:
d = 1 yields the primes dividing q - 1, and d = 2 the primes dividing
q + 1 but not q - 1.  The classical lemmas are only asserted for d >= 3.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EngineInvariantViolated, InvalidBase, InvalidParameter
from .numtheory import factorize, is_prime_power, multiplicative_order

__all__ = [
    "ZsigmondyResult",
    "primitive_prime_divisors",
    "zsigmondy_divides_qd_plus_1",
]


def _mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _cyclotomic_value(d: int, q: int) -> int:
    """The d-th cyclotomic polynomial evaluated at q, for d >= 1."""
    numerator = 1
    denominator = 1
    for e in _divisors(d):
        term = q**e - 1
        mu = _mobius(d // e)
        if mu == 1:
            numerator *= term
        elif mu == -1:
            denominator *= term
    value, remainder = divmod(numerator, denominator)
    if remainder != 0:
        raise EngineInvariantViolated("cyclotomic product must divide exactly")
    return value


class ZsigmondyResult(NamedTuple):
    """Primitive primes of q^d - 1 and the matching part of its factorization.

    primitive_part is the largest divisor of q^d - 1 all of whose prime
    factors are primitive.
    """

    q: int
    d: int
    primitive_primes: tuple[int, ...]
    primitive_part: int


def primitive_prime_divisors(q: int, d: int) -> ZsigmondyResult:
    """All primes whose multiplicative order at q is exactly d."""
    if q < 2 or is_prime_power(q) is None:
        raise InvalidBase(f"base {q} is not a prime power")
    if d < 1:
        raise InvalidParameter(f"exponent {d} must be at least 1")
    if d <= 2:
        if d == 1:
            primes = sorted(factorize(q - 1)) if q > 2 else []
        else:
            primes = sorted(r for r in factorize(q + 1) if (q - 1) % r != 0)
        total = q**d - 1
        part = 1
        for r in primes:
            while total % r == 0:
                part *= r
                total //= r
        return ZsigmondyResult(q, d, tuple(primes), part)
    # Any prime factor of the d-th cyclotomic value either has order exactly
    # d or divides d itself, and a prime of order d is 1 mod d, hence cannot
    # divide d.  Stripping the primes of d therefore leaves exactly the
    # primitive part of q^d - 1, before any large factorization is attempted.
    part = _cyclotomic_value(d, q)
    for p in factorize(d):
        while part % p == 0:
            part //= p
    primes = sorted(factorize(part))
    ordered = [r for r in primes if multiplicative_order(q % r, r) == d]
    if ordered != primes:
        raise EngineInvariantViolated("stripped cyclotomic factors must all have order d")
    return ZsigmondyResult(q, d, tuple(primes), part)


def zsigmondy_divides_qd_plus_1(q: int, d: int) -> bool:
    """Whether a primitive prime for (q, 2d) exists; it then divides q^d + 1.

    Stated for d >= 3; the only failure in that range is (q, d) = (2, 3).
    """
    if d < 3:
        raise InvalidParameter(f"exponent {d} must be at least 3")
    result = primitive_prime_divisors(q, 2 * d)
    if not result.primitive_primes:
        return False
    target = q**d + 1
    if any(target % r != 0 for r in result.primitive_primes):
        raise EngineInvariantViolated("a prime of order 2d must divide q^d + 1")
    return True
