"""Exact integer number theory helpers.

Primality is deterministic Miller-Rabin over a fixed witness set that is
proven correct for all n < 3.3 * 10**24; larger inputs raise instead of
returning a probabilistic verdict.  Factorization is trial division backed
by Brent's variant of Pollard rho with a fixed, deterministic parameter
schedule, so repeated runs always produce identical results.
"""

from __future__ import annotations

from math import gcd

from .errors import PrimalityRangeError

# Verified deterministic witness bound for the set below (Sorenson-Webster).
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def _mr_passes(n: int) -> bool:
    """Miller-Rabin over the fixed witness set, without the range guard.

    False always comes with a compositeness witness, so it is a proof.
    True is a proof only below _MR_BOUND.
    """
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.3e24."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise PrimalityRangeError(
            f"{n} exceeds the proven deterministic witness bound {_MR_BOUND}"
        )
    return _mr_passes(n)


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n, found deterministically."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho parameter schedule exhausted for {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < _MR_BOUND:
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
        elif _mr_passes(m):
            # a probable prime too large to certify; splitting cannot help
            raise PrimalityRangeError(
                f"cofactor {m} exceeds the proven witness bound {_MR_BOUND}"
            )
        # m is composite with a witness, so the rho split terminates
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p**k if n is a prime power, else None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    [(p, k)] = fac.items()
    return p, k


def is_fermat_prime(n: int) -> bool:
    """Prime with n - 1 a power of two (n >= 3, so 2 does not count)."""
    return n >= 3 and is_prime(n) and (n - 1) & (n - 2) == 0


def is_mersenne_prime(n: int) -> bool:
    """Prime with n + 1 a power of two."""
    return n >= 3 and (n + 1) & n == 0 and is_prime(n)


def multiplicative_order(a: int, r: int) -> int:
    """Order of a modulo a prime r (a not divisible by r)."""
    if not is_prime(r):
        raise ValueError(f"modulus {r} must be prime")
    a %= r
    if a == 0:
        raise ValueError("a is divisible by the modulus")
    order = r - 1
    for p in factorize(r - 1):
        while order % p == 0 and pow(a, order // p, r) == 1:
            order //= p
    return order


def least_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group modulo a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    phi_factors = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in phi_factors):
            return g
    raise ArithmeticError(f"no primitive root found modulo {p}")

