"""Small finite fields GF(p^n) with table-based arithmetic.

Elements are encoded as integers 0..q-1: the base-p digits of the code are
the polynomial coefficients, least significant digit first.  The reducing
polynomial is the lexicographically least monic irreducible of degree n,
comparing coefficient vectors from the leading coefficient down; the choice
only fixes a labelling and never changes any group-theoretic output.
"""

from __future__ import annotations

from .errors import InvalidBase
from .numtheory import is_prime


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of coefficient lists (ascending degree) mod p."""
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    inv_lead = pow(lead, -1, p)
    q = [0] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv_lead % p
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = [0] * (d + 1)
            m = code
            for i in range(d):
                div[i] = m % p
                m //= p
            div[d] = 1
            _, rem = _poly_divmod(poly, div, p)
            if rem == [0]:
                return False
    return True


def _least_irreducible(p: int, n: int) -> list[int]:
    """Monic irreducible of degree n, least by (c_{n-1}, ..., c_0)."""
    for code in range(p**n):
        digits = []
        m = code
        for _ in range(n):
            digits.append(m % p)
            m //= p
        # read the code's digits as (c_{n-1}, ..., c_0), so ascending codes
        # enumerate coefficient vectors in lexicographic order
        coeffs = digits + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise ArithmeticError(f"no irreducible polynomial of degree {n} over GF({p})")


class GF:
    """The field with q = p^n elements, with precomputed operation tables."""

    def __init__(self, p: int, n: int):
        if n < 1 or not is_prime(p):
            raise InvalidBase(f"GF({p}^{n}) is not a valid finite field")
        q = p**n
        if q > 4096:
            raise InvalidBase(f"field size {q} beyond the supported table range")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = tuple(_least_irreducible(p, n)) if n > 1 else (0, 1)

        def decode(code: int) -> list[int]:
            out = []
            for _ in range(n):
                out.append(code % p)
                code //= p
            return out

        def encode(coeffs: list[int]) -> int:
            out = 0
            for c in reversed(coeffs[:n]):
                out = out * p + (c % p)
            return out

        polys = [decode(c) for c in range(q)]
        self.add_table = [
            [encode([(x + y) % p for x, y in zip(polys[a], polys[b])]) for b in range(q)]
            for a in range(q)
        ]
        modulus = list(self.modulus)
        mul = []
        for a in range(q):
            row = []
            for b in range(q):
                if n == 1:
                    row.append(a * b % p)
                else:
                    prod = _poly_mul(polys[a], polys[b], p)
                    _, rem = _poly_divmod(prod, modulus, p)
                    rem += [0] * (n - len(rem))
                    row.append(encode(rem))
            mul.append(row)
        self.mul_table = mul
        self.neg_table = [self.add_inverse(a) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self.inv_table = inv

    def add_inverse(self, a: int) -> int:
        for b in range(self.q):
            if self.add_table[a][b] == 0:
                return b
        raise ArithmeticError("additive inverse missing")

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.inv_table[a]

    def multiplicative_generator(self) -> int:
        """Least element code generating the multiplicative group."""
        target = self.q - 1
        for a in range(2, self.q):
            x, k = a, 1
            while x != 1:
                x = self.mul(x, a)
                k += 1
            if k == target:
                return a
        if self.q == 2:
            return 1
        raise ArithmeticError("no multiplicative generator found")
