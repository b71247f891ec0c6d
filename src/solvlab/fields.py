"""Small finite fields GF(p^n) with table-based arithmetic.

Elements are encoded as integers 0..q-1: the base-p digits of the code are
the polynomial coefficients, least significant digit first.  The reducing
polynomial is the lexicographically least monic irreducible of degree n,
comparing coefficient vectors from the leading coefficient down; the choice
only fixes a labelling and never changes any group-theoretic output.  The
multiplication table itself tells irreducible from reducible: GF(p)[x]/(f)
is a field exactly when every nonzero row of its table holds a 1.
"""

from __future__ import annotations

from .errors import InvalidBase
from .numtheory import is_prime


class GF:
    """The field with q = p^n elements, with precomputed operation tables."""

    def __init__(self, p: int, n: int):
        if n < 1 or not is_prime(p):
            raise InvalidBase(f"GF({p}^{n}) is not a valid finite field")
        q = p**n
        if q > 4096:
            raise InvalidBase(f"field size {q} beyond the supported table range")
        self.p, self.n, self.q = p, n, q
        powers = [p**i for i in range(n)]
        digits = [[c // s % p for s in powers] for c in range(q)]

        def encode(coeffs) -> int:
            return sum(c % p * s for c, s in zip(coeffs, powers))

        # c - p^i takes one from c's lowest nonzero digit i, so tables fill from
        # entries already set: a+b = (a - x^i) + b + x^i, a*b = a*(b - x^i) + a*x^i
        low = [0] + [next(i for i, d in enumerate(digits[c]) if d) for c in range(1, q)]
        plus_x = [[encode(d[:i] + [d[i] + 1] + d[i + 1 :]) for d in digits] for i in range(n)]
        self.add_table = add = [list(range(q))]
        for a in range(1, q):
            add.append([plus_x[low[a]][c] for c in add[a - powers[low[a]]]])
        self.neg_table = [encode(-c for c in digits[a]) for a in range(q)]
        top = q // p

        # candidate f = x^n + (the polynomial coded m): ascending m reads the
        # digits as (c_{n-1}, ..., c_0), so candidates come in the order above;
        # minus_f[k] is k x^n reduced mod f
        for m in range(q):
            minus_f = [encode(-k * c for c in digits[m]) for k in range(p)]
            table = []
            for a in range(q):
                ax = [a]  # a x^i for i < n, by shift-and-reduce
                for _ in range(n - 1):
                    ax.append(add[ax[-1] % top * p][minus_f[ax[-1] // top]])
                row = [0] * q
                for b in range(1, q):
                    i = low[b]
                    row[b] = add[row[b - powers[i]]][ax[i]]
                if a and 1 not in row:
                    break  # a zero divisor: f is reducible
                table.append(row)
            else:
                self.modulus = (*digits[m], 1)
                self.mul_table = table
                self.inv_table = [0] + [row.index(1) for row in table[1:]]
                return
        raise ArithmeticError(f"no irreducible polynomial of degree {n} over GF({p})")

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
