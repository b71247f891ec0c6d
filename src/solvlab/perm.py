"""Permutations of {1, ..., n} whose images are stored as `bytes`.

Composition is left to right: (p * q) sends i to q(p(i)), matching the
right-action convention i^p used everywhere in this package.  Internally a
permutation stores its 0-based images as one `bytes` object, byte i being
the image of point i, and points are 1-based at every public boundary.
Products, inverses and conjugates are then `bytes.translate` and
`bytes.maketrans` calls, which run in C; a translation table is 256 bytes,
so a degree is at most MAX_DEGREE.  Same-length `bytes` compare
lexicographically, which is the canonical order of permutations.
"""

from __future__ import annotations

import operator
from math import lcm

from .errors import DegreeMismatch, DegreeTooLarge, MalformedPermutation

Images = bytes

MAX_DEGREE = 256
# The identity on every byte value: _FULL[:n] is the identity of degree n,
# and _FULL[n:] pads raw images of degree n to a full translation table.
_FULL = bytes(range(MAX_DEGREE))


def _check_degree(degree: int) -> None:
    """Refuse a degree above MAX_DEGREE, which raw images cannot hold."""
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(
            f"degree {degree} exceeds {MAX_DEGREE}, the most points a permutation may move"
        )


def _mul(p: Images, q: Images) -> Images:
    """Compose raw images left to right."""
    return p.translate(q + _FULL[len(q) :])


def _inv(p: Images) -> Images:
    n = len(p)
    return bytes.maketrans(p, _FULL[:n])[:n]


def _conj(p: Images, g: Images) -> Images:
    """Conjugate p^g = g^-1 p g, which sends g(i) to g(p(i)), without
    forming intermediate permutations."""
    n = len(p)
    return bytes.maketrans(g, p.translate(g + _FULL[n:]))[:n]


def _comm(a: Images, b: Images) -> Images:
    """Commutator [a, b] = a^-1 b^-1 a b."""
    return _mul(_inv(_mul(b, a)), _mul(a, b))


def _commutes(a: Images, b: Images) -> bool:
    """Whether ab = ba, comparing the images of point 0 before the rest;
    that first comparison rejects most non-commuting pairs."""
    return a[b[0]] == b[a[0]] and all(a[b[i]] == b[a[i]] for i in range(1, len(a)))


def _identity(n: int) -> Images:
    return _FULL[:n]


def _order(p: Images) -> int:
    """Order of raw images, the lcm of its cycle lengths."""
    seen = [False] * len(p)
    out = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length > 1:
            out = lcm(out, length)
    return out


class Permutation:
    """An element of Sym(1..degree), stored as its raw images."""

    __slots__ = ("degree", "_img")

    def __init__(self, images):
        """Build from a 1-based sequence of integer images; entry i is the image of point i+1."""
        img: list[int] = []
        for v in images:
            try:
                img.append(operator.index(v) - 1)
            except TypeError:
                raise MalformedPermutation(f"image {v!r} is not an integer") from None
        n = len(img)
        if n == 0:
            raise MalformedPermutation("empty image sequence")
        _check_degree(n)
        if sorted(img) != list(range(n)):
            raise MalformedPermutation(
                f"images {[v + 1 for v in img]!r} are not a bijection on 1..{n}"
            )
        self.degree = n
        self._img = bytes(img)

    @classmethod
    def _from_images(cls, img: Images) -> "Permutation":
        p = object.__new__(cls)
        p.degree = len(img)
        p._img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise MalformedPermutation("degree must be at least 1")
        _check_degree(degree)
        return cls._from_images(_identity(degree))

    @property
    def images(self) -> tuple[int, ...]:
        """The 1-based image sequence."""
        return tuple(v + 1 for v in self._img)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= self.degree:
            raise DegreeMismatch(f"point {point} outside 1..{self.degree}")
        return self._img[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"degrees differ: {self.degree} vs {other.degree}"
            )
        return Permutation._from_images(_mul(self._img, other._img))

    def inverse(self) -> "Permutation":
        return Permutation._from_images(_inv(self._img))

    def __pow__(self, k: int) -> "Permutation":
        n = self.degree
        if k == 0:
            return Permutation.identity(n)
        base = self._img if k > 0 else _inv(self._img)
        k = abs(k)
        out = _identity(n)
        while k:
            if k & 1:
                out = _mul(out, base)
            base = _mul(base, base)
            k >>= 1
        return Permutation._from_images(out)

    def order(self) -> int:
        return _order(self._img)

    def is_identity(self) -> bool:
        return self._img == _identity(self.degree)

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """self^g = g^-1 * self * g."""
        if self.degree != g.degree:
            raise DegreeMismatch("conjugation across different degrees")
        return Permutation._from_images(_conj(self._img, g._img))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Permutation)
            and self.degree == other.degree
            and self._img == other._img
        )

    def __hash__(self) -> int:
        return hash(self._img)

    def __lt__(self, other: "Permutation") -> bool:
        """Canonical order: compare image sequences lexicographically."""
        if self.degree != other.degree:
            return self.degree < other.degree
        return self._img < other._img

    def __repr__(self) -> str:
        from .cycles import format_cycles

        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

