"""Builtin group families, the desk-scale catalog, and group files.

Families are specified by name and integer parameters and built as explicit
permutation groups:

    cyclic(n)            C_n on n points
    dihedral(n)          D_2n (order 2n) on n points, n >= 3
    symmetric(n)         S_n
    alternating(n)       A_n
    agl1(p)              C_p : C_{p-1}, affine maps t -> a t + b on GF(p)
    frobenius_pq(p, q)   C_q : C_p with p | q - 1, affine maps with a of order p
    sl2(q)               SL(2, q) on the q^2 - 1 nonzero row vectors
    psl2(q)              PSL(2, q) on the q + 1 projective-line points, q >= 4
    psl3_2               PSL(3, 2) on 7 points, shipped as fixed generators

Each family is declared once, as an entry of the table `_FAMILIES`: its
command-line token, arity, parameter check, closed-form order, catalog name
and constructor.  `FamilySpec` and `make_family` read that table and
nothing else, so adding a family is adding one entry.  Every construction
checks the closed-form order of the result, so a wrong generating set
cannot slip through silently.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .cycles import format_cycles, parse_cycles
from .errors import CycleSyntaxError, EngineInvariantViolated, FormatError, InvalidParameter
from .fields import GF
from .group import PermGroup, is_soluble
from .numtheory import is_prime, is_prime_power, least_primitive_root
from .perm import Permutation, _check_degree


class FamilySpec(NamedTuple):
    """A family name plus its integer parameters."""

    family: str
    params: tuple[int, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """The validated spec of a token such as a:5, psl2:7 or frob:11:23."""
        head, _, rest = text.partition(":")
        family = next((f for f, e in _FAMILIES.items() if e.token == head), None)
        if family is None:
            raise InvalidParameter(f"unknown family token {text!r}")
        try:
            params = tuple(int(p) for p in rest.split(":")) if rest else ()
        except ValueError:
            raise InvalidParameter(f"family parameters must be integers: {text!r}")
        spec = cls(family, params)
        spec.validate()
        return spec

    def _entry(self) -> _Family:
        """The table entry of a known family with valid parameters."""
        entry = _FAMILIES.get(self.family)
        if entry is None:
            raise InvalidParameter(f"unknown family {self.family!r}")
        if len(self.params) != entry.arity:
            raise InvalidParameter(
                f"family {self.family} takes {entry.arity} parameter(s), "
                f"got {len(self.params)}"
            )
        message = entry.check(*self.params)
        if message is not None:
            raise InvalidParameter(message)
        return entry

    def validate(self) -> None:
        self._entry()

    def order(self) -> int:
        """Closed-form order of the family member (no construction needed)."""
        return self._entry().order(*self.params)

    def name(self) -> str:
        return self._entry().name(*self.params)


def _cycle(n: int) -> Permutation:
    """The n-cycle (1, 2, ..., n)."""
    return Permutation((i % n) + 1 for i in range(1, n + 1))


def _cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, [] if n == 1 else [_cycle(n)])


def _dihedral_group(n: int) -> PermGroup:
    refl = Permutation(1 if i == 1 else n + 2 - i for i in range(1, n + 1))
    return PermGroup(n, [_cycle(n), refl])


def _symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, [])
    gens = [Permutation([2, 1] + list(range(3, n + 1)))]
    if n > 2:
        gens.append(_cycle(n))
    return PermGroup(n, gens)


def _alternating_group(n: int) -> PermGroup:
    gens = [Permutation([2, 3, 1] + list(range(4, n + 1)))]
    if n > 3:
        if n % 2 == 1:
            gens.append(_cycle(n))
        else:
            gens.append(Permutation([1] + list(range(3, n + 1)) + [2]))
    return PermGroup(n, gens)


def _affine_group(modulus: int, multipliers: list[int]) -> PermGroup:
    """Maps t -> a t + b on GF(modulus); point i is the field element i - 1."""
    n = modulus
    gens = [_cycle(n)]
    for a in multipliers:
        gens.append(Permutation((a * i) % n + 1 for i in range(n)))
    return PermGroup(n, gens)


def _agl1_group(p: int) -> PermGroup:
    return _affine_group(p, [] if p == 2 else [least_primitive_root(p)])


def _frobenius_pq_group(p: int, q: int) -> PermGroup:
    return _affine_group(q, [pow(least_primitive_root(q), (q - 1) // p, q)])


def _sl2_generators(q: int) -> tuple[GF, list]:
    """GF(q) and a list of matrices ((a, b), (c, d)) generating SL(2, q)."""
    p, n = is_prime_power(q)
    K = GF(p, n)
    mats = [((1, 1), (0, 1)), ((0, 1), (K.neg(1), 0))]
    if n > 1:
        # p encodes the polynomial x, a field generator over the prime field
        mats.append(((1, p), (0, 1)))
    if q > 3:
        g = K.multiplicative_generator()
        mats.append(((g, 0), (0, K.inv(g))))
    return K, mats


def _psl2_group(q: int) -> PermGroup:
    """Projective-line action of SL(2, q); point 1 is [1:0], point c+2 is [c:1]."""
    _check_degree(q + 1)  # refused before any table of GF(q) is built
    K, mats = _sl2_generators(q)

    def point_of(x: int, y: int) -> int:
        if y == 0:
            return 1
        return K.mul(x, K.inv(y)) + 2

    def act(m) -> Permutation:
        (a, b), (c, d) = m
        images = [0] * (q + 1)
        images[0] = point_of(a, b)
        for t in range(q):
            images[t + 1] = point_of(
                K.add(K.mul(t, a), c), K.add(K.mul(t, b), d)
            )
        return Permutation(images)

    return PermGroup(q + 1, [act(m) for m in mats])


def _sl2_group(q: int) -> PermGroup:
    """SL(2, q) acting on nonzero row vectors, labelled by ascending codes."""
    _check_degree(q * q - 1)
    K, mats = _sl2_generators(q)
    vectors = [(x, y) for x in range(q) for y in range(q) if (x, y) != (0, 0)]
    index = {v: i + 1 for i, v in enumerate(vectors)}

    def act(m) -> Permutation:
        (a, b), (c, d) = m
        images = [0] * len(vectors)
        for v, i in index.items():
            x, y = v
            w = (K.add(K.mul(x, a), K.mul(y, c)), K.add(K.mul(x, b), K.mul(y, d)))
            images[i - 1] = index[w]
        return Permutation(images)

    return PermGroup(len(vectors), [act(m) for m in mats])


def _psl3_2_group() -> PermGroup:
    return PermGroup(7, [parse_cycles(s, 7) for s in ("(1,3)(5,7)", "(1,2,4)(3,6,5)")])


def _frobenius_pq_check(p: int, q: int) -> str | None:
    if not (is_prime(p) and is_prime(q)):
        return "frobenius_pq requires primes p, q"
    if p >= q or (q - 1) % p != 0:
        return "frobenius_pq requires p < q and p | q-1"
    return None


class _Family(NamedTuple):
    """A family; `check` returns the message of a failed requirement, or None."""

    token: str
    arity: int
    check: Callable[..., str | None]
    order: Callable[..., int]
    name: Callable[..., str]
    build: Callable[..., PermGroup]


_FAMILIES = {
    "cyclic": _Family(
        "c", 1, lambda n: None if n >= 1 else "cyclic requires n >= 1",
        lambda n: n, lambda n: f"C{n}", _cyclic_group),
    "dihedral": _Family(
        "d", 1, lambda n: None if n >= 3 else "dihedral requires n >= 3 (order 2n)",
        lambda n: 2 * n, lambda n: f"D{2 * n}", _dihedral_group),
    "symmetric": _Family(
        "s", 1, lambda n: None if n >= 1 else "symmetric requires n >= 1",
        math.factorial, lambda n: f"S{n}", _symmetric_group),
    "alternating": _Family(
        "a", 1, lambda n: None if n >= 3 else "alternating requires n >= 3",
        lambda n: math.factorial(n) // 2, lambda n: f"A{n}", _alternating_group),
    "agl1": _Family(
        "agl1", 1, lambda p: None if is_prime(p) else "agl1 requires a prime p",
        lambda p: p * (p - 1), lambda p: f"AGL1({p})", _agl1_group),
    "frobenius_pq": _Family(
        "frob", 2, _frobenius_pq_check,
        lambda p, q: p * q, lambda p, q: f"C{q}:C{p}", _frobenius_pq_group),
    "sl2": _Family(
        "sl2", 1,
        lambda q: None if is_prime_power(q) else "sl2 requires a prime power q >= 2",
        lambda q: q * (q * q - 1), lambda q: f"SL(2,{q})", _sl2_group),
    "psl2": _Family(
        "psl2", 1,
        lambda q: None if is_prime_power(q) and q >= 4 else "psl2 requires a prime power q >= 4",
        lambda q: q * (q * q - 1) // math.gcd(2, q - 1), lambda q: f"PSL(2,{q})", _psl2_group),
    "psl3_2": _Family("psl3_2", 0, lambda: None, lambda: 168, lambda: "PSL(3,2)", _psl3_2_group),
}

FAMILY_TOKENS = tuple(entry.token for entry in _FAMILIES.values())


def make_family(spec: FamilySpec) -> PermGroup:
    """Build the permutation group for a validated family spec."""
    entry = spec._entry()
    group = entry.build(*spec.params)
    expected = entry.order(*spec.params)
    if group.order() != expected:
        raise EngineInvariantViolated(
            f"constructed order {group.order()} != expected {expected} for {spec}"
        )
    return group


class CatalogEntry:
    """A named group ready for verification sweeps."""

    def __init__(self, name: str, group: PermGroup, soluble: bool, source: FamilySpec | str):
        self.name = name
        self.group = group
        self.soluble = soluble
        self.source = source

    @classmethod
    def from_spec(cls, spec: FamilySpec) -> "CatalogEntry":
        group = make_family(spec)
        return cls(spec.name(), group, is_soluble(group), spec)


def builtin_specs(max_order: int = 1200) -> list[FamilySpec]:
    """Specs of the builtin catalog with order <= max_order, construction-free.

    Orders are known in closed form, so out-of-range members are skipped
    without being constructed.
    """
    specs: list[FamilySpec] = []
    specs += [FamilySpec("cyclic", (n,)) for n in range(1, 21)]
    specs += [FamilySpec("dihedral", (n,)) for n in range(3, 21)]
    specs += [FamilySpec("symmetric", (n,)) for n in range(3, 8)]
    specs += [FamilySpec("alternating", (n,)) for n in range(4, 8)]
    specs += [FamilySpec("agl1", (p,)) for p in (3, 5, 7, 11, 13)]
    specs.append(FamilySpec("frobenius_pq", (11, 23)))
    specs.append(FamilySpec("sl2", (5,)))
    specs += [FamilySpec("psl2", (q,)) for q in (4, 5, 7, 8, 9, 11, 13)]
    specs.append(FamilySpec("psl3_2"))
    return [spec for spec in specs if spec.order() <= max_order]


def builtin_catalog(max_order: int = 1200) -> list[CatalogEntry]:
    """The deterministic builtin catalog, restricted to order <= max_order."""
    return [CatalogEntry.from_spec(spec) for spec in builtin_specs(max_order)]


def save_group_file(path, name: str, group: PermGroup) -> None:
    """Write a group file: name, degree, one gen line per generator."""
    lines = [f"name: {name}", f"degree: {group.degree}"]
    for g in group.generators:
        lines.append(f"gen: {format_cycles(g)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_group_file(path) -> CatalogEntry:
    """Read a group file written by save_group_file (comments allowed)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    fields: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(raw_lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition(":")
        if not sep:
            raise FormatError(f"expected 'key: value', got {text!r}", lineno)
        fields.append((lineno, key.strip(), value.strip()))
    if not fields or fields[0][1] != "name":
        raise FormatError("first entry must be 'name:'", fields[0][0] if fields else 1)
    if len(fields) < 2 or fields[1][1] != "degree":
        raise FormatError("second entry must be 'degree:'", fields[1][0] if len(fields) > 1 else 1)
    name = fields[0][2]
    if not name:
        raise FormatError("empty group name", fields[0][0])
    try:
        degree = int(fields[1][2])
    except ValueError:
        raise FormatError(f"degree is not an integer: {fields[1][2]!r}", fields[1][0])
    if degree < 1:
        raise FormatError("degree must be at least 1", fields[1][0])
    _check_degree(degree)
    gens = []
    for lineno, key, value in fields[2:]:
        if key != "gen":
            raise FormatError(f"unexpected key {key!r}", lineno)
        try:
            gens.append(parse_cycles(value, degree))
        except CycleSyntaxError as exc:
            raise FormatError(f"bad generator: {exc}", lineno) from exc
    group = PermGroup(degree, gens)
    return CatalogEntry(name, group, is_soluble(group), str(path))
