"""Enumeration of simple groups with a maximal subgroup of semiprime order.

Each row names a simple-group family member whose subgroup lattice contains
a maximal subgroup of order p*q (p <= q primes), either dihedral D_2q or
metacyclic C_q:C_p.  Rows are generated from explicit number-theoretic
conditions; the in_theorem44 flag marks the sub-list for which that maximal
subgroup is moreover the solubilizer of an order-q element.  Small linear
cases are cross-validated against the permutation engine by brute force;
unitary, Suzuki and sporadic rows are arithmetic-only here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidParameter, NotConstructible
from .families import FamilySpec, make_family
from .group import (
    DEFAULT_CAP,
    PermGroup,
    enumerate_elements,
    first_element_of_order,
    is_maximal,
    structure_tag,
)
from .numtheory import (
    is_fermat_prime,
    is_mersenne_prime,
    is_prime,
    is_prime_power,
)
from .perm import _conj, _inv, _order
from .solubilizer import sol_record

__all__ = [
    "ClassifierRow",
    "CrossValidation",
    "table2_enumerate",
    "theorem44_enumerate",
    "cross_validate",
]

_SPORADIC_ROWS = (
    ("m23", 23, 11),
    ("baby_monster", 47, 23),
    ("monster", 59, 29),
)


# The fields of ClassifierRow, which checks them in __new__: a NamedTuple
# class body may not define __new__ itself.
class _RowFields(NamedTuple):
    family: str
    parameters: tuple[int, ...]
    q_prime: int
    p_prime: int
    maximal_structure: str
    in_theorem44: bool
    discrepancy: str | None = None


class ClassifierRow(_RowFields):
    """One enumerated family member and its semiprime maximal subgroup.

    The prime conditions are checked whenever a row is constructed."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        row = super().__new__(cls, *args, **kwargs)
        p, q = row.p_prime, row.q_prime
        if not (is_prime(q) and is_prime(p)):
            raise InvalidParameter(f"p = {p} and q = {q} must be primes")
        if p > q:
            raise InvalidParameter(f"p = {p} exceeds q = {q}")
        if row.in_theorem44 and (q - 1) % p != 0:
            raise InvalidParameter(f"a Theorem 4.4 row needs p = {p} dividing q - 1")
        return row

    def label(self) -> str:
        if self.family in ("m23", "baby_monster", "monster"):
            return self.family
        if self.family in ("psl_d", "psu_d"):
            d, r = self.parameters
            kind = "PSL" if self.family == "psl_d" else "PSU"
            return f"{kind}({d},{r})"
        if self.family == "suzuki":
            return f"Sz({self.parameters[0]})"
        return f"PSL(2,{self.parameters[0]})"


def _dihedral_row(family: str, r: int, q: int, in44: bool) -> ClassifierRow:
    return ClassifierRow(family, (r,), q, 2, f"D_{2 * q}", in44)


def _odd_prime_powers(limit: int):
    for r in range(3, limit + 1, 2):
        if is_prime_power(r) is not None:
            yield r


def table2_enumerate(max_r: int, max_d: int, max_q: int) -> list[ClassifierRow]:
    """Every row with parameters in bounds, in a fixed family-major order."""
    rows: list[ClassifierRow] = []

    # linear groups over GF(2^n) whose torus normalizers have semiprime order
    r = 4
    while r <= max_r:
        q = r + 1
        if is_fermat_prime(q) and q <= max_q:
            rows.append(_dihedral_row("psl2_fermat", r, q, True))
        r *= 2
    r = 4
    while r <= max_r:
        q = r - 1
        if is_mersenne_prime(q) and q <= max_q:
            rows.append(_dihedral_row("psl2_mersenne", r, q, False))
        r *= 2

    for p in range(5, max_r + 1, 2):
        t = (p - 1) // 2
        if is_prime(p) and is_prime(t) and p <= max_q:
            rows.append(ClassifierRow("psl2_cpct", (p,), p, t, f"C_{p}:C_{t}", True))

    for r in _odd_prime_powers(max_r):
        if r < 5 or r in (7, 9):
            continue
        q = (r + 1) // 2
        if is_prime(q) and q <= max_q:
            rows.append(_dihedral_row("psl2_dihedral_plus", r, q, q >= 7))

    for r in _odd_prime_powers(max_r):
        if r < 13:
            continue
        q = (r - 1) // 2
        if is_prime(q) and q <= max_q:
            rows.append(_dihedral_row("psl2_dihedral_minus", r, q, False))

    for d in range(3, max_d + 1):
        if not is_prime(d):
            continue
        for r in range(2, max_r + 1):
            if is_prime_power(r) is None:
                continue
            q = (r**d - 1) // ((r - 1) * math.gcd(r - 1, d))
            if q <= max_q and is_prime(q) and q % d == 1:
                rows.append(ClassifierRow("psl_d", (d, r), q, d, f"C_{q}:C_{d}", True))

    for d in range(3, max_d + 1):
        if not is_prime(d):
            continue
        for r in range(2, max_r + 1):
            if is_prime_power(r) is None or (d, r) == (3, 5):
                continue
            q = (r**d + 1) // ((r + 1) * math.gcd(r + 1, d))
            if q <= max_q and is_prime(q) and q % d == 1:
                flag = None
                if (d, r) == (3, 3):
                    flag = (
                        "standard subgroup data places the order-21 metacyclic "
                        "group inside a larger maximal subgroup of PSU(3,3); "
                        "row emitted per the stated arithmetic conditions"
                    )
                rows.append(
                    ClassifierRow("psu_d", (d, r), q, d, f"C_{q}:C_{d}", True, flag)
                )

    r = 32
    while r <= max_r:
        q = r - 1
        if is_mersenne_prime(q) and q <= max_q:
            rows.append(_dihedral_row("suzuki", r, q, False))
        r *= 4

    for name, q, p in _SPORADIC_ROWS:
        if q <= max_q:
            rows.append(ClassifierRow(name, (), q, p, f"C_{q}:C_{p}", True))

    return rows


def theorem44_enumerate(max_r: int, max_d: int, max_q: int) -> list[ClassifierRow]:
    """The rows whose maximal subgroup is also the solubilizer of a q-element."""
    return [row for row in table2_enumerate(max_r, max_d, max_q) if row.in_theorem44]


class CrossValidation(NamedTuple):
    """Outcome of checking one row against the permutation engine."""

    row: ClassifierRow
    status: str  # "passed", "failed" or "skipped"
    reason: str | None
    details: dict


def _construct(row: ClassifierRow, cap: int) -> PermGroup:
    if row.family.startswith("psl2_"):
        r = row.parameters[0]
        spec = FamilySpec("psl2", (r,))
    elif row.family == "psl_d" and row.parameters == (3, 2):
        spec = FamilySpec("psl3_2")
    else:
        raise NotConstructible(f"no permutation constructor for {row.label()}")
    if spec.order() > cap:
        raise NotConstructible(
            f"{row.label()} has order {spec.order()} beyond the cap {cap}"
        )
    return make_family(spec)


def cross_validate(row: ClassifierRow, cap: int = DEFAULT_CAP) -> CrossValidation:
    """Brute-force check of one row where a permutation model exists.

    Rows flagged in_theorem44 must exhibit an order-q element whose
    solubilizer is exactly its cyclic normalizer, of order p*q, maximal in
    the group, with the stated dihedral or metacyclic shape.  Constructible
    rows outside the flag must fail that pattern.  Rows without a
    permutation model (unitary, Suzuki, sporadic, oversized) are reported
    as skipped, with the arithmetic conditions rechecked for unitary rows.
    """
    try:
        group = _construct(row, cap)
    except NotConstructible as exc:
        details = {}
        if row.family == "psu_d":
            d, r = row.parameters
            q = (r**d + 1) // ((r + 1) * math.gcd(r + 1, d))
            details["arithmetic_ok"] = (
                q == row.q_prime and is_prime(q) and q % d == 1
            )
        return CrossValidation(row, "skipped", str(exc), details)

    x = first_element_of_order(group, row.q_prime, cap)
    if x is None:
        return CrossValidation(
            row, "failed", f"no element of order {row.q_prime} in {row.label()}", {}
        )
    record = sol_record(group, x, cap)
    pq = row.p_prime * row.q_prime
    details = {
        "group_order": group.order(),
        "sol_size": record.sol_size,
        "nx_order": record.n_x.order(),
        "expected_pq": pq,
    }
    if row.in_theorem44:
        problems = []
        if record.sol_size != pq:
            problems.append(f"sol size {record.sol_size} != {pq}")
        if not record.is_subgroup:
            problems.append("solubilizer is not a subgroup")
        if not record.equals_nx:
            problems.append("solubilizer differs from the cyclic normalizer")
        else:
            # the solubilizer is the cyclic normalizer, which is a group
            if not is_maximal(group, record.n_x, cap):
                problems.append("solubilizer is not maximal")
            tag = structure_tag(record.n_x, cap)
            details["structure"] = tag
            expected = _normalize_structure(row.maximal_structure)
            if _normalize_structure(tag) != expected:
                problems.append(
                    f"structure {tag} != expected {row.maximal_structure}"
                )
            inverting = _has_inverting_involution(record, cap)
            if inverting != expected.startswith("D_"):
                problems.append("inverting-involution test disagrees with shape")
        if problems:
            return CrossValidation(row, "failed", "; ".join(problems), details)
        return CrossValidation(row, "passed", None, details)
    # negative direction: the solubilizer pattern must not occur
    if record.sol_size == pq and record.equals_nx:
        return CrossValidation(
            row,
            "failed",
            "excluded row still has solubilizer = normalizer of order p*q",
            details,
        )
    return CrossValidation(row, "passed", None, details)


def _normalize_structure(tag: str) -> str:
    """Fold the two names of the same group: C_q:C_2 is the dihedral D_2q."""
    if tag.endswith(":C_2") and tag.startswith("C_"):
        q = int(tag[2:].split(":")[0])
        return f"D_{2 * q}"
    return tag


def _has_inverting_involution(record, cap: int) -> bool:
    xt = record.x._img
    x_inv = _inv(xt)
    for h in enumerate_elements(record.n_x, cap).raw():
        if _order(h) == 2 and _conj(xt, h) == x_inv:
            return True
    return False

