"""Solubilizer sets and the identities that constrain them.

For x in a finite group G, the solubilizer of x is

    sol(G, x) = {g in G : the subgroup generated by x and g is soluble}.

This module computes that set exactly with one two-generator solubility
test per orbit of a group action that leaves the verdict unchanged (see
sol_set), keeps a scan with one test per cyclic subgroup of G as an
independent oracle (sol_set_exhaustive), aggregates per-element records, counts
conjugation orbits on the set two independent ways, and evaluates the exact
counting identities that a correct engine must satisfy: the weighted orbit
identity over a subgroup H between the centralizer and the cyclic
normalizer, its soluble-group corollary, the centralizer-index ratio whose
integrality the normalizer-divisibility conjecture predicts, and the
semiprime-solubilizer scan.  All arithmetic is exact; there is no floating
point anywhere in this module.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import (
    BurnsideNonIntegral,
    EngineInvariantViolated,
    GroupSoluble,
    NormalizerIsWholeGroup,
    NotInGroup,
    NotInvariantSet,
    NotSoluble,
    SubgroupChainViolated,
)
from .group import (
    DEFAULT_CAP,
    ElementSet,
    PermGroup,
    _certificate_chain,
    _cyclic_images,
    _memo,
    _orbits,
    _powers_set,
    _soluble_from_gens,
    _subgroup_gens,
    _subgroup_of,
    centralizer,
    class_of_rep,
    conjugacy_class_reps,
    enumerate_elements,
    is_normal,
    is_soluble,
    normalizer_of_cyclic,
    quotient_by_normal,
)
from .numtheory import factorize, is_prime
from .perm import Images, Permutation, _commutes, _conj, _identity, _order

__all__ = [
    "SolubilizerRecord",
    "FrobeniusFinding",
    "PqFinding",
    "sol_set",
    "sol_set_exhaustive",
    "sol_record",
    "soluble_radical",
    "orbit_count",
    "burnside_orbit_count",
    "n_value",
    "lemma32_check",
    "eq1_check",
    "frobenius_structure",
    "lemma_exp_bound",
    "quotient_sol_check",
    "pq_scan",
]


def _cyclic_generators(t: Images) -> list[Images]:
    """The generators of <t>: the powers t^k with k coprime to |t|, t among
    them.  There are phi(|t|) of them, and each generates the same <t>."""
    powers = _cyclic_images(t)
    order = len(powers)
    return [powers[k] for k in range(order) if gcd(k, order) == 1]


# The orbit rules of _pair_soluble.  A soluble H = <a, b> has soluble
# constituents H^O on its orbits O, each a quotient of H, and H embeds in
# their product.  A soluble transitive group of prime degree p lies in
# AGL(1, p) (Galois), so it has order at most p(p - 1), and its elements
# are the identity, p-cycles, and maps with one fixed point whose other
# cycles share one length.  A soluble group of degree m has order at most
# 24^((m - 1)/3) (Dixon 1967; Dixon and Mortimer, Permutation Groups, 3.5).


@functools.cache
def _dixon_bound(m: int) -> int:
    """D(m), the largest k with k**3 <= 24**(m - 1), by integer bisection."""
    power = 24 ** (m - 1)
    low, high = 0, 1 << (power.bit_length() // 3 + 1)
    while low < high:
        mid = (low + high + 1) // 2
        if mid**3 <= power:
            low = mid
        else:
            high = mid - 1
    return low


@functools.cache
def _orbit_bound(m: int) -> int:
    """s(m), a bound on the order of a soluble transitive group of degree m:
    m(m - 1) for a prime m, D(m) otherwise (D(1) = 1)."""
    return m * (m - 1) if is_prime(m) else _dixon_bound(m)


def _point_orbits(a: Images, b: Images) -> list[list[int]]:
    """The orbits of <a, b> on the points, in one pass that joins each point
    to its images under a and b."""
    seen = bytearray(len(a))
    orbits = []
    for i in range(len(a)):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for p in orbit:
            for q in (a[p], b[p]):
                if not seen[q]:
                    seen[q] = 1
                    orbit.append(q)
        orbits.append(orbit)
    return orbits


def _affine_cycle_type(t: Images, orbit: list[int]) -> bool:
    """Whether t, which maps the orbit to itself, has on it a cycle type of
    AGL(1, p): every cycle of one length, or one fixed point and every
    other cycle of one length."""
    seen: set[int] = set()
    lengths = []
    for i in orbit:
        if i in seen:
            continue
        seen.add(i)
        j, length = t[i], 1
        while j != i:
            seen.add(j)
            j, length = t[j], length + 1
        lengths.append(length)
    kinds = len(set(lengths))
    return kinds == 1 or (kinds == 2 and lengths.count(1) == 1)


def _pair_soluble(G: PermGroup, a: Images, b: Images) -> bool:
    """Whether the subgroup H of G generated by two elements is soluble.

    A pure test that stores no verdict.  Each exit is exact; they are tried
    in this order:
    1. cyclic-by-cyclic: if either element normalizes the cyclic group of
       the other (the identity does), H is soluble;
    2. small orbits: if every orbit of H has at most 4 points, H embeds in
       a product of symmetric groups of degree at most 4, so is soluble;
    3. cycle type: if a or b acts on an orbit of prime length p >= 5 with
       no cycle type of AGL(1, p), H is insoluble;
    4. bound: B, the product of _orbit_bound over the orbits, bounds |H|
       if H is soluble, so the unverified bound of group._certificate_chain
       runs to min(|G|, B + 1).  Reaching |G| means H = G, and G's own
       flag decides; else going above B means H is insoluble;
    5. walk: every other pair walks the derived series of H
       (group._soluble_from_gens), which needs no group order.
    The oracle, a test by verified chains, is pair_soluble_chain in
    tests/conftest.py.
    """
    if _conj(a, b) in _powers_set(G, a) or _conj(b, a) in _powers_set(G, b):
        return True
    orbits = _point_orbits(a, b)
    if all(len(orbit) <= 4 for orbit in orbits):
        return True
    bound = 1
    for orbit in orbits:
        m = len(orbit)
        if m >= 5 and is_prime(m) and not (
            _affine_cycle_type(a, orbit) and _affine_cycle_type(b, orbit)
        ):
            return False
        bound *= _orbit_bound(m)
    order = G.order()
    reached = _certificate_chain(G.degree, [a, b], min(order, bound + 1)).order()
    if reached == order:
        return is_soluble(G)
    if reached > bound:
        return False
    return _soluble_from_gens(G.degree, [a, b])


def sol_set(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> ElementSet:
    """All g in G such that the subgroup generated by x and g is soluble.

    Exact, with one pair test per orbit of two maps: g -> xg, which leaves
    <x, g> unchanged, and g -> n^-1 g n for the generators n of N_G(<x>),
    which conjugates <x, g> by n, fixing <x>.  So every member of an orbit
    (group._orbits) has the verdict of its leader, the one pair that is
    tested.  g -> gx adds nothing: gx = (xg)^x, and x lies in the group the
    generators n generate.  The one shortcut is soluble G.  Memoized per
    group, keyed by x; sol_set_exhaustive is the oracle.
    """
    elements = enumerate_elements(G, cap)
    xt = x._img

    def scan() -> ElementSet:
        if xt not in elements.raw_set():
            raise NotInGroup(f"{x!r} is not an element of {G!r}")
        return elements if is_soluble(G) else _orbit_scan(G, x, elements, cap)

    return _memo(_memo(G._cache, "sol_set", dict), xt, scan)


def _orbit_scan(G: PermGroup, x: Permutation, elements: ElementSet, cap: int) -> ElementSet:
    xt = x._img
    n_gens = [n._img for n in normalizer_of_cyclic(G, x, cap).generators]
    soluble: set[Images] = set()
    for orbit in _orbits(n_gens, elements, [xt]):
        if _pair_soluble(G, xt, orbit[0]):
            soluble.update(orbit)
    # the element list's canonical images, not the orbit's copies
    return ElementSet(G.degree, (t for t in elements.raw() if t in soluble))


def sol_set_exhaustive(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> ElementSet:
    """The same set as sol_set, by one pair test per cyclic subgroup of G.

    Exact: every generator y^k of <y> (k coprime to |y|) generates with x
    the same group as y, since <x, y^k> = <x, y>, so it has y's verdict.
    The least member t of each class of _generator_classes (the classes
    Burnside's sum uses) is tested, and all of _cyclic_generators(t) join
    the set when t passes.  Not memoized and blind to the orbit reduction:
    it uses neither g -> xg nor conjugation by N_G(<x>), and shares only
    G's solubility flag and _pair_soluble with sol_set.  It is the oracle
    that checks sol_set; brute_sol_set in tests/conftest.py, one pair test
    per element, checks it.
    """
    elements = enumerate_elements(G, cap)
    xt = x._img
    if xt not in elements.raw_set():
        raise NotInGroup(f"{x!r} is not an element of {G!r}")
    if is_soluble(G):
        return elements
    soluble: set[Images] = set()
    for t, _ in _generator_classes(elements):
        if _pair_soluble(G, xt, t):
            soluble.update(_cyclic_generators(t))
    # the element list's canonical images, not the generators' copies
    return ElementSet(G.degree, (t for t in elements.raw() if t in soluble))


class SolubilizerRecord(NamedTuple):
    """Per-element summary joining the solubilizer with its acting subgroups.

    ell_cx and ell_nx are the conjugation-orbit counts of the centralizer
    and of the cyclic normalizer on the solubilizer.  ratio34 is the exact
    rational (|c_x| / |n_x|) * ell_cx; the divisibility conjecture predicts
    it is an integer.
    """

    x: Permutation
    sol: ElementSet
    sol_size: int
    n_x: PermGroup
    c_x: PermGroup
    ell_cx: int
    ell_nx: int
    conjecture_ok: bool
    ratio34: Fraction
    is_subgroup: bool
    equals_nx: bool


def sol_record(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> SolubilizerRecord:
    """Compute the full solubilizer record for one element; memoized per group."""
    sol = sol_set(G, x, cap)

    def record() -> SolubilizerRecord:
        n_x = normalizer_of_cyclic(G, x, cap)
        c_x = centralizer(G, x, cap)
        nx_order = n_x.order()
        cx_order = c_x.order()
        size = len(sol)
        # Facts that hold unconditionally; a violation is an engine bug.
        if size % cx_order != 0:
            raise EngineInvariantViolated("centralizer order must divide the solubilizer size")
        if x not in sol or G.identity() not in sol:
            raise EngineInvariantViolated("x and the identity must lie in the solubilizer")
        if not enumerate_elements(n_x, cap).raw_set() <= sol.raw_set():
            raise EngineInvariantViolated("the cyclic normalizer must lie in the solubilizer")
        ell_cx = orbit_count(c_x, sol)
        ell_nx = orbit_count(n_x, sol)
        return SolubilizerRecord(
            x=x,
            sol=sol,
            sol_size=size,
            n_x=n_x,
            c_x=c_x,
            ell_cx=ell_cx,
            ell_nx=ell_nx,
            conjecture_ok=size % nx_order == 0,
            ratio34=Fraction(cx_order * ell_cx, nx_order),
            # a subset of G with |G| members is G
            is_subgroup=size == G.order() or _subgroup_gens(G.degree, sol.raw()) is not None,
            equals_nx=size == nx_order,
        )

    return _memo(_memo(G._cache, "sol_record", dict), x._img, record)


def soluble_radical(G: PermGroup, cap: int = DEFAULT_CAP) -> PermGroup:
    """The subgroup generated by the elements whose solubilizer is all of G.

    Scans one representative per conjugacy class (the solubilizer of a
    conjugate is the conjugated solubilizer, so the property is
    class-constant) and collects whole classes; for soluble G that is G itself.
    Memoized per group.
    """
    whole = enumerate_elements(G, cap)

    def radical() -> PermGroup:
        members: list[Images] = []
        for rep in conjugacy_class_reps(G, cap):
            if len(sol_set(G, rep, cap)) == len(whole):
                members.extend(class_of_rep(G, rep, cap).raw())
        subgroup = _subgroup_of(G, members or [_identity(G.degree)])
        if subgroup is not G and not is_normal(G, subgroup):
            raise EngineInvariantViolated("the soluble radical must be normal")
        if not is_soluble(subgroup):
            raise EngineInvariantViolated("the soluble radical must be soluble")
        if not all(
            len(sol_set(G, Permutation._from_images(t), cap)) == len(whole)
            for t in members
        ):
            raise EngineInvariantViolated(
                "every member of the soluble radical must have the whole group as solubilizer"
            )
        return subgroup

    return _memo(G._cache, "radical", radical)


def _generator_classes(Y: ElementSet) -> tuple[tuple[Images, int], ...]:
    """Weighted members that stand for Y in a sum over its cyclic subgroups:
    (t, phi(|t|)) for the least member t of each class of members that
    generate the same cyclic group, or (t, 1) for every member t if Y is not
    closed under coprime powers.  Computed once per set and kept on it."""
    if Y._generator_classes is None:
        members = Y.raw_set()
        done: set[Images] = set()
        classes: list[tuple[Images, int]] = []
        for t in Y.raw():
            if t in done:
                continue
            same = _cyclic_generators(t)
            if not members.issuperset(same):
                classes = [(y, 1) for y in Y.raw()]
                break
            done.update(same)
            classes.append((t, len(same)))
        Y._generator_classes = tuple(classes)
    return Y._generator_classes


def _orbit_leaders(H: PermGroup, Y: ElementSet) -> tuple[Images, ...]:
    """The least member of each orbit of H acting on Y by conjugation, in
    canonical order (group._orbits), so a Y that holds the identity leads
    with it.  Memoized in H's cache, keyed by Y's members.
    """
    if H.degree != Y.degree:
        raise NotInvariantSet("acting group and set have different degrees")

    def leaders() -> tuple[Images, ...]:
        orbits = _orbits([h._img for h in H.generators], Y)
        if orbits is None:
            raise NotInvariantSet("set is not closed under conjugation by the acting group")
        return tuple(orbit[0] for orbit in orbits)

    return _memo(_memo(H._cache, "orbits", dict), Y.raw_set(), leaders)


def orbit_count(H: PermGroup, Y: ElementSet) -> int:
    """Number of orbits of H acting on Y by conjugation (direct partition)."""
    return len(_orbit_leaders(H, Y))


def burnside_orbit_count(H: PermGroup, Y: ElementSet, cap: int = DEFAULT_CAP) -> int:
    """Same count via the averaged fixed-point sum over H, summed by cyclic
    subgroups.

    Burnside: the orbits number (1/|H|) * sum over h in H of the y in Y
    that commute with h.  Every generator h^k of <h> (k coprime to |h|)
    commutes with exactly the y that h commutes with, so the sum takes one
    generator per cyclic subgroup of H, weighted by phi(|h|).  When Y is
    closed under coprime powers, as every solubilizer is (<x, y^k> = <x, y>),
    y^k commutes with exactly the h that y commutes with, so the Y side is
    reduced the same way, and one member per class decides invariance,
    since (y^k)^h = (y^h)^k; otherwise every y is summed and checked.  The
    count never uses the orbit partition, so it checks orbit_count.
    """
    if H.degree != Y.degree:
        raise NotInvariantSet("acting group and set have different degrees")
    y_classes = _generator_classes(Y)
    members = Y.raw_set()
    for h in H.generators:
        if any(_conj(y, h._img) not in members for y, _ in y_classes):
            raise NotInvariantSet("set is not closed under conjugation by the acting group")
    total = 0
    for h, h_weight in _generator_classes(enumerate_elements(H, cap)):
        # y is fixed by conjugation with h iff y and h commute
        total += h_weight * sum(w for y, w in y_classes if _commutes(h, y))
    order = H.order()
    if total % order != 0:
        raise BurnsideNonIntegral(
            f"fixed-point sum {total} is not divisible by the group order {order}"
        )
    return total // order


def n_value(G: PermGroup, g: Permutation, x: Permutation, cap: int = DEFAULT_CAP) -> Fraction:
    """The reduced rational |sol restricted to C_G(g)| / |N_x meet C_G(g)|.

    Memoized in G's cache, keyed by (g, x).  sol_set checks the cap, and x's
    membership on its own miss; g is looked up in n_x's members on a miss.
    """
    sol_members = sol_set(G, x, cap).raw_set()

    def ratio() -> Fraction:
        nx_members = enumerate_elements(normalizer_of_cyclic(G, x, cap), cap).raw_set()
        if g._img not in nx_members:
            raise NotInGroup("the weighting element must normalize the cyclic group of x")
        cg_elements = enumerate_elements(centralizer(G, g, cap), cap).raw()
        numerator = sum(1 for t in cg_elements if t in sol_members)
        denominator = sum(1 for t in cg_elements if t in nx_members)
        return Fraction(numerator, denominator)

    return _memo(_memo(G._cache, "n_value", dict), (g._img, x._img), ratio)


def _identity_terms(
    G: PermGroup, x: Permutation, H: PermGroup, cap: int
) -> tuple[ElementSet, PermGroup, int, list[Fraction]]:
    """The terms of the weighted orbit identity over H: sol, n_x, the number
    of orbits of H on sol, and the n_value of the leader of each orbit of
    n_x conjugating H minus the identity.

    c_x <= H <= n_x (hence H <= G) is checked on the memoized member sets;
    an H of another degree, or whose order does not divide |n_x|, is
    refused before its members are enumerated.  Such an H is normal in n_x,
    since n_x / c_x embeds in the abelian Aut(<x>), so n_x permutes H.
    """
    sol = sol_set(G, x, cap)
    n_x = normalizer_of_cyclic(G, x, cap)
    if H.degree != G.degree or n_x.order() % H.order() != 0:
        raise SubgroupChainViolated("H is not contained in the cyclic normalizer of x")
    elements = enumerate_elements(H, cap)
    members = elements.raw_set()
    if not enumerate_elements(centralizer(G, x, cap), cap).raw_set() <= members:
        raise SubgroupChainViolated("H does not contain the centralizer of x")
    if not members <= enumerate_elements(n_x, cap).raw_set():
        raise SubgroupChainViolated("H is not contained in the cyclic normalizer of x")
    # the identity's one-point orbit leads
    leaders = _orbit_leaders(n_x, elements)[1:]
    values = [n_value(G, Permutation._from_images(t), x, cap) for t in leaders]
    return sol, n_x, orbit_count(H, sol), values


def lemma32_check(G: PermGroup, x: Permutation, H: PermGroup, cap: int = DEFAULT_CAP) -> int:
    """Residual of the weighted orbit identity; zero on a correct engine.

    The identity:  |H| * (orbits of H on sol)  =  |sol| + |n_x| * S,
    where S sums the n_value weights over representatives of the n_x-orbits
    on H minus the identity.
    """
    sol, n_x, ell_h, values = _identity_terms(G, x, H, cap)
    weighted = n_x.order() * sum(values, Fraction(0))
    if weighted.denominator != 1:
        raise BurnsideNonIntegral(
            f"weighted orbit sum {weighted} is not an integer"
        )
    return H.order() * ell_h - len(sol) - int(weighted)


def eq1_check(G: PermGroup, x: Permutation, H: PermGroup, cap: int = DEFAULT_CAP) -> int:
    """Residual of the soluble-group corollary of the orbit identity.

    For soluble G every solubilizer is the whole group and each n_value
    collapses to a centralizer index, giving

      orbits of H on G = [G : H] + [n_x : H] * sum [C_G(g_i) : n_x meet C_G(g_i)].

    Each index is read from n_value, which holds it for soluble G.
    """
    if not is_soluble(G):
        raise NotSoluble("the index form of the identity is asserted for soluble groups only")
    _sol, n_x, ell_h, values = _identity_terms(G, x, H, cap)
    if any(index.denominator != 1 for index in values):
        raise EngineInvariantViolated("intersection order must divide the centralizer order")
    index_sum = sum(index.numerator for index in values)
    h_order = H.order()
    return ell_h - G.order() // h_order - (n_x.order() // h_order) * index_sum


class FrobeniusFinding(NamedTuple):
    """Whether the cyclic normalizer is Frobenius over the centralizer."""

    is_frobenius_over_cx: bool
    complement_order: int
    index_prime: bool
    kernel: PermGroup


def frobenius_structure(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> FrobeniusFinding:
    """Detect a Frobenius normalizer: trivial centralizer action off the kernel.

    The finding is positive iff c_x is a proper normal subgroup of n_x and
    no element of c_x other than the identity commutes with any element of
    n_x outside c_x, which orbit counts decide.  The commuting pairs (h, c),
    h in n_x and c != 1 in c_x, number |n_x| times the n_x-orbits on c_x
    minus the identity (Cauchy-Frobenius).  Counted by h, those with h in
    c_x number |c_x| times (the classes of c_x, minus one), and pairs with h
    outside c_x exist exactly when the finding fails.
    """
    c_x = centralizer(G, x, cap)
    n_x = normalizer_of_cyclic(G, x, cap)
    index = n_x.order() // c_x.order()
    # c_x is normal in n_x: n in n_x maps x to a generator of <x>, whose
    # centralizer is c_x
    members = enumerate_elements(c_x, cap)
    frobenius = index > 1 and (
        n_x.order() * (orbit_count(n_x, members) - 1)
        == c_x.order() * (orbit_count(c_x, members) - 1)
    )
    return FrobeniusFinding(
        is_frobenius_over_cx=frobenius,
        complement_order=index,
        index_prime=index > 1 and is_prime(index),
        kernel=c_x,
    )


def lemma_exp_bound(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> tuple[int, bool]:
    """The dichotomy bound: sol equals n_x, or sol_size exceeds ell * |x|.

    ell is the least index [<x> : <x> meet <x^y>] over y outside n_x.  y
    normalizes <x> exactly when x^y lies in <x>, so the x^y range over the
    members of x's conjugacy class outside <x>.
    """
    n_x = normalizer_of_cyclic(G, x, cap)
    if n_x.order() == G.order():
        raise NormalizerIsWholeGroup(
            "every element normalizes the cyclic group of x; the bound is vacuous"
        )
    xt = x._img
    x_powers = _powers_set(G, xt)
    x_order = _order(xt)
    ell = min(
        x_order // len(x_powers & _powers_set(G, c))
        for c in class_of_rep(G, x, cap).raw()
        if c not in x_powers
    )
    sol = sol_set(G, x, cap)
    ok = (sol == enumerate_elements(n_x, cap)) or (len(sol) > ell * x_order)
    return ell, ok


def quotient_sol_check(G: PermGroup, N: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> bool:
    """Whether the solubilizer maps exactly onto the quotient's solubilizer.

    Requires N soluble and normal in G.  True iff the image of sol(G, x)
    under the quotient map equals sol(G/N, image of x) and |N| divides
    |sol(G, x)|.
    """
    quotient, project = quotient_by_normal(G, N, cap)
    if not is_soluble(N):
        raise NotSoluble("the normal subgroup must be soluble")
    sol = sol_set(G, x, cap)
    image = ElementSet(quotient.degree, {project(t) for t in sol.raw()})
    # project does not check membership; sol_set has rejected an x outside G
    sol_in_quotient = sol_set(quotient, Permutation._from_images(project(x._img)), cap)
    return image == sol_in_quotient and len(sol) % N.order() == 0


class PqFinding(NamedTuple):
    """One semiprime-solubilizer instance found by pq_scan."""

    x: Permutation
    p: int
    q: int
    verdict: bool
    reasons: tuple[str, ...]


def pq_scan(G: PermGroup, cap: int = DEFAULT_CAP) -> list[PqFinding]:
    """Check every class representative whose solubilizer has order p*q.

    For an insoluble group, such an element must have order q > 3 with
    p dividing q - 1, p distinct from q, the solubilizer must be a subgroup
    equal to the cyclic normalizer, and its size must not be 6.  Returns one
    finding per semiprime instance; all verdicts are expected true.
    Memoized per group; each call returns a new list of the findings.
    """
    if is_soluble(G):
        raise GroupSoluble("the semiprime analysis applies to insoluble groups only")
    enumerate_elements(G, cap)

    def scan() -> tuple[PqFinding, ...]:
        findings: list[PqFinding] = []
        for x in conjugacy_class_reps(G, cap):
            if x.is_identity():
                continue
            record = sol_record(G, x, cap)
            fac = factorize(record.sol_size)
            if sum(fac.values()) != 2:
                continue
            primes = sorted(fac)
            p, q = (primes[0], primes[0]) if len(primes) == 1 else (primes[0], primes[1])
            reasons = []
            if x.order() != q:
                reasons.append(f"element order {x.order()} != larger prime {q}")
            if q <= 3:
                reasons.append(f"larger prime {q} is not > 3")
            if p == q:
                reasons.append(f"solubilizer size is the prime square {p * q}")
            elif (q - 1) % p != 0:
                reasons.append(f"{p} does not divide {q - 1}")
            if not record.is_subgroup:
                reasons.append("solubilizer is not a subgroup")
            if not record.equals_nx:
                reasons.append("solubilizer differs from the cyclic normalizer")
            if record.sol_size == 6:
                reasons.append("solubilizer size 6 is excluded")
            findings.append(PqFinding(x, p, q, not reasons, tuple(reasons)))
        return tuple(findings)

    return list(_memo(G._cache, "pq", scan))
