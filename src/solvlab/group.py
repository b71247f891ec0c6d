"""Finite permutation groups with a base and strong generating set.

The engine keeps a deterministic stabilizer chain per group (classic
Schreier-Sims; subgroup orders sift words drawn from a fixed seed), which
gives membership tests and exact orders without enumerating elements.
Element enumeration, centralizers, normalizers and conjugacy classes are
computed by exhaustive filtration at desk scale; an explicit cap (default
20000) guards every enumeration.

Conventions: right action i^p, left-to-right products, conjugation
x^g = g^-1 x g.  Raw images (0-based `bytes`, see perm) are used in hot
paths; public boundaries speak Permutation objects and 1-based points.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterable, Sequence

from .errors import (
    DegreeMismatch,
    EngineInvariantViolated,
    InvalidParameter,
    NotInGroup,
    NotNormal,
    OrderExceedsCap,
)
from .numtheory import factorize
from .perm import (
    Images,
    Permutation,
    _check_degree,
    _comm,
    _commutes,
    _conj,
    _identity,
    _inv,
    _mul,
    _order,
)

DEFAULT_CAP = 20000


class StabilizerChain:
    """Deterministic base/strong-generator structure for a permutation group.

    levels[i] holds the strong generators fixing bases[:i] and one
    transversal: for each point p of the fundamental orbit of bases[i] under
    them, an element w with p^w = bases[i], the element sifting multiplies by.

    A chain grows only through sift_unverified and is completed only by
    verify().  Invariant, kept by _adjoin, the one method that adds a strong
    generator: the keys of transversals[i] are exactly the orbit of bases[i]
    under gens[i], and transversals[i][p], a product of gens[i], carries p
    to bases[i].  verify() relies on it and never rebuilds an orbit.
    """

    __slots__ = ("degree", "bases", "gens", "transversals", "_order")

    def __init__(self, degree: int, gens: Iterable[Images] = ()):
        self.degree = degree
        self.bases: list[int] = []
        self.gens: list[list[Images]] = []
        self.transversals: list[dict[int, Images]] = []
        self._order: int | None = None
        for g in gens:
            self.sift_unverified(g)
        self.verify()

    def _sift(self, t: Images, level: int) -> Images:
        """Strip t through levels >= level; identity result means membership."""
        for i in range(level, len(self.bases)):
            beta = t[self.bases[i]]
            if beta == self.bases[i]:
                continue
            w = self.transversals[i].get(beta)
            if w is None:
                return t
            t = _mul(t, w)
        return t

    def _adjoin(self, r: Images) -> int:
        """Record a sifted residue r as a strong generator and extend, in
        place, the basic orbit of every level it joins; returns the deepest
        such level.

        r fixes bases[:m] and moves bases[m] out of its orbit (or moves a
        point while fixing every base point, and then opens a new level), so
        it joins levels 0..m and no strong generator is added twice.  Orbits
        grow along inverse edges: gamma^s = delta for gamma = s.index(delta),
        so s w_delta carries gamma to the base, and no inverse is formed.
        A residue that grows no orbit at level m is a sifting bug and raises.
        """
        m = 0
        for b in self.bases:
            if r[b] == b:
                m += 1
            else:
                break
        grown_from = len(self.transversals[m]) if m < len(self.bases) else 0
        if m == len(self.bases):
            base = next(i for i, j in enumerate(r) if i != j)
            self.bases.append(base)
            self.gens.append([])
            self.transversals.append({})
        for j in range(m + 1):
            transversal, gens = self.transversals[j], self.gens[j]
            gens.append(r)
            if transversal:
                # the old points are closed under the old generators
                queue = []
                for delta in list(transversal):
                    gamma = r.index(delta)
                    if gamma not in transversal:
                        transversal[gamma] = _mul(r, transversal[delta])
                        queue.append(gamma)
            else:
                base = self.bases[j]
                transversal[base] = _identity(self.degree)
                queue = [base]
            for delta in queue:
                w = transversal[delta]
                for s in gens:
                    gamma = s.index(delta)
                    if gamma not in transversal:
                        transversal[gamma] = _mul(s, w)
                        queue.append(gamma)
        if len(self.transversals[m]) == grown_from:
            raise EngineInvariantViolated(f"residue {r} grows no orbit at level {m}")
        self._order = None
        return m

    def _schreier_residue(self, i: int) -> Images | None:
        """Sift the Schreier generators of level i through the levels below;
        the first non-identity residue, or None if level i is complete."""
        transversal = self.transversals[i]
        idn = _identity(self.degree)
        for delta, w in transversal.items():
            u = None
            for s in self.gens[i]:
                # w^-1 s w' is the identity exactly when s w' = w, as on the
                # edges of the transversal tree; w^-1 is formed once, if needed
                sw = _mul(s, transversal[s[delta]])
                if sw != w:
                    u = u or _inv(w)
                    r = self._sift(_mul(u, sw), i + 1)
                    if r != idn:
                        return r
        return None

    def sift_unverified(self, t: Images) -> bool:
        """Adjoin the sifted residue of t as a strong generator, skipping
        Schreier verification; True if the chain grew.

        Every strong generator lies in the generated group H and fixes the
        earlier base points, so order(), the product of the basic orbit
        lengths, is a lower bound on |H| that verify() makes exact.
        """
        r = self._sift(t, 0)
        if r == _identity(self.degree):
            return False
        self._adjoin(r)
        return True

    def verify(self) -> None:
        """Complete the chain by Schreier-Sims, from the deepest level up;
        order() is exact afterwards."""
        i = len(self.bases) - 1
        while i >= 0:
            r = self._schreier_residue(i)
            i = i - 1 if r is None else self._adjoin(r)

    def order(self) -> int:
        if self._order is None:
            out = 1
            for transversal in self.transversals:
                out *= len(transversal)
            self._order = out
        return self._order

    def contains(self, t: Images) -> bool:
        if len(t) != self.degree:
            return False
        return self._sift(t, 0) == _identity(self.degree)


# The words the generation certificate sifts after two or more generators:
# product replacement with an accumulator, on slots seeded with the gens,
# g0 g1 and g1 g0 (a, b, ab and ba for a pair).  Step (i, j) multiplies slot
# i by slot j, then the accumulator (first g0 g1) by the new slot i, and
# sifts the accumulator.  The steps are drawn once per slot count from a
# fixed seed, so every run sifts the same words.
@functools.cache
def _replacement_steps(slots: int) -> tuple[tuple[int, int], ...]:
    rng = random.Random(7)
    steps: list[tuple[int, int]] = []
    while len(steps) < 160:
        i, j = rng.randrange(slots), rng.randrange(slots)
        if i != j:
            steps.append((i, j))
    return tuple(steps)


def _certificate_words(gens: Sequence[Images]):
    yield from gens
    if len(gens) < 2:
        return
    word = _mul(gens[0], gens[1])
    slots = [*gens, word, _mul(gens[1], gens[0])]
    for i, j in _replacement_steps(len(slots)):
        slots[i] = _mul(slots[i], slots[j])
        word = _mul(word, slots[i])
        yield word


# Consecutive sifts that add no strong generator before the certificate
# gives up and the chain is verified.
_IDLE_SIFT_LIMIT = 8


def _certificate_chain(degree: int, gens: Sequence[Images], target: int) -> StabilizerChain:
    """The generation certificate: gens and fixed words in them sifted into
    a chain without Schreier verification, until the order bound reaches
    target, _IDLE_SIFT_LIMIT sifts in a row add nothing, or the words end.
    Every strong generator lies in <gens>, so the bound is at most |<gens>|.
    """
    chain = StabilizerChain(degree)
    idle = 0
    for w in _certificate_words(gens):
        idle = 0 if chain.sift_unverified(w) else idle + 1
        if chain.order() >= target or idle == _IDLE_SIFT_LIMIT:
            break
    return chain


def _generated_order(degree: int, gens: Sequence[Images], target: int) -> int:
    """|<gens>|, given that target bounds it from above: target once the
    certificate's bound reaches it, else the verified chain's order.  An
    order above target raises EngineInvariantViolated."""
    chain = _certificate_chain(degree, gens, target)
    if chain.order() < target:
        chain.verify()
    if chain.order() > target:
        raise EngineInvariantViolated(f"order {chain.order()} of <gens> exceeds {target}")
    return chain.order()


class ElementSet:
    """An immutable set of same-degree permutations with a stable sorted order.

    _generator_classes holds solubilizer._generator_classes of the set once
    it has been computed, and None before."""

    __slots__ = ("degree", "_images", "_set", "_generator_classes")

    def __init__(self, degree: int, raw: Iterable[Images]):
        self.degree = degree
        self._images: tuple[Images, ...] = tuple(sorted(set(raw)))
        self._set = frozenset(self._images)
        self._generator_classes: tuple[tuple[Images, int], ...] | None = None

    def raw(self) -> tuple[Images, ...]:
        """The members' raw images in canonical (lexicographic) order."""
        return self._images

    def raw_set(self) -> frozenset:
        return self._set

    def __len__(self) -> int:
        return len(self._images)

    def __iter__(self):
        for t in self._images:
            yield Permutation._from_images(t)

    def __contains__(self, item) -> bool:
        if isinstance(item, Permutation):
            return item._img in self._set
        return bytes(item) in self._set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.degree == other.degree
            and self._set == other._set
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._set))

    def __repr__(self) -> str:
        return f"ElementSet(degree={self.degree}, size={len(self._images)})"


def _subgroup_gens(
    degree: int, members: Sequence[Images]
) -> tuple[list[Images], StabilizerChain] | None:
    """The members that grow one chain when sifted in order, with that chain
    verified, or None if the distinct members are not closed under products.

    A member that sifts to the identity is a product of strong generators,
    so the chain's group, generated by the members kept, contains every
    member.  The members are closed exactly when its order equals their
    number: an unverified bound above it settles None early, and verify()
    after the last member makes the order exact.
    """
    size = len(members)
    chain = StabilizerChain(degree)
    gens: list[Images] = []
    for t in members:
        if chain.sift_unverified(t):
            if chain.order() > size:
                return None
            gens.append(t)
    chain.verify()
    return (gens, chain) if chain.order() == size else None


class PermGroup:
    """A permutation group given by generators, backed by a stabilizer chain.

    Instances are immutable after construction; the private cache only holds
    results of pure computations: "elements", "classes", "soluble",
    "abelian", "radical" (the soluble radical), "pq" (pq_scan's findings);
    by member set, "subgroups" (may hold G, see _subgroup_of),
    "quotient", "orbit_count" and "nx_orbit_reps"; per member x,
    "stabilizers" (C_G(x) and N_G(<x>)), "powers" (<x>'s members),
    "sol_set", "sol_record"; per pair, "n_value".  No pair verdicts.

    Every cache entry, and every entry of a per-element table in it, is read
    and written through _memo.  Arguments are validated on a miss only: a key
    is stored only for arguments that passed, so a hit runs no membership
    sift.  A cap is checked on every call, before the lookup.
    """

    __slots__ = ("degree", "generators", "_chain", "_cache")

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        if degree < 1:
            raise DegreeMismatch("degree must be at least 1")
        _check_degree(degree)
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}"
                )
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = StabilizerChain(degree, [g._img for g in gens])
        self._cache: dict = {}

    @classmethod
    def _from_raw(cls, degree: int, raw_gens: list[Images]) -> "PermGroup":
        return cls(degree, [Permutation._from_images(t) for t in raw_gens])

    @classmethod
    def from_elements(cls, degree: int, raw: Iterable[Images]) -> "PermGroup":
        """Group generated by (and equal to) the given closed element set.

        Elements are scanned in canonical order and only chain-growing ones
        are kept as generators; the group keeps the chain they grew.
        """
        members = sorted(set(raw))
        found = _subgroup_gens(degree, members)
        if found is None:
            raise NotInGroup(
                "element collection is not closed under multiplication"
            )
        group = cls.__new__(cls)
        group.degree, group._chain = degree, found[1]
        group.generators = tuple(Permutation._from_images(t) for t in found[0])
        group._cache = {"elements": ElementSet(degree, members)}
        return group

    def order(self) -> int:
        return self._chain.order()

    def __contains__(self, p: Permutation) -> bool:
        return p.degree == self.degree and self._chain.contains(p._img)

    def _contains_images(self, t: Images) -> bool:
        return self._chain.contains(t)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


_MISSING = object()


def _memo(table: dict, key, compute: Callable):
    """table[key], computed and stored on the first call; a compute() that
    raises stores nothing, so the next call validates again.  A group's
    per-element tables are made by _memo(G._cache, name, dict)."""
    value = table.get(key, _MISSING)
    if value is _MISSING:
        value = table[key] = compute()
    return value


def _subgroup_of(G: PermGroup, members: list[Images]) -> PermGroup:
    """The subgroup of G with the given members, which must be distinct
    members of G closed under products: G itself when they number |G|, else
    one object per member set, kept in G's cache."""
    if len(members) == G.order():
        return G
    subgroups = _memo(G._cache, "subgroups", dict)
    return _memo(subgroups, frozenset(members), lambda: PermGroup.from_elements(G.degree, members))


def enumerate_elements(G: PermGroup, cap: int = DEFAULT_CAP) -> ElementSet:
    """All elements of G in canonical order; refuses when order() > cap."""
    order = G.order()
    if order > cap:
        raise OrderExceedsCap(order, cap)

    def closure() -> ElementSet:
        idn = _identity(G.degree)
        gens = [g._img for g in G.generators]
        seen = {idn}
        queue = [idn]
        for t in queue:
            for s in gens:
                u = _mul(t, s)
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        if len(seen) != order:
            raise EngineInvariantViolated("closure size disagrees with chain order")
        return ElementSet(G.degree, seen)

    return _memo(G._cache, "elements", closure)


def _normal_closure_gens(
    degree: int, ambient_gens: list[Images], seeds: Sequence[Images]
) -> tuple[list[Images], StabilizerChain]:
    """Generators of the normal closure of seeds under ambient_gens, and their chain.

    Seeds and conjugates are kept when they grow one unverified chain.  Every
    strong generator lies in <kept>, so a conjugate that sifts to the
    identity, a product of strong generators, lies in <kept> too.  Once each
    kept element's conjugates by the ambient generators are sifted, <kept>
    is normal, hence the normal closure.  Each growth adds a basic-orbit
    point, so the loop ends.
    """
    chain = StabilizerChain(degree)
    kept = [s for s in seeds if chain.sift_unverified(s)]
    for s in kept:
        for t in ambient_gens:
            c = _conj(s, t)
            if chain.sift_unverified(c):
                kept.append(c)
    return kept, chain


def _derived_gens(degree: int, gens: list[Images]) -> tuple[list[Images], StabilizerChain]:
    """Generators of the derived subgroup of <gens>, the normal closure of
    the generators' commutators, with its unverified chain.  A trivial or
    repeated commutator does not grow the chain, so it is not kept."""
    comms = [_comm(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
    return _normal_closure_gens(degree, gens, comms)


def _soluble_from_gens(degree: int, gens: list[Images]) -> bool:
    """Whether <gens> is soluble, by a derived-series walk that needs no group order.

    Each term K = <gens> comes with K' = <derived> and its unverified chain,
    whose strong generators lie in K'.  No K' generators: K is abelian, so
    soluble.  Every generator of K sifts to the identity, before or after
    the chain is verified: K = K' != 1, so insoluble.  Otherwise K' is a
    proper subgroup of K and the walk goes on with it; the orders fall
    strictly, so it ends after at most log2 |<gens>| terms.
    """
    while True:
        derived, chain = _derived_gens(degree, gens)
        if not derived:
            return True
        if all(chain.contains(g) for g in gens):
            return False
        chain.verify()
        if all(chain.contains(g) for g in gens):
            return False
        gens = derived


def is_soluble(G: PermGroup) -> bool:
    """True when the derived series of G reaches the trivial group."""
    return _memo(
        G._cache, "soluble", lambda: _soluble_from_gens(G.degree, [g._img for g in G.generators])
    )


def _commuting(gens: Sequence[Images]) -> bool:
    """Whether the elements commute pairwise, that is, whether <gens> is abelian."""
    return all(_commutes(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :])


def _noncommuting_pair(degree: int, members: Sequence[Images]) -> bool:
    """Whether <members> is not abelian, that is, whether two members fail to
    commute: exactly when two of the members that grow one chain, which
    generate <members>, fail to commute."""
    return not _commuting(_normal_closure_gens(degree, [], members)[0])


def is_abelian(G: PermGroup) -> bool:
    return _memo(G._cache, "abelian", lambda: _commuting([g._img for g in G.generators]))


def _cyclic_images(x: Images) -> list[Images]:
    """All powers of x, identity included."""
    idn = _identity(len(x))
    out = [idn]
    t = x
    while t != idn:
        out.append(t)
        t = _mul(t, x)
    return out


def _powers_set(G: PermGroup, t: Images) -> frozenset:
    """Memoized member set of <t>, the cyclic group that t generates."""
    return _memo(_memo(G._cache, "powers", dict), t, lambda: frozenset(_cyclic_images(t)))


def _conjugation_stabilizers(
    G: PermGroup, x: Permutation, cap: int
) -> tuple[PermGroup, PermGroup]:
    """(C_G(x), N_G(<x>)), from one pass over G's element list: each member
    t conjugates x once, and lies in N_G(<x>) when x^t is a power of x, in
    C_G(x) too when x^t = x.  Memoized per group, keyed by x."""
    elements = enumerate_elements(G, cap)
    xt = x._img

    def stabilizers() -> tuple[PermGroup, PermGroup]:
        if xt not in elements.raw_set():
            raise NotInGroup("x is not a member of G")
        powers = _powers_set(G, xt)
        c_members, n_members = [], []
        for t in elements.raw():
            y = _conj(xt, t)
            if y in powers:
                n_members.append(t)
                if y == xt:
                    c_members.append(t)
        return _subgroup_of(G, c_members), _subgroup_of(G, n_members)

    return _memo(_memo(G._cache, "stabilizers", dict), xt, stabilizers)


def centralizer(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> PermGroup:
    """C_G(x), the elements g with x^g = x (see _conjugation_stabilizers)."""
    return _conjugation_stabilizers(G, x, cap)[0]


def normalizer_of_cyclic(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> PermGroup:
    """N_G(<x>), the elements g with x^g a power of x (see _conjugation_stabilizers)."""
    return _conjugation_stabilizers(G, x, cap)[1]


def _orbits(
    gens: list[Images], members: ElementSet, left: Sequence[Images] = ()
) -> list[list[Images]] | None:
    """The orbits on members of conjugation by gens and of multiplication on
    the left by the elements of left; None if an image leaves members.

    members are walked in canonical order, so each orbit is led by its least
    member and the orbits come in the order of their leaders.
    """
    # each map is u -> a u b, or u -> a u when b is None; g^-1 u g conjugates by g
    maps = [(_inv(g), g) for g in gens] + [(a, None) for a in left]
    inside = members.raw_set()
    seen: set[Images] = set()
    orbits: list[list[Images]] = []
    for t in members.raw():
        if t in seen:
            continue
        seen.add(t)
        orbit = [t]
        for u in orbit:
            for a, b in maps:
                c = _mul(a, u) if b is None else _mul(_mul(a, u), b)
                if c not in seen:
                    if c not in inside:
                        return None
                    seen.add(c)
                    orbit.append(c)
        orbits.append(orbit)
    return orbits


def _class_partition(G: PermGroup, cap: int) -> tuple[list[Images], dict[Images, ElementSet]]:
    elements = enumerate_elements(G, cap)

    def partition() -> tuple[list[Images], dict[Images, ElementSet]]:
        orbits = _orbits([g._img for g in G.generators], elements)
        classes = {orbit[0]: ElementSet(G.degree, orbit) for orbit in orbits}
        return sorted(classes, key=lambda t: (_order(t), t)), classes

    return _memo(G._cache, "classes", partition)


def conjugacy_class_reps(G: PermGroup, cap: int = DEFAULT_CAP) -> list[Permutation]:
    """One representative per class: least member, sorted by order then encoding."""
    reps, _ = _class_partition(G, cap)
    return [Permutation._from_images(t) for t in reps]


def class_of_rep(G: PermGroup, x: Permutation, cap: int = DEFAULT_CAP) -> ElementSet:
    """The conjugacy class of x, looked up in the cached partition of G."""
    _, classes = _class_partition(G, cap)
    found = classes.get(x._img)
    if found is None:
        # the classes partition G
        found = next((c for c in classes.values() if x._img in c.raw_set()), None)
        if found is None:
            raise NotInGroup("x is not a member of G")
    return found


def first_element_of_order(G: PermGroup, k: int, cap: int = DEFAULT_CAP) -> Permutation | None:
    """The least element of order k in canonical order, if any, by a scan of
    the element list.  Each class is led by its least member, so this is
    also conjugacy_class_reps' first rep of order k."""
    for t in enumerate_elements(G, cap).raw():
        if _order(t) == k:
            return Permutation._from_images(t)
    return None


def is_subgroup_of(H: PermGroup, G: PermGroup) -> bool:
    """True when H is a subgroup of G: every generator of H lies in G."""
    if G.degree != H.degree:
        return False
    return all(g in G for g in H.generators)


def is_normal(G: PermGroup, H: PermGroup) -> bool:
    """Whether H is normal in G (generator conjugation test)."""
    if not is_subgroup_of(H, G):
        raise NotInGroup("H is not a subgroup of G")
    for h in H.generators:
        ht = h._img
        for g in G.generators:
            if not H._contains_images(_conj(ht, g._img)):
                return False
    return True


def is_maximal(G: PermGroup, H: PermGroup, cap: int = DEFAULT_CAP) -> bool:
    """Whether a proper subgroup H is maximal: <H, g> = G for every g outside H.

    One witness per right coset of H suffices, since <H, g> = <H, hg>.
    |<H, g>| is _generated_order's with target |G|: the certificate settles
    <H, g> = G, and only a smaller group's chain is verified.
    """
    if not is_subgroup_of(H, G):
        raise NotInGroup("H is not a subgroup of G")
    n = G.order()
    if H.order() == n:
        raise InvalidParameter("H equals G; maximality is undefined")
    h_gens = [g._img for g in H.generators]
    h_members = enumerate_elements(H, cap).raw_set()
    covered = set(h_members)
    for t in enumerate_elements(G, cap).raw():
        if t in covered:
            continue
        if _generated_order(G.degree, h_gens + [t], n) != n:
            return False
        covered.update(_mul(h, t) for h in h_members)
    return True


def quotient_by_normal(
    G: PermGroup, N: PermGroup, cap: int = DEFAULT_CAP
) -> tuple[PermGroup, Callable[[Images], Images]]:
    """The quotient G/N as the action on right cosets of N, with the
    projection of members of G (raw images; it does not check membership).

    The coset of the identity is point 1; remaining cosets are numbered by
    the canonical order of their least members.  Memoized per group, keyed
    by the element set of N, so the quotient and its own memos are reused;
    the projection keeps the image of each member it has computed.  N's
    normality is tested on a miss only.
    """
    elements = enumerate_elements(G, cap)
    n_elements = enumerate_elements(N, cap)

    def coset_action() -> tuple[PermGroup, Callable[[Images], Images]]:
        if not is_normal(G, N):
            raise NotNormal("N is not normal in G")
        _check_degree(G.order() // N.order())
        coset_of: dict[Images, int] = {}
        reps: list[Images] = []
        for t in elements.raw():
            if t in coset_of:
                continue
            idx = len(reps)
            reps.append(t)
            for n in n_elements.raw():
                coset_of[_mul(n, t)] = idx
        images: dict[Images, Images] = {}

        def project(t: Images) -> Images:
            return _memo(images, t, lambda: bytes(coset_of[_mul(r, t)] for r in reps))

        quotient = PermGroup._from_raw(len(reps), [project(g._img) for g in G.generators])
        if quotient.order() * N.order() != G.order():
            raise EngineInvariantViolated("coset action order mismatch")
        return quotient, project

    return _memo(_memo(G._cache, "quotient", dict), n_elements.raw_set(), coset_action)


def _abelian_invariants(G: PermGroup, cap: int) -> list[int]:
    """Invariant factors of an abelian group, largest first.

    For each prime p the counts #{x : x^(p^j) = 1} = p^(s_j) determine the
    partition shaping the p-primary component; aligned parts across primes
    multiply into the invariant factors.
    """
    n = G.order()
    if n == 1:
        return []
    orders = [_order(t) for t in enumerate_elements(G, cap).raw()]
    partitions: dict[int, list[int]] = {}
    for p in sorted(factorize(n)):
        s = [0]
        while True:
            pj = p ** len(s)
            count = sum(1 for o in orders if pj % o == 0)
            sj = 0
            while p**sj < count:
                sj += 1
            if p**sj != count:
                raise EngineInvariantViolated("abelian invariant computation out of step")
            if sj == s[-1]:
                break
            s.append(sj)
        counts_ge = [s[k] - s[k - 1] for k in range(1, len(s))]
        num_parts = counts_ge[0] if counts_ge else 0
        parts = [
            max(k for k in range(1, len(counts_ge) + 1) if counts_ge[k - 1] >= i)
            for i in range(1, num_parts + 1)
        ]
        partitions[p] = parts
    width = max(len(v) for v in partitions.values())
    factors = []
    for i in range(width):
        d = 1
        for p, parts in partitions.items():
            if i < len(parts):
                d *= p ** parts[i]
        factors.append(d)
    return factors


def structure_tag(G: PermGroup, cap: int = DEFAULT_CAP) -> str:
    """A short isomorphism-type label for small groups.

    Covers the shapes that occur as normalizers and solubilizers in this
    package: cyclic, abelian products, S_3, dihedral, metacyclic C_q:C_p,
    and A_5.  Anything else falls back to an order label.
    """
    n = G.order()
    if n == 1:
        return "1"
    if is_abelian(G):
        elements = enumerate_elements(G, cap)
        if max(_order(t) for t in elements.raw()) == n:
            return f"C_{n}"
        return "×".join(f"C_{d}" for d in _abelian_invariants(G, cap))
    if n == 6:
        return "S_3"
    if n % 2 == 0:
        half = n // 2
        rotation = first_element_of_order(G, half, cap)
        if rotation is not None:
            powers = set(_cyclic_images(rotation._img))
            rot_inv = _inv(rotation._img)
            for t in enumerate_elements(G, cap).raw():
                if t not in powers and _order(t) == 2 and _conj(rotation._img, t) == rot_inv:
                    return f"D_{n}"
    fac = sorted(factorize(n).items())
    if len(fac) == 2 and fac[0][1] == 1 and fac[1][1] == 1:
        p, q = fac[0][0], fac[1][0]
        return f"C_{q}:C_{p}"
    # A_5 is the only insoluble group of order 60
    if n == 60 and not is_soluble(G):
        return "A_5"
    return f"G_{n}"
