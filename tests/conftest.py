import time

import pytest

from solvlab.checks import CHECK_TOKENS, run_catalog_checks
from solvlab.families import CatalogEntry, FamilySpec
from solvlab.group import PermGroup, StabilizerChain, _derived_gens, enumerate_elements


def _entry(family, *params):
    return CatalogEntry.from_spec(FamilySpec(family, tuple(params)))


def brute_center(G):
    """Z(G): the members that commute with every member, by brute force."""
    members = list(enumerate_elements(G))
    return PermGroup(
        G.degree, [z for z in members if all(z * g == g * z for g in members)]
    )


def brute_burnside_count(H, Y):
    """Orbits of H conjugating Y by Burnside's lemma with no reduction: for
    every h in H, count every y in Y that commutes with h."""
    members = list(enumerate_elements(H))
    total = sum(1 for h in members for y in Y if h * y == y * h)
    assert total % len(members) == 0
    return total // len(members)


def brute_frobenius(members, x):
    """C_G(x) and N_G(<x>) by testing every member of G, and whether N_G(<x>)
    is Frobenius over C_G(x) by testing every pair (h, c) with h outside
    C_G(x) and c != 1 in it."""
    powers = {x**k for k in range(x.order())}
    c_x = {g for g in members if g * x == x * g}
    n_x = {g for g in members if x.conjugate_by(g) in powers}
    outside = n_x - c_x
    frobenius = bool(outside) and not any(
        h * c == c * h for h in outside for c in c_x if not c.is_identity()
    )
    return c_x, n_x, frobenius


def brute_point_stabilizer(G, point):
    """The members fixing a 1-based point, by brute force."""
    return PermGroup(G.degree, [g for g in enumerate_elements(G) if g(point) == point])


@pytest.fixture(scope="session")
def a5():
    return _entry("alternating", 5).group


@pytest.fixture(scope="session")
def s4():
    return _entry("symmetric", 4).group


@pytest.fixture(scope="session")
def sl2_5():
    return _entry("sl2", 5).group


@pytest.fixture(scope="session")
def psl2_7():
    return _entry("psl2", 7).group


@pytest.fixture(scope="session")
def psl2_8():
    return _entry("psl2", 8).group


@pytest.fixture(scope="session")
def psl2_13():
    return _entry("psl2", 13).group


@pytest.fixture(scope="session")
def catalog_sweep():
    """One full-check sweep of the default catalog, shared by the acceptance
    tests; about 10 s of compute on one core.  Yields (items, counterexamples,
    elapsed seconds) so the budget can be asserted too."""
    start = time.monotonic()
    items, counterexamples = run_catalog_checks(1200, CHECK_TOKENS)
    return items, counterexamples, time.monotonic() - start


# The tuple formulas of perm's primitives before raw images became bytes,
# kept as the reference that the bytes versions are compared with.
def ref_mul(p, q):
    return tuple(map(q.__getitem__, p))


def ref_inv(p):
    r = [0] * len(p)
    for i, j in enumerate(p):
        r[j] = i
    return tuple(r)


def ref_conj(p, g):
    r = [0] * len(p)
    for i, j in enumerate(p):
        r[g[i]] = g[j]
    return tuple(r)


def brute_orbit_leaders(H, Y):
    """The least member of each orbit of H conjugating the ElementSet Y, in
    ascending order: for each y in Y, the least of h^-1 y h over every h in
    H, computed with the tuple product."""
    members = [tuple(h) for h in enumerate_elements(H).raw()]
    leaders = {
        min(ref_mul(ref_mul(ref_inv(h), tuple(y)), h) for h in members) for y in Y.raw()
    }
    return tuple(bytes(t) for t in sorted(leaders))


def brute_noncommuting_pair(members):
    """Whether two of the raw images fail to commute, by testing every pair
    with the tuple product."""
    return not all(ref_mul(a, b) == ref_mul(b, a) for a in members for b in members)


def pair_soluble_chain(G, a, b):
    """The verdict of solubilizer._pair_soluble on raw images a and b, by one
    verified chain's order per term of the derived series of <a, b>: soluble
    once a term is trivial, insoluble once the order stops falling.  Blind to
    the certificate and the walk; reads nothing of G but its degree."""
    gens = [a, b]
    order = StabilizerChain(G.degree, gens).order()
    while order > 1:
        gens, _ = _derived_gens(G.degree, gens)
        derived_order = StabilizerChain(G.degree, gens).order()
        if derived_order == order:
            return False
        order = derived_order
    return True
