"""Rebuild reference.json: per-class invariants of every swept group, by sympy.

Run from the repository root (takes about half a minute):

    python3 perfbench/reference.py

For each group in the two sweep workloads this builds an isomorphic copy
in sympy, from its own generators (nothing here imports solvlab), and
records the multiset of (element order, sol_size, nx_order, cx_order)
over the conjugacy classes.  sol_size counts the g with <x, g> soluble,
tested by sympy's `is_solvable`; nx_order counts the g with x^g in <x>;
cx_order is sympy's centralizer order.  These numbers do not depend on
how the points are labelled, so they check every seed's relabelled run.
"""

import json
import pathlib
import sys

from sympy import primitive_root
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.combinatorics.named_groups import (
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    SymmetricGroup,
)

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"


def _on_points(points, maps):
    index = {pt: i for i, pt in enumerate(points)}
    return PermutationGroup([Permutation([index[f(pt)] for pt in points]) for f in maps])


def affine(p: int, a: int) -> PermutationGroup:
    """t -> a t + b on Z/p."""
    return _on_points(range(p), [lambda t: (t + 1) % p, lambda t: (a * t) % p])


def sl2(p: int) -> PermutationGroup:
    """SL(2, p) on the nonzero row vectors, generated by two standard matrices."""
    vectors = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    return _on_points(
        vectors,
        [lambda v: (v[0], (v[0] + v[1]) % p), lambda v: ((-v[1]) % p, v[0])],
    )


def psl3_2() -> PermutationGroup:
    """GL(3, 2) = PSL(3, 2) on the 7 nonzero vectors, generated by transvections."""
    vectors = [v for v in ((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)) if any(v)]

    def transvection(i, j):
        def act(v):
            w = list(v)
            w[j] ^= v[i]
            return tuple(w)

        return act

    return _on_points(vectors, [transvection(i, j) for i in range(3) for j in range(3) if i != j])


# name (as solvlab's catalog prints it) -> (sympy group, closed-form order)
GROUPS = {
    "C12": (lambda: CyclicGroup(12), 12),
    "D24": (lambda: DihedralGroup(12), 24),
    "S3": (lambda: SymmetricGroup(3), 6),
    "S4": (lambda: SymmetricGroup(4), 24),
    "A4": (lambda: AlternatingGroup(4), 12),
    "AGL1(7)": (lambda: affine(7, primitive_root(7)), 42),
    "AGL1(11)": (lambda: affine(11, primitive_root(11)), 110),
    "C23:C11": (lambda: affine(23, pow(primitive_root(23), 2, 23)), 253),
    "A5": (lambda: AlternatingGroup(5), 60),
    "S5": (lambda: SymmetricGroup(5), 120),
    "PSL(3,2)": (psl3_2, 168),
    "SL(2,5)": (lambda: sl2(5), 120),
}


def class_invariants(G: PermutationGroup) -> list[list[int]]:
    elements = list(G.generate())
    order = int(G.order())
    soluble = G.is_solvable
    rows = []
    for cls in G.conjugacy_classes():
        x = min(cls, key=lambda g: g.array_form)
        powers = {tuple((x**k).array_form) for k in range(x.order())}
        nx = sum(1 for g in elements if tuple((x ^ g).array_form) in powers)
        cx = G.centralizer(x).order()
        if soluble:
            sol = order
        else:
            sol = sum(1 for g in elements if PermutationGroup([x, g]).is_solvable)
        rows.append([int(x.order()), sol, nx, int(cx)])
    return sorted(rows)


def build() -> dict:
    out = {}
    for name, (make, expected) in GROUPS.items():
        G = make()
        if G.order() != expected:
            raise SystemExit(f"{name}: sympy order {G.order()} != {expected}")
        out[name] = {
            "order": expected,
            "soluble": bool(G.is_solvable),
            "classes": class_invariants(G),
        }
        print(f"{name}: {len(out[name]['classes'])} classes", file=sys.stderr, flush=True)
    return out


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {REFERENCE}")
