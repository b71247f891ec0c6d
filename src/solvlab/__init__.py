"""Solubilizer computations in finite permutation groups.

The solubilizer of an element x in a group G is the set of g such that x
and g together generate a soluble subgroup.  This package computes these
sets exactly, checks the divisibility conjecture |N_G(<x>)| | |Sol_G(x)|
and related orbit-counting identities over a builtin group catalog, and
enumerates the simple groups whose solubilizers can be maximal subgroups
of order pq.
"""

from .cycles import format_cycles, parse_cycles
from .errors import SolvLabError
from .families import (
    CatalogEntry,
    FamilySpec,
    builtin_catalog,
    builtin_specs,
    load_group_file,
    make_family,
    save_group_file,
)
from .group import (
    PermGroup,
    centralizer,
    conjugacy_class_reps,
    first_element_of_order,
    is_soluble,
    normalizer_of_cyclic,
    structure_tag,
)
from .numtheory import factorize, is_prime, is_prime_power, multiplicative_order
from .perm import Permutation
from .solubilizer import (
    SolubilizerRecord,
    burnside_orbit_count,
    eq1_check,
    frobenius_structure,
    lemma32_check,
    lemma_exp_bound,
    orbit_count,
    pq_scan,
    quotient_sol_check,
    sol_record,
    sol_set,
    soluble_radical,
)
from .classify import (
    ClassifierRow,
    CrossValidation,
    cross_validate,
    table2_enumerate,
    theorem44_enumerate,
)
from .zsigmondy import ZsigmondyResult, primitive_prime_divisors

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "ClassifierRow",
    "CrossValidation",
    "FamilySpec",
    "PermGroup",
    "Permutation",
    "SolubilizerRecord",
    "SolvLabError",
    "ZsigmondyResult",
    "builtin_catalog",
    "builtin_specs",
    "burnside_orbit_count",
    "centralizer",
    "conjugacy_class_reps",
    "cross_validate",
    "eq1_check",
    "factorize",
    "first_element_of_order",
    "format_cycles",
    "frobenius_structure",
    "is_prime",
    "is_prime_power",
    "is_soluble",
    "lemma32_check",
    "lemma_exp_bound",
    "load_group_file",
    "make_family",
    "multiplicative_order",
    "normalizer_of_cyclic",
    "orbit_count",
    "parse_cycles",
    "pq_scan",
    "primitive_prime_divisors",
    "quotient_sol_check",
    "save_group_file",
    "sol_record",
    "sol_set",
    "soluble_radical",
    "structure_tag",
    "table2_enumerate",
    "theorem44_enumerate",
]
