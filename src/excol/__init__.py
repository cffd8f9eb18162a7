"""Exact mutation calculus for exceptional collections.

Braid words with a Garside normal form, integer K-theory mutations of
exceptional collections, the Markov-type six-tuple invariants on P^3
with their group action, exact phase-region feasibility, and the
numerical data of projective space.
"""

from .braid import (
    BraidWord,
    GarsideForm,
    WordSyntaxError,
    center_word,
    delta_word,
    is_trivial,
    normal_form,
    parse_word,
)
from .collection import (
    NumericalCollection,
    apply_word,
    from_gram,
    is_minus_kappa_unipotent,
    is_strong_candidate,
    left_mutation,
    right_mutation,
    serre_matrix,
    unipotent_grams,
)
from .markov import (
    SEED_BEILINSON,
    SEED_DUAL,
    CapExceededError,
    GWord,
    SixTuple,
    apply_g,
    check_equivariance,
    eval_eq1,
    eval_eq2,
    f_image,
    orbit,
    stabilizer_scan,
    t_map,
    tuple_gram,
    unipotency_oracle,
    unipotency_oracles,
)
from .pn import (
    beilinson_collection,
    euler_chi_line,
    line_bundle_cohomology,
    serre_class_map,
    twist_matrix,
)
from .regions import (
    DegreeMatrix,
    FeasibilityResult,
    InequalitySystem,
    alpha,
    contains,
    is_feasible,
    lemma41_system,
    region_system,
    thm51_systems,
)

__all__ = [
    "BraidWord", "GarsideForm", "WordSyntaxError", "center_word", "delta_word",
    "is_trivial", "normal_form", "parse_word",
    "NumericalCollection", "apply_word", "from_gram",
    "is_minus_kappa_unipotent", "is_strong_candidate", "left_mutation",
    "right_mutation", "serre_matrix", "unipotent_grams",
    "SEED_BEILINSON", "SEED_DUAL", "CapExceededError", "GWord", "SixTuple",
    "apply_g", "check_equivariance", "eval_eq1", "eval_eq2", "f_image",
    "orbit", "stabilizer_scan", "t_map", "tuple_gram", "unipotency_oracle",
    "unipotency_oracles",
    "beilinson_collection", "euler_chi_line", "line_bundle_cohomology",
    "serre_class_map", "twist_matrix",
    "DegreeMatrix", "FeasibilityResult", "InequalitySystem",
    "alpha", "contains", "is_feasible", "lemma41_system", "region_system",
    "thm51_systems",
]

__version__ = "0.1.0"
