"""Block-stabilized coset products on automorphisms of the free group of
countable rank, and their exact matrix representations over finite groups.

The package has three layers: reduced words and verified automorphisms
(``words``, ``automorphisms``), the coset/class/tuple products with their
structural witnesses (``cosets``), and the exact averaged-action operators
over finite groups (``groups``, ``ratmat``, ``repengine``).  ``cli`` exposes
everything as the ``autcosets`` command.
"""

from .words import (
    EMPTY,
    Letter,
    Word,
    WordSyntaxError,
    concat,
    format_word,
    generator_word,
    invert_word,
    max_generator,
    parse_word,
    reduce,
    substitute,
)
from .automorphisms import (
    Automorphism,
    Endomorphism,
    InverseVerificationError,
    automorphism_from_dict,
    automorphism_to_dict,
    compose,
    identity_automorphism,
    invert,
    is_in_H,
    nielsen_invert,
    nielsen_right_mult,
    nielsen_swap,
    permutation_automorphism,
    random_automorphism,
    verify_inverse_pair,
)
from .cosets import (
    ConjClassRep,
    DoubleCosetRep,
    TupleRep,
    block_size,
    coset_product,
    product_formula_direct,
    stability_witness,
    star_product,
    star_vs_pair_check,
    theta,
    tuple_product,
    witness_left,
    witness_right,
)
from .errors import SizeLimitError, SupportViolation
from .groups import (
    FiniteGroup,
    GroupAxiomError,
    Subgroup,
    builtin_group,
    group_from_dict,
    group_to_dict,
)
from .ratmat import RationalMatrix
from .repengine import (
    DEFAULT_MAX_POINTS,
    ActionMap,
    action_map,
    compress_to_invariants,
    markov_matrix,
    projection_matrix,
    weak_limit_check,
)
from .verify import CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "Letter",
    "Word",
    "WordSyntaxError",
    "concat",
    "format_word",
    "generator_word",
    "invert_word",
    "max_generator",
    "parse_word",
    "reduce",
    "substitute",
    "Automorphism",
    "Endomorphism",
    "InverseVerificationError",
    "automorphism_from_dict",
    "automorphism_to_dict",
    "compose",
    "identity_automorphism",
    "invert",
    "is_in_H",
    "nielsen_invert",
    "nielsen_right_mult",
    "nielsen_swap",
    "permutation_automorphism",
    "random_automorphism",
    "verify_inverse_pair",
    "ConjClassRep",
    "DoubleCosetRep",
    "TupleRep",
    "block_size",
    "coset_product",
    "product_formula_direct",
    "stability_witness",
    "star_product",
    "star_vs_pair_check",
    "theta",
    "tuple_product",
    "witness_left",
    "witness_right",
    "SizeLimitError",
    "SupportViolation",
    "FiniteGroup",
    "GroupAxiomError",
    "Subgroup",
    "builtin_group",
    "group_from_dict",
    "group_to_dict",
    "RationalMatrix",
    "DEFAULT_MAX_POINTS",
    "ActionMap",
    "action_map",
    "compress_to_invariants",
    "markov_matrix",
    "projection_matrix",
    "weak_limit_check",
    "CheckResult",
    "run_suites",
]
