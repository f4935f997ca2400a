"""Exact Fourier-dual partitions of finite abelian groups.

The package computes, in exact cyclotomic-integer arithmetic, the dual of a
partition of a finite abelian group, tests reflexivity, builds the associated
generalized Krawtchouk matrices, and applies them to weight-distribution
transforms of additive codes. Product, symmetrized, and poset-weight
partitions are built on top, including closed-form matrices for hierarchical
orders.
"""

from .cyclotomic import CycInt, cyclotomic_polynomial, euler_phi, integer, one, zero, zeta_pow
from .errors import GuardExceeded, InputError, VerificationFailure
from .group import (
    Code,
    Element,
    GroupSpec,
    all_subgroups,
    dual_code,
    elements,
    generate,
    pairing_exponent,
)
from .partition import (
    KrawtchoukMatrix,
    Partition,
    all_partitions,
    bidual,
    dual_partition,
    fourier_transform,
    is_reflexive,
    join,
    krawtchouk,
    meet,
    mismatch_witness,
    negate,
    random_partition,
    random_reflexive_partition,
    refines,
)
from .induced import (
    check_product_duality,
    check_symmetrized_duality,
    power_group,
    product_group,
    product_partition,
    symmetrized_partition,
)
from .enumerator import (
    kk_product_check,
    linear_enumerator,
    macwilliams_transform,
    product_enumerator,
    product_transform,
    symmetrized_enumerator,
    symmetrized_transform,
)
from .poset import (
    Poset,
    all_posets,
    antichain,
    chain,
    classical_krawtchouk,
    dual_poset,
    hierarchical_krawtchouk,
    hierarchical_poset,
    is_hierarchical,
    level_orders,
    poset_duality_check,
    poset_krawtchouk_bruteforce,
    poset_partition,
    poset_weight,
)

__version__ = "0.1.0"

__all__ = [
    "CycInt", "cyclotomic_polynomial", "euler_phi", "integer", "one", "zero", "zeta_pow",
    "GuardExceeded", "InputError", "VerificationFailure",
    "Code", "Element", "GroupSpec", "all_subgroups", "dual_code", "elements",
    "generate", "pairing_exponent",
    "KrawtchoukMatrix", "Partition", "all_partitions", "bidual", "dual_partition",
    "fourier_transform", "is_reflexive", "join", "kk_product_check", "krawtchouk", "meet",
    "mismatch_witness", "negate", "random_partition", "random_reflexive_partition",
    "refines",
    "check_product_duality", "check_symmetrized_duality", "power_group", "product_group",
    "product_partition", "symmetrized_partition",
    "linear_enumerator", "macwilliams_transform", "product_enumerator",
    "product_transform", "symmetrized_enumerator", "symmetrized_transform",
    "Poset", "all_posets", "antichain", "chain", "classical_krawtchouk", "dual_poset",
    "hierarchical_krawtchouk", "hierarchical_poset", "is_hierarchical", "level_orders",
    "poset_duality_check", "poset_krawtchouk_bruteforce", "poset_partition",
    "poset_weight",
    "__version__",
]
