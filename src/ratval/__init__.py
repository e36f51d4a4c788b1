"""Exact valuations on rational function fields and generalized power
series fields, with machine-checkable certificates.

The library computes, in exact rational arithmetic: lexicographically
ordered value groups and their subgroup lattice (`groups`); coefficient
and residue fields Q and F_{p^n} (`fields`); truncated Hahn series with
Artin-Schreier and Kummer root constructions (`series`); centered
valuations on K(x) with an independent substitution oracle, residue
computation and the value/residue-transcendental classification
(`valuations`); Krasner constants, strong homogeneity and homogeneous
sequence extraction (`homogeneous`); and re-checkable certificates for
defect towers, prescribed extension steps and p-adic degree lower
bounds (`certificates`).  The `cli` module runs batch jobs.
"""

from .errors import InternalError, PreconditionError, RatvalError, SchemaError, UndecidedError
from .fields import (
    RATIONALS,
    Field,
    FieldElement,
    FiniteField,
    FunctionField,
    Rationals,
    build_extension,
    min_poly,
)
from .groups import GroupElement, Subgroup, compare
from .homogeneous import (
    HomogeneousSequence,
    TowerState,
    check_pseudo_cauchy,
    extract_homogeneous_sequence,
    homogeneous_approximation,
    implicit_constant_report,
    krasner_artin_schreier,
    krasner_kummer,
    kummer_conjugate_differences,
    strongly_homogeneous_test,
)
from .series import HahnSeries, artin_schreier_root, kummer_root
from .certificates import (
    Certificate,
    ExtensionStep,
    ExtensionTower,
    build_defect_tower,
    build_degree_bound,
    build_extension_step,
    build_extension_tower,
    build_ic_valuation,
    classification_certificate,
    validate_certificate,
)
from .valuations import (
    RESIDUE_TRANSCENDENTAL,
    VALUATION_ALGEBRAIC,
    VALUE_TRANSCENDENTAL,
    CenteredValuation,
    PAdicRationals,
    PseudoCauchyValuation,
    RatFunc,
    RationalFunction,
    SeriesValuedField,
    TAdicRationalFunctions,
    TriviallyValued,
    ValuedField,
    classify_summary,
    substitution_value,
    taylor_shift,
)

__version__ = "0.1.0"
