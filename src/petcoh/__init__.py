"""Exact certification engine for the equivariant cohomology of Peterson
varieties: the fixed-point restriction model on one side, the Cartan-matrix
quadric presentation on the other, and checks that the two agree."""

__version__ = "0.1.0"

from .billey import billey_localization, localization_table
from .commalg import (
    HilbertSeries,
    Ideal,
    build_ideal_J,
    build_ideal_Jcheck,
    groebner_basis,
    hilbert_series_of_quotient,
    t_section_hilbert_series,
    t_section_leads,
    zero_set_is_origin,
    zero_set_via_minors,
)
from .errors import IntegrityError, ResourceCapError
from .peterson import PetersonModel
from .report import CertificationReport, CheckRecord
from .roots import (
    CartanMatrix,
    LieType,
    cartan_matrix,
    leading_minors_positive,
    parse_lie_type,
    simple_reflection_action,
)
from .weyl import WeylElement, WeylGroup, word_to_str

__all__ = [
    "CartanMatrix",
    "CertificationReport",
    "CheckRecord",
    "HilbertSeries",
    "Ideal",
    "IntegrityError",
    "LieType",
    "PetersonModel",
    "ResourceCapError",
    "WeylElement",
    "WeylGroup",
    "billey_localization",
    "build_ideal_J",
    "build_ideal_Jcheck",
    "cartan_matrix",
    "groebner_basis",
    "hilbert_series_of_quotient",
    "leading_minors_positive",
    "localization_table",
    "parse_lie_type",
    "simple_reflection_action",
    "t_section_hilbert_series",
    "t_section_leads",
    "word_to_str",
    "zero_set_is_origin",
    "zero_set_via_minors",
    "__version__",
]
