"""Exact invariants of isometric torus actions on closed orientable
4-dimensional Alexandrov spaces.

The classifying data of such an action is a weighted orbit space: a compact
surface together with genus, orientation, an obstruction pair, circle
boundary isotropies, boundary cycles of fixed points with adjacent-pair
determinants, and Seifert triples of exceptional orbits.  This package
stores that data exactly, validates the legality rules, computes the lens
space local models at singular fixed points, decides isomorphism of
weighted orbit spaces through canonical forms, performs connected sums
along circular orbits, and decomposes any legal system into a closed
4-manifold part plus simple pieces.
"""

from .constructors import (
    EnumerationBounds,
    canonical_pairs,
    enumerate_legal,
    suspension_of_lens,
    weighted_projective,
)
from .core import (
    ExceptionalOrbit,
    FixedCycle,
    IsotropyPair,
    OrbitType,
    ValidationReport,
    Violation,
    WeightSystem,
    classify_fixed_point,
    det_pair,
    make_pair,
    require_legal,
    validate,
)
from .documents import from_document, parse, serialize, serialize_compact, to_document
from .equivalence import (
    CanonicalForm,
    EquivalenceMode,
    Witness,
    apply_basis_change,
    canonical_cycle,
    canonical_form,
    is_isomorphic,
    reverse_orientation,
    weak_witness,
)
from .errors import (
    DocumentError,
    IllegalDeterminant,
    IllegalParameters,
    IllegalWeightSystem,
    IsotropyMismatch,
    NotCoprime,
    NotUnimodular,
    OrientationMismatch,
    WeightSystemError,
)
from .localmodels import (
    GluingMatrix,
    LensClass,
    bezout_complement,
    gluing_matrix,
    lens_equivalent,
    space_of_directions,
)
from .surgery import (
    CircleSelection,
    Decomposition,
    c_connected_sum,
    decompose,
    is_simple,
    reassemble,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm", "CircleSelection", "Decomposition", "DocumentError",
    "EnumerationBounds", "EquivalenceMode", "ExceptionalOrbit", "FixedCycle",
    "GluingMatrix", "IllegalDeterminant", "IllegalParameters",
    "IllegalWeightSystem", "IsotropyMismatch", "IsotropyPair", "LensClass",
    "NotCoprime", "NotUnimodular", "OrbitType", "OrientationMismatch",
    "ValidationReport", "Violation", "WeightSystem", "WeightSystemError",
    "Witness",
    "apply_basis_change", "bezout_complement", "c_connected_sum",
    "canonical_cycle", "canonical_form", "canonical_pairs",
    "classify_fixed_point", "decompose", "det_pair", "enumerate_legal",
    "from_document", "gluing_matrix", "is_isomorphic", "is_simple",
    "lens_equivalent", "make_pair", "parse", "reassemble", "require_legal",
    "reverse_orientation", "serialize", "serialize_compact",
    "space_of_directions", "suspension_of_lens", "to_document", "validate",
    "weak_witness", "weighted_projective",
]
