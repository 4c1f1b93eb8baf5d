"""Finite orthomodular lattices, left residuated l-groupoids, and the
two-way Sasaki correspondence between them.

The toolkit is exhaustive by design: structures are dense tables over carriers
of at most MAX_CARRIER_SIZE = 256 elements, every axiom check is a full scan
returning a per-axiom report with concrete witnesses, and small structures can
be enumerated up to isomorphism for corpus-wide verification.
"""

from .errors import (
    CycleDetectedError,
    DuplicateNameError,
    HypothesisViolatedError,
    NotALatticeError,
    NotBoundedError,
    NotOrthomodularError,
    OmlatError,
    ParseError,
    SizeLimitExceededError,
    TableNotTotalError,
    UnknownAxiomIdError,
    UnknownElementError,
)
from .order import (
    MAX_CARRIER_SIZE,
    BoundedLattice,
    CanonicalCertificate,
    ElementId,
    FinitePoset,
    canonical_certificate,
    lattice_from_covers,
    lattice_from_poset,
    poset_from_covers,
    relabel_lattice,
    transitive_reduction,
    verify_lattice,
)
from .ortho import (
    OrthoCandidate,
    UnaryTable,
    check_orthomodularity,
    is_boolean,
    verify_oml,
    verify_ortholattice,
)
from .reports import AxiomResult, VerificationReport, Witness, format_witness
from .residuated import (
    ALL_AXIOMS,
    CORE_AXIOMS,
    RECOVERY_AXIOMS,
    ROUND_TRIP_AXIOMS,
    BinOpTable,
    LrGroupoid,
    derived_negation,
    verify_lrg,
)
from .correspondence import induced_oml, round_trip_check, sasaki_groupoid
from .search import (
    GROUPOID_AXIOM_IDS,
    MAX_ENUMERATION_SIZE,
    ORTHO_AXIOM_IDS,
    EnumerationConfig,
    enumerate_bounded_lattices,
    enumerate_omls,
    enumerate_orthocomplements,
    find_counterexample,
)
from .formats import export_dot, parse_structure, serialize_structure

__version__ = "0.1.0"

__all__ = [
    "ALL_AXIOMS",
    "AxiomResult",
    "BinOpTable",
    "BoundedLattice",
    "CORE_AXIOMS",
    "CanonicalCertificate",
    "CycleDetectedError",
    "DuplicateNameError",
    "ElementId",
    "EnumerationConfig",
    "FinitePoset",
    "GROUPOID_AXIOM_IDS",
    "HypothesisViolatedError",
    "LrGroupoid",
    "MAX_CARRIER_SIZE",
    "MAX_ENUMERATION_SIZE",
    "NotALatticeError",
    "NotBoundedError",
    "NotOrthomodularError",
    "OmlatError",
    "ORTHO_AXIOM_IDS",
    "OrthoCandidate",
    "ParseError",
    "RECOVERY_AXIOMS",
    "ROUND_TRIP_AXIOMS",
    "SizeLimitExceededError",
    "TableNotTotalError",
    "UnaryTable",
    "UnknownAxiomIdError",
    "UnknownElementError",
    "VerificationReport",
    "Witness",
    "canonical_certificate",
    "check_orthomodularity",
    "derived_negation",
    "enumerate_bounded_lattices",
    "enumerate_omls",
    "enumerate_orthocomplements",
    "export_dot",
    "find_counterexample",
    "format_witness",
    "induced_oml",
    "is_boolean",
    "lattice_from_covers",
    "lattice_from_poset",
    "parse_structure",
    "poset_from_covers",
    "relabel_lattice",
    "round_trip_check",
    "sasaki_groupoid",
    "serialize_structure",
    "transitive_reduction",
    "verify_lattice",
    "verify_lrg",
    "verify_oml",
    "verify_ortholattice",
]
