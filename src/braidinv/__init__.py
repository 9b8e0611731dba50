"""Knot invariants of braid closures, computed three independent ways.

Braid words close to knots or links; their Gauss diagrams support a signed
two-arrow pattern count giving the degree-2 Conway coefficient (and its
parity, the Arf invariant), reduced Burau matrices give the Alexander and
Conway polynomials and the knot determinant, and the Conway skein relation
in the Hecke algebra gives the Conway polynomial once more.  A verification
CLI checks these against each other and against Lucas-number identities.
"""

from .braids import (
    BraidParseError,
    BraidWord,
    closure_components,
    mirror,
    parse_braid_word,
    power,
)
from .counting import (
    ALL_PATTERNS,
    ArrowPattern,
    C2_PATTERN,
    CalibrationError,
    HEAD_FIRST,
    PatternCount,
    TAIL_FIRST,
    arf_of_braid_closure,
    c2_of_braid_closure,
    calibrate_pattern,
    count_pattern,
    default_calibration_corpus,
)
from .gauss import (
    EMPTY_CODE,
    GaussDiagram,
    canonical_code,
    delete_arrows,
    from_braid_closure,
    gap_count,
    isomorphic_unbased,
    rebase,
    writhe,
)
from .polynomials import (
    ConwayPolynomial,
    LaurentPolynomial,
    SkeinLimitError,
    alexander_of_closure,
    arf_oracle,
    c2_oracle,
    conway_from_alexander,
    conway_of_closure,
    conway_skein,
    determinant,
    reduced_burau,
)
from .sequences import (
    EnumerationLimitError,
    WheelGraph,
    determinant_fraction_free,
    is_perfect_square,
    laplacian,
    lucas,
    residue_mod8,
    spanning_trees_bruteforce,
    wheel_spanning_trees,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PATTERNS",
    "ArrowPattern",
    "BraidParseError",
    "BraidWord",
    "C2_PATTERN",
    "CalibrationError",
    "ConwayPolynomial",
    "EMPTY_CODE",
    "EnumerationLimitError",
    "GaussDiagram",
    "HEAD_FIRST",
    "LaurentPolynomial",
    "PatternCount",
    "SkeinLimitError",
    "TAIL_FIRST",
    "WheelGraph",
    "__version__",
    "alexander_of_closure",
    "arf_of_braid_closure",
    "arf_oracle",
    "c2_of_braid_closure",
    "c2_oracle",
    "calibrate_pattern",
    "canonical_code",
    "closure_components",
    "conway_from_alexander",
    "conway_of_closure",
    "conway_skein",
    "count_pattern",
    "default_calibration_corpus",
    "delete_arrows",
    "determinant",
    "determinant_fraction_free",
    "from_braid_closure",
    "gap_count",
    "is_perfect_square",
    "isomorphic_unbased",
    "laplacian",
    "lucas",
    "mirror",
    "parse_braid_word",
    "power",
    "rebase",
    "reduced_burau",
    "residue_mod8",
    "spanning_trees_bruteforce",
    "wheel_spanning_trees",
    "writhe",
]
