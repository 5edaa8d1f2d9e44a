"""Exact computer algebra for twisted-torus Lie algebras and their weight modules.

The package builds, over exact cyclotomic arithmetic:

  * a rank-d torus algebra twisted by a skew bicharacter at a root of unity
    (``torus``, ``algebra``),
  * its derivation Lie algebra (inner plus Witt-type operators) and the
    semidirect pair algebra (``derivations``, ``semidirect``),
  * finite-dimensional gl(d) coefficient modules (``glmodules``),
  * graded weight modules over the pair algebra in three action flavors,
    with box-truncated vectors and operator expressions read on all of Z^d
    (``fmodule``),
  * deterministic verification suites and a CLI (``checks``, ``cli``).
"""

from .algebra import TorusElement, is_central, tcomm, tmul
from .cyclotomic import CycNumber, max_conductor, root_of_unity
from .derivations import DerElement, dact, dbracket, pairing
from .errors import (
    BadPower,
    ConductorLimitExceeded,
    ConfigError,
    NotCharacter,
    NotDivisible,
    NotInRadical,
    NotRootOfUnity,
    NotScalar,
    QTorusError,
    SpecMismatch,
)
from .fmodule import (
    BoxVector,
    DiagonalCharacter,
    FLAVORS,
    ModuleSpec,
    TwistCharacter,
    act,
    extract_twist,
    intertwiner_check,
    irreducibility_evidence,
    search_twist_equivalence,
    weight_op_matrix,
    zero_mode_scalar,
)
from .glmodules import GlModule, parse_module
from .semidirect import GElement, gbracket
from .torus import RadicalBasis, TorusSpec

__all__ = [
    "BadPower",
    "BoxVector",
    "ConductorLimitExceeded",
    "ConfigError",
    "CycNumber",
    "DerElement",
    "DiagonalCharacter",
    "FLAVORS",
    "GElement",
    "GlModule",
    "ModuleSpec",
    "NotCharacter",
    "NotDivisible",
    "NotInRadical",
    "NotRootOfUnity",
    "NotScalar",
    "QTorusError",
    "RadicalBasis",
    "SpecMismatch",
    "TorusElement",
    "TorusSpec",
    "TwistCharacter",
    "act",
    "dact",
    "dbracket",
    "extract_twist",
    "gbracket",
    "intertwiner_check",
    "irreducibility_evidence",
    "is_central",
    "max_conductor",
    "pairing",
    "parse_module",
    "root_of_unity",
    "search_twist_equivalence",
    "tcomm",
    "tmul",
    "weight_op_matrix",
    "zero_mode_scalar",
]

__version__ = "0.1.0"
