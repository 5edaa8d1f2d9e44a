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

The names below are re-exported lazily (PEP 562): ``from qtorus import act``
imports ``qtorus.fmodule`` when it is first asked for, so importing the
package, or a layer of it, compiles no other layer.
"""

from importlib import import_module as _import_module

# the public names, by the layer that defines them
_LAYERS = {
    "algebra": ("TorusElement", "is_central", "tcomm", "tmul"),
    "cyclotomic": ("CycNumber", "max_conductor", "root_of_unity"),
    "derivations": ("DerElement", "dact", "dbracket", "pairing"),
    "errors": (
        "BadPower",
        "ConductorLimitExceeded",
        "ConfigError",
        "NotCharacter",
        "NotDivisible",
        "NotInRadical",
        "NotRootOfUnity",
        "NotScalar",
        "QTorusError",
        "SpecMismatch",
    ),
    "fmodule": (
        "BoxVector",
        "DiagonalCharacter",
        "FLAVORS",
        "ModuleSpec",
        "TwistCharacter",
        "act",
        "extract_twist",
        "intertwiner_check",
        "irreducibility_evidence",
        "search_twist_equivalence",
        "weight_op_matrix",
        "zero_mode_scalar",
    ),
    "glmodules": ("GlModule", "parse_module"),
    "semidirect": ("GElement", "gbracket"),
    "torus": ("RadicalBasis", "TorusSpec"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{layer}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
