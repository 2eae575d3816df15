"""Additive combinatorics over finite semigroups.

Carriers are validated Cayley tables over the carrier [0, n); subsets are
bit-vector sets.  The package computes sumsets, difference sets, the
order-based bound constants, the candidate-driven set transform with its
audit, localization via systems of distinct representatives, and ships a
bit-parallel harness that exhaustively verifies every catalogued bound on
small carriers.

Every name imports its submodule on first access (PEP 562), so importing
the package loads no submodule.
"""

# each submodule and the public names it exports
_EXPORTS = {
    "catalog": (
        "STATEMENTS", "OmegaBreakdown", "cd_constant", "delta", "normalize_statement", "omega",
        "omega_gcd_crosscheck", "omega_pair", "pillai_delta",
    ),
    "core": (
        "INFINITY", "MAX_CARRIER", "ElementSet", "ExtendedNat", "FiniteSemigroup",
        "build_semigroup", "centralizer", "cyclic", "dihedral", "element_order",
        "generated_subsemigroup", "leftzero", "maxchain", "p_constant",
        "parse_cayley_text", "product", "quaternion8", "unitization",
    ),
    "errors": (
        "AddcombError", "BadZ", "CandidateInvalid", "CarrierTooLarge", "EmptySet",
        "EmptyTransform", "IndexOutOfRange", "NonAssociative", "NotGroup", "NotUnital",
        "ParseError", "PreconditionFailed", "TheoremViolated", "UnknownSpec", "ValidationError",
    ),
    "exhaustive": ("SweepSummary", "TightPair", "Violation", "sweep"),
    "localization": (
        "LocalizationResult", "SumMatrix", "hall_check", "localize", "sum_matrix",
    ),
    "setops": (
        "left_difference", "n_fold", "right_difference", "span_check",
        "span_is_commutative", "sumset",
    ),
    "theorems": (
        "BoundReport", "builtin_groups", "builtin_monoids", "run_statement", "verify_cd",
        "verify_hk", "verify_kemperman_weak", "verify_main", "verify_mirror", "verify_zmod",
    ),
    "transform": (
        "TransformAudit", "TransformResult", "apply_transform", "audit_transform",
        "transform_candidates",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def _submodule(name: str):
    # the path of the import statement, which -X importtime reports and
    # importlib.import_module does not
    return __import__(name, globals(), level=1)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(_submodule(_OWNER[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
