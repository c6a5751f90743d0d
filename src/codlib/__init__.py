"""Complex orthogonal designs: construction, verification, canonical forms,
and the closed-form 2m-th column or its odd-m certificate.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first access (PEP 562), so a CLI command
loads only what it runs.
"""

from importlib import import_module

# submodule -> the public names it defines, in the order of __all__
_EXPORTS = {
    "bitvec": ("BitVec",),
    "model": (
        "CodMatrix",
        "Entry",
        "VerificationReport",
        "verify_numeric",
        "verify_symbolic",
    ),
    "generator": (
        "ExtensionResult",
        "InconsistencyCertificate",
        "check_certificate",
        "construct_g",
        "extend_g",
    ),
    "equivalence": (
        "ColPerm",
        "ConjVar",
        "EquivOp",
        "NegCol",
        "NegRow",
        "NegVar",
        "RenameVar",
        "RowPerm",
        "apply_ops",
        "canonicalize",
        "equivalent",
        "scramble",
    ),
    "analysis": (
        "StructuralReport",
        "max_rate",
        "min_delay",
        "structural_report",
    ),
    "oracle": ("EquivalenceClass", "SearchSpec", "enumerate_cods"),
    "errors": (
        "BudgetExceededError",
        "DesignError",
        "InvalidDesignError",
        "MalformedFileError",
        "ParameterError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
