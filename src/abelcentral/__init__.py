"""Mod-n abelian-by-central invariants of finite fields and explicit groups.

The package namespace is lazy (PEP 562): ``import abelcentral`` loads no
submodule, and each exported name is looked up in its home module when it is
first read, so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Home module of every exported name.
_EXPORTS = {
    "errors": ("DimensionError", "DomainError", "HypothesisError", "ModulusError", "TheoremViolationError"),
    "finfield": (
        "FieldEmbedding",
        "FqField",
        "KummerCharacter",
        "RootOfUnity",
        "characters",
        "embed_field",
        "make_field",
        "omega",
        "restrict_character",
    ),
    "groups": (
        "CentralSeriesData",
        "TableGroup",
        "abelian_decomposition",
        "central_series",
        "cyclic_group",
        "elementary_group",
        "layer_maps",
    ),
    "heisenberg": ("to_table_group",),
    "modring": ("AbelianStructure", "ModMatrix", "SubgroupZnk", "binom2"),
    "relations": ("RelationReport", "relation_check"),
    "tables": (
        "FfrakGroup",
        "FnTable",
        "FormalWord",
        "ffrak_generate",
        "omega_eval",
        "phi",
        "psi",
        "restriction_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Read from the home module on every access, not bound here, so the name
    # is always the object its module holds now.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
