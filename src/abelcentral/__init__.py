"""Mod-n abelian-by-central invariants of finite fields and explicit groups."""

from .errors import (
    DimensionError,
    DomainError,
    HypothesisError,
    ModulusError,
    TheoremViolationError,
)
from .finfield import (
    FieldEmbedding,
    FqField,
    KummerCharacter,
    RootOfUnity,
    characters,
    embed_field,
    make_field,
    omega,
    restrict_character,
)
from .groups import (
    CentralSeriesData,
    TableGroup,
    abelian_decomposition,
    central_series,
    cyclic_group,
    elementary_group,
    layer_maps,
)
from .heisenberg import to_table_group
from .modring import AbelianStructure, ModMatrix, SubgroupZnk, binom2
from .relations import RelationReport, relation_check
from .tables import (
    FfrakGroup,
    FnTable,
    FormalWord,
    ffrak_generate,
    omega_eval,
    phi,
    psi,
    restriction_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianStructure",
    "CentralSeriesData",
    "DimensionError",
    "DomainError",
    "FieldEmbedding",
    "FfrakGroup",
    "FnTable",
    "FormalWord",
    "FqField",
    "HypothesisError",
    "KummerCharacter",
    "ModMatrix",
    "ModulusError",
    "RelationReport",
    "RootOfUnity",
    "SubgroupZnk",
    "TableGroup",
    "TheoremViolationError",
    "abelian_decomposition",
    "binom2",
    "central_series",
    "characters",
    "cyclic_group",
    "elementary_group",
    "embed_field",
    "ffrak_generate",
    "layer_maps",
    "make_field",
    "omega",
    "omega_eval",
    "phi",
    "psi",
    "relation_check",
    "restrict_character",
    "restriction_check",
    "to_table_group",
]
