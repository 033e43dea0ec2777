"""Truncated power-series algebra over F_p with a procyclic exponent action.

The package computes, at finite truncation, the objects attached to the
ring F_p[[x]] acted on by a procyclic group through t -> 1 - x: exact
series and Laurent arithmetic, p-adic exponents and the tau map, module
coinvariants and group-ring tensor squares with their antipode bijection,
census/counting data for ratio sets of the image of tau, and mod-p second
homology of lamplighter quotient towers via minimal resolutions, with the
bar resolution as their oracle.
"""

from .census import (
    CensusSet,
    DensityGapResult,
    TensorRep,
    census_ratio_set,
    density_gap,
    enum_A,
    kappa,
    mu,
    pack_series,
    unpack_series,
)
from .cycmod import (
    AntipodeCheck,
    FpCModule,
    ModuleAntipode,
    antipode_iso_check,
    diagonal_coinvariants,
    regular_antipode,
    regular_module,
    tensor_over_groupring,
    trivial_module,
)
from .errors import (
    NotAUnitError,
    ResourceLimitError,
    SearchExhaustedError,
    UsageError,
)
from .fpx import (
    LaurentTrunc,
    TruncSeries,
    mul_schoolbook,
    parse_series,
    render_series,
    validate_prime,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    build_lamplighter,
    cyclic_group,
    elementary_abelian,
    hopf_quotient,
    lamplighter_socle,
)
from .homology import (
    TowerReport,
    bar_h2,
    five_term_check,
    minres_h2,
    tower_report,
)
from .linfp import (
    FpMatrix,
    SparseRankAccumulator,
    kernel_basis,
    rank,
)
from .padic import PadicInt
from .taumap import min_digit_precision, sigma, tau

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "UsageError",
    "NotAUnitError",
    "ResourceLimitError",
    "SearchExhaustedError",
    # series
    "TruncSeries",
    "LaurentTrunc",
    "mul_schoolbook",
    "render_series",
    "parse_series",
    "validate_prime",
    # p-adic
    "PadicInt",
    # tau
    "tau",
    "sigma",
    "min_digit_precision",
    # linear algebra
    "FpMatrix",
    "SparseRankAccumulator",
    "rank",
    "kernel_basis",
    # modules
    "FpCModule",
    "ModuleAntipode",
    "AntipodeCheck",
    "regular_module",
    "regular_antipode",
    "trivial_module",
    "diagonal_coinvariants",
    "tensor_over_groupring",
    "antipode_iso_check",
    # census
    "CensusSet",
    "TensorRep",
    "DensityGapResult",
    "enum_A",
    "census_ratio_set",
    "density_gap",
    "kappa",
    "mu",
    "pack_series",
    "unpack_series",
    # groups
    "FiniteGroup",
    "GroupHom",
    "cyclic_group",
    "elementary_abelian",
    "build_lamplighter",
    "lamplighter_socle",
    "hopf_quotient",
    # homology
    "minres_h2",
    "bar_h2",
    "five_term_check",
    "tower_report",
    "TowerReport",
]
