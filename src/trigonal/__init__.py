"""Branched covers of the line as monodromy data, and the ramified
trigonal construction: degree-six towers with a block pairing on one
side, tetragonal covers with marked nodes on the other, with the
sections curve and its involution mediating between them."""

from types import ModuleType as _ModuleType

from .covers import (
    BranchedCover,
    Component,
    CoverPoint,
    NodalCoverModel,
    arithmetic_genus,
    genus,
    iter_isomorphisms,
    label_cycles,
    nodal_isomorphisms,
)
from .permutation import Permutation, compose, conjugate, induced_action, orbits, product
from .groups import (
    PAIRS,
    BlockSystem,
    block_action,
    classify_fiber,
    pairs_action,
    partition_action,
    sections_action,
)
from .towers import (
    ETALE,
    GENERAL,
    SPECIAL,
    Tower,
    TowerValidationError,
    flip_points,
    validate_tower,
)
from .forward import (
    ForwardResult,
    NodeMarkers,
    component_tetragonal,
    construct,
    verify_predictions,
)
from .inverse import (
    STRATUM_M0,
    STRATUM_M1,
    STRATUM_M2,
    STRATUM_OTHER,
    GluedTower,
    InverseResult,
    TetragonalCover,
    expected_inverse,
    invert,
    match_glued,
    roundtrip,
    roundtrip_etale,
)
from .coefficients import (
    ChainRow,
    chain_report,
    chain_with_power_factor,
    coefficient_chain,
    gen_binomial,
    reduced_identity,
)
from .report import CheckReport, CheckResult
from .sampling import SampleConfig, SplitMix64, derive_seed, sample_tetragonal, sample_tower
from .batch import BatchReport, InstanceResult, SUITES, run_batch, spread_configs

# the public names are the ones the imports above bind
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
