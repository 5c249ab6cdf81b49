"""Link-level toolkit for sparse code multiple access: structured sparse
codebooks, message-passing detection, Monte-Carlo symbol-error-rate
measurement, codebook quality metrics, and differential-evolution codebook
search."""

__version__ = "0.1.0"

from .core import (
    CodebookFormatError,
    CodebookSet,
    DegenerateParameterError,
    FactorGraph,
    MalformedParameterError,
    ScmaError,
    SystemConfig,
    codebook_from_dict,
    codebook_to_dict,
    pack_params,
    read_codebook_json,
    unpack_params,
    write_codebook_json,
)
from .structure import (
    StructureTemplate,
    builtin_template,
    derive_8x4,
    instantiate,
    normalize,
)
from .channel import ebn0_to_n0
from .detector import MpaConfig, hard_decision, mpa_detect_batch
from .metrics import KpiReport, i_lower_bound, kpi, sum_constellation
from .montecarlo import SerEstimate, estimate_ser, sweep_ser
from .optimizer import DeConfig, ObjectiveConfig, OptimizeResult, Population, optimize

__all__ = [
    "__version__",
    "ScmaError",
    "MalformedParameterError",
    "DegenerateParameterError",
    "CodebookFormatError",
    "SystemConfig",
    "CodebookSet",
    "pack_params",
    "unpack_params",
    "codebook_to_dict",
    "codebook_from_dict",
    "read_codebook_json",
    "write_codebook_json",
    "FactorGraph",
    "StructureTemplate",
    "builtin_template",
    "instantiate",
    "normalize",
    "derive_8x4",
    "ebn0_to_n0",
    "MpaConfig",
    "mpa_detect_batch",
    "hard_decision",
    "KpiReport",
    "kpi",
    "sum_constellation",
    "i_lower_bound",
    "SerEstimate",
    "estimate_ser",
    "sweep_ser",
    "DeConfig",
    "ObjectiveConfig",
    "OptimizeResult",
    "Population",
    "optimize",
]
