"""Unitarily invariant matrix norms and their nonlinear sphere maps.

The package has three layers:

- **gauges and norms** (:mod:`.gauge`, :mod:`.matnorm`): symmetric gauge
  functions on singular values, their duals and p-convexifications, and the
  induced matrix norms together with duality (norming-functional) maps;
- **sphere maps** (:mod:`.mazur`, :mod:`.entropy`): the p-th power map
  between the unit spheres of a norm and its p-convexification, and the
  quantum-relative-entropy minimization map with its norming-state inverse;
- **verification** (:mod:`.verify`, :mod:`.cli`): deterministic randomized
  suites checking the quantitative inequalities these maps satisfy, plus
  modulus-of-continuity profiling, exposed through the ``spectral-mazur``
  command line tool.
"""

from .entropy import (
    EntropyMinReport,
    GridSearchReport,
    check_state,
    entropy_min_bruteforce,
    entropy_min_general,
    entropy_min_mat,
    entropy_min_seq,
    norming_state,
    rel_entropy,
)
from .errors import (
    ConfigError,
    GaugeParseError,
    MatrixFormatError,
    NoConvergence,
    NumericalFailure,
    PreconditionError,
    SpectralMazurError,
)
from .gauge import (
    Convexified,
    Dual,
    Gauge,
    KyFan,
    Lp,
    convexify,
    dual_gauge,
    duality_map_seq,
    eval_gauge,
    eval_gauge_rows,
    format_gauge,
    parse_gauge,
)
from .matnorm import (
    PolarParts,
    duality_map_mat,
    matrix_from_json,
    matrix_to_json,
    norm_ui,
    polar,
    read_matrix,
    singular_values,
    trace_norm,
    write_matrix,
)
from .mazur import mazur_forward, mazur_inverse
from .verify import (
    MAP_NAMES,
    SUITE_NAMES,
    ModulusProfile,
    SuiteConfig,
    SuiteReport,
    Violation,
    estimate_modulus,
    run_inequality_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gauges
    "Gauge",
    "Lp",
    "KyFan",
    "Convexified",
    "Dual",
    "parse_gauge",
    "format_gauge",
    "eval_gauge",
    "eval_gauge_rows",
    "dual_gauge",
    "convexify",
    "duality_map_seq",
    # matrix norms
    "singular_values",
    "norm_ui",
    "trace_norm",
    "polar",
    "PolarParts",
    "duality_map_mat",
    "matrix_to_json",
    "matrix_from_json",
    "read_matrix",
    "write_matrix",
    # sphere maps
    "mazur_forward",
    "mazur_inverse",
    "check_state",
    "rel_entropy",
    "entropy_min_seq",
    "entropy_min_mat",
    "entropy_min_general",
    "entropy_min_bruteforce",
    "norming_state",
    "EntropyMinReport",
    "GridSearchReport",
    # verification
    "SuiteConfig",
    "SuiteReport",
    "Violation",
    "SUITE_NAMES",
    "MAP_NAMES",
    "run_inequality_suite",
    "estimate_modulus",
    "ModulusProfile",
    # errors
    "SpectralMazurError",
    "ConfigError",
    "GaugeParseError",
    "MatrixFormatError",
    "NumericalFailure",
    "NoConvergence",
    "PreconditionError",
]
