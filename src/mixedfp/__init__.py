"""mixedfp: multidimensional fixed points of mixed-monotone operators on
product function spaces, applied to log-banded Hammerstein integral
equations."""

from .contraction import (
    ContractionTriple,
    builtin_log_triple,
    gain_bound_sequence,
    verify_contraction_sampled,
)
from .engine import (
    IterationConfig,
    IterationReport,
    NonConvergenceError,
    ProductOperator,
    check_mixed_monotone_sampled,
    iterate_step,
    solve,
)
from .funcspace import (
    Grid,
    GridFunction,
    QuadratureRule,
    integrate,
    interpolate,
    make_quadrature,
    pointwise_leq,
    sup_metric,
    uniform_grid,
)
from .hammerstein import (
    HammersteinProblem,
    apply_A,
    build_log_example,
    check_assumption_d,
    check_assumption_e,
    image_leq,
    image_metric,
    initial_bracket,
    kernel_bound,
    product_operator,
)
from .order import (
    Partition,
    UpsilonTuple,
    cyclic_shift_upsilon,
    max_metric,
    product_leq,
    upsilon_violations,
)

__version__ = "0.1.0"
