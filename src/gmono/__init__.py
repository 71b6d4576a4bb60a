"""Generalized multiply monotone function cones and their dual cones.

Gauge sequences, w-polynomial chains, gauged derivative chains, the
generalized Taylor machinery, measures with generalized moments, the
finite dual-cone dominance conditions, and the application engines, with a
CLI front end (``gmono``).
"""

from .errors import (
    DomainError,
    GaugeError,
    GmonoError,
    InconclusiveError,
    PreconditionError,
    QuadratureError,
    UndefinedMomentError,
)
from .intervals import (
    ExponentialGauge,
    GaugeSpec,
    Interval,
    PowerGauge,
    ScaleMap,
    TableGauge,
    UnitGauge,
    affine_map,
    arctan_cheb_gauges,
    default_grid,
    gauge_eval,
    gauge_from_dict,
    identity_map,
    shift,
    stein_gauges,
    tan_map,
    transport_gauges,
)
from .wpoly import (
    FULL,
    NEGATIVE,
    POSITIVE,
    FinitenessSet,
    WPolyHandle,
    chain_az_handle,
    chain_t_handle,
    finiteness_set,
    interpolate,
)
from .gderiv import (
    ConeSpec,
    FunctionRep,
    MembershipReport,
    cone_membership,
    compare_from_point,
    fn_exp,
    fn_from_wpoly,
    fn_poly,
    gauged_derivative,
    invariance_check,
    mixture_function,
    rem_left_example,
)
from .measures import (
    AdmissibilityReport,
    CauchyPart,
    DensityPart,
    MeasureRep,
    NormalPart,
    PoissonPart,
    admissibility,
    gmoment,
    partial_moment,
    reflected,
)
from .taylor import (
    ApproxHandle,
    TaylorData,
    build_approx,
    convergence_profile,
    taylor_data,
    taylor_expand,
)
from .dual_cone import (
    DominanceReport,
    check_dominance,
    oracle_equivalence,
)
from .applications import (
    CHEB_CONSTANT,
    MartingaleModel,
    RatioQuery,
    StepLaw,
    cheb_minimum_scan,
    cheb_ratio,
    diffineq_system,
    fair_walk,
    left_tail_chain,
    martingale_dominance,
)

__version__ = "0.1.0"
