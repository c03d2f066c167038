"""Desk-scale Max-3-XOR lab: instances, exact Walsh machinery, distribution
checks, dictatorship-test composition, a two-round SDP rounding pipeline,
and a brute-force oracle."""

from .instances import (
    Assignment,
    CapExceeded,
    Constraint,
    FormatError,
    Instance,
    Literal,
    Predicate3,
    ValidationError,
    XOR_PLUS,
    evaluate,
)
from .fourier import (
    MultilinearPoly,
    degree_slice,
    instance_objective,
    predicate_fourier,
    walsh_terms,
)
from .distributions import (
    DisguiseSpec,
    TupleDistribution,
    check_pairwise_independent,
    disguise,
    ground,
    uniform_over,
)
from .gadget import (
    LabelCoverInstance,
    compose,
    dictator_assignment,
    make_label_cover,
)
from .sdp import GramFactor, QuadraticObjective, SdpConfig, cw_round, solve_relaxation
from .pipeline import FamilySpec, PipelineConfig, PipelineReport, gap_experiment, two_round
from .oracle import OracleResult, brute_force

__version__ = "0.1.0"
