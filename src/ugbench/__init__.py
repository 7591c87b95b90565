"""Universal line-search-free (stochastic) gradient methods on bounded domains."""

from .metric import MetricSpace, dual_norm, norm, pairing
from .problems import (
    BallDomain,
    CompositeObjective,
    least_squares_f,
    logistic_f,
    p_power_f,
    project_ball,
    prox_step,
)
from .certificate import CertificateAccumulator, certificate_gap, certificate_update
from .oracles import Oracle, OracleConfig
from .solvers import (
    TraceRecord,
    balance_update,
    reg_max_bound,
    run_adagrad_norm,
    run_projected_subgrad,
    run_ugm,
    run_usfgm,
    run_usgm,
)
from .dataio import Dataset, parse_libsvm, serialize_libsvm, synth_least_squares

__all__ = [
    "MetricSpace", "norm", "dual_norm", "pairing",
    "BallDomain", "CompositeObjective", "prox_step", "project_ball",
    "least_squares_f", "logistic_f", "p_power_f",
    "CertificateAccumulator", "certificate_update", "certificate_gap",
    "Oracle", "OracleConfig",
    "balance_update", "reg_max_bound", "TraceRecord",
    "run_ugm", "run_usgm", "run_usfgm",
    "run_projected_subgrad", "run_adagrad_norm",
    "Dataset", "parse_libsvm", "serialize_libsvm",
    "synth_least_squares",
]

__version__ = "0.1.0"
