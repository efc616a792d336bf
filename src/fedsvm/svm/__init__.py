from .backend import BACKEND_NAME
from .solver import (
    ALPHA_TOL,
    SLACK_TOL,
    BinarySvmModel,
    OvoSvm,
    SvmProblem,
    fit_binary,
    fit_ovo,
    format_diagnostics,
    hyperplane,
    support_vectors_of_class,
    sv_counts,
    verify_logit_bound,
)

__all__ = [
    "ALPHA_TOL",
    "SLACK_TOL",
    "BACKEND_NAME",
    "BinarySvmModel",
    "OvoSvm",
    "SvmProblem",
    "fit_binary",
    "fit_ovo",
    "format_diagnostics",
    "hyperplane",
    "support_vectors_of_class",
    "sv_counts",
    "verify_logit_bound",
]
