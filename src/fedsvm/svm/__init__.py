from .backend import BACKEND_NAME
from .solver import (
    ALPHA_TOL,
    BinarySvmModel,
    OvoSvm,
    SvmProblem,
    class_pairs,
    fit_binary,
    fit_ovo,
    fit_round,
    format_diagnostics,
)

__all__ = [
    "ALPHA_TOL",
    "BACKEND_NAME",
    "BinarySvmModel",
    "OvoSvm",
    "SvmProblem",
    "class_pairs",
    "fit_binary",
    "fit_ovo",
    "fit_round",
    "format_diagnostics",
]
