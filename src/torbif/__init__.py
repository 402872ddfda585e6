"""Exact equivariant bifurcation indices for symmetric elliptic systems.

The symbolic pipeline runs entirely over arbitrary-precision integers and
rationals: integer lattices and torus subgroups (``intlat``), torus
representations as weight multisets (``torusrep``), the Euler ring of a
torus (``eulerring``), spectral problem data (``spectra``), and the
bifurcation analysis (``bifurcation``), whose one entry point is
``analyze_levels`` -> ``LevelSweep``, beside ``candidate_levels``,
``kernel_rep`` and ``hessian_spectrum``.  ``corroborate`` checks the
predictions numerically on a closed-form circle model, ``oracle`` houses
the randomized verification suites, and ``cli``/``problemfile`` expose the
JSON and command-line surfaces.
"""

from .bifurcation import (
    CandidateLevel,
    LevelAnalysis,
    LevelSweep,
    UnboundednessCertificate,
    Verdict,
    analyze_levels,
    candidate_levels,
    hessian_spectrum,
    kernel_rep,
)
from .errors import ConsistencyError, CutoffError, InputError, RefusalError, TorbifError
from .eulerring import EulerElement, deg_minus_id, lift, star
from .intlat import (
    SmithDecomposition,
    TorusSubgroup,
    contains,
    extend_by_full_torus,
    snf,
    subgroup_canonical,
    subgroup_intersect,
)
from .spectra import (
    LaplaceEigenData,
    MatrixEigenData,
    ProblemSpec,
    ValidationReport,
    flat_torus_spectrum,
    sphere_spectrum,
    validate,
)
from .torusrep import TorusRep, character, direct_sum, tensor

__all__ = [
    "CandidateLevel",
    "ConsistencyError",
    "CutoffError",
    "EulerElement",
    "InputError",
    "LaplaceEigenData",
    "LevelAnalysis",
    "LevelSweep",
    "MatrixEigenData",
    "ProblemSpec",
    "RefusalError",
    "SmithDecomposition",
    "TorbifError",
    "TorusRep",
    "TorusSubgroup",
    "UnboundednessCertificate",
    "ValidationReport",
    "Verdict",
    "analyze_levels",
    "candidate_levels",
    "character",
    "contains",
    "deg_minus_id",
    "direct_sum",
    "extend_by_full_torus",
    "flat_torus_spectrum",
    "hessian_spectrum",
    "kernel_rep",
    "lift",
    "snf",
    "sphere_spectrum",
    "star",
    "subgroup_canonical",
    "subgroup_intersect",
    "tensor",
    "validate",
]
