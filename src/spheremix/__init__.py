"""Balance-regularized spherical mixture clustering toolkit.

Clusters unit-norm embeddings with a von Mises-Fisher mixture whose soft
assignments are pushed toward uniform cluster mass, selects influential
per-cluster representatives, and distills the fitted partition into a
hashed n-gram linear text classifier.

BLAS reads its thread count once, when numpy first loads, so the cap
(GEM_THREADS, or 1 under --deterministic on the command line) is applied
here, before any submodule imports numpy.
"""

import os
import sys

from .errors import SphereMixError

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cap_threads(argv: list[str]) -> None:
    """Set the BLAS thread variables: 1 under --deterministic, else
    GEM_THREADS; leaves them alone when neither is given."""
    env = os.environ.get("GEM_THREADS")
    n = None
    if env is not None:
        n = int(env) if env.strip().isdecimal() else 0
        if n < 1:
            raise SphereMixError(f"GEM_THREADS must be a positive integer, got {env!r}")
    if "--deterministic" in argv:
        n = 1
    if n is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


try:
    _cap_threads(sys.argv[1:])
except SphereMixError:
    pass  # leaves the environment alone; the CLI's main() reports the error

from .baselines import (
    ClusterMetrics,
    HardPartition,
    collapse_report,
    hungarian_match,
    kmeans_fit,
    nmi,
    spherical_kmeans_fit,
)
from .distill import (
    FeaturizerSpec,
    PseudoLabeledSet,
    StudentModel,
    build_pseudo_labeled,
    evaluate_student,
    featurize,
    predict_student,
    split_dataset,
    train_student,
)
from .errors import SphereMixError
from .geometry import (
    KAPPA_MAX,
    concentration_check,
    concentration_lower_bound,
    log_bessel_i,
    normalize,
    sample_vmf,
    vmf_log_density,
)
from .gis import (
    GisConfig,
    RepresentativeSet,
    export_taxonomy_prompts,
    gis_score,
    local_density,
    parse_taxonomy_prompt,
    select_representatives,
)
from .inference import (
    FitConfig,
    FitResult,
    assign,
    e_step,
    fit,
    init_spherical_kmeans,
    m_step_kappa,
    m_step_mu,
)
from .objective import (
    MixtureParams,
    balance_gradient,
    balance_regularizer,
    empirical_mass,
    log_marginal,
    objective_value,
    posterior,
    row_entropy,
    surrogate_value,
)
from .synth import (
    collapse_stress_corpus,
    crowded_trio_corpus,
    make_text_corpus,
    mixture_means,
    sample_mixture,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterMetrics",
    "FeaturizerSpec",
    "FitConfig",
    "FitResult",
    "GisConfig",
    "HardPartition",
    "KAPPA_MAX",
    "MixtureParams",
    "PseudoLabeledSet",
    "RepresentativeSet",
    "SphereMixError",
    "StudentModel",
    "assign",
    "balance_gradient",
    "balance_regularizer",
    "build_pseudo_labeled",
    "collapse_report",
    "collapse_stress_corpus",
    "concentration_check",
    "concentration_lower_bound",
    "crowded_trio_corpus",
    "e_step",
    "empirical_mass",
    "evaluate_student",
    "export_taxonomy_prompts",
    "featurize",
    "fit",
    "gis_score",
    "hungarian_match",
    "init_spherical_kmeans",
    "kmeans_fit",
    "local_density",
    "log_bessel_i",
    "log_marginal",
    "m_step_kappa",
    "m_step_mu",
    "make_text_corpus",
    "mixture_means",
    "nmi",
    "normalize",
    "objective_value",
    "parse_taxonomy_prompt",
    "posterior",
    "predict_student",
    "row_entropy",
    "sample_mixture",
    "sample_vmf",
    "select_representatives",
    "spherical_kmeans_fit",
    "split_dataset",
    "surrogate_value",
    "train_student",
    "vmf_log_density",
]
