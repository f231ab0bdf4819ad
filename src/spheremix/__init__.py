"""Balance-regularized spherical mixture clustering toolkit.

Clusters unit-norm embeddings with a von Mises-Fisher mixture whose soft
assignments are pushed toward uniform cluster mass, selects influential
per-cluster representatives, and distills the fitted partition into a
hashed n-gram linear text classifier.

BLAS reads its thread count once, when numpy first loads, so the cap
(GEM_THREADS, or 1 under --deterministic on the command line) is applied
here, before any submodule imports numpy. The public names below resolve
on first use (PEP 562), so importing one submodule loads only what that
submodule imports.
"""

import importlib
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

__version__ = "0.1.0"

# Each submodule and the public names the package root lends from it.
_EXPORTS = {
    "baselines": (
        "ClusterMetrics", "HardPartition", "collapse_report", "hungarian_match",
        "kmeans_fit", "nmi",
    ),
    "distill": (
        "FeaturizerSpec", "PseudoLabeledSet", "StudentModel", "build_pseudo_labeled",
        "evaluate_student", "featurize", "predict_student", "split_dataset",
        "train_student",
    ),
    "errors": ("SphereMixError",),
    "geometry": (
        "KAPPA_MAX", "concentration_check", "concentration_lower_bound",
        "log_bessel_i", "normalize", "sample_vmf", "vmf_log_density",
    ),
    "gis": (
        "GisConfig", "RepresentativeSet", "export_taxonomy_prompts", "gis_score",
        "local_density", "parse_taxonomy_prompt", "select_representatives",
    ),
    "inference": (
        "FitConfig", "FitResult", "e_step", "fit", "init_spherical_kmeans",
        "m_step_kappa", "m_step_mu",
    ),
    "objective": (
        "MixtureParams", "balance_gradient", "balance_regularizer", "empirical_mass",
        "objective_value", "posterior", "surrogate_value",
    ),
    "synth": (
        "collapse_stress_corpus", "crowded_trio_corpus", "make_text_corpus",
        "mixture_means", "sample_mixture",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's submodule on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
