"""Command-line pipeline: synth, fit, assign, gis, distill, eval, sweep.

Every command takes one master seed and splits it per subsystem, reads and
writes the documented file formats, and prints metrics as key<TAB>value
lines. Usage mistakes exit 2 (argparse); data problems exit 1; success 0.

The GEM_THREADS environment variable caps BLAS worker threads; the
--deterministic flag pins them to 1 so outputs are bit-reproducible across
machines. The package applies the cap when it is imported, before numpy
loads; main() re-reads GEM_THREADS and reports a malformed value.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import _cap_threads, storage
from .baselines import HardPartition, collapse_report, hungarian_match, nmi
from .distill import (
    DEFAULT_BUCKETS,
    DEFAULT_EPOCHS,
    DEFAULT_LR,
    FeaturizerSpec,
    build_pseudo_labeled,
    evaluate_student,
    split_dataset,
    train_student,
)
from .errors import MissingDocumentError, SphereMixError
from .gis import GisConfig, export_taxonomy_prompts, select_representatives
from .inference import FitConfig, FitResult, fit
from .objective import MixtureParams, empirical_mass, posterior
from .synth import make_text_corpus, mixture_means, sample_mixture

# The library's defaults, which the flags of the same name take.
_FIT, _GIS = FitConfig(), GisConfig()


def _child_seeds(master: int, n: int) -> list[int]:
    """Deterministic per-subsystem seeds split from one master seed."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(master).spawn(n)]


def _print_kv(key: str, value) -> None:
    if isinstance(value, float):
        value = repr(float(value))  # plain-float repr even for numpy scalars
    sys.stdout.write(f"{key}\t{value}\n")


def _subsample(rng_seed: int, n: int, fraction: float):
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"--seed-fraction must lie in (0, 1], got {fraction}")
    if fraction == 1.0:
        return np.arange(n)
    m = max(1, int(round(fraction * n)))
    rows = np.random.default_rng(rng_seed).choice(n, size=m, replace=False)
    return np.sort(rows)


def _solver_input(args) -> tuple[np.ndarray, np.ndarray, FitConfig]:
    """The rows `fit` and `sweep` cluster: the --input embeddings, subsampled
    by --seed-fraction. Returns them, their row indices, and the FitConfig
    of the solver flags (k and lambda left at their defaults)."""
    X = storage.read_embeddings(args.input)
    seed_init, seed_sub = _child_seeds(args.seed, 2)
    rows = _subsample(seed_sub, X.shape[0], args.seed_fraction)
    cfg = FitConfig(max_iters=args.max_iters, stop_tol=args.stop_tol, seed=seed_init)
    return (X if rows.size == X.shape[0] else X[rows]), rows, cfg


def _fit_partition(result: FitResult, X: np.ndarray) -> HardPartition:
    """The hard labels of a fit, as `assign` reproduces them from the saved
    model: the argmax of theta's posterior, not of the balance-shifted
    gamma."""
    labels = posterior(result.theta, X).argmax(axis=1)
    return HardPartition(labels=labels, k=result.theta.k).validate()


def _teacher(args) -> tuple[np.ndarray, MixtureParams, np.ndarray]:
    """The --input embeddings, the --model mixture and its posterior."""
    X = storage.read_embeddings(args.input)
    theta, _, _ = storage.load_model(args.model)
    return X, theta, posterior(theta, X)


def cmd_fit(args) -> int:
    X, _, cfg = _solver_input(args)
    cfg = dataclasses.replace(cfg, k=args.k, lam=args.lam)
    result = fit(X, cfg)

    meta = {
        "iters_run": result.iters_run,
        "converged": result.converged,
        "final_objective": float(result.objective_trace[-1]),
        "seed": args.seed,
        "n": int(X.shape[0]),
        "config": storage.config_echo(cfg),
    }
    storage.save_model(args.output, result.theta, cfg.lam, meta)

    trace_path = args.trace or (str(args.output) + ".trace.csv")
    lines = ["iteration,objective\n"]
    lines += [f"{t},{float(v)!r}\n" for t, v in enumerate(result.objective_trace)]
    storage.atomic_write_text(trace_path, "".join(lines))

    pi = empirical_mass(result.gamma)
    report = collapse_report(_fit_partition(result, X))
    for key, value in storage.config_echo(cfg).items():
        _print_kv(f"config.{key}", value)
    _print_kv("n", X.shape[0])
    _print_kv("iters_run", result.iters_run)
    _print_kv("converged", int(result.converged))
    _print_kv("final_objective", float(result.objective_trace[-1]))
    _print_kv("balance_l2_soft", float(np.linalg.norm(pi - 1.0 / cfg.k)))
    _print_kv("balance_l2", report.balance_l2)
    _print_kv("max_share", report.max_share)
    return 0


def cmd_assign(args) -> int:
    X, theta, gamma = _teacher(args)
    labels = gamma.argmax(axis=1).tolist()
    probs = gamma.max(axis=1).tolist()  # each row's value at its label
    lines = [f"{i}\t{label}\t{prob!r}\n" for i, (label, prob) in enumerate(zip(labels, probs))]
    storage.atomic_write_text(args.output, "".join(lines))
    _print_kv("n", X.shape[0])
    _print_kv("k", theta.k)
    return 0


def cmd_gis(args) -> int:
    # Inputs are checked before the selection, so a bad one writes nothing.
    if args.prompt_dir is not None and args.texts is None:
        raise ValueError("--prompt-dir requires --texts")
    X, theta, gamma = _teacher(args)
    texts = None
    if args.prompt_dir is not None:
        texts = storage.read_texts(args.texts)
        if len(texts) != X.shape[0]:
            raise MissingDocumentError(f"{X.shape[0]} embeddings but {len(texts)} documents")
    cfg = GisConfig(beta=args.gis_beta, m_neighbors=args.gis_m, s=args.gis_s)
    reps = select_representatives(X, gamma, theta, cfg)

    lines = ["cluster\tindex\tscore\n"]
    for k in range(reps.k):
        for i, s in zip(reps.indices[k], reps.scores[k]):
            lines.append(f"{k}\t{int(i)}\t{float(s)!r}\n")
    storage.atomic_write_text(args.output, "".join(lines))

    if texts is not None:
        written = export_taxonomy_prompts(reps, texts, args.prompt_dir)
        _print_kv("prompts_written", len(written))
    _print_kv("clusters", reps.k)
    _print_kv("selected", sum(int(ix.size) for ix in reps.indices))
    return 0


def cmd_distill(args) -> int:
    X, theta, gamma = _teacher(args)
    texts = storage.read_texts(args.texts)
    seed_shuffle, seed_split, seed_train = _child_seeds(args.seed, 3)

    ds = build_pseudo_labeled(
        theta, gamma, X, texts, args.distill_m,
        GisConfig(beta=args.gis_beta, m_neighbors=args.gis_m),
        seed=seed_shuffle,
    )
    train, val, test = split_dataset(ds, seed=seed_split)
    spec = FeaturizerSpec(buckets=args.buckets, hash_seed=args.seed % 2**32)
    model = train_student(train, epochs=args.epochs, lr=args.lr, seed=seed_train, spec=spec)
    # Written only once training has accepted its flags, so a bad one
    # writes nothing; the student first, which save_student may refuse.
    storage.save_student(args.output, model)
    if args.dataset is not None:
        storage.write_dataset_tsv(args.dataset, ds.labels, ds.texts)

    _print_kv("train_size", len(train))
    _print_kv("val_size", len(val))
    _print_kv("test_size", len(test))
    _print_kv("final_train_loss", float(model.loss_trace[-1]))
    if len(val):
        acc, _ = evaluate_student(model, val)
        _print_kv("val_accuracy", acc)
    if len(test):
        acc, _ = evaluate_student(model, test)
        _print_kv("test_accuracy", acc)
    return 0


def _load_partition(path, k=None):
    labels = storage.read_labels(path)
    inferred = int(labels.max()) + 1 if labels.size else 1
    return HardPartition(labels=labels, k=inferred if k is None else k).validate()


def cmd_eval(args) -> int:
    if args.pred is None:
        raise ValueError("--pred is required (labels file to evaluate)")
    pred = _load_partition(args.pred, args.k)
    report = collapse_report(pred)
    _print_kv("k", pred.k)
    _print_kv("n", pred.labels.size)
    _print_kv("balance_l2", report.balance_l2)
    _print_kv("max_share", report.max_share)
    if args.truth is not None:
        truth = _load_partition(args.truth)
        _print_kv("nmi", nmi(pred, truth))
        _print_kv("matched_accuracy", hungarian_match(pred, truth)[1])
    return 0


def cmd_synth(args) -> int:
    seed_means, seed_mix, seed_text = _child_seeds(args.seed, 3)
    means = mixture_means(args.components, args.d, seed_means, args.arrangement)
    kappas = np.full(args.components, args.kappa)
    weights = None
    if args.weights is not None:
        weights = np.array([float(w) for w in args.weights.split(",")])
    X, labels = sample_mixture(args.n, means, kappas, weights, seed=seed_mix)
    # The documents are made before any file is written, so a bad flag
    # writes nothing.
    texts = None
    if args.texts_output is not None:
        texts = make_text_corpus(
            labels, args.components, seed=seed_text,
            noise_rate=args.noise_rate, doc_len=args.doc_len,
        )
    storage.write_embeddings(X, args.output, normalized=True)
    if args.labels_output is not None:
        storage.write_labels(args.labels_output, labels)
    if texts is not None:
        storage.write_texts(args.texts_output, texts)
    _print_kv("n", args.n)
    _print_kv("d", args.d)
    _print_kv("components", args.components)
    return 0


def cmd_sweep(args) -> int:
    X, rows, base = _solver_input(args)
    truth = None
    if args.truth is not None:
        full = _load_partition(args.truth)
        truth = HardPartition(labels=full.labels[rows], k=full.k).validate()

    # Every cell is checked before the first fit, so a bad cell fails the
    # command before it prints a row.
    grid = [
        dataclasses.replace(base, k=int(k), lam=float(lam)).validate(X.shape[0])
        for k in args.k_list.split(",")
        for lam in args.lambda_list.split(",")
    ]
    cols = ["k", "lambda", "iters", "converged", "final_objective",
            "balance_l2", "hard_balance_l2", "max_share"]
    if truth is not None:
        cols += ["nmi", "matched_accuracy"]
    lines = ["\t".join(cols) + "\n"]
    for cfg in grid:
        result = fit(X, cfg)
        pi = empirical_mass(result.gamma)
        hard = _fit_partition(result, X)
        report = collapse_report(hard)
        row = [
            str(cfg.k), repr(cfg.lam), str(result.iters_run),
            str(int(result.converged)),
            repr(float(result.objective_trace[-1])),
            repr(float(np.linalg.norm(pi - 1.0 / cfg.k))),
            repr(report.balance_l2), repr(report.max_share),
        ]
        if truth is not None:
            row += [repr(nmi(hard, truth)), repr(hungarian_match(hard, truth)[1])]
        lines.append("\t".join(row) + "\n")
        sys.stdout.write(lines[-1])
    storage.atomic_write_text(args.output, "".join(lines))
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=_FIT.max_iters)
    p.add_argument("--stop-tol", type=float, default=None,
                   help="absolute objective-change tolerance (default 1e-4 * n)")


def _add_teacher_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="embedding file (GEMEMB1)")
    p.add_argument("--model", required=True, help="model file (JSON)")


def _add_gis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gis-beta", type=float, default=_GIS.beta,
                   help="weight of the local-support term")
    p.add_argument("--gis-m", type=int, default=_GIS.m_neighbors,
                   help="neighbors for local support")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed for this command")
    p.add_argument("--deterministic", action="store_true",
                   help="pin worker threads to 1 for bit-reproducible output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremix",
        description="Balance-regularized spherical mixture clustering pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the mixture on an embedding file")
    p.add_argument("--input", required=True, help="embedding file (GEMEMB1)")
    p.add_argument("--output", required=True, help="model file to write (JSON)")
    p.add_argument("--trace", default=None, help="objective trace CSV (default <output>.trace.csv)")
    p.add_argument("--seed-fraction", type=float, default=1.0,
                   help="subsample this fraction of rows before fitting")
    p.add_argument("--k", type=int, default=_FIT.k, help="number of clusters")
    p.add_argument("--lambda", dest="lam", type=float, default=_FIT.lam,
                   help="balance regularization strength")
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("assign", help="posterior-assign points under a fitted model")
    _add_teacher_flags(p)
    p.add_argument("--output", required=True, help="TSV: index, label, probability")
    _add_common(p)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("gis", help="select cluster representatives; optionally export prompts")
    _add_teacher_flags(p)
    p.add_argument("--output", required=True, help="TSV: cluster, index, score")
    p.add_argument("--texts", default=None, help="escaped text file, one document per line")
    p.add_argument("--prompt-dir", default=None, help="directory for cluster_*.prompt.txt")
    _add_gis_flags(p)
    p.add_argument("--gis-s", type=int, default=_GIS.s, help="representatives per cluster")
    _add_common(p)
    p.set_defaults(func=cmd_gis)

    p = sub.add_parser("distill", help="train the hashed n-gram student from teacher labels")
    _add_teacher_flags(p)
    p.add_argument("--texts", required=True)
    p.add_argument("--output", required=True, help="student model file (GEMSTU1)")
    p.add_argument("--dataset", default=None, help="optional pseudo-labeled TSV dump")
    p.add_argument("--distill-m", type=int, default=5000, help="samples per cluster")
    _add_gis_flags(p)
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--buckets", type=int, default=DEFAULT_BUCKETS)
    _add_common(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", help="partition metrics (optionally against truth labels)")
    p.add_argument("--pred", required=True, help="labels, one per line, or assign's TSV")
    p.add_argument("--truth", default=None, help="reference labels file")
    p.add_argument("--k", type=int, default=None, help="cluster count (default max label + 1)")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic mixture (and optional text corpus)")
    p.add_argument("--output", required=True, help="embedding file to write")
    p.add_argument("--labels-output", default=None)
    p.add_argument("--texts-output", default=None)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--kappa", type=float, default=100.0)
    p.add_argument("--weights", default=None, help="comma-separated component weights")
    p.add_argument("--arrangement", choices=("orthogonal", "random"), default="orthogonal")
    p.add_argument("--noise-rate", type=float, default=0.3)
    p.add_argument("--doc-len", type=int, default=30)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="grid of fits over K and lambda; one metrics row per cell")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="TSV of per-cell metrics")
    p.add_argument("--truth", default=None)
    p.add_argument("--k-list", default="12,24,48")
    p.add_argument("--lambda-list", default="0,1000,5000,10000")
    p.add_argument("--seed-fraction", type=float, default=1.0)
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        _cap_threads(argv)
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # data/config errors: categorized, exit 1
        kind = "data error" if isinstance(exc, SphereMixError) else type(exc).__name__
        print(f"spheremix: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
