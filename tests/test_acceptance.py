"""Acceptance gate: the headline guarantees at their stated tolerances.

Each test prints exactly one [PASS]/[FAIL] verdict line straight to the
terminal (capture is suspended for the write, so the line survives plain
`pytest -v`) and then asserts. Criteria that bundle several clauses report
every clause in the detail field.
"""

import sys
import time

import numpy as np
import pytest

from spheremix import storage
from spheremix.baselines import HardPartition, collapse_report, hungarian_match, kmeans_fit, nmi
from spheremix.cli import main as cli_main
from spheremix.distill import (
    FeaturizerSpec,
    PseudoLabeledSet,
    balanced_random_sample,
    build_pseudo_labeled,
    evaluate_student,
    split_dataset,
    train_student,
)
from spheremix.geometry import (
    concentration_check,
    concentration_lower_bound,
    normalize,
    sample_uniform_sphere,
    sample_vmf,
)
from spheremix.gis import GisConfig, gis_score, select_representatives
from spheremix.inference import FitConfig, fit, m_step_kappa, m_step_mu
from spheremix.objective import (
    MixtureParams,
    balance_gradient,
    balance_regularizer,
    empirical_mass,
    objective_value,
    posterior,
    surrogate_value,
)
from spheremix.synth import collapse_stress_corpus, crowded_trio_corpus, make_text_corpus, mixture_means, sample_mixture


_CAPTURE_DISABLER = None


@pytest.fixture(autouse=True)
def _verdict_console(capfd):
    global _CAPTURE_DISABLER
    _CAPTURE_DISABLER = capfd.disabled
    yield
    _CAPTURE_DISABLER = None


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else "")
    if _CAPTURE_DISABLER is not None:
        with _CAPTURE_DISABLER():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert ok, line


def _random_gamma(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


def _random_theta(rng, k, d, kappa_hi=100.0):
    return MixtureParams(
        means=normalize(rng.standard_normal((k, d))),
        kappas=rng.uniform(0.0, kappa_hi, size=k),
    )


def test_monotone_ascent_randomized():
    # 100 randomized fits across sizes, dimensions and regularization
    # strengths; every objective trace must be non-decreasing within 1e-6.
    rng = np.random.default_rng(101)
    lams = [0.0, 10.0, 5000.0]
    worst = np.inf
    t0 = time.monotonic()
    for trial in range(100):
        n = int(rng.integers(3000, 5001)) if trial % 10 == 0 else int(rng.integers(60, 900))
        d = int(rng.integers(3, 65))
        k = int(rng.integers(2, 9))
        if trial % 2:
            kt = int(rng.integers(1, 9))
            means = normalize(rng.standard_normal((kt, d)))
            kappas = rng.uniform(0.5, 300.0, size=kt)
            weights = rng.dirichlet(np.ones(kt))
            X, _ = sample_mixture(n, means, kappas, weights, seed=int(rng.integers(2**31)))
        else:
            X = sample_uniform_sphere(n, d, rng)
        cfg = FitConfig(
            k=k, lam=lams[trial % 3], max_iters=int(rng.integers(5, 31)),
            seed=int(rng.integers(2**31)),
        )
        res = fit(X, cfg)
        if len(res.objective_trace) > 1:
            worst = min(worst, float(np.min(np.diff(res.objective_trace))))
    elapsed = time.monotonic() - t0
    _verdict(
        "monotone ascent over 100 randomized fits",
        worst >= -1e-6 and elapsed < 300.0,
        f"min trace step {worst:.3e} (>= -1e-6), total {elapsed:.1f}s (< 300s)",
    )


def test_surrogate_sandwich():
    # Surrogate <= objective at every probed responsibility matrix and
    # equal at its anchor within 1e-8, over 100 random instances.
    rng = np.random.default_rng(202)
    worst_gap = -np.inf
    worst_anchor = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(2, 11))
        k = int(rng.integers(2, 7))
        lam = float(rng.choice([0.0, 1.0, 50.0, 5000.0]))
        X = normalize(rng.standard_normal((n, d)))
        theta = _random_theta(rng, k, d)
        anchor = _random_gamma(rng, n, k)
        pi_a = empirical_mass(anchor)
        worst_anchor = max(
            worst_anchor,
            abs(surrogate_value(theta, anchor, pi_a, X, lam)
                - objective_value(theta, anchor, X, lam)),
        )
        for _ in range(5):
            probe = _random_gamma(rng, n, k)
            gap = (surrogate_value(theta, probe, pi_a, X, lam)
                   - objective_value(theta, probe, X, lam))
            worst_gap = max(worst_gap, gap)
    _verdict(
        "surrogate sandwich on 100 random instances",
        worst_gap <= 1e-9 and worst_anchor <= 1e-8,
        f"max surrogate-objective gap {worst_gap:.3e} (<= 1e-9), "
        f"max anchor mismatch {worst_anchor:.3e} (<= 1e-8)",
    )


def test_balance_gradient_analytics():
    # Central finite differences within 1e-6 relative; gradient differences
    # have norm exactly lam * ||pi - pi'|| within 1e-10.
    rng = np.random.default_rng(303)
    h = 1e-6
    worst_rel = 0.0
    worst_affine = 0.0
    for lam in (1.0, 37.0, 5000.0):
        for _ in range(40):
            k = int(rng.integers(2, 13))
            pi = rng.dirichlet(np.ones(k))
            g = balance_gradient(pi, lam)
            fd = np.empty(k)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd[i] = (balance_regularizer(pi + e, lam)
                         - balance_regularizer(pi - e, lam)) / (2.0 * h)
            worst_rel = max(worst_rel, float(np.linalg.norm(fd - g))
                            / max(1.0, float(np.linalg.norm(g))))
            pi2 = rng.dirichlet(np.ones(k))
            lhs = float(np.linalg.norm(g - balance_gradient(pi2, lam)))
            worst_affine = max(worst_affine, abs(lhs - lam * float(np.linalg.norm(pi - pi2))))
    _verdict(
        "balance regularizer analytics",
        worst_rel <= 1e-6 and worst_affine <= 1e-10,
        f"max FD relative error {worst_rel:.3e} (<= 1e-6), "
        f"max affine-norm mismatch {worst_affine:.3e} (<= 1e-10)",
    )


def test_mstep_oracle():
    # Concentration round-trip within 5% on a large single-component draw;
    # mean update equals hand-normalized weighted resultants within 1e-9.
    d, kappa, n = 16, 50.0, 100_000
    mu = np.zeros(d)
    mu[0] = 1.0
    X = sample_vmf(mu, kappa, n, seed=404)
    kap_hat = float(m_step_kappa(X.sum(axis=0)[None, :], np.array([float(n)]))[0])
    kap_rel = abs(kap_hat - kappa) / kappa

    rng = np.random.default_rng(405)
    Y = normalize(rng.standard_normal((200, 8)))
    gamma = _random_gamma(rng, 200, 3)
    # The oracle's resultants come from a per-component loop, independent of
    # the matrix product the fit uses.
    r_hand = np.stack([(gamma[:, j][:, None] * Y).sum(axis=0) for j in range(3)])
    mu_err = float(np.max(np.abs(m_step_mu(gamma.T @ Y) - normalize(r_hand))))
    _verdict(
        "closed-form updates vs oracles",
        kap_rel <= 0.05 and mu_err <= 1e-9,
        f"kappa round-trip error {kap_rel:.4f} (<= 0.05), "
        f"mean-update deviation {mu_err:.3e} (<= 1e-9)",
    )


def test_synthetic_recovery_ten_seeds():
    # Three well-separated components (orthogonal means, kappa=100, d=16,
    # n=3000): matched accuracy >= 0.95 and NMI >= 0.85 on all 10 seeds.
    accs, nmis, slowest = [], [], 0.0
    for seed in range(10):
        means = mixture_means(3, 16, seed, arrangement="orthogonal")
        X, y = sample_mixture(3000, means, np.full(3, 100.0), None, seed=seed)
        t0 = time.monotonic()
        res = fit(X, FitConfig(k=3, lam=5000.0, seed=seed))
        slowest = max(slowest, time.monotonic() - t0)
        pred = HardPartition(labels=res.hard_labels, k=3).validate()
        truth = HardPartition(labels=y, k=3).validate()
        accs.append(hungarian_match(pred, truth)[1])
        nmis.append(nmi(pred, truth))
    _verdict(
        "synthetic recovery over 10 seeds",
        min(accs) >= 0.95 and min(nmis) >= 0.85 and slowest < 60.0,
        f"min accuracy {min(accs):.3f} (>= 0.95), min NMI {min(nmis):.3f} (>= 0.85), "
        f"slowest fit {slowest:.1f}s (< 60s)",
    )


def test_collapse_mitigation_ordering():
    # On the anisotropy-stressed corpus the mean hard balance deviation must
    # order regularized <= unregularized <= k-means over 10 seeds, and the
    # lam sweep {0, 1e2, 1e4, 1e6} must not increase the soft deviation.
    b_gem, b_van, b_km = [], [], []
    for seed in range(10):
        X, _ = collapse_stress_corpus(1000, 8, 16, seed=seed)
        for lam, sink in ((5000.0, b_gem), (0.0, b_van)):
            res = fit(X, FitConfig(k=8, lam=lam, seed=seed))
            hard = HardPartition(labels=res.hard_labels, k=8).validate()
            sink.append(collapse_report(hard).balance_l2)
        b_km.append(collapse_report(kmeans_fit(X, 8, seed=seed)).balance_l2)
    m_gem, m_van, m_km = np.mean(b_gem), np.mean(b_van), np.mean(b_km)
    ordering_ok = m_gem <= m_van <= m_km

    sweep_ok = True
    for seed in range(3):
        X, _ = collapse_stress_corpus(300, 8, 16, seed=seed)
        devs = []
        for lam in (0.0, 1e2, 1e4, 1e6):
            res = fit(X, FitConfig(k=8, lam=lam, seed=seed))
            devs.append(float(np.linalg.norm(empirical_mass(res.gamma) - 1.0 / 8)))
        sweep_ok = sweep_ok and all(
            devs[i + 1] <= devs[i] + 1e-3 for i in range(len(devs) - 1)
        )
    _verdict(
        "collapse mitigation ordering and lam sweep",
        ordering_ok and sweep_ok,
        f"mean balance_l2 {m_gem:.3f} <= {m_van:.3f} <= {m_km:.3f}, "
        f"sweep monotone {sweep_ok}",
    )


def _brute_force_reps(X, gamma, theta, cfg):
    hard = gamma.argmax(axis=1)
    per_cluster = []
    for c in range(gamma.shape[1]):
        members = np.flatnonzero(hard == c)
        scored = []
        for i in members:
            others = members[members != i]
            if others.size == 0:
                rho = 0.0
            else:
                cos = np.sort(X[others] @ X[i])[::-1]
                rho = float(np.mean(cos[: min(cfg.m_neighbors, cos.size)]))
            scored.append((gis_score(int(i), c, X, gamma, theta, rho, cfg), int(i)))
        scored.sort(key=lambda t: (-t[0], t[1]))
        per_cluster.append([i for _, i in scored[: cfg.s]])
    return per_cluster


def test_representative_selection_guarantees():
    # (a) equals the brute-force oracle on random instances up to n=200,
    # (b) within-cluster ranking unchanged by per-cluster additive shifts,
    # (c) pure-noise points never reach the top-S on >= 18 of 20 seeds.
    rng = np.random.default_rng(707)
    brute_ok = True
    for _ in range(10):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, 6))
        X = normalize(rng.standard_normal((n, d)))
        theta = _random_theta(rng, k, d, kappa_hi=40.0)
        gamma = posterior(theta, X)
        cfg = GisConfig(
            beta=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            m_neighbors=int(rng.integers(2, 21)),
            s=int(rng.integers(1, 8)),
        )
        reps = select_representatives(X, gamma, theta, cfg)
        want = _brute_force_reps(X, gamma, theta, cfg)
        brute_ok = brute_ok and all(
            list(map(int, reps.indices[c])) == want[c] for c in range(k)
        )

    # additive shifts: rank members by raw score and by score + per-cluster c
    X = normalize(rng.standard_normal((120, 6)))
    theta = _random_theta(rng, 3, 6)
    gamma = posterior(theta, X)
    cfg = GisConfig()
    hard = gamma.argmax(axis=1)
    shift_ok = True
    for c in range(3):
        members = np.flatnonzero(hard == c)
        scores = np.array([
            gis_score(int(i), c, X, gamma, theta, 0.3, cfg) for i in members
        ])
        const = float(rng.normal(scale=50.0))
        shift_ok = shift_ok and np.array_equal(
            np.argsort(-scores, kind="stable"), np.argsort(-(scores + const), kind="stable")
        )

    clean_runs = 0
    for seed in range(20):
        srng = np.random.default_rng(seed)
        means = mixture_means(3, 16, seed, arrangement="orthogonal")
        parts = [sample_vmf(means[c], 100.0, 300, seed=1000 + 3 * seed + c) for c in range(3)]
        noise = sample_uniform_sphere(45, 16, srng)
        Xn = np.vstack(parts + [noise])
        theta = MixtureParams(means=means, kappas=np.full(3, 100.0))
        gam = posterior(theta, Xn)
        reps = select_representatives(Xn, gam, theta, GisConfig(s=16))
        if all(int(ix.max()) < 900 for ix in reps.indices if ix.size):
            clean_runs += 1
    _verdict(
        "representative selection guarantees",
        brute_ok and shift_ok and clean_runs >= 18,
        f"brute-force match {brute_ok}, shift invariance {shift_ok}, "
        f"noise-free top-S on {clean_runs}/20 seeds (>= 18)",
    )


def _student_heldout_accuracy(ds, seed):
    train, _, test = split_dataset(ds, seed=seed)
    model = train_student(
        train, epochs=10, lr=0.5, seed=seed, spec=FeaturizerSpec(buckets=1 << 15)
    )
    return evaluate_student(model, test)[0]


def test_distillation_teacher_ordering():
    # Students distilled from the balance-regularized teacher must beat
    # k-means-teacher students on held-out pseudo-labels (10-seed mean) and
    # clear 0.90 absolute on a linearly separable toy corpus.
    gem_accs, km_accs = [], []
    for seed in range(10):
        X, y = crowded_trio_corpus(2400, 16, seed)
        texts = make_text_corpus(y, 6, seed=seed)
        res = fit(X, FitConfig(k=6, lam=5000.0, seed=seed))
        ds_gem = build_pseudo_labeled(
            res.theta, res.gamma, X, texts, 150, GisConfig(), seed=seed
        )
        gem_accs.append(_student_heldout_accuracy(ds_gem, seed))
        km = kmeans_fit(X, 6, seed=seed)
        ds_km = balanced_random_sample(km.labels, texts, 6, 150, seed=seed)
        km_accs.append(_student_heldout_accuracy(ds_km, seed))
    mean_gem, mean_km = float(np.mean(gem_accs)), float(np.mean(km_accs))

    rng = np.random.default_rng(808)
    vocab = [["alpha", "rocket", "sky", "orbit"], ["beta", "ocean", "wave", "reef"]]
    texts, labels = [], []
    for c in range(2):
        for _ in range(100):
            texts.append(" ".join(rng.choice(vocab[c], size=8)))
            labels.append(c)
    order = rng.permutation(200)
    toy = PseudoLabeledSet(
        texts=[texts[i] for i in order],
        labels=np.asarray(labels)[order],
        source_ids=order.astype(np.int64),
        k=2,
    ).validate()
    toy_acc = _student_heldout_accuracy(toy, seed=0)
    _verdict(
        "distillation teacher ordering",
        mean_gem >= mean_km and toy_acc >= 0.90,
        f"held-out mean {mean_gem:.3f} (regularized) >= {mean_km:.3f} (k-means), "
        f"separable toy {toy_acc:.3f} (>= 0.90)",
    )


def test_cap_mass_lower_bound():
    # Empirical band mass P(|<x, e1>| <= eps) beats the analytic lower
    # bound (with finite-sample slack) on all three pinned cells.
    cells = [(4, 0.5), (64, 0.3), (1024, 0.2)]
    n = 100_000
    margins = []
    ok = True
    for d, eps in cells:
        frac = concentration_check(d, eps, n, seed=909)
        bound = concentration_lower_bound(d, eps, n)
        margins.append(f"d={d}: {frac:.4f} >= {bound:.4f}")
        ok = ok and frac >= bound
    _verdict("uniform cap-mass lower bound", ok, "; ".join(margins))


def test_cli_determinism_and_round_trips(tmp_path, capfd):
    # Seeded CLI reruns are byte-identical in deterministic mode and every
    # file format round-trips bit-exact.
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        capfd.readouterr()
        return code

    repro_ok = True
    for sub in ("a", "b"):
        base = tmp_path / sub
        base.mkdir()
        assert run("synth", "--output", base / "emb.bin", "--labels-output",
                   base / "truth.txt", "--n", 400, "--components", 3,
                   "--seed", 7, "--deterministic") == 0
        assert run("fit", "--input", base / "emb.bin", "--output", base / "model.json",
                   "--k", 3, "--seed", 7, "--deterministic") == 0
        assert run("gis", "--input", base / "emb.bin", "--model", base / "model.json",
                   "--output", base / "reps.tsv", "--seed", 7, "--deterministic") == 0
    for name in ("emb.bin", "truth.txt", "model.json", "model.json.trace.csv", "reps.tsv"):
        repro_ok = repro_ok and (
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        )

    rng = np.random.default_rng(1010)
    X32 = rng.standard_normal((31, 7)).astype(np.float32)
    storage.write_embeddings(X32, tmp_path / "rt.bin")
    emb_ok = np.array_equal(storage.read_embeddings(tmp_path / "rt.bin"), X32.astype(np.float64))

    theta = MixtureParams(
        means=normalize(rng.standard_normal((3, 5))),
        kappas=np.array([np.nextafter(50.0, 51.0), 1e-12, 873.25]),
    )
    storage.save_model(tmp_path / "rt.json", theta, lam=0.1 + 0.2, meta={"seed": 1})
    back, lam, _ = storage.load_model(tmp_path / "rt.json")
    model_ok = (
        np.array_equal(back.means, theta.means)
        and np.array_equal(back.kappas, theta.kappas)
        and lam == 0.1 + 0.2
    )

    from spheremix.distill import StudentModel

    student = StudentModel(
        weights=rng.standard_normal((1 << 10, 4)).astype(np.float32),
        bias=rng.standard_normal(4).astype(np.float32),
        featurizer=FeaturizerSpec(buckets=1 << 10, ngram_max=2, hash_seed=3),
    )
    storage.save_student(tmp_path / "rt.student", student)
    sback = storage.load_student(tmp_path / "rt.student")
    student_ok = (
        np.array_equal(sback.weights, student.weights)
        and np.array_equal(sback.bias, student.bias)
        and sback.featurizer == student.featurizer
    )

    nasty = ["tab\there", "new\nline", "back\\slash", "", "plain"]
    storage.write_dataset_tsv(tmp_path / "rt.tsv", np.arange(5) % 2, nasty)
    lab_back, txt_back = storage.read_dataset_tsv(tmp_path / "rt.tsv")
    tsv_ok = np.array_equal(lab_back, np.arange(5) % 2) and txt_back == nasty

    _verdict(
        "CLI determinism and format round-trips",
        repro_ok and emb_ok and model_ok and student_ok and tsv_ok,
        f"reruns byte-identical {repro_ok}, embeddings {emb_ok}, model {model_ok}, "
        f"student {student_ok}, dataset TSV {tsv_ok}",
    )
