"""Pseudo-label curation, hashed n-gram featurizer, student training."""

import numpy as np
import pytest

from conftest import traced_peak
from spheremix.distill import (
    FeaturizerSpec,
    PseudoLabeledSet,
    balanced_random_sample,
    build_pseudo_labeled,
    evaluate_student,
    featurize,
    predict_student,
    split_dataset,
    train_student,
)
from spheremix.errors import (
    DivergedError,
    EmptySetError,
    MissingDocumentError,
    SingleClassError,
    SizeMismatchError,
)
from spheremix.gis import GisConfig, select_representatives
from spheremix.objective import MixtureParams, posterior
from spheremix.synth import make_text_corpus, mixture_means, sample_mixture

SMALL_SPEC = FeaturizerSpec(buckets=1 << 15)


def toy_dataset(n_per_class=40, k=2, seed=0):
    """Linearly separable toy: disjoint per-class vocabularies."""
    vocab = [["alpha", "rocket", "sky", "orbit"], ["beta", "ocean", "wave", "reef"],
             ["gamma", "forest", "moss", "fern"], ["delta", "desert", "dune", "sand"]][:k]
    rng = np.random.default_rng(seed)
    texts, labels = [], []
    for c in range(k):
        for _ in range(n_per_class):
            words = rng.choice(vocab[c], size=8)
            texts.append(" ".join(words))
            labels.append(c)
    order = rng.permutation(len(texts))
    return PseudoLabeledSet(
        texts=[texts[i] for i in order],
        labels=np.asarray(labels)[order],
        source_ids=order.astype(np.int64),
        k=k,
    ).validate()


class TestFeaturizerSpec:
    @pytest.mark.parametrize("buckets", [1, 2**32 - 1])
    def test_buckets_that_fit_a_u32(self, buckets):
        assert FeaturizerSpec(buckets=buckets).validate().buckets == buckets

    @pytest.mark.parametrize("buckets", [0, 2**32, 2**40])
    def test_buckets_past_a_u32_rejected(self, buckets):
        # GEMSTU1 stores buckets as a u32; validate() runs before training
        # allocates the (buckets, k) weights.
        with pytest.raises(ValueError, match=r"buckets must lie in \[1, 2\^32\)"):
            FeaturizerSpec(buckets=buckets).validate()


class TestFeaturize:
    def test_empty_text(self):
        assert featurize("", SMALL_SPEC) == {}
        assert featurize("   ", SMALL_SPEC) == {}

    def test_two_tokens_three_features(self):
        f = featurize("a b", SMALL_SPEC)
        assert len(f) == 3  # a, b, a_b (no collisions at this scale)

    def test_unigrams_only(self):
        f = featurize("a b", FeaturizerSpec(buckets=1 << 15, ngram_max=1))
        assert len(f) == 2

    def test_deterministic(self):
        assert featurize("same doc twice", SMALL_SPEC) == featurize("same doc twice", SMALL_SPEC)

    def test_seed_changes_buckets(self):
        a = featurize("salt pepper", FeaturizerSpec(buckets=1 << 15, hash_seed=0))
        b = featurize("salt pepper", FeaturizerSpec(buckets=1 << 15, hash_seed=1))
        assert set(a) != set(b)

    def test_l2_normalized(self):
        f = featurize("x y z x", SMALL_SPEC)
        assert sum(v * v for v in f.values()) == pytest.approx(1.0)

    def test_case_and_whitespace_folding(self):
        assert featurize("Apple  PIE", SMALL_SPEC) == featurize("apple pie", SMALL_SPEC)

    def test_counts_accumulate(self):
        # "a a b": unigrams a(x2), b; bigrams a_a, a_b -> norm sqrt(7)
        f = featurize("a a b", SMALL_SPEC)
        vals = sorted(f.values(), reverse=True)
        assert vals == pytest.approx([2 / np.sqrt(7), 1 / np.sqrt(7), 1 / np.sqrt(7), 1 / np.sqrt(7)])


class TestPseudoLabeledSet:
    def test_class_counts(self):
        ds = toy_dataset(n_per_class=5, k=2)
        np.testing.assert_array_equal(ds.class_counts, [5, 5])

    def test_duplicate_records_rejected(self):
        with pytest.raises(ValueError):
            PseudoLabeledSet(
                texts=["x", "x"],
                labels=np.array([0, 0]),
                source_ids=np.array([3, 3]),
                k=1,
            ).validate()

    def test_parallel_length_check(self):
        with pytest.raises(SizeMismatchError):
            PseudoLabeledSet(
                texts=["x"], labels=np.array([0, 1]), source_ids=np.array([0, 1]), k=2
            ).validate()


class TestBuildPseudoLabeled:
    def setup_method(self):
        k, d, n = 3, 8, 120
        means = mixture_means(k, d, 0, arrangement="orthogonal")
        self.X, self.hard = sample_mixture(n, means, np.full(k, 80.0), np.full(k, 1 / 3), 0)
        self.texts = make_text_corpus(self.hard, k, seed=0)
        self.theta = MixtureParams(means=means, kappas=np.full(k, 80.0))
        self.gamma = posterior(self.theta, self.X)

    def test_large_m_includes_everything_once(self):
        ds = build_pseudo_labeled(
            self.theta, self.gamma, self.X, self.texts, m_distill=10_000, gis_cfg=GisConfig()
        )
        np.testing.assert_array_equal(np.sort(ds.source_ids), np.arange(len(self.texts)))

    def test_m_one_is_per_cluster_argmax(self):
        ds = build_pseudo_labeled(
            self.theta, self.gamma, self.X, self.texts, m_distill=1, gis_cfg=GisConfig()
        )
        reps = select_representatives(self.X, self.gamma, self.theta, GisConfig(s=1))
        want = {(int(reps.indices[k][0]), k) for k in range(3)}
        got = set(zip(ds.source_ids.tolist(), ds.labels.tolist()))
        assert got == want

    def test_balanced_when_clusters_large_enough(self):
        ds = build_pseudo_labeled(
            self.theta, self.gamma, self.X, self.texts, m_distill=20, gis_cfg=GisConfig()
        )
        counts = ds.class_counts
        assert counts.max() == counts.min() == 20

    def test_shuffle_deterministic(self):
        a = build_pseudo_labeled(self.theta, self.gamma, self.X, self.texts, 15, GisConfig(), seed=4)
        b = build_pseudo_labeled(self.theta, self.gamma, self.X, self.texts, 15, GisConfig(), seed=4)
        np.testing.assert_array_equal(a.source_ids, b.source_ids)
        assert a.texts == b.texts

    def test_texts_must_align(self):
        with pytest.raises(MissingDocumentError):
            build_pseudo_labeled(
                self.theta, self.gamma, self.X, self.texts[:-1], 5, GisConfig()
            )


class TestBalancedRandomSample:
    def test_caps_per_class(self):
        labels = np.array([0] * 30 + [1] * 4)
        texts = [f"doc {i}" for i in range(34)]
        ds = balanced_random_sample(labels, texts, k=2, m_per_class=10, seed=0)
        np.testing.assert_array_equal(ds.class_counts, [10, 4])

    def test_deterministic(self):
        labels = np.array([0, 1] * 20)
        texts = [f"d{i}" for i in range(40)]
        a = balanced_random_sample(labels, texts, 2, 7, seed=3)
        b = balanced_random_sample(labels, texts, 2, 7, seed=3)
        np.testing.assert_array_equal(a.source_ids, b.source_ids)


class TestSplitDataset:
    def test_eight_one_one(self):
        ds = toy_dataset(n_per_class=50, k=2)  # 100 records
        train, val, test = split_dataset(ds, seed=0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)
        all_ids = np.concatenate([train.source_ids, val.source_ids, test.source_ids])
        np.testing.assert_array_equal(np.sort(all_ids), np.sort(ds.source_ids))


class TestTrainStudent:
    def test_separable_toy_memorized(self):
        ds = toy_dataset(n_per_class=40, k=2)
        model = train_student(ds, epochs=10, lr=0.1, seed=0, spec=SMALL_SPEC)
        acc, confusion = evaluate_student(model, ds)
        assert acc == 1.0
        assert np.all(confusion == np.diag(np.diag(confusion)))
        probs, pred = predict_student(model, ds.texts[0])
        assert pred == ds.labels[0]
        assert probs[pred] > 0.9

    @pytest.mark.parametrize("lr, message", [
        (1e308, "in epoch 1: loss nan"),
        (1e300, "by epoch 2: weights overflow float32"),
    ])
    def test_divergence_names_the_epoch(self, lr, message):
        # At 1e308 the first epoch's loss overflows float64; at 1e300 the
        # loss stays finite, but the weights overflow float32 on return.
        ds = toy_dataset(n_per_class=20, k=3)
        with pytest.raises(DivergedError, match=message):
            train_student(ds, epochs=2, lr=lr, seed=0, spec=SMALL_SPEC)

    def test_loss_trace_non_increasing(self):
        ds = toy_dataset(n_per_class=30, k=3)
        model = train_student(ds, epochs=10, lr=0.1, seed=1, spec=SMALL_SPEC)
        diffs = np.diff(model.loss_trace)
        assert np.all(diffs <= 1e-3)

    def test_shuffled_labels_yield_chance_accuracy(self):
        rng = np.random.default_rng(2)
        vocab = [f"tok{j}" for j in range(50)]
        texts = [" ".join(rng.choice(vocab, size=10)) for _ in range(4000)]
        labels = rng.integers(0, 4, size=4000)
        ds = PseudoLabeledSet(
            texts=texts, labels=labels, source_ids=np.arange(4000), k=4
        ).validate()
        train, _, test = split_dataset(ds, seed=2)
        model = train_student(train, epochs=5, lr=0.1, seed=2, spec=SMALL_SPEC)
        acc, _ = evaluate_student(model, test)
        assert abs(acc - 0.25) <= 0.05

    def test_single_class_rejected(self):
        ds = PseudoLabeledSet(
            texts=["a", "b"], labels=np.zeros(2, dtype=int), source_ids=np.arange(2), k=2
        )
        with pytest.raises(SingleClassError):
            train_student(ds, spec=SMALL_SPEC)

    def test_empty_rejected(self):
        ds = PseudoLabeledSet(
            texts=[], labels=np.empty(0, dtype=int), source_ids=np.empty(0, dtype=int), k=2
        )
        with pytest.raises(EmptySetError):
            train_student(ds, spec=SMALL_SPEC)

    def test_deterministic(self):
        ds = toy_dataset(n_per_class=20, k=2, seed=5)
        a = train_student(ds, epochs=3, seed=9, spec=SMALL_SPEC)
        b = train_student(ds, epochs=3, seed=9, spec=SMALL_SPEC)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_peak_memory_is_one_float32_copy(self):
        # The float64 state covers only the touched buckets, so the peak is
        # the returned float32 (buckets, k) matrix plus a small remainder.
        k, spec = 8, FeaturizerSpec(buckets=1 << 18)
        labels = np.arange(400) % k
        ds = PseudoLabeledSet(
            texts=make_text_corpus(labels, k, seed=0),
            labels=labels,
            source_ids=np.arange(labels.size),
            k=k,
        ).validate()
        model, peak = traced_peak(train_student, ds, epochs=2, seed=0, spec=spec)
        assert model.weights.shape == (spec.buckets, k)
        assert peak < 1.5 * model.weights.nbytes


class TestPredictStudent:
    def test_empty_text_softmax_of_bias(self):
        ds = toy_dataset(n_per_class=20, k=2)
        model = train_student(ds, epochs=3, seed=0, spec=SMALL_SPEC)
        probs, _ = predict_student(model, "")
        b = model.bias.astype(np.float64)
        want = np.exp(b - b.max())
        want /= want.sum()
        np.testing.assert_array_equal(probs, want)

    def test_probs_sum_to_one(self):
        ds = toy_dataset(n_per_class=20, k=3, seed=1)
        model = train_student(ds, epochs=3, seed=0, spec=SMALL_SPEC)
        probs, _ = predict_student(model, "alpha ocean fern")
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_unseen_vocabulary_is_bias_prediction(self):
        ds = toy_dataset(n_per_class=20, k=2)
        model = train_student(ds, epochs=3, seed=0, spec=SMALL_SPEC)
        a, _ = predict_student(model, "zzz qqq unseen")
        # unseen grams hit untouched (zero) weight rows
        b, _ = predict_student(model, "")
        np.testing.assert_allclose(a, b, atol=1e-7)


class TestEvaluateStudent:
    def test_empty_set_rejected(self):
        ds = toy_dataset(n_per_class=10, k=2)
        model = train_student(ds, epochs=2, seed=0, spec=SMALL_SPEC)
        empty = PseudoLabeledSet(
            texts=[], labels=np.empty(0, dtype=int), source_ids=np.empty(0, dtype=int), k=2
        )
        with pytest.raises(EmptySetError):
            evaluate_student(model, empty)

    def test_confusion_counts(self):
        ds = toy_dataset(n_per_class=10, k=2)
        model = train_student(ds, epochs=10, seed=0, spec=SMALL_SPEC)
        acc, confusion = evaluate_student(model, ds)
        assert confusion.sum() == len(ds)
        assert confusion.trace() == int(round(acc * len(ds)))


class TestSerializationRoundTrip:
    def test_save_load_predict_bit_identical(self, tmp_path):
        from spheremix.storage import load_student, save_student

        ds = toy_dataset(n_per_class=25, k=3, seed=2)
        model = train_student(ds, epochs=5, seed=3, spec=SMALL_SPEC)
        path = tmp_path / "student.bin"
        save_student(path, model)
        back = load_student(path)
        assert back.featurizer == model.featurizer
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.bias, model.bias)
        for text in ds.texts[:10] + ["", "novel words here"]:
            pa, ia = predict_student(model, text)
            pb, ib = predict_student(back, text)
            np.testing.assert_array_equal(pa, pb)
            assert ia == ib


def _reference_train(ds, epochs, lr, seed, spec):
    """Per-feature SGD loop: the student's arithmetic written out one bucket
    at a time, to pin train_student bit for bit."""
    feats = [featurize(t, spec) for t in ds.texts]
    w = np.zeros((spec.buckets, ds.k))
    b = np.zeros(ds.k)

    def scores(f):
        s = b.copy()
        for bucket, v in f.items():
            s += w[bucket] * v
        return s

    rng = np.random.default_rng(seed)
    n = len(ds)
    step = 0
    losses = []
    for _ in range(epochs):
        for i in rng.permutation(n):
            rate = lr * (1.0 - step / (epochs * n))
            step += 1
            s = scores(feats[i])
            e = np.exp(s - s.max())
            p = e / e.sum()
            p[ds.labels[i]] -= 1.0
            b -= rate * p
            for bucket, v in feats[i].items():
                w[bucket] -= rate * v * p
        total = 0.0
        for f, y in zip(feats, ds.labels):
            s = scores(f)
            s -= s.max()
            total += float(np.log(np.exp(s).sum()) - s[y])
        losses.append(total / n)
    return w.astype(np.float32), b.astype(np.float32), np.asarray(losses)


def _reference_predict(model, text):
    s = model.bias.astype(np.float64).copy()
    for bucket, v in featurize(text, model.featurizer).items():
        s += model.weights[bucket].astype(np.float64) * v
    e = np.exp(s - s.max())
    return e / e.sum()


class TestStudentOracle:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_per_feature_loop(self, k):
        ds = toy_dataset(n_per_class=15, k=k, seed=k)
        texts = list(ds.texts)
        texts[0] = ""  # an empty document trains the bias alone
        texts[1] = "alpha alpha alpha beta rocket_ocean"
        ds = PseudoLabeledSet(texts, ds.labels, ds.source_ids, k).validate()
        spec = FeaturizerSpec(buckets=1 << 10, ngram_max=3, hash_seed=7)
        w, b, losses = _reference_train(ds, epochs=4, lr=0.3, seed=11, spec=spec)
        model = train_student(ds, epochs=4, lr=0.3, seed=11, spec=spec)
        np.testing.assert_array_equal(model.weights, w)
        np.testing.assert_array_equal(model.bias, b)
        np.testing.assert_array_equal(model.loss_trace, losses)
        for text in ds.texts[:6] + ["", "   ", "zzz qqq unseen words", "Alpha OCEAN fern"]:
            probs, label = predict_student(model, text)
            want = _reference_predict(model, text)
            np.testing.assert_array_equal(probs, want)
            assert label == int(np.argmax(want))

    def test_no_touched_buckets(self):
        # Every document is empty or whitespace: no bucket is touched, so
        # training moves the bias alone and every weight stays zero.
        texts = ["", "   ", "\t", "", " \n ", ""]
        ds = PseudoLabeledSet(
            texts, np.array([0, 1, 2, 0, 1, 1]), np.arange(len(texts)), 3
        ).validate()
        spec = FeaturizerSpec(buckets=1 << 10)
        w, b, losses = _reference_train(ds, epochs=3, lr=0.3, seed=5, spec=spec)
        model = train_student(ds, epochs=3, lr=0.3, seed=5, spec=spec)
        assert model.weights.shape == (spec.buckets, 3)
        assert not model.weights.any()
        np.testing.assert_array_equal(model.weights, w)
        np.testing.assert_array_equal(model.bias, b)
        np.testing.assert_array_equal(model.loss_trace, losses)
