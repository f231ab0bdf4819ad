"""The benchmark's tracer (perfbench/spans.py) against the library: every
name it wraps exists, and a fit, a representative selection and the
student record a span for each step the traced benchmark run reads."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from conftest import random_params, random_unit_rows
import spheremix.distill as distill
import spheremix.gis as gis
import spheremix.inference as inference
from spheremix.objective import posterior

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_spheremix_callable():
    for mod_name, attr in load_spans().TRACED:
        module = importlib.import_module(f"spheremix.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_fit_records_a_span_for_each_step():
    spans = load_spans()
    X = random_unit_rows(np.random.default_rng(0), 60, 4)
    tracer = spans.Tracer("fit")
    with tracer.installed():
        inference.fit(X, inference.FitConfig(k=3, lam=10.0, max_iters=3, seed=0))
    ix = spans.SpanIndex(tracer.spans)
    for name in (
        "inference.e_step",
        "inference.m_step_mu",
        "inference.m_step_kappa",
        "objective.log_component_scores",
        "objective.objective_from_scores",
        "objective.entropy_total",
        "objective.check_responsibilities",
    ):
        assert ix.select(name, inside="inference.fit"), name


def test_gis_records_its_kernel_spans():
    spans = load_spans()
    rng = np.random.default_rng(1)
    X = random_unit_rows(rng, 80, 4)
    theta = random_params(rng, 3, 4)
    tracer = spans.Tracer("gis")
    with tracer.installed():
        gis.select_representatives(X, posterior(theta, X), theta, gis.GisConfig())
    ix = spans.SpanIndex(tracer.spans)
    for name in ("gis.local_density", "gis.gis_score"):
        assert ix.select(name, inside="gis.select_representatives"), name


def test_student_records_one_featurize_span_per_training_document():
    # The traced run divides train_student's self time by the featurize
    # spans directly under it, as the number of training documents.
    spans = load_spans()
    texts = [f"alpha beta {i}" for i in range(10)] + [f"gamma delta {i}" for i in range(10)]
    ds = distill.PseudoLabeledSet(
        texts=texts, labels=np.repeat([0, 1], 10), source_ids=np.arange(20), k=2
    ).validate()
    tracer = spans.Tracer("distill")
    with tracer.installed():
        model = distill.train_student(ds, epochs=3, spec=distill.FeaturizerSpec(buckets=1 << 10))
        distill.predict_student(model, "alpha beta")
    ix = spans.SpanIndex(tracer.spans)
    (train,) = ix.select("distill.train_student")
    names = [ix.spans[ch][spans.NAME] for ch in ix.children(train)]
    assert names.count("distill.featurize") == len(ds)
    assert len(ix.select("distill.predict_student")) == 1
