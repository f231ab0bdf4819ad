"""The benchmark's tracer (perfbench/spans.py) against the library: every
name it wraps exists, and a fit records a span for each step the traced
benchmark run reads."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from conftest import random_unit_rows
import spheremix.inference as inference

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
