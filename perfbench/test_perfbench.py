"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(run.SRC))
run.PREDICT_SECONDS = 0.5  # one pass over the tiny corpora is enough here


def tiny(name: str) -> run.Workload:
    """The named workload's shape (which rows each stage sees) at a size
    that runs in seconds, with no quality floors. n stays in the thousands:
    at a few hundred points the default lambda's balance shift (lambda / n
    per point) can hold a k=2 fit at its symmetric start."""
    w = run.WORKLOADS[name]
    head = lambda rows: None if rows is None else 400
    return dataclasses.replace(
        w, n=1500, d=32, gis_rows=head(w.gis_rows), distill_rows=head(w.distill_rows),
        distill_m=30, epochs=1, min_nmi=0.0, min_agreement=0.0,
    )


def bench(w: run.Workload, tmp: Path, trace: bool, seed: int = 3):
    work = tmp / f"{w.name}-{int(trace)}-{seed}"
    work.mkdir(parents=True)
    metrics, checks = run.run_workload(w, seed, 0.0, trace, work, tmp / "spans.json")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    res = run.result(metrics, checks, spec)
    assert res["correct"], checks.failures
    return res, work


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: bench(tiny(name), tmp, trace=True)[0] for name in run.WORKLOADS}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_with_unit(name, tmp_path):
    res, _ = bench(tiny(name), tmp_path, trace=False)
    assert res["failed"] == 0 and res["attempted"] > 0
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_per_layer_metric_with_unit(name, traced):
    res = traced[name]
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]


COUNTS = ("inference.fit_iters", "gis.points_scored", "distill.sgd_steps",
          "distill.touched_row_frac", "storage.student_bytes")


def test_same_seed_same_counts(traced, tmp_path):
    name = "distill-student"
    again, _ = bench(tiny(name), tmp_path, trace=True)
    for key in COUNTS:
        assert again["metrics"][key]["value"] == traced[name]["metrics"][key]["value"], key


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny gis-reps pass whose outputs the corruption tests damage."""
    tmp = tmp_path_factory.mktemp("outputs")
    w = tiny("gis-reps")
    _, work = bench(w, tmp, trace=False)
    return w, run.Files(work, w)


def copy_outputs(f: run.Files, dest: Path, w: run.Workload) -> run.Files:
    shutil.copytree(f.work, dest)
    return run.Files(dest, w)


def verify(w, f) -> run.Checks:
    from spheremix import storage

    checks = run.Checks()
    truth = storage.read_labels(f.truth).tolist()
    run.verify(w, f, truth, None, checks)
    return checks


def test_intact_outputs_pass(outputs, tmp_path):
    w, f = outputs
    assert verify(w, copy_outputs(f, tmp_path / "w", w)).failures == []


def test_truncated_prompt_is_a_failure(outputs, tmp_path):
    w, f = outputs
    g = copy_outputs(f, tmp_path / "w", w)
    prompt = sorted(g.prompts.iterdir())[0]
    data = prompt.read_bytes()
    prompt.write_bytes(data[: len(data) // 2])
    checks = verify(w, g)
    assert len(checks.failures) == 1 and "gis prompts" in checks.failures[0]


def test_reordered_trace_is_a_failure(outputs, tmp_path):
    w, f = outputs
    g = copy_outputs(f, tmp_path / "w", w)
    head, *rows = g.trace_csv.read_text().splitlines()
    rows.reverse()
    g.trace_csv.write_text("\n".join([head, *rows]) + "\n")
    checks = verify(w, g)
    assert len(checks.failures) == 1 and "fit trace" in checks.failures[0]


def test_wrong_assign_row_is_a_failure(outputs, tmp_path):
    w, f = outputs
    g = copy_outputs(f, tmp_path / "w", w)
    lines = g.assign.read_text().splitlines()
    g.assign.write_text("\n".join(lines[:-1]) + "\n")
    checks = verify(w, g)
    assert checks.failures and "assign tsv" in checks.failures[0]


def test_reordered_reps_are_a_failure(outputs, tmp_path):
    w, f = outputs
    g = copy_outputs(f, tmp_path / "w", w)
    head, first, second, *rest = g.reps.read_text().splitlines()
    g.reps.write_text("\n".join([head, second, first, *rest]) + "\n")
    checks = verify(w, g)
    assert any("gis reps" in msg for msg in checks.failures)


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gis-reps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_children_run_one_blas_thread():
    env = run.child_env()
    assert env["GEM_THREADS"] == "1"
    assert all(env[var] == "1" for var in run.THREAD_VARS)
