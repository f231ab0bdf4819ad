"""End-to-end command-line pipeline tests (run in-process via main, and in
fresh interpreters where process start-up matters)."""

import inspect
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spheremix
from spheremix import storage
from spheremix.cli import _cap_threads, build_parser, main
from spheremix.distill import train_student

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Runs spheremix.cli as `python -m` does, and prints the BLAS thread
# variables as they stand when numpy is first imported.
NUMPY_IMPORT_PROBE = """
import builtins, os, runpy, sys
assert "numpy" not in sys.modules
real_import = builtins.__import__
seen = []
def probe(name, *args, **kwargs):
    if not seen and name.partition(".")[0] == "numpy":
        seen.append(1)
        print("at-numpy-import", *[os.environ.get(v) for v in {vars!r}])
    return real_import(name, *args, **kwargs)
builtins.__import__ = probe
runpy.run_module("spheremix.cli", run_name="__main__", alter_sys=True)
"""


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    kv = {}
    for line in out.out.splitlines():
        if "\t" in line:
            key, _, val = line.partition("\t")
            kv[key] = val
    return code, kv, out


def make_corpus(tmp_path, capsys, n=900, components=3, kappa=100.0, seed=0, texts=False):
    tmp_path.mkdir(exist_ok=True)
    emb = tmp_path / "emb.bin"
    lab = tmp_path / "truth.txt"
    argv = ["synth", "--output", emb, "--labels-output", lab, "--n", n,
            "--components", components, "--kappa", kappa, "--seed", seed]
    if texts:
        argv += ["--texts-output", tmp_path / "texts.txt"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return emb, lab


class TestSynthFitEval:
    def test_pipeline_recovers_components(self, tmp_path, capsys):
        emb, truth = make_corpus(tmp_path, capsys, n=3000, components=3, kappa=100.0)
        model = tmp_path / "model.json"
        code, kv, _ = run(capsys, "fit", "--input", emb, "--output", model,
                          "--k", 3, "--seed", 0)
        assert code == 0
        assert kv["converged"] == "1"

        assigns = tmp_path / "assign.tsv"
        code, _, _ = run(capsys, "assign", "--input", emb, "--model", model,
                         "--output", assigns)
        assert code == 0
        rows = [line.split("\t") for line in assigns.read_text().splitlines()]
        assert len(rows) == 3000
        pred = tmp_path / "pred.txt"
        storage.write_labels(pred, np.array([int(r[1]) for r in rows]))

        code, kv, _ = run(capsys, "eval", "--pred", pred, "--truth", truth, "--k", 3)
        assert code == 0
        assert float(kv["matched_accuracy"]) >= 0.95
        assert float(kv["nmi"]) >= 0.85

    def test_fit_config_echo_defaults(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=400, components=3)
        code, kv, _ = run(capsys, "fit", "--input", emb,
                          "--output", tmp_path / "m.json", "--max-iters", 3)
        assert code == 0
        assert kv["config.k"] == "24"
        assert kv["config.lambda"] == "5000.0"
        assert [key for key in kv if key.startswith("config.")] == [
            "config.k", "config.lambda", "config.max_iters", "config.stop_tol", "config.seed",
        ]
        meta = json.loads((tmp_path / "m.json").read_text())["meta"]
        assert sorted(meta["config"]) == ["k", "lambda", "max_iters", "seed", "stop_tol"]

    def test_fit_reports_the_partition_assign_reproduces(self, tmp_path, capsys):
        # The balance-shifted gamma's argmax differs from the posterior's on
        # a few of these points; the report must follow the saved model.
        from spheremix.baselines import HardPartition, collapse_report
        from spheremix.synth import collapse_stress_corpus

        X, _ = collapse_stress_corpus(2000, 8, 16, seed=0)
        emb, model, assigns = tmp_path / "emb.bin", tmp_path / "m.json", tmp_path / "a.tsv"
        storage.write_embeddings(X, emb, normalized=True)
        code, kv, _ = run(capsys, "fit", "--input", emb, "--output", model, "--k", 8)
        assert code == 0
        assert run(capsys, "assign", "--input", emb, "--model", model,
                   "--output", assigns)[0] == 0
        labels = np.array([int(line.split("\t")[1])
                           for line in assigns.read_text().splitlines()])
        report = collapse_report(HardPartition(labels=labels, k=8))
        assert float(kv["balance_l2"]) == report.balance_l2
        assert float(kv["max_share"]) == report.max_share

    def test_trace_csv_non_decreasing(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=600, components=3)
        model = tmp_path / "m.json"
        code, _, _ = run(capsys, "fit", "--input", emb, "--output", model,
                         "--k", 4, "--lambda", 500, "--seed", 1)
        assert code == 0
        lines = (tmp_path / "m.json.trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,objective"
        vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(np.diff(vals) >= -1e-6)

    def test_eval_reads_the_assign_tsv(self, tmp_path, capsys):
        emb, truth = make_corpus(tmp_path, capsys)
        model, assigns, labels = tmp_path / "m.json", tmp_path / "a.tsv", tmp_path / "l.txt"
        assert run(capsys, "fit", "--input", emb, "--output", model, "--k", 3)[0] == 0
        assert run(capsys, "assign", "--input", emb, "--model", model,
                   "--output", assigns)[0] == 0
        storage.write_labels(labels, [int(line.split("\t")[1])
                                      for line in assigns.read_text().splitlines()])
        code, from_tsv, _ = run(capsys, "eval", "--pred", assigns, "--truth", truth)
        assert code == 0
        assert from_tsv == run(capsys, "eval", "--pred", labels, "--truth", truth)[1]

    def test_eval_without_truth(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        storage.write_labels(pred, np.array([0, 0, 1, 1, 2]))
        code, kv, _ = run(capsys, "eval", "--pred", pred)
        assert code == 0
        assert "balance_l2" in kv and "max_share" in kv
        assert "nmi" not in kv


class TestDeterminism:
    def test_synth_reproducible(self, tmp_path, capsys):
        a, _ = make_corpus(tmp_path / "a", capsys, n=200, seed=7)
        b, _ = make_corpus(tmp_path / "b", capsys, n=200, seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_fit_reproducible(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        emb, _ = make_corpus(tmp_path, capsys, n=400, components=3)
        outs = []
        for sub in ("a", "b"):
            model = tmp_path / sub / "model.json"
            code, _, _ = run(capsys, "fit", "--input", emb, "--output", model,
                             "--k", 3, "--seed", 5, "--deterministic")
            assert code == 0
            outs.append((model.read_bytes(),
                         (tmp_path / sub / "model.json.trace.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_deterministic_flag_pins_threads(self, monkeypatch):
        monkeypatch.delenv("GEM_THREADS", raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        _cap_threads(["fit", "--deterministic"])
        import os

        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_gem_threads_env(self, monkeypatch):
        monkeypatch.setenv("GEM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _cap_threads(["synth"])
        import os

        assert os.environ["OMP_NUM_THREADS"] == "4"


class TestGisCommand:
    def test_reps_and_prompts(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=300, components=3, texts=True)
        model = tmp_path / "model.json"
        run(capsys, "fit", "--input", emb, "--output", model, "--k", 3)
        reps = tmp_path / "reps.tsv"
        prompts = tmp_path / "prompts"
        code, kv, _ = run(capsys, "gis", "--input", emb, "--model", model,
                          "--output", reps, "--gis-s", 4,
                          "--texts", tmp_path / "texts.txt", "--prompt-dir", prompts)
        assert code == 0
        assert kv["clusters"] == "3"
        assert kv["selected"] == "12"
        assert kv["prompts_written"] == "3"
        lines = reps.read_text().splitlines()
        assert lines[0] == "cluster\tindex\tscore"
        assert len(lines) == 1 + 12
        assert sorted(p.name for p in prompts.iterdir()) == [
            f"cluster_{k:03d}.prompt.txt" for k in range(3)
        ]

    def test_prompt_dir_requires_texts(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=200, components=2)
        model = tmp_path / "model.json"
        run(capsys, "fit", "--input", emb, "--output", model, "--k", 2)
        code, _, out = run(capsys, "gis", "--input", emb, "--model", model,
                           "--output", tmp_path / "r.tsv", "--prompt-dir", tmp_path / "p")
        assert code == 1
        assert "spheremix:" in out.err
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("lines", [290, 310])
    def test_texts_must_match_the_rows(self, tmp_path, capsys, lines):
        emb, _ = make_corpus(tmp_path, capsys, n=300, components=3, texts=True)
        model = tmp_path / "model.json"
        run(capsys, "fit", "--input", emb, "--output", model, "--k", 3)
        docs = storage.read_texts(tmp_path / "texts.txt")
        texts = tmp_path / "other.txt"
        storage.write_texts(texts, (docs * 2)[:lines])
        reps, prompts = tmp_path / "r.tsv", tmp_path / "p"
        code, _, out = run(capsys, "gis", "--input", emb, "--model", model, "--output", reps,
                           "--texts", texts, "--prompt-dir", prompts)
        assert code == 1
        assert f"300 embeddings but {lines} documents" in out.err
        assert not reps.exists()
        assert not prompts.exists()

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    def test_non_finite_beta_exits_one(self, tmp_path, capsys, beta):
        emb, _ = make_corpus(tmp_path, capsys, n=200, components=2)
        model = tmp_path / "model.json"
        run(capsys, "fit", "--input", emb, "--output", model, "--k", 2)
        reps = tmp_path / "r.tsv"
        code, _, out = run(capsys, "gis", "--input", emb, "--model", model,
                           "--output", reps, f"--gis-beta={beta}")
        assert code == 1
        assert "beta" in out.err
        assert not reps.exists()


class TestDistillCommand:
    def test_training_flags_default_to_train_student(self):
        args = build_parser().parse_args(
            ["distill", "--input", "x", "--model", "m", "--texts", "t", "--output", "o"]
        )
        params = inspect.signature(train_student).parameters
        assert args.epochs == params["epochs"].default
        assert args.lr == params["lr"].default
        assert args.buckets == params["spec"].default.buckets

    def test_full_distill_run(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=600, components=3, texts=True)
        model = tmp_path / "model.json"
        run(capsys, "fit", "--input", emb, "--output", model, "--k", 3)
        student = tmp_path / "student.bin"
        dataset = tmp_path / "ds.tsv"
        code, kv, _ = run(capsys, "distill", "--input", emb, "--model", model,
                          "--texts", tmp_path / "texts.txt", "--output", student,
                          "--dataset", dataset, "--distill-m", 100,
                          "--buckets", 1 << 15, "--epochs", 4, "--seed", 0)
        assert code == 0
        assert float(kv["test_accuracy"]) >= 0.8
        back = storage.load_student(student)
        assert back.featurizer.buckets == 1 << 15
        labels, texts = storage.read_dataset_tsv(dataset)
        assert labels.size == len(texts) == int(kv["train_size"]) + int(kv["val_size"]) + int(kv["test_size"])

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", 0], "epochs must be >= 1, got 0"),
        (["--lr", -1], "lr must be > 0, got -1.0"),
        (["--buckets", 0], "buckets must lie in [1, 2^32), got 0"),
    ])
    def test_bad_training_flag_writes_nothing(self, tmp_path, capsys, flags, message):
        emb, _ = make_corpus(tmp_path, capsys, n=200, components=2, texts=True)
        model = tmp_path / "model.json"
        assert run(capsys, "fit", "--input", emb, "--output", model, "--k", 2)[0] == 0
        student, dataset = tmp_path / "s.bin", tmp_path / "d.tsv"
        code, _, out = run(capsys, "distill", "--input", emb, "--model", model,
                           "--texts", tmp_path / "texts.txt", "--output", student,
                           "--dataset", dataset, "--distill-m", 20, *flags)
        assert code == 1
        assert out.err == f"spheremix: ValueError: {message}\n"
        assert not student.exists() and not dataset.exists()

    def test_diverged_training_is_one_error_line(self, tmp_path, capsys):
        # The weights overflow float32: a data error, with no numpy warning
        # and nothing written.
        emb, _ = make_corpus(tmp_path, capsys, n=200, components=2, texts=True)
        model = tmp_path / "model.json"
        assert run(capsys, "fit", "--input", emb, "--output", model, "--k", 2)[0] == 0
        student, dataset = tmp_path / "s.bin", tmp_path / "d.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, out = run(capsys, "distill", "--input", emb, "--model", model,
                               "--texts", tmp_path / "texts.txt", "--output", student,
                               "--dataset", dataset, "--lr", 1e300, "--distill-m", 20,
                               "--epochs", 1)
        assert code == 1
        assert out.err == ("spheremix: data error: training diverged by epoch 1: "
                           "weights overflow float32\n")
        assert not student.exists() and not dataset.exists()


def write_flagged_embeddings(path, X):
    """A GEMEMB1 file with the normalized flag set, whatever the rows'
    norms; returns the norms of the rows as stored."""
    X32 = np.ascontiguousarray(X, dtype="<f4")
    header = storage.EMB_MAGIC + struct.pack("<IQIB", storage.EMB_VERSION, *X32.shape, 1)
    path.write_bytes(header + X32.tobytes())
    return np.linalg.norm(X32.astype(np.float64), axis=1)


class TestUnitTolerance:
    """fit accepts every flag-1 file the reader accepts: one tolerance,
    geometry.UNIT_TOL, serves both."""

    def corpus(self, tmp_path, capsys, scale):
        emb, _ = make_corpus(tmp_path, capsys, n=300, components=3, texts=True)
        model = tmp_path / "model.json"
        assert run(capsys, "fit", "--input", emb, "--output", model, "--k", 3)[0] == 0
        scaled = tmp_path / "scaled.bin"
        norms = write_flagged_embeddings(scaled, storage.read_embeddings(emb) * scale)
        np.testing.assert_allclose(norms, scale, rtol=0, atol=1e-6)
        return scaled, model

    def commands(self, tmp_path, model):
        texts = tmp_path / "texts.txt"
        return {
            "fit": ["fit", "--output", tmp_path / "m2.json", "--k", 3],
            "sweep": ["sweep", "--output", tmp_path / "g.tsv", "--k-list", 3,
                      "--lambda-list", 0, "--max-iters", 3],
            "assign": ["assign", "--model", model, "--output", tmp_path / "a.tsv"],
            "gis": ["gis", "--model", model, "--output", tmp_path / "r.tsv"],
            "distill": ["distill", "--model", model, "--texts", texts,
                        "--output", tmp_path / "s.bin", "--distill-m", 20,
                        "--buckets", 1 << 10, "--epochs", 1],
        }

    def test_rows_within_the_tolerance_run_everywhere(self, tmp_path, capsys):
        scaled, model = self.corpus(tmp_path, capsys, 1.0 + 5e-6)
        for name, argv in self.commands(tmp_path, model).items():
            code, _, out = run(capsys, *argv, "--input", scaled)
            assert code == 0, (name, out.err)

    def test_rows_past_the_tolerance_fail_everywhere(self, tmp_path, capsys):
        scaled, model = self.corpus(tmp_path, capsys, 1.0 + 2e-5)
        for name, argv in self.commands(tmp_path, model).items():
            code, _, out = run(capsys, *argv, "--input", scaled)
            assert code == 1, name
            assert out.err.startswith("spheremix: data error:") and "normalized flag" in out.err
            assert not argv[argv.index("--output") + 1].exists(), name


class TestSweepCommand:
    def test_grid_rows_and_lambda_monotonicity(self, tmp_path, capsys):
        from spheremix.synth import collapse_stress_corpus

        X, _ = collapse_stress_corpus(300, 8, 16, seed=0)
        emb = tmp_path / "emb.bin"
        storage.write_embeddings(X, emb, normalized=True)
        out = tmp_path / "sweep.tsv"
        code, _, _ = run(capsys, "sweep", "--input", emb, "--output", out,
                         "--k-list", "8", "--lambda-list", "0,100,10000,1000000",
                         "--max-iters", 60, "--seed", 0)
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split("\t")
        assert header[:2] == ["k", "lambda"]
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        assert len(rows) == 4
        soft = [float(r["balance_l2"]) for r in rows]
        assert all(soft[i + 1] <= soft[i] + 1e-3 for i in range(3))

    @pytest.mark.parametrize("grid", [["--k-list", "2", "--lambda-list", "0,nan"],
                                      ["--k-list", "2,500", "--lambda-list", "0"]])
    def test_bad_cell_fails_before_the_first_fit(self, tmp_path, capsys, grid):
        emb, _ = make_corpus(tmp_path, capsys, n=400, components=2)
        out = tmp_path / "sweep.tsv"
        code, _, res = run(capsys, "sweep", "--input", emb, "--output", out, *grid)
        assert code == 1
        assert res.out == ""
        assert "spheremix:" in res.err
        assert not out.exists()


class TestErrorExits:
    def test_missing_input_exits_one_no_partial_output(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, _, out = run(capsys, "fit", "--input", tmp_path / "absent.bin",
                           "--output", model)
        assert code == 1
        assert "spheremix:" in out.err
        assert not model.exists()
        assert not (tmp_path / "model.json.trace.csv").exists()

    def test_corrupt_embeddings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        code, _, out = run(capsys, "fit", "--input", bad, "--output", tmp_path / "m.json")
        assert code == 1
        assert "data error" in out.err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_seed_fraction_exits_one(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=100, components=2)
        code, _, out = run(capsys, "fit", "--input", emb,
                           "--output", tmp_path / "m.json", "--seed-fraction", 1.5)
        assert code == 1
        assert "seed-fraction" in out.err

    def test_non_finite_rows_are_data_errors(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=200, components=2)
        model = tmp_path / "model.json"
        assert run(capsys, "fit", "--input", emb, "--output", model, "--k", 2)[0] == 0
        X = storage.read_embeddings(emb)
        X[7, 1] = np.nan
        nan_emb = tmp_path / "nan.bin"
        storage.write_embeddings(X, nan_emb)  # flag 0: rows are not all unit
        for argv in (["fit", "--output", tmp_path / "m2.json", "--k", 2],
                     ["assign", "--model", model, "--output", tmp_path / "a.tsv"]):
            code, _, out = run(capsys, *argv, "--input", nan_emb)
            assert code == 1
            assert out.err.startswith("spheremix: data error:") and "row 7" in out.err
        assert not (tmp_path / "m2.json").exists()
        assert not (tmp_path / "a.tsv").exists()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exits_one(self, tmp_path, capsys, lam):
        emb, _ = make_corpus(tmp_path, capsys, n=100, components=2)
        model, sweep = tmp_path / "m.json", tmp_path / "sweep.tsv"
        for argv in (["fit", "--output", model, "--k", 2, f"--lambda={lam}"],
                     ["sweep", "--output", sweep, "--k-list", 2, "--lambda-list", lam]):
            code, _, out = run(capsys, *argv, "--input", emb)
            assert code == 1
            assert "lam must be finite" in out.err
        assert not model.exists() and not (tmp_path / "m.json.trace.csv").exists()
        assert not sweep.exists()

    def test_eval_k_zero_exits_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        storage.write_labels(pred, np.array([0, 0, 1, 1]))
        code, _, out = run(capsys, "eval", "--pred", pred, "--k", 0)
        assert code == 1
        assert "k must be >= 1" in out.err

    def test_synth_zero_components_exits_one(self, tmp_path, capsys):
        emb = tmp_path / "e.bin"
        code, _, out = run(capsys, "synth", "--output", emb, "--components", 0)
        assert code == 1
        assert "component" in out.err and "ZeroDivisionError" not in out.err
        assert not emb.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--weights", "1,inf,1"], "weights must be finite, got [1.0, inf, 1.0]"),
        (["--weights", "1,nan,1"], "weights must be finite, got [1.0, nan, 1.0]"),
        (["--n", -5], "n must be >= 1, got -5"),
        (["--n", 0], "n must be >= 1, got 0"),
        (["--doc-len", -1], "doc_len must be >= 0, got -1"),
    ])
    def test_synth_bad_sizes_and_weights_exit_one(self, tmp_path, capsys, flags, message):
        outputs = [tmp_path / "e.bin", tmp_path / "l.txt", tmp_path / "t.txt"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, out = run(capsys, "synth", "--output", outputs[0],
                               "--labels-output", outputs[1], "--texts-output", outputs[2],
                               "--n", 50, "--weights", "1,1,1", *flags)
        assert code == 1
        assert out.err == f"spheremix: ValueError: {message}\n"
        assert not any(path.exists() for path in outputs)

    def test_gis_m_zero_exits_one(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=200, components=2, texts=True)
        model = tmp_path / "model.json"
        run(capsys, "fit", "--input", emb, "--output", model, "--k", 2)
        reps, student, dataset = tmp_path / "r.tsv", tmp_path / "s.bin", tmp_path / "d.tsv"
        for argv in (["gis", "--output", reps],
                     ["distill", "--texts", tmp_path / "texts.txt", "--output", student,
                      "--dataset", dataset]):
            code, _, out = run(capsys, *argv, "--input", emb, "--model", model, "--gis-m", 0)
            assert code == 1
            assert "m_neighbors and s must be >= 1" in out.err
        assert not reps.exists() and not student.exists() and not dataset.exists()

    def test_model_without_components_is_data_error(self, tmp_path, capsys):
        emb, _ = make_corpus(tmp_path, capsys, n=100, components=2)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format": "GEMMODEL1", "k": 2, "d": 16, "lambda": 1.0}))
        code, _, out = run(capsys, "assign", "--input", emb, "--model", model,
                           "--output", tmp_path / "a.tsv")
        assert code == 1
        assert out.err.startswith("spheremix: data error:") and "components" in out.err


def run_fresh(tmp_path, env_extra, *argv, probe=False):
    """`python -m spheremix.cli synth ... *argv` in a new interpreter with no
    thread variables inherited."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("GEM_THREADS",)}
    src = str(Path(spheremix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(env_extra)
    head = ["-c", NUMPY_IMPORT_PROBE.format(vars=THREAD_VARS)] if probe else ["-m", "spheremix.cli"]
    cmd = [sys.executable, *head, "synth", "--output", str(tmp_path / "e.bin"),
           "--n", "30", "--d", "3", "--components", "2", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


class TestThreadCapAtStartup:
    @pytest.mark.parametrize(
        "env, argv, want",
        [({"GEM_THREADS": "2"}, [], "2"), ({}, ["--deterministic"], "1"),
         ({"GEM_THREADS": "3"}, ["--deterministic"], "1")],
    )
    def test_set_before_numpy_loads(self, tmp_path, env, argv, want):
        proc = run_fresh(tmp_path, env, *argv, probe=True)
        assert proc.returncode == 0, proc.stderr
        (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("at-numpy-import")]
        assert line.split()[1:] == [want] * len(THREAD_VARS)

    def test_no_cap_leaves_variables_unset(self, tmp_path):
        proc = run_fresh(tmp_path, {}, probe=True)
        assert proc.returncode == 0, proc.stderr
        assert "at-numpy-import None None None None" in proc.stdout

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_gem_threads_is_one_data_error_line(self, tmp_path, value):
        proc = run_fresh(tmp_path, {"GEM_THREADS": value})
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line.startswith("spheremix: data error: GEM_THREADS")
        assert not (tmp_path / "e.bin").exists()
