#!/usr/bin/env python3
"""spheremix pipeline benchmark.

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload generates its inputs from
--seed with `spheremix synth`, then runs the CLI pipeline fit -> assign ->
gis -> distill (one child process per stage, in sequence) followed by an
in-process per-document predict with the reloaded student, and checks every
output. `--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` replays the stages in-process with spans around the public
functions and reports the per-layer metrics. The last line of stdout is the
result JSON. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

SETUP_REPS = 3
# A stop tolerance no real objective change reaches, so every fit runs
# exactly its --max-iters iterations and the work per seed stays fixed.
STOP_TOL = "1e-9"
TRACE_DROP_TOL = 1e-6  # the ascent tolerance tests/test_cli.py applies
PREDICT_WARMUP = 200
# The predict window's length. The shared host slows the core for stretches
# of up to tens of seconds; an 8 s window has held fast calls in every run
# measured, and over 0.1% of calls in each.
PREDICT_SECONDS = 8.0
BUCKETS = 1 << 21  # the CLI's default hashed-feature width
GIS_S = 5  # representatives per cluster in the gis stage (the CLI default)
STAGES = ("fit", "assign", "gis", "distill")
BLAS_THREADS = 1
# The variables the CLI sets from GEM_THREADS. They are set here as well,
# because the package imports numpy before the CLI reads GEM_THREADS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One benchmark input. `gis_rows`/`distill_rows` give gis and
    distill (and predict) the first rows of the corpus instead of all of
    it; min_nmi/min_agreement are quality floors measured at the seed
    commit."""

    name: str
    n: int
    d: int
    k: int
    arrangement: str = "orthogonal"
    weights: str | None = None
    doc_len: int = 30
    fit_iters: int = 10
    gis_rows: int | None = None
    distill_rows: int | None = None
    distill_m: int = 50
    epochs: int = 1
    buckets: int = BUCKETS
    min_nmi: float = 0.0
    min_agreement: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        # The fit layers dominate: 50k x 64 float64 rows, k = 24, small
        # enough for two or three passes a run. gis sees a 1000-row head and
        # distill a 2000-row head (on 1000 rows, with about 42 documents a
        # cluster, student_agreement fell to 0.80 on some seeds), with a
        # 2^16-bucket student, so they stay small controls.
        Workload("fit-large", n=50_000, d=64, k=24, arrangement="random", fit_iters=5,
                 gis_rows=1000, distill_rows=2000, distill_m=40, epochs=3, buckets=1 << 16,
                 min_nmi=0.9, min_agreement=0.85),
        # The quadratic GIS loop dominates; one cluster holds 4/5 of the
        # points, the worst case for a blocked-similarity rewrite. (With k=8
        # and weights 4,1,...,1 k-means++ split the big cluster on about half
        # the seeds, which made gis_s bimodal across seeds.)
        Workload("gis-reps", n=10_000, d=128, k=2, weights="4,1",
                 distill_rows=2000, distill_m=100, epochs=3,
                 min_nmi=0.99, min_agreement=0.95),
        # Featurization, per-sample SGD and the dense 2^21 x k student
        # dominate; GIS runs for curation with a large s, so every document
        # is a training candidate. (With k=8 k-means++ merged two clusters on
        # about a fifth of the seeds, which made fit_s and distill_s
        # bimodal; 24 random means average such defects out.)
        Workload("distill-student", n=6000, d=64, k=24, arrangement="random",
                 doc_len=60, distill_m=750, epochs=5, min_nmi=0.9, min_agreement=0.9),
    )
}


# ---------------------------------------------------------------- files

class Files:
    """Paths of one run's inputs and outputs inside its work directory."""

    def __init__(self, work: Path, w: Workload) -> None:
        self.work = work
        self.corpus = work / "corpus.bin"
        self.truth = work / "truth.txt"
        self.texts = work / "texts.txt"
        self.model = work / "model.json"
        self.trace_csv = work / "model.json.trace.csv"
        self.assign = work / "assign.tsv"
        self.reps = work / "reps.tsv"
        self.prompts = work / "prompts"
        self.student = work / "student.bin"
        self.gis_in = self.input_for(w.gis_rows)
        self.distill_in = self.input_for(w.distill_rows)

    def input_for(self, rows: int | None) -> tuple[Path, Path]:
        """Embeddings and texts of the first `rows` rows (None: all)."""
        if rows is None:
            return self.corpus, self.texts
        return self.work / f"head{rows}.bin", self.work / f"head{rows}.txt"


def corpus_texts(w: Workload) -> bool:
    """Whether a stage reads the documents of the whole corpus."""
    return w.gis_rows is None or w.distill_rows is None


def synth_argv(w: Workload, f: Files, seed: int) -> list[str]:
    argv = ["synth", "--output", f.corpus, "--labels-output", f.truth,
            "--components", w.k, "--n", w.n, "--d", w.d, "--kappa", 100,
            "--arrangement", w.arrangement, "--seed", seed]
    if corpus_texts(w):
        argv += ["--texts-output", f.texts, "--doc-len", w.doc_len]
    if w.weights is not None:
        argv += ["--weights", w.weights]
    return [str(a) for a in argv]


def stage_argv(stage: str, w: Workload, f: Files, seed: int) -> list[str]:
    if stage == "fit":
        argv = ["fit", "--input", f.corpus, "--output", f.model, "--k", w.k,
                "--max-iters", w.fit_iters, "--stop-tol", STOP_TOL]
    elif stage == "assign":
        argv = ["assign", "--input", f.corpus, "--model", f.model, "--output", f.assign]
    elif stage == "gis":
        argv = ["gis", "--input", f.gis_in[0], "--model", f.model, "--output", f.reps,
                "--texts", f.gis_in[1], "--prompt-dir", f.prompts, "--gis-s", GIS_S]
    else:
        argv = ["distill", "--input", f.distill_in[0], "--model", f.model,
                "--texts", f.distill_in[1], "--output", f.student,
                "--distill-m", w.distill_m, "--epochs", w.epochs, "--buckets", w.buckets]
    return [str(a) for a in argv + ["--seed", seed]]


def write_heads(w: Workload, f: Files, seed: int) -> None:
    """Cut the head slices gis/distill read. Corpus texts are cut as raw
    lines (one escaped document per line), so they match byte for byte.
    When no stage reads the whole corpus's documents, synth writes none and
    only the head's are generated here, by the generator synth uses, which
    saves generating the whole corpus's documents in fit-large's set-up."""
    from spheremix import storage, synth

    rows = sorted({r for r in (w.gis_rows, w.distill_rows) if r is not None})
    if not rows:
        return
    X = storage.read_embeddings(f.corpus)
    if not corpus_texts(w):
        labels = storage.read_labels(f.truth)[: rows[-1]]
        docs = synth.make_text_corpus(labels, w.k, seed=seed, doc_len=w.doc_len)
        storage.write_texts(f.texts, docs)
    lines = f.texts.read_bytes().split(b"\n")
    for r in rows:
        bin_path, txt_path = f.input_for(r)
        storage.write_embeddings(X[:r], bin_path, normalized=True)
        txt_path.write_bytes(b"\n".join(lines[:r]) + b"\n")


# ---------------------------------------------------------------- stage runners

@dataclass
class StageRun:
    wall_s: float
    ok: bool
    peak_rss_mb: float | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["GEM_THREADS"] = str(BLAS_THREADS)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], log: Path) -> StageRun:
    """One CLI stage in its own process. Peak RSS comes from wait4 on that
    child alone, not RUSAGE_CHILDREN, which keeps the high-water mark of
    every child reaped so far."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "spheremix.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
            env=child_env(),
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return StageRun(wall, proc.returncode == 0, usage.ru_maxrss * 1024 / 1e6)


def run_inproc(argv: list[str], log: Path) -> StageRun:
    """The same CLI command, called in this process."""
    from spheremix import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    wall = time.perf_counter() - t0
    log.write_text(buf.getvalue(), encoding="utf-8")
    return StageRun(wall, code == 0)


@dataclass
class Prediction:
    wall_s: float
    latencies_ns: list[int]
    labels: list[int]


def predict_corpus(student: Path, texts: list[str], seconds: float) -> Prediction:
    """Reload the student and predict every document, one at a time in a
    closed loop, after an untimed warm-up. Whole passes over the documents
    repeat until `seconds` have passed, so short corpora still give
    enough latency samples; wall_s counts the load and the first pass only."""
    import spheremix.distill as distill
    import spheremix.storage as storage

    t0 = time.perf_counter()
    model = storage.load_student(student)
    load_s = time.perf_counter() - t0
    for text in texts[:PREDICT_WARMUP]:
        distill.predict_student(model, text)
    lat: list[int] = []
    labels: list[int] = []
    clock = time.perf_counter_ns
    start = time.perf_counter()
    first_pass_s = None
    while first_pass_s is None or time.perf_counter() - start < seconds:
        for text in texts:
            t = clock()
            _, label = distill.predict_student(model, text)
            lat.append(clock() - t)
            if first_pass_s is None:
                labels.append(label)
        if first_pass_s is None:
            first_pass_s = time.perf_counter() - start
    return Prediction(load_s + first_pass_s, lat, labels)


# ---------------------------------------------------------------- checks

class Checks:
    """Counts stages and output checks attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def stage(self, name: str, run: StageRun) -> bool:
        self.attempted += 1
        if not run.ok:
            self.failures.append(f"stage {name} exited non-zero")
        return run.ok

    def run(self, what: str, fn, *args):
        """Call fn(*args); any exception it raises is one failed check."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed check is counted, never fatal
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


def check_trace(path: Path) -> None:
    """The objective trace starts at iteration 0, counts up by one, and
    never drops by more than TRACE_DROP_TOL between steps."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "iteration,objective" or len(lines) < 2:
        raise ValueError("missing header or rows")
    prev = None
    for t, line in enumerate(lines[1:]):
        it, val = line.split(",")
        if int(it) != t:
            raise ValueError(f"row {t} is iteration {it}")
        val = float(val)
        if prev is not None and val < prev - TRACE_DROP_TOL:
            raise ValueError(f"objective drops {prev - val!r} at iteration {t}")
        prev = val


def read_assign(path: Path, n: int, k: int) -> list[int]:
    """n rows `i<TAB>label<TAB>prob` in order, label in [0, k), prob in (0, 1]."""
    labels = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            idx, lab, prob = line.rstrip("\n").split("\t")
            lab, prob = int(lab), float(prob)
            if int(idx) != i or not 0 <= lab < k or not 0.0 < prob <= 1.0:
                raise ValueError(f"bad row {i}: {line!r}")
            labels.append(lab)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} rows, expected {n}")
    return labels


def check_reps(path: Path, labels: list[int], k: int, s: int) -> dict[int, list[int]]:
    """min(s, n_k) representatives per cluster, each a member of it,
    sorted by descending score (ties by lower index)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "cluster\tindex\tscore":
        raise ValueError("missing header")
    reps: dict[int, list[tuple[float, int]]] = {c: [] for c in range(k)}
    for line in lines[1:]:
        c, i, score = line.split("\t")
        reps[int(c)].append((float(score), int(i)))
    sizes = [0] * k
    for lab in labels:
        sizes[lab] += 1
    for c, rows in reps.items():
        if len(rows) != min(s, sizes[c]):
            raise ValueError(f"cluster {c} keeps {len(rows)} of {sizes[c]} members")
        if rows != sorted(rows, key=lambda r: (-r[0], r[1])):
            raise ValueError(f"cluster {c} is not in descending score order")
        if any(labels[i] != c for _, i in rows):
            raise ValueError(f"cluster {c} keeps a point of another cluster")
    return {c: [i for _, i in rows] for c, rows in reps.items()}


def check_prompts(prompt_dir: Path, reps: dict[int, list[int]], texts_path: Path) -> None:
    """One prompt per non-empty cluster whose parsed documents are exactly
    the representatives' texts, in order."""
    from spheremix.gis import parse_taxonomy_prompt
    from spheremix.storage import unescape_field

    lines = texts_path.read_text(encoding="utf-8").split("\n")
    expected = {f"cluster_{c:03}.prompt.txt" for c, idx in reps.items() if idx}
    found = {p.name for p in prompt_dir.iterdir()}
    if found != expected:
        raise ValueError(f"prompt files {sorted(found ^ expected)} unexpected or missing")
    for c, idx in reps.items():
        if not idx:
            continue
        text = (prompt_dir / f"cluster_{c:03}.prompt.txt").read_text(encoding="utf-8")
        if parse_taxonomy_prompt(text) != [unescape_field(lines[i]) for i in idx]:
            raise ValueError(f"cluster {c} prompt does not hold its representatives")


def check_student(path: Path, k: int):
    from spheremix.storage import load_student

    model = load_student(path)
    if model.k != k or model.weights.shape != (model.featurizer.buckets, k):
        raise ValueError(f"student has k={model.k}, weights {model.weights.shape}")
    return model


def at_least(value: float, floor: float, what: str) -> None:
    if not value >= floor:
        raise ValueError(f"{what} {value!r} below the seed commit's floor {floor!r}")


@dataclass
class Outputs:
    nmi: float | None
    agreement: float | None


def verify(w: Workload, f: Files, truth: list[int], pred: Prediction | None,
           checks: Checks) -> Outputs:
    """Check every output of one pipeline pass; failures land in checks."""
    import numpy as np
    from spheremix.baselines import HardPartition, nmi

    checks.run("fit trace", check_trace, f.trace_csv)
    labels = checks.run("assign tsv", read_assign, f.assign, w.n, w.k)
    score = agreement = None
    if labels is not None:
        gis_labels = labels[: w.gis_rows or w.n]
        reps = checks.run("gis reps", check_reps, f.reps, gis_labels, w.k, GIS_S)
        if reps is not None:
            checks.run("gis prompts", check_prompts, f.prompts, reps, f.gis_in[1])
        score = nmi(HardPartition(np.asarray(labels), w.k),
                    HardPartition(np.asarray(truth), w.k))
        checks.run("fit_nmi floor", at_least, score, w.min_nmi, "fit_nmi")
        if pred is not None:
            teacher = labels[: w.distill_rows or w.n]
            agreement = sum(a == b for a, b in zip(pred.labels, teacher)) / len(teacher)
            checks.run("student_agreement floor", at_least, agreement,
                       w.min_agreement, "student_agreement")
    return Outputs(score, agreement)


# ---------------------------------------------------------------- passes

@dataclass
class Pass:
    walls: dict[str, float]
    rss: dict[str, float]
    pred: Prediction | None
    out: Outputs | None


def prepare(w: Workload, f: Files, seed: int, runner, checks: Checks) -> float | None:
    """Generate the workload's inputs; returns the set-up wall time."""
    t0 = time.perf_counter()
    run = runner(synth_argv(w, f, seed), f.work / "synth.log")
    if not checks.stage("synth", run):
        return None
    write_heads(w, f, seed)
    return time.perf_counter() - t0


def pipeline(w: Workload, f: Files, seed: int, runner, texts: list[str],
             truth: list[int], checks: Checks, span=None,
             predict_s: float | None = None) -> Pass:
    """fit -> assign -> gis -> distill through `runner`, then predict for
    predict_s (default PREDICT_SECONDS); a failed stage stops the pass."""
    span = span or (lambda name: contextlib.nullcontext())
    walls: dict[str, float] = {}
    rss: dict[str, float] = {}
    shutil.rmtree(f.prompts, ignore_errors=True)
    for stage in STAGES:
        with span(f"cli.{stage}"):
            run = runner(stage_argv(stage, w, f, seed), f.work / f"{stage}.log")
        if not checks.stage(stage, run):
            return Pass(walls, rss, None, None)
        walls[stage] = run.wall_s
        if run.peak_rss_mb is not None:
            rss[stage] = run.peak_rss_mb
    gc.collect()
    with span("bench.predict"):
        pred = checks.run("student loads and predicts", predict_corpus, f.student, texts,
                          PREDICT_SECONDS if predict_s is None else predict_s)
    if pred is None:
        return Pass(walls, rss, None, None)
    walls["predict"] = pred.wall_s
    checks.run("student file", check_student, f.student, w.k)
    return Pass(walls, rss, pred, verify(w, f, truth, pred, checks))


def load_inputs(f: Files) -> tuple[list[str], list[int]]:
    """The distill input's documents and the corpus truth labels."""
    from spheremix import storage

    return storage.read_texts(f.distill_in[1]), storage.read_labels(f.truth).tolist()


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def timed_run(w: Workload, seed: int, seconds: float, work: Path, checks: Checks) -> dict:
    """End-to-end metrics: set-up SETUP_REPS times, then whole pipeline
    passes while another one fits in `seconds` less the predict window (at
    least one), then the predict window on the last pass's student."""
    f = Files(work, w)
    setups = []
    for _ in range(SETUP_REPS):
        s = prepare(w, f, seed, run_child, checks)
        if s is None:
            return {}
        setups.append(s)
    texts, truth = load_inputs(f)
    passes: list[Pass] = []
    start = time.perf_counter()
    budget = max(0.0, seconds - PREDICT_SECONDS)
    while True:
        t0 = time.perf_counter()
        p = pipeline(w, f, seed, run_child, texts, truth, checks, predict_s=0.0)
        passes.append(p)
        if p.out is None:
            return {}
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            break
    gc.collect()
    pred = checks.run("student predicts", predict_corpus, f.student, texts, PREDICT_SECONDS)
    if pred is None:
        return {}

    med = statistics.median
    m = {"setup_s": med(setups)}
    m["pipeline_s"] = med(sum(p.walls.values()) for p in passes)
    for stage in ("fit", "gis", "distill"):
        m[f"{stage}_peak_rss_mb"] = med(p.rss[stage] for p in passes)
    lat_us = [ns / 1e3 for ns in pred.latencies_ns]
    # The fastest 0.1% of calls: the per-document cost when the shared host
    # leaves the core alone. The median and p99 are in the report only.
    m["predict_p0.1_us"] = percentile(lat_us, 0.1)
    m["student_file_mb"] = f.student.stat().st_size / 1e6
    # Too noisy on a shared host to gate (see README); kept in the report.
    m["_stage_s"] = {k: med(p.walls[k] for p in passes) for k in passes[0].walls}
    m["_predict_mean_us"] = statistics.fmean(lat_us)
    m["_predict_p50_us"] = percentile(lat_us, 50)
    m["_predict_p99_us"] = percentile(lat_us, 99)
    m["_predict_p1_us"] = percentile(lat_us, 1)
    m["_predict_min_us"] = min(lat_us)
    last = passes[-1].out
    if last.nmi is not None:
        m["fit_nmi"] = last.nmi
    if last.agreement is not None:
        m["student_agreement"] = last.agreement
    m["_passes"] = len(passes)
    m["_predict_samples"] = len(lat_us)
    m["_pass_s"] = [sum(p.walls.values()) for p in passes]
    return m


def traced_run(w: Workload, seed: int, work: Path, checks: Checks, spans_path: Path) -> dict:
    """Per-layer metrics. The same pipeline runs three times: as child
    processes (stage wall times), in-process untraced, and in-process with
    spans; the last two differ only by the tracing overhead."""
    from spans import NAME, TRACED, SpanIndex, Tracer

    f = Files(work, w)
    synth_a = run_child(synth_argv(w, f, seed), work / "synth.log")
    if not checks.stage("synth", synth_a):
        return {}
    write_heads(w, f, seed)
    texts, truth = load_inputs(f)
    a = pipeline(w, f, seed, run_child, texts, truth, checks)
    if a.out is None:
        return {}
    walls_a = {"synth": synth_a.wall_s, **a.walls}

    def inproc_pass(span):
        with span("cli.synth"):
            synth = run_inproc(synth_argv(w, f, seed), work / "synth.log")
        if not checks.stage("synth", synth):
            return None, None
        with span("bench.heads"):
            write_heads(w, f, seed)
        # One pass over the documents is enough for the in-process passes.
        p = pipeline(w, f, seed, run_inproc, texts, truth, checks, span, predict_s=0.0)
        return synth.wall_s, p

    synth_b, b = inproc_pass(lambda name: contextlib.nullcontext())
    if b is None or b.out is None:
        return {}
    tracer = Tracer(uuid.uuid4().hex)
    with tracer.installed():
        synth_c, c = inproc_pass(tracer.span)
    if c is None or c.out is None:
        return {}
    tracer.write(spans_path)

    from spheremix.storage import load_student
    import numpy as np

    ix = SpanIndex(tracer.spans)
    med = statistics.median

    def stage_calls(name, stage):
        return ix.select(name, stage=f"cli.{stage}")

    def fit_calls_ms(name):
        return med(ix.durations_us(ix.select(name, stage="cli.fit", inside="inference.fit"))) / 1e3

    m: dict[str, float] = {}
    fit_ids = stage_calls("inference.fit", "fit")
    m["inference.init_spherical_kmeans_s"] = ix.total_s(
        stage_calls("inference.init_spherical_kmeans", "fit"))
    m["inference.e_step_ms"] = fit_calls_ms("inference.e_step")
    mu = ix.durations_us(stage_calls("inference.m_step_mu", "fit"))
    kappa = ix.durations_us(stage_calls("inference.m_step_kappa", "fit"))
    m["inference.m_step_ms"] = med(a + b for a, b in zip(mu, kappa)) / 1e3
    m["inference.fit_iters"] = len(stage_calls("inference.e_step", "fit"))
    m["inference.fit_unattributed_s"] = sum(ix.self_ns[i] for i in fit_ids) / 1e9
    for name in ("log_component_scores", "objective_from_scores", "entropy_total",
                 "check_responsibilities"):
        m[f"objective.{name}_ms"] = fit_calls_ms(f"objective.{name}")
    m["objective.posterior_s"] = ix.total_s(stage_calls("objective.posterior", "assign"))
    m["objective.scores_flops"] = 2 * w.n * w.d * w.k
    m["objective.scores_bytes"] = 8 * (w.n * w.d + w.k * w.d + w.n * w.k)
    m["storage.read_embeddings_s"] = ix.total_s(stage_calls("storage.read_embeddings", "assign"))
    m["storage.write_embeddings_s"] = ix.total_s(stage_calls("storage.write_embeddings", "synth"))
    m["synth.sample_mixture_s"] = ix.total_s(stage_calls("synth.sample_mixture", "synth"))
    # Set-up generates documents in synth or, for head-only texts, in bench.heads.
    m["synth.make_text_corpus_s"] = ix.total_s(ix.select("synth.make_text_corpus"))
    m["gis.select_representatives_s"] = ix.total_s(
        stage_calls("gis.select_representatives", "gis"))
    m["gis.local_density_us"] = med(ix.durations_us(stage_calls("gis.local_density", "gis")))
    scored = stage_calls("gis.gis_score", "gis")
    m["gis.gis_score_us"] = med(ix.durations_us(scored))
    m["gis.points_scored"] = len(scored)
    m["gis.export_taxonomy_prompts_ms"] = 1e3 * ix.total_s(
        stage_calls("gis.export_taxonomy_prompts", "gis"))
    feats = ix.durations_us(stage_calls("distill.featurize", "distill"))
    m["distill.featurize_p50_us"] = percentile(feats, 50)
    m["distill.featurize_p99_us"] = percentile(feats, 99)
    train = stage_calls("distill.train_student", "distill")
    m["distill.train_student_s"] = ix.total_s(train)
    # train_student featurizes each training document once, then takes
    # `epochs` SGD steps per document.
    n_train = sum(1 for t in train for ch in ix.children(t)
                  if ix.spans[ch][NAME] == "distill.featurize")
    m["distill.sgd_steps"] = w.epochs * n_train
    m["distill.sgd_step_us"] = sum(ix.self_ns[t] for t in train) / 1e3 / m["distill.sgd_steps"]
    model = load_student(f.student)
    touched = int(np.count_nonzero(np.any(model.weights != 0, axis=1)))
    m["distill.touched_row_frac"] = touched / model.featurizer.buckets
    del model
    m["distill.predict_student_us"] = med(
        ix.durations_us(ix.select("distill.predict_student", stage="bench.predict")))
    m["storage.save_student_s"] = ix.total_s(stage_calls("storage.save_student", "distill"))
    m["storage.load_student_s"] = ix.total_s(
        ix.select("storage.load_student", stage="bench.predict"))
    m["storage.student_bytes"] = f.student.stat().st_size
    for stage in ("synth", *STAGES):
        (root,) = ix.select(f"cli.{stage}")
        inner = sum(ix.dur[ch] for ch in ix.children(root)) / 1e9
        m[f"cli.{stage}.overhead_s"] = walls_a[stage] - inner
    untraced = synth_b + sum(b.walls.values())
    traced = synth_c + sum(c.walls.values())
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    m["trace.spans"] = len(ix.spans)
    for stage in ("synth", *STAGES):
        m[f"cli.{stage}.wall_s"] = walls_a[stage]
    lat_us = [ns / 1e3 for ns in a.pred.latencies_ns]
    m["predict.mean_us"] = statistics.fmean(lat_us)
    m["predict.p50_us"] = percentile(lat_us, 50)
    m["predict.p99_us"] = percentile(lat_us, 99)
    own = ix.self_s_by_name()
    for mod, fn in TRACED:
        if f"{mod}.{fn}" in own:
            m[f"{mod}.{fn}.self_s"] = own[f"{mod}.{fn}"]
    for stage in ("synth", *STAGES):
        m[f"cli.{stage}.self_s"] = own[f"cli.{stage}"]
    return m


# ---------------------------------------------------------------- machine facts

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def llc_bytes() -> int | None:
    """Size of the highest-level cache of cpu0, read from sysfs."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": nproc(),
        "GEM_THREADS": child_env()["GEM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "llc_bytes": llc_bytes(),
    }


def working_set(w: Workload, llc: int | None) -> dict:
    """Computed sizes of the big arrays; no bandwidth is measured."""
    sizes = {
        "X_float64_bytes": 8 * w.n * w.d,
        "scores_nk_bytes": 8 * w.n * w.k,
        "train_weights_bytes": 8 * w.buckets * w.k,
    }
    out: dict = dict(sizes)
    if llc:
        out.update({k.replace("_bytes", "_fits_llc"): v <= llc for k, v in sizes.items()})
    return out


# ---------------------------------------------------------------- entry point

def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 spans_path: Path) -> tuple[dict, Checks]:
    """Run one workload in `work` (which the caller owns); returns the raw
    metrics (private entries start with '_') and the check tally."""
    checks = Checks()
    if trace:
        metrics = traced_run(w, seed, work, checks, spans_path)
    else:
        metrics = timed_run(w, seed, seconds, work, checks)
    return metrics, checks


def result(metrics: dict, checks: Checks, spec: list[dict]) -> dict:
    """The result object: every metric of `spec` that was measured, with
    its unit; a listed metric that is missing, or an unlisted one, fails."""
    named = {m["name"]: m["unit"] for m in spec}
    public = {k: v for k, v in metrics.items() if not k.startswith("_")}
    for name in sorted(named.keys() ^ public.keys()):
        checks.attempted += 1
        where = "measured but not listed in BENCHMARK.json" if name in public else "not measured"
        checks.failures.append(f"metric {name} {where}")
    return {
        "correct": not checks.failures,
        "attempted": max(1, checks.attempted),
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": public[name], "unit": unit}
            for name, unit in named.items() if name in public
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spheremix" / "cli.py").is_file():
        print(f"perfbench: no spheremix sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    spans_path = RUNS / f"{tag}-spans.json"
    try:
        metrics, checks = run_workload(w, args.seed, args.seconds, bool(args.trace),
                                       work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res = result(metrics, checks, spec["per_layer" if args.trace else "end_to_end"])
    facts = machine_facts()
    report = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "machine": facts, "working_set": working_set(w, facts["llc_bytes"]),
        "passes": metrics.get("_passes"), "pass_s": metrics.get("_pass_s"),
        "predict_samples": metrics.get("_predict_samples"),
        "stage_s": metrics.get("_stage_s"), "predict_mean_us": metrics.get("_predict_mean_us"),
        "predict_p50_us": metrics.get("_predict_p50_us"),
        "predict_p99_us": metrics.get("_predict_p99_us"),
        "predict_p1_us": metrics.get("_predict_p1_us"),
        "predict_min_us": metrics.get("_predict_min_us"),
        "failures": checks.failures, "result": res,
    }
    (RUNS / f"{tag}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")

    print(f"# workload {w.name}  seed {args.seed}  trace {args.trace}")
    print(f"# machine {json.dumps(facts)}")
    print(f"# working set (computed, no bandwidth claim) {json.dumps(report['working_set'])}")
    if report["stage_s"]:
        print(f"# stage wall times, s (not gated) {json.dumps(report['stage_s'])}")
        print("# predict latency, us (not gated): "
              + "  ".join(f"{q} {report[f'predict_{q}_us']:.1f}"
                          for q in ("min", "p1", "p50", "mean", "p99"))
              + f"  over {report['predict_samples']} calls in {report['passes']} pass(es)")
    for name, entry in res["metrics"].items():
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
