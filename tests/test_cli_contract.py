"""The CLI contract as a property: whatever flag values fit, assign, gis or
distill get, the command either exits 0 with outputs that load with their
readers, or exits 1 with one `spheremix:` line on stderr and writes nothing.

Flag values come from small, bounded ranges (zeros, negatives, NaN,
infinities, huge rates, at most 2^12 buckets) on a 60-row corpus, so no draw
asks for much memory or time."""

import contextlib
import io
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremix import storage
from spheremix.cli import main
from spheremix.gis import parse_taxonomy_prompt

N, K = 60, 3

REALS = st.one_of(
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300]),
    st.floats(-1e3, 1e3),
)
SMALL = st.integers(-2, N + 2)
SEEDS = st.integers(-2, 2**64)


def flag(name, values):
    """`--name=value` (so negative values parse), or the flag left out."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v!r}"]))


def flags(*parts):
    return st.tuples(*parts, st.sampled_from([[], ["--deterministic"]])).map(
        lambda groups: [a for g in groups for a in g]
    )


FIT = flags(flag("k", st.integers(-1, 5)), flag("lambda", REALS),
            flag("max-iters", st.integers(-1, 5)), flag("stop-tol", REALS),
            flag("seed-fraction", st.one_of(REALS, st.sampled_from([0.3, 1.0]))),
            flag("seed", SEEDS))
ASSIGN = flags(flag("seed", SEEDS))
GIS = flags(flag("gis-beta", REALS), flag("gis-m", SMALL), flag("gis-s", SMALL),
            flag("seed", SEEDS))
DISTILL = flags(flag("distill-m", SMALL), flag("gis-beta", REALS), flag("gis-m", SMALL),
                flag("epochs", st.integers(-1, 3)),
                flag("lr", st.one_of(st.sampled_from([1e300, 1e30, 50.0]), REALS)),
                flag("buckets", st.integers(-1, 1 << 12)), flag("seed", SEEDS))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--output", str(d / "emb.bin"), "--texts-output",
                     str(d / "texts.txt"), "--n", str(N), "--d", "8",
                     "--components", str(K), "--seed", "0"]) == 0
        assert main(["fit", "--input", str(d / "emb.bin"), "--output",
                     str(d / "model.json"), "--k", str(K)]) == 0
    return d


def check_tsv(path, header, *types):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    for line in lines[1:]:
        fields = line.split("\t") if "\t" in header else line.split(",")
        assert len(fields) == len(types)
        for kind, field in zip(types, fields):
            kind(field)


def check_outputs(out, files):
    """Each output of a successful run loads with its reader."""
    readers = {
        "model.json": storage.load_model,
        "model.json.trace.csv": lambda p: check_tsv(p, "iteration,objective", int, float),
        "assign.tsv": storage.read_labels,
        "reps.tsv": lambda p: check_tsv(p, "cluster\tindex\tscore", int, int, float),
        "student.bin": storage.load_student,
        "dataset.tsv": storage.read_dataset_tsv,
    }
    for name in files:
        readers[name](out / name)
    for prompt in (out / "prompts").glob("*.prompt.txt"):
        parse_taxonomy_prompt(prompt.read_text(encoding="utf-8"))


def run_draw(corpus, tmp_path_factory, command, extra):
    out = tmp_path_factory.mktemp(command)
    inputs = ["--input", str(corpus / "emb.bin")]
    teacher = inputs + ["--model", str(corpus / "model.json")]
    texts = ["--texts", str(corpus / "texts.txt")]
    argv, files = {
        "fit": (inputs + ["--output", str(out / "model.json")],
                ["model.json", "model.json.trace.csv"]),
        "assign": (teacher + ["--output", str(out / "assign.tsv")], ["assign.tsv"]),
        "gis": (teacher + texts + ["--output", str(out / "reps.tsv"),
                                   "--prompt-dir", str(out / "prompts")], ["reps.tsv"]),
        "distill": (teacher + texts + ["--output", str(out / "student.bin"),
                                       "--dataset", str(out / "dataset.tsv")],
                    ["student.bin", "dataset.tsv"]),
    }[command]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([command, *argv, *extra])
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numeric, numeric
    if code == 0:
        check_outputs(out, files)
    else:
        assert code == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("spheremix: "), lines
        assert list(out.rglob("*")) == []


@pytest.mark.parametrize("command, strategy", [
    pytest.param(name, strategy, id=name)
    for name, strategy in [("fit", FIT), ("assign", ASSIGN), ("gis", GIS), ("distill", DISTILL)]
])
def test_exit_zero_with_readable_outputs_or_one_error_line(
    corpus, tmp_path_factory, command, strategy
):
    @settings(max_examples=40)
    @given(strategy)
    def draw(extra):
        run_draw(corpus, tmp_path_factory, command, extra)

    draw()
