"""In-memory spans recorded around calls into the spheremix modules.

The tracer never edits the program. It replaces a module attribute (and
every other spheremix module attribute bound to the same function object,
so `from .x import f` copies are caught too) with a wrapper that records a
span, and puts the originals back when the `installed()` block ends.
Spans are plain lists kept in memory and written out once, at the end of
the run. Only the calling thread is traced: the program is single-threaded
apart from BLAS.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, function) pairs wrapped in a traced run: the public functions the
# CLI stages call, named "<module>.<function>" in the spans.
TRACED = (
    ("synth", "mixture_means"),
    ("synth", "sample_mixture"),
    ("synth", "make_text_corpus"),
    ("storage", "write_embeddings"),
    ("storage", "read_embeddings"),
    ("storage", "write_labels"),
    ("storage", "write_texts"),
    ("storage", "read_texts"),
    ("storage", "save_model"),
    ("storage", "load_model"),
    ("storage", "atomic_write_bytes"),
    ("storage", "save_student"),
    ("storage", "load_student"),
    ("inference", "fit"),
    ("inference", "init_spherical_kmeans"),
    ("inference", "e_step"),
    ("inference", "m_step_mu"),
    ("inference", "m_step_kappa"),
    ("objective", "log_component_scores"),
    ("objective", "objective_from_scores"),
    ("objective", "surrogate_from_scores"),
    ("objective", "entropy_total"),
    ("objective", "check_responsibilities"),
    ("objective", "posterior"),
    ("gis", "select_representatives"),
    ("gis", "local_density"),
    ("gis", "gis_score"),
    ("gis", "export_taxonomy_prompts"),
    ("distill", "build_pseudo_labeled"),
    ("distill", "split_dataset"),
    ("distill", "train_student"),
    ("distill", "featurize"),
    ("distill", "predict_student"),
    ("distill", "evaluate_student"),
)

ID, PARENT, NAME, START, END = range(5)


class Tracer:
    """Collects spans [id, parent id (-1 for a root), name, start ns, end ns]
    for one run, identified by run_id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, name, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in TRACED for the duration of the block."""
        replaced: list[tuple[object, str, object]] = []
        try:
            for mod_name, attr in TRACED:
                module = importlib.import_module(f"spheremix.{mod_name}")
                orig = getattr(module, attr)
                wrapper = self.wrap(f"{mod_name}.{attr}", orig)
                for name, mod in list(sys.modules.items()):
                    if mod is None or name.partition(".")[0] != "spheremix":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            replaced.append((mod, key, orig))
            yield self
        finally:
            for mod, key, orig in reversed(replaced):
                setattr(mod, key, orig)

    def write(self, path: str | Path) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


class SpanIndex:
    """Durations, self times and ancestry over a finished list of spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        covered = [0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[PARENT] >= 0:
                covered[s[PARENT]] += d
        # Spans nest strictly on one thread, so children never overlap and
        # their summed durations are exactly the part of the parent they cover.
        self.self_ns = [d - c for d, c in zip(self.dur, covered)]
        self.root = [0] * len(spans)
        for s in spans:
            p = s[PARENT]
            self.root[s[ID]] = s[ID] if p < 0 else self.root[p]

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def select(self, name: str, stage: str | None = None, inside: str | None = None) -> list[int]:
        """Ids of spans called `name`, optionally only under the root span
        `stage` and only below an ancestor called `inside`."""
        out = []
        for s in self.spans:
            if s[NAME] != name:
                continue
            if stage is not None and self.spans[self.root[s[ID]]][NAME] != stage:
                continue
            if inside is not None and not self.has_ancestor(s[ID], inside):
                continue
            out.append(s[ID])
        return out

    def total_s(self, ids: list[int]) -> float:
        return sum(self.dur[i] for i in ids) / 1e9

    def durations_us(self, ids: list[int]) -> list[float]:
        return [self.dur[i] / 1e3 for i in ids]

    def children(self, i: int) -> list[int]:
        return [s[ID] for s in self.spans if s[PARENT] == i]

    def self_s_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_ns):
            out[s[NAME]] = out.get(s[NAME], 0.0) + own / 1e9
        return out
