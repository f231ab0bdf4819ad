"""On-disk formats: binary embeddings, binary student models, JSON mixture
models, and the escaped TSV used for labels, texts and datasets.

Embeddings and student weights ship as little-endian float32, and embeddings
stay float32 in memory: the arithmetic upstream is float64, on one widened row
block at a time. All writers go through a temp-file rename so a partial
output is never observable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import secrets
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .distill import FeaturizerSpec, StudentModel
from .errors import (
    BadMagicError,
    DivergedError,
    MalformedFileError,
    NormFlagViolationError,
    SizeMismatchError,
    TruncatedPayloadError,
)
from .geometry import UNIT_TOL, row_norms
from .objective import MixtureParams

if TYPE_CHECKING:
    from .inference import FitConfig

EMB_MAGIC = b"GEMEMB1"
EMB_VERSION = 1
STUDENT_MAGIC = b"GEMSTU1"
MODEL_FORMAT = "GEMMODEL1"


def atomic_write_bytes(path: str | Path, *parts: bytes | np.ndarray) -> None:
    """Write the buffers one after another through a uniquely named temp
    file and a rename, without joining them in memory. The file gets the
    mode open() would give it: 0o666 less the umask."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------- embeddings

def write_embeddings(X: np.ndarray, path: str | Path, normalized: bool | None = None) -> None:
    """Serialize (n, d) vectors as f32 rows under the GEMEMB1 header.

    normalized = None auto-detects whether every f32 row is unit length
    within UNIT_TOL and sets the header flag accordingly; passing True with
    non-unit rows raises NormFlagViolationError.
    """
    X32 = np.ascontiguousarray(np.asarray(X), dtype="<f4")
    if X32.ndim != 2:
        raise SizeMismatchError(f"expected (n, d) array, got shape {X32.shape}")
    n, d = X32.shape
    unit = bool(np.all(np.abs(row_norms(X32) - 1.0) <= UNIT_TOL))
    if normalized is None:
        normalized = unit
    elif normalized and not unit:
        raise NormFlagViolationError("normalized flag requested but rows are not unit")
    header = EMB_MAGIC + struct.pack("<IQIB", EMB_VERSION, n, d, int(normalized))
    atomic_write_bytes(path, header, X32)


def read_embeddings(path: str | Path) -> np.ndarray:
    """Read a GEMEMB1 file into float32 rows, as stored, with one readinto."""
    off = len(EMB_MAGIC) + struct.calcsize("<IQIB")
    with open(path, "rb") as fh:
        head = fh.read(off)
        if head[: len(EMB_MAGIC)] != EMB_MAGIC:
            raise BadMagicError(f"{path}: expected magic {EMB_MAGIC!r}")
        try:
            version, n, d, flag = struct.unpack_from("<IQIB", head, len(EMB_MAGIC))
        except struct.error as exc:
            raise TruncatedPayloadError(f"{path}: header truncated") from exc
        if version != EMB_VERSION:
            raise BadMagicError(f"{path}: unsupported version {version}")
        if d < 1:
            raise MalformedFileError(f"{path}: header declares d={d}, need d >= 1")
        have, need = os.fstat(fh.fileno()).st_size - off, n * d * 4
        if have < need:
            raise TruncatedPayloadError(
                f"{path}: payload holds {have} bytes, header declares {need}"
            )
        X = np.empty((n, d), dtype="<f4")
        got = fh.readinto(X)
        if got != X.nbytes:
            raise TruncatedPayloadError(f"{path}: payload ended before row {got // (4 * d) + 1}")
    # Squares of widened f32 values cannot overflow f64, so a row's norm is
    # finite exactly when all its values are.
    norms = row_norms(X)
    finite = np.isfinite(norms)
    if not np.all(finite):
        raise MalformedFileError(
            f"{path}: row {int(np.argmin(finite))} holds a NaN or infinite value"
        )
    if flag and np.any(np.abs(norms - 1.0) > UNIT_TOL):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise NormFlagViolationError(
            f"{path}: normalized flag set but row {bad} has norm {norms[bad]:.6f}"
        )
    return X


# ---------------------------------------------------------------- mixture model

def model_to_json(theta: MixtureParams, lam: float, meta: dict) -> str:
    """Human-readable model document; floats use repr so f64 round-trips
    losslessly."""
    doc = {
        "format": MODEL_FORMAT,
        "k": theta.k,
        "d": theta.d,
        "lambda": lam,
        "components": [
            {"mu": theta.means[j].tolist(), "kappa": float(theta.kappas[j])}
            for j in range(theta.k)
        ],
        "meta": meta,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_model(path: str | Path, theta: MixtureParams, lam: float, meta: dict) -> None:
    atomic_write_text(path, model_to_json(theta, lam, meta))


def load_model(path: str | Path) -> tuple[MixtureParams, float, dict]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc.get("format") != MODEL_FORMAT:
            raise BadMagicError(f"{path}: expected format {MODEL_FORMAT!r}")
        comps = doc["components"]
        theta = MixtureParams(
            means=np.array([c["mu"] for c in comps], dtype=np.float64),
            kappas=np.array([c["kappa"] for c in comps], dtype=np.float64),
        )
        if theta.k != doc["k"] or theta.d != doc["d"]:
            raise SizeMismatchError(f"{path}: header k/d disagree with components")
        lam = float(doc["lambda"])
        if not 0.0 <= lam < math.inf:
            raise MalformedFileError(f"{path}: lambda must be finite and >= 0, got {lam}")
        return theta.validate(), lam, doc.get("meta", {})
    # Deep nesting makes json raise RecursionError; an integer too large for
    # a float raises OverflowError.
    except (AttributeError, LookupError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise MalformedFileError(
            f"{path}: not a {MODEL_FORMAT} model ({type(exc).__name__}: {exc})"
        ) from exc


def config_echo(cfg: FitConfig) -> dict:
    """Every FitConfig field in declaration order, lam spelled "lambda"."""
    return {
        "lambda" if f.name == "lam" else f.name: getattr(cfg, f.name)
        for f in dataclasses.fields(cfg)
    }


# ---------------------------------------------------------------- student model

def save_student(path: str | Path, model: StudentModel) -> None:
    """GEMSTU1 binary: u32 {buckets, k, ngram_max, hash_seed}, then f32
    bias[k], then f32 weights[buckets][k] row-major, all little-endian.
    A student load_student would reject for a non-finite value raises
    DivergedError, and no file is written."""
    spec = model.featurizer.validate()
    if model.weights.shape != (spec.buckets, model.k):
        raise SizeMismatchError(
            f"weights shape {model.weights.shape} vs buckets={spec.buckets}, k={model.k}"
        )
    header = STUDENT_MAGIC + struct.pack(
        "<IIII", spec.buckets, model.k, spec.ngram_max, spec.hash_seed
    )
    bias = np.ascontiguousarray(model.bias, dtype="<f4")
    weights = np.ascontiguousarray(model.weights, dtype="<f4")
    if not _all_finite(bias, weights):
        raise DivergedError(f"{path}: bias or weights hold a NaN or infinite value")
    atomic_write_bytes(path, header, bias, weights)


def _all_finite(bias: np.ndarray, weights: np.ndarray) -> bool:
    """Whether every float32 value is finite. A float64 sum of float32 values
    cannot overflow, so it is finite exactly when every value is (inf - inf
    gives NaN); it needs no full-size boolean temporary."""
    with np.errstate(invalid="ignore"):
        total = bias.sum(dtype=np.float64) + weights.sum(dtype=np.float64)
    return bool(np.isfinite(total))


def load_student(path: str | Path) -> StudentModel:
    blob = Path(path).read_bytes()
    if blob[: len(STUDENT_MAGIC)] != STUDENT_MAGIC:
        raise BadMagicError(f"{path}: expected magic {STUDENT_MAGIC!r}")
    off = len(STUDENT_MAGIC)
    try:
        buckets, k, ngram_max, hash_seed = struct.unpack_from("<IIII", blob, off)
    except struct.error as exc:
        raise TruncatedPayloadError(f"{path}: header truncated") from exc
    try:
        spec = FeaturizerSpec(buckets, ngram_max, hash_seed).validate()
    except ValueError as exc:
        raise MalformedFileError(f"{path}: bad GEMSTU1 header ({exc})") from exc
    if k < 1:
        raise MalformedFileError(f"{path}: bad GEMSTU1 header (k must be >= 1, got {k})")
    off += struct.calcsize("<IIII")
    need = (k + buckets * k) * 4
    if len(blob) - off < need:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(blob) - off} bytes, header declares {need}"
        )
    # Read-only views on the file's bytes: no copy of the weights is made.
    bias = np.frombuffer(blob, dtype="<f4", count=k, offset=off)
    weights = np.frombuffer(blob, dtype="<f4", count=buckets * k, offset=off + k * 4)
    weights = weights.reshape(buckets, k)
    if not _all_finite(bias, weights):
        raise MalformedFileError(f"{path}: bias or weights hold a NaN or infinite value")
    return StudentModel(weights=weights, bias=bias, featurizer=spec)


# ---------------------------------------------------------------- escaped TSV

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}


def escape_field(s: str) -> str:
    for raw, esc in _ESCAPES.items():
        s = s.replace(raw, esc)
    return s


_UNESCAPE = re.compile(r"\\([\\tnr])")
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def unescape_field(s: str) -> str:
    """Inverse of escape_field. Any other backslash, such as one before a
    different character or at the end, is kept literally."""
    return _UNESCAPE.sub(lambda m: _UNESCAPES[m.group(1)], s)


def write_dataset_tsv(path: str | Path, labels: np.ndarray, texts: list[str]) -> None:
    """Rows of label<TAB>escaped-text; exact inverse of read_dataset_tsv."""
    if len(texts) != np.asarray(labels).size:
        raise SizeMismatchError(f"{np.asarray(labels).size} labels vs {len(texts)} texts")
    lines = [
        f"{int(lab)}\t{escape_field(txt)}\n" for lab, txt in zip(labels, texts)
    ]
    atomic_write_text(path, "".join(lines))


def read_dataset_tsv(path: str | Path) -> tuple[np.ndarray, list[str]]:
    labels: list[int] = []
    texts: list[str] = []
    for lineno, line in enumerate(_read_lines(path), 1):
        lab, _, rest = line.partition("\t")
        labels.append(_parse_label(lab, path, lineno))
        texts.append(unescape_field(rest))
    return np.asarray(labels, dtype=np.int64), texts


def write_labels(path: str | Path, labels: np.ndarray) -> None:
    atomic_write_text(path, "".join(f"{int(v)}\n" for v in labels))


def read_labels(path: str | Path) -> np.ndarray:
    """One integer label per line, or the index<TAB>label<TAB>probability
    rows `assign` writes, whose index must count up from 0."""
    labels = []
    for j, line in enumerate(_read_lines(path), 1):
        if len(fields := line.split("\t")) == 3 and fields[0] != str(j - 1):
            raise MalformedFileError(f"{path}: line {j}: index {fields[0][:40]!r}, not {j - 1}")
        labels.append(_parse_label(fields[1] if len(fields) == 3 else line, path, j))
    return np.asarray(labels, dtype=np.int64)


def write_texts(path: str | Path, texts: list[str]) -> None:
    atomic_write_text(path, "".join(escape_field(t) + "\n" for t in texts))


def read_texts(path: str | Path) -> list[str]:
    return [unescape_field(line) for line in _read_lines(path)]


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_label(field: str, path: str | Path, lineno: int) -> int:
    try:
        value = int(field)
        if _INT64_MIN <= value <= _INT64_MAX:
            return value
    except ValueError:
        pass
    raise MalformedFileError(
        f"{path}: line {lineno}: label {field[:40]!r} is not a 64-bit integer"
    )


def _read_lines(path: str | Path) -> Iterator[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            for line in fh:
                yield line.rstrip("\n")
        except UnicodeDecodeError:
            # The decoder reads ahead of the lines, so locate the bad byte
            # in the raw file.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise MalformedFileError(
                    f"{path}: line {line} is not UTF-8 ({exc.reason})"
                ) from exc
            raise
