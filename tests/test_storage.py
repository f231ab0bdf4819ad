"""File formats: binary embeddings, JSON mixture models, binary student
models, escaped TSV."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import traced_peak
from spheremix.distill import FeaturizerSpec, StudentModel, predict_student
from spheremix.errors import (
    BadMagicError,
    MalformedFileError,
    NormFlagViolationError,
    SizeMismatchError,
    SphereMixError,
    TruncatedPayloadError,
)
from spheremix.geometry import normalize
from spheremix.inference import FitConfig
from spheremix.objective import MixtureParams
from spheremix.storage import (
    atomic_write_bytes,
    config_echo,
    escape_field,
    load_model,
    load_student,
    model_to_json,
    read_dataset_tsv,
    read_embeddings,
    read_labels,
    read_texts,
    save_model,
    save_student,
    unescape_field,
    write_dataset_tsv,
    write_embeddings,
    write_labels,
    write_texts,
)

def student_blob(buckets, k, ngram_max, hash_seed, payload=None):
    """A GEMSTU1 file image; the payload defaults to zeros of the declared size."""
    if payload is None:
        payload = bytes(4 * (k + buckets * k))
    return b"GEMSTU1" + struct.pack("<IIII", buckets, k, ngram_max, hash_seed) + payload


NASTY = ["plain", "tab\there", "new\nline", "back\\slash", "cr\rhere",
         "\\t literal", "", "mix\t\n\\\r end", "unicode é中"]


class TestEmbeddings:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((17, 5)).astype(np.float32)
        path = tmp_path / "emb.bin"
        write_embeddings(X, path)
        back = read_embeddings(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, X.astype(np.float64))

    def test_unit_rows_set_flag(self, tmp_path):
        rng = np.random.default_rng(1)
        X = normalize(rng.standard_normal((8, 6))).astype(np.float32)
        # renormalize in f32 so rows stay unit after the cast
        X = (X / np.linalg.norm(X.astype(np.float64), axis=1, keepdims=True)).astype(np.float32)
        path = tmp_path / "emb.bin"
        write_embeddings(X, path)
        blob = path.read_bytes()
        flag = struct.unpack_from("<IQIB", blob, 7)[3]
        assert flag == 1
        read_embeddings(path)  # flag verified on read without error

    def test_flag_requested_on_non_unit_rows(self, tmp_path):
        X = np.full((3, 4), 2.0)
        with pytest.raises(NormFlagViolationError):
            write_embeddings(X, tmp_path / "emb.bin", normalized=True)

    def test_header_row_count_exceeds_payload(self, tmp_path):
        # header declares n=2 rows of d=3 but payload carries only one
        blob = b"GEMEMB1" + struct.pack("<IQIB", 1, 2, 3, 0)
        blob += np.zeros(3, dtype="<f4").tobytes()
        path = tmp_path / "short.bin"
        path.write_bytes(blob)
        with pytest.raises(TruncatedPayloadError):
            read_embeddings(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(b"GEMEMB1" + b"\x01")
        with pytest.raises(TruncatedPayloadError):
            read_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTEMB1" + b"\x00" * 40)
        with pytest.raises(BadMagicError):
            read_embeddings(path)

    def test_zero_width_rows_rejected(self, tmp_path):
        # d=0 declares no payload however large n is
        path = tmp_path / "wide.bin"
        path.write_bytes(b"GEMEMB1" + struct.pack("<IQIB", 1, 2**62, 0, 0))
        with pytest.raises(MalformedFileError, match="wide.bin"):
            read_embeddings(path)

    def test_bad_version(self, tmp_path):
        blob = b"GEMEMB1" + struct.pack("<IQIB", 9, 0, 3, 0)
        path = tmp_path / "v9.bin"
        path.write_bytes(blob)
        with pytest.raises(BadMagicError):
            read_embeddings(path)

    def test_flag_set_but_rows_not_unit(self, tmp_path):
        blob = b"GEMEMB1" + struct.pack("<IQIB", 1, 1, 3, 1)
        blob += np.array([2.0, 0.0, 0.0], dtype="<f4").tobytes()
        path = tmp_path / "lie.bin"
        path.write_bytes(blob)
        with pytest.raises(NormFlagViolationError):
            read_embeddings(path)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(SizeMismatchError):
            write_embeddings(np.zeros(5), tmp_path / "emb.bin")

    def test_no_temp_files_left_behind(self, tmp_path):
        write_embeddings(np.zeros((2, 2), dtype=np.float32), tmp_path / "emb.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["emb.bin"]

    @pytest.mark.parametrize("flag", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, tmp_path, flag, bad):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, bad, 0.0]], dtype="<f4")
        path = tmp_path / "nan.bin"
        path.write_bytes(b"GEMEMB1" + struct.pack("<IQIB", 1, 2, 3, flag) + rows.tobytes())
        with pytest.raises(MalformedFileError, match="row 1"):
            read_embeddings(path)

    # 40,000 rows of d=128: 20 MB of float32 payload, 40 row blocks.
    def test_read_holds_the_rows_once(self, tmp_path):
        # The payload is widened one row block at a time into the returned
        # array, and norms are taken per block: no copy of the file's bytes
        # and no full-size squares temporary (about 2.5x nbytes before).
        path = tmp_path / "emb.bin"
        write_embeddings(normalize(np.random.default_rng(2).standard_normal((40_000, 128))), path)
        X, peak = traced_peak(read_embeddings, path)
        assert peak <= 1.2 * X.nbytes, peak / X.nbytes

    def test_write_holds_one_float32_copy(self, tmp_path):
        # Float64 rows are rounded to float32 once; the unit-norm check
        # widens and squares one row block at a time (5.1x the payload
        # before, from a float64 copy of the rounded rows and its squares).
        X = normalize(np.random.default_rng(3).standard_normal((40_000, 128)))
        _, peak = traced_peak(write_embeddings, X, tmp_path / "emb.bin")
        payload = X.size * 4
        assert peak <= 1.2 * payload, peak / payload


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_open_default(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write_bytes(tmp_path / "out.bin", b"payload")
        finally:
            os.umask(old)
        assert (tmp_path / "out.bin").stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_rename_cleans_up(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestModelJson:
    def make_theta(self, k=3, d=5, seed=0):
        rng = np.random.default_rng(seed)
        return MixtureParams(
            means=normalize(rng.standard_normal((k, d))),
            kappas=rng.uniform(0.1, 500.0, size=k),
        )

    def test_round_trip_lossless(self, tmp_path):
        theta = self.make_theta()
        path = tmp_path / "model.json"
        save_model(path, theta, lam=5000.0, meta={"iters": 12, "seed": 0})
        back, lam, meta = load_model(path)
        np.testing.assert_array_equal(back.means, theta.means)
        np.testing.assert_array_equal(back.kappas, theta.kappas)
        assert lam == 5000.0
        assert meta == {"iters": 12, "seed": 0}

    def test_awkward_floats_survive(self, tmp_path):
        theta = MixtureParams(
            means=normalize(np.array([[1.0, 1e-17, -3.0], [0.1, 0.2, 0.3]])),
            kappas=np.array([np.nextafter(50.0, 51.0), 1e-12]),
        )
        path = tmp_path / "model.json"
        save_model(path, theta, lam=0.1 + 0.2, meta={})
        back, lam, _ = load_model(path)
        np.testing.assert_array_equal(back.means, theta.means)
        np.testing.assert_array_equal(back.kappas, theta.kappas)
        assert lam == 0.1 + 0.2

    def test_format_marker_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "SOMETHINGELSE"}))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_header_component_mismatch(self, tmp_path):
        theta = self.make_theta(k=2, d=4)
        path = tmp_path / "model.json"
        save_model(path, theta, lam=1.0, meta={})
        doc = json.loads(path.read_text())
        doc["k"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(SizeMismatchError):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "GEMMODEL1", "k": ')
        with pytest.raises(MalformedFileError, match="model.json"):
            load_model(path)

    @pytest.mark.parametrize("key", ["components", "k", "d", "lambda", "mu", "kappa"])
    def test_missing_key(self, tmp_path, key):
        path = tmp_path / "model.json"
        save_model(path, self.make_theta(), lam=1.0, meta={})
        doc = json.loads(path.read_text())
        del (doc["components"][0] if key in ("mu", "kappa") else doc)[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match=f"model.json.*{key}"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("components", 5),
            ("components", "abc"),
            ("components", []),
            ("lambda", "heavy"),
            ("lambda", None),
            ("mu", "north"),
            ("mu", [1.0, 0.0]),
            ("kappa", None),
            ("kappa", [1.0]),
        ],
    )
    def test_wrong_typed_value(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model(path, self.make_theta(), lam=1.0, meta={})
        doc = json.loads(path.read_text())
        (doc["components"][0] if field in ("mu", "kappa") else doc)[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SphereMixError, match="model.json"):
            load_model(path)

    @pytest.mark.parametrize("lam", ["NaN", "Infinity", "-Infinity", "-1.0"])
    def test_lambda_must_be_finite_and_nonnegative(self, tmp_path, lam):
        path = tmp_path / "model.json"
        save_model(path, self.make_theta(), lam=1.0, meta={})
        doc = path.read_text().replace('"lambda": 1.0', f'"lambda": {lam}')
        path.write_text(doc)
        with pytest.raises(MalformedFileError, match="model.json.*lambda"):
            load_model(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(MalformedFileError, match="model.json"):
            load_model(path)

    def test_config_echo_defaults(self):
        echo = config_echo(FitConfig())
        assert echo["k"] == 24
        assert echo["lambda"] == 5000.0
        assert echo["max_iters"] == 200
        # The model JSON and the fit stdout print the keys in this order.
        assert list(echo) == ["k", "lambda", "max_iters", "stop_tol", "seed"]


class TestStudentFile:
    def make_model(self, seed=0, buckets=1 << 10, k=3):
        rng = np.random.default_rng(seed)
        return StudentModel(
            weights=rng.standard_normal((buckets, k)).astype(np.float32),
            bias=rng.standard_normal(k).astype(np.float32),
            featurizer=FeaturizerSpec(buckets=buckets, ngram_max=2, hash_seed=7),
        )

    def test_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "student.bin"
        save_student(path, model)
        back = load_student(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.bias, model.bias)
        assert back.featurizer == model.featurizer

    def test_header_layout(self, tmp_path):
        model = self.make_model(buckets=1 << 8, k=2)
        path = tmp_path / "student.bin"
        save_student(path, model)
        blob = path.read_bytes()
        assert blob[:7] == b"GEMSTU1"
        buckets, k, ngram_max, hash_seed = struct.unpack_from("<IIII", blob, 7)
        assert (buckets, k, ngram_max, hash_seed) == (256, 2, 2, 7)
        assert len(blob) == 7 + 16 + 4 * (k + buckets * k)

    @pytest.mark.parametrize("dtype, order", [(np.float32, "C"), (np.float64, "F")])
    def test_bytes_are_the_gemstu1_layout(self, tmp_path, dtype, order):
        model = self.make_model(buckets=1 << 6, k=3)
        model.weights = np.asarray(model.weights, dtype=dtype, order=order)
        path = tmp_path / "student.bin"
        save_student(path, model)
        want = (
            b"GEMSTU1"
            + struct.pack("<IIII", 64, 3, 2, 7)
            + model.bias.astype("<f4").tobytes()
            + model.weights.astype("<f4").tobytes(order="C")
        )
        assert path.read_bytes() == want

    def test_save_adds_no_copy_of_the_weights(self, tmp_path):
        # The header, bias and weights are written one after another,
        # never joined into one bytes object.
        model = self.make_model(buckets=1 << 17, k=8)
        _, peak = traced_peak(save_student, tmp_path / "student.bin", model)
        assert peak < 0.1 * model.weights.nbytes

    def test_truncated(self, tmp_path):
        model = self.make_model(buckets=1 << 8, k=2)
        path = tmp_path / "student.bin"
        save_student(path, model)
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedPayloadError):
            load_student(clipped)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"GEMSTU9" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_student(path)

    @pytest.mark.parametrize(
        "field, value", [("buckets", 0), ("k", 0), ("ngram_max", 0), ("ngram_max", 99)]
    )
    def test_bad_header_field(self, tmp_path, field, value):
        header = dict(buckets=4, k=2, ngram_max=2, hash_seed=0)
        header[field] = value
        path = tmp_path / "student.bin"
        path.write_bytes(student_blob(**header))
        with pytest.raises(MalformedFileError, match="student.bin"):
            load_student(path)

    @pytest.mark.parametrize("row", [0, 3])  # the bias row, then a weight row
    def test_non_finite_values_rejected(self, tmp_path, row):
        values = np.zeros((1 + 4, 2), dtype="<f4")
        values[row, 1] = np.nan if row else np.inf
        path = tmp_path / "student.bin"
        path.write_bytes(student_blob(4, 2, 2, 0, values.tobytes()))
        with pytest.raises(MalformedFileError, match="student.bin"):
            load_student(path)

    @pytest.mark.parametrize("rows", [(0, 3), (1, 4)])  # bias and weights; two weight rows
    def test_opposite_infinities_rejected(self, tmp_path, rows):
        values = np.zeros((1 + 4, 2), dtype="<f4")
        values[rows[0], 0] = np.inf
        values[rows[1], 1] = -np.inf
        path = tmp_path / "student.bin"
        path.write_bytes(student_blob(4, 2, 2, 0, values.tobytes()))
        with pytest.raises(MalformedFileError, match="student.bin"):
            load_student(path)

    def test_float32_max_rows_load(self, tmp_path):
        big = np.finfo(np.float32).max
        values = np.zeros((1 + 4, 2), dtype="<f4")
        values[:3] = big
        values[3:] = -big
        path = tmp_path / "student.bin"
        path.write_bytes(student_blob(4, 2, 2, 0, values.tobytes()))
        back = load_student(path)
        np.testing.assert_array_equal(back.bias, values[0])
        np.testing.assert_array_equal(back.weights, values[1:])

    @pytest.mark.parametrize("part, value", [("weights", np.inf), ("bias", np.nan)])
    def test_non_finite_student_not_saved(self, tmp_path, part, value):
        # save_student makes load_student's finiteness check and writes no
        # file, rather than one its reader rejects.
        model = self.make_model()
        getattr(model, part)[1] = value
        with pytest.raises(SphereMixError, match="NaN or infinite"):
            save_student(tmp_path / "student.bin", model)
        assert list(tmp_path.iterdir()) == []

    def test_shape_mismatch_on_save(self, tmp_path):
        model = self.make_model()
        bad = StudentModel(
            weights=model.weights[:-1],
            bias=model.bias,
            featurizer=model.featurizer,
        )
        with pytest.raises(SizeMismatchError):
            save_student(tmp_path / "student.bin", bad)


class TestEscapedTsv:
    @pytest.mark.parametrize("s", NASTY)
    def test_escape_inverse(self, s):
        assert unescape_field(escape_field(s)) == s

    def test_escaped_form_is_single_line(self):
        for s in NASTY:
            esc = escape_field(s)
            assert "\t" not in esc and "\n" not in esc and "\r" not in esc

    @given(st.text(max_size=60))
    def test_escape_inverse_property(self, s):
        assert unescape_field(escape_field(s)) == s

    @pytest.mark.parametrize(
        "raw, want",
        [("\\x", "\\x"), ("end\\", "end\\"), ("\\", "\\"), ("\\\\n", "\\n"),
         ("\\\\\\t", "\\\t")],
    )
    def test_non_escapes_kept_literally(self, raw, want):
        assert unescape_field(raw) == want

    def test_dataset_round_trip(self, tmp_path):
        labels = np.arange(len(NASTY)) % 3
        path = tmp_path / "ds.tsv"
        write_dataset_tsv(path, labels, NASTY)
        back_labels, back_texts = read_dataset_tsv(path)
        np.testing.assert_array_equal(back_labels, labels)
        assert back_texts == NASTY

    def test_dataset_length_check(self, tmp_path):
        with pytest.raises(SizeMismatchError):
            write_dataset_tsv(tmp_path / "ds.tsv", np.array([0, 1]), ["only one"])

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([0, 5, 2, 2, 7], dtype=np.int64)
        path = tmp_path / "labels.txt"
        write_labels(path, labels)
        np.testing.assert_array_equal(read_labels(path), labels)

    def test_labels_read_from_assign_rows(self, tmp_path):
        path = tmp_path / "assign.tsv"
        path.write_text("0\t3\t0.9\n1\t0\t1.0\n2\t3\t0.5000000000000001\n")
        np.testing.assert_array_equal(read_labels(path), [3, 0, 3])

    @pytest.mark.parametrize("body", ["0\t3\t0.9\n2\t0\t1.0\n", "0\t3\t0.9\n01\t0\t1.0\n"])
    def test_assign_rows_count_up_from_zero(self, tmp_path, body):
        path = tmp_path / "assign.tsv"
        path.write_text(body)
        with pytest.raises(MalformedFileError, match="assign.tsv: line 2: index"):
            read_labels(path)

    def test_texts_round_trip(self, tmp_path):
        path = tmp_path / "texts.txt"
        write_texts(path, NASTY)
        assert read_texts(path) == NASTY

    @pytest.mark.parametrize(
        "raw, want",
        [(b"", []), (b"\n", [""]), (b"a\n\nb", ["a", "", "b"]), (b"a\r\nb\n", ["a\r", "b"])],
    )
    def test_line_splitting(self, tmp_path, raw, want):
        path = tmp_path / "texts.txt"
        path.write_bytes(raw)
        assert read_texts(path) == want

    def test_one_record_per_line(self, tmp_path):
        path = tmp_path / "texts.txt"
        write_texts(path, NASTY)
        raw = path.read_text(encoding="utf-8")
        assert raw.count("\n") == len(NASTY)


class TestLineReaderErrors:
    """A bad line ends as a MalformedFileError naming the file and the line."""

    @pytest.mark.parametrize("reader", [read_texts, read_labels, read_dataset_tsv])
    def test_bad_utf8(self, tmp_path, reader):
        path = tmp_path / "lines.txt"
        # far past the decoder's read-ahead buffer
        path.write_bytes(b"0\n" * 5000 + b"\xff\xfe broken\n1\n")
        with pytest.raises(MalformedFileError, match="lines.txt: line 5001 "):
            reader(path)

    @pytest.mark.parametrize(
        "body, line", [(b"0\n1\nx\n", 3), (b"\n", 1), (b"7\n" + b"9" * 30 + b"\n", 2)]
    )
    def test_bad_label(self, tmp_path, body, line):
        path = tmp_path / "labels.txt"
        path.write_bytes(body)
        with pytest.raises(MalformedFileError, match=f"labels.txt: line {line}"):
            read_labels(path)

    def test_bad_dataset_label(self, tmp_path):
        path = tmp_path / "ds.tsv"
        path.write_bytes(b"0\tfirst\nlabel\tsecond\n")
        with pytest.raises(MalformedFileError, match="ds.tsv: line 2"):
            read_dataset_tsv(path)


class TestTextReadersFuzz:
    """Whatever the bytes, a text reader gives a result or a SphereMixError."""

    @pytest.mark.parametrize("reader", [read_texts, read_labels, read_dataset_tsv, load_model])
    @given(
        prefix=st.sampled_from([b"", b"0\t", b"12\n", b'{"format": "GEMMODEL1", ']),
        rest=st.binary(max_size=96),
    )
    def test_arbitrary_bytes(self, tmp_path_factory, reader, prefix, rest):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_bytes(prefix + rest)
        try:
            reader(path)
        except SphereMixError:
            pass

    @given(
        field=st.sampled_from(["k", "d", "lambda", "components", "mu", "kappa"]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=8,
        ),
    )
    def test_model_fields(self, tmp_path_factory, field, value):
        theta = MixtureParams(means=np.eye(2), kappas=np.array([1.0, 2.0]))
        doc = json.loads(model_to_json(theta, 1.0, {}))
        (doc["components"][0] if field in ("mu", "kappa") else doc)[field] = value
        path = tmp_path_factory.getbasetemp() / "fuzz_model.json"
        path.write_text(json.dumps(doc))
        try:
            load_model(path)
        except SphereMixError:
            pass


class TestBinaryReadersFuzz:
    """Whatever the bytes, a reader gives a result or a SphereMixError."""

    @pytest.mark.parametrize("reader", [read_embeddings, load_student])
    @given(
        prefix=st.sampled_from([b"", b"GEMEMB1", b"GEMEMB1\x01\0\0\0", b"GEMSTU1"]),
        rest=st.binary(max_size=96),
    )
    def test_arbitrary_bytes(self, tmp_path_factory, reader, prefix, rest):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(prefix + rest)
        try:
            reader(path)
        except SphereMixError:
            pass

    @given(
        buckets=st.integers(0, 64),
        k=st.integers(0, 8),
        ngram_max=st.integers(0, 2**32 - 1),
        hash_seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_small_student_headers(self, tmp_path_factory, buckets, k, ngram_max,
                                   hash_seed, data):
        payload = data.draw(st.binary(min_size=4 * (k + buckets * k),
                                      max_size=4 * (k + buckets * k)))
        path = tmp_path_factory.getbasetemp() / "fuzz_student.bin"
        path.write_bytes(student_blob(buckets, k, ngram_max, hash_seed, payload))
        try:
            probs, label = predict_student(load_student(path), "The quick brown fox")
        except SphereMixError:
            return
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert 0 <= label < k
