"""Generators, file loaders, and batching."""

import json
import math
import os
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadenhance import datasets as data
from quadenhance.cli import main
from quadenhance.config import DatasetSpec
from quadenhance.enhancer import qe_forward
from quadenhance.errors import ConfigError, DataError, QuadEnhanceError
from quadenhance.training import build_dataset

from oracles import linear_floor_mse


def _save_csv(ds: data.Dataset, path) -> None:
    """Write a header, the features and a final label column at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{i}" for i in range(ds.n)] + ["y"]) + "\n")
        labels = ds.labels if ds.labels.ndim == 1 else ds.labels[:, 0]
        for row, lab in zip(ds.features, labels):
            cells = [f"{v:.17g}" for v in row]
            cells.append(str(int(lab)) if ds.is_classification else f"{lab:.17g}")
            fh.write(",".join(cells) + "\n")


class TestXor:
    def test_labels(self):
        ds = data.gen_xor()
        for x, y in zip(ds.features, ds.labels):
            assert y == (1 if x[0] * x[1] > 0 else 0)

    def test_size_four(self):
        assert len(data.gen_xor().features) == 4

    def test_specific_points(self):
        ds = data.gen_xor()
        table = {tuple(x): y for x, y in zip(ds.features, ds.labels)}
        assert table[(1.0, 1.0)] == 1
        assert table[(1.0, -1.0)] == 0

    def test_encoding_flag(self):
        with pytest.raises(ConfigError):
            data.gen_xor(encoding=2)


class TestQuadraticTarget:
    def test_seed_reproducibility(self):
        a = data.gen_quadratic_target(4, 4, (1,), seed=9, size=32)
        b = data.gen_quadratic_target(4, 4, (1,), seed=9, size=32)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_generating_layer_fits_exactly(self):
        ds = data.gen_quadratic_target(5, 4, (1,), seed=3, size=64)
        pred = qe_forward(ds.generator, ds.features)
        assert float(np.mean((pred - ds.labels) ** 2)) == 0.0

    def test_linear_floor_positive(self):
        ds = data.gen_quadratic_target(8, 8, (1,), seed=1, size=256)
        floor = linear_floor_mse(ds.features, ds.labels)
        assert floor > 1e-2

    def test_validates_dims(self):
        with pytest.raises(ConfigError):
            data.gen_quadratic_target(1, 4, (1,), seed=0, size=8)

    def test_rejects_repeated_shift(self):
        # the hidden layer's {shift: vector} dict would keep one of the two
        with pytest.raises(ConfigError, match="duplicate shifts"):
            data.gen_quadratic_target(3, 4, (1, 1), seed=0, size=8)


class TestBlobsAndCircles:
    def test_blobs_reproducible(self):
        a = data.gen_blobs(classes=3, size=60, noise=0.3, seed=4)
        b = data.gen_blobs(classes=3, size=60, noise=0.3, seed=4)
        assert a.features.tobytes() == b.features.tobytes()

    def test_blobs_negative_noise(self):
        with pytest.raises(ConfigError):
            data.gen_blobs(noise=-0.1)

    def test_circles_exact_radii_at_zero_noise(self):
        ds = data.gen_circles(classes=2, size=80, noise=0.0, seed=2)
        radii = np.sqrt((ds.features ** 2).sum(axis=1))
        np.testing.assert_allclose(radii, ds.labels + 1.0, atol=1e-12)

    def test_circles_not_linearly_separable(self):
        """An affine least-squares classifier stays near chance on rings."""
        ds = data.gen_circles(classes=2, size=200, noise=0.0, seed=7)
        x, y = ds.features, ds.labels.astype(np.float64)
        a = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        theta, *_ = np.linalg.lstsq(a, 2 * y - 1, rcond=None)
        acc = float(np.mean(((a @ theta) > 0) == (y > 0.5)))
        assert acc <= 0.60

    def test_split_disjoint_and_covering(self):
        ds = data.gen_circles(classes=2, size=50, noise=0.1, seed=1, valid_fraction=0.2)
        assert len(ds.train_idx) == 40 and len(ds.valid_idx) == 10
        assert set(ds.train_idx) | set(ds.valid_idx) == set(range(50))


class TestCsv:
    def test_two_row_example(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,y\n0,1,0\n1,0,1\n")
        ds = data.load_csv(p, label_column="y")
        assert ds.features.shape == (2, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_label_by_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,0\n3,4,1\n")
        ds = data.load_csv(p, label_column=2, has_header=False)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed_cell_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,0\nfoo,1\n")
        with pytest.raises(DataError, match=":3"):
            data.load_csv(p, label_column="y")

    def test_missing_column_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,0\n")
        with pytest.raises(DataError):
            data.load_csv(p, label_column="z")

    def test_label_index_out_of_range(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="label column is -5"):
            data.load_csv(p, label_column=-5, has_header=False)

    def test_inconsistent_width(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,0\n1,0\n", )
        with pytest.raises(DataError):
            data.load_csv(p, label_column=0, has_header=False)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label", ["1e300", "-1e300", "1e19"])
    def test_class_label_outside_int64(self, tmp_path, label):
        # the int64 cast would warn "invalid value encountered in cast"
        p = tmp_path / "d.csv"
        p.write_text(f"x,y\n1,0\n2,{label}\n")
        with pytest.raises(DataError, match="d.csv: class labels outside the int64 range"):
            data.load_csv(p, label_column="y")

    @pytest.mark.parametrize("text, message", [
        ("x1,x2,y\n", "d.csv: no data rows"),
        ("y,x1,x2\n0,1,0\n1,0\n", "d.csv: inconsistent column counts [1, 2]")],
        ids=["header-only", "ragged"])
    def test_bad_rows_exit_3_through_train(self, tmp_path, capsys, text, message):
        (tmp_path / "d.csv").write_text(text)
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({
            "model": {"type": "qe_mlp", "layer_dims": [2, 2], "activation": "identity"},
            "dataset": {"name": "csv", "path": str(tmp_path / "d.csv"), "label_column": 0},
            "optimizer": {"algo": "sgd", "lr": 0.1}, "epochs": 1, "batch_size": 4}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                           min_size=2, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_exact(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("csv")
        feats = np.array(values, dtype=np.float64).reshape(-1, 1)
        labels = (np.arange(len(feats)) % 2).astype(np.int64)
        ds = data.Dataset(features=feats, labels=labels,
                          train_idx=np.arange(len(feats)),
                          valid_idx=np.arange(len(feats), len(feats)),
                          n_classes=2)
        p = tmp / "rt.csv"
        _save_csv(ds, p)
        back = data.load_csv(p, label_column="y", valid_fraction=0.0)
        assert back.features.tobytes() == feats.tobytes()
        np.testing.assert_array_equal(back.labels, labels)


def _write_idx_pair(tmp_path, count=3, rows=28, cols=28, magic_img=data.IDX_IMAGE_MAGIC,
                    magic_lab=data.IDX_LABEL_MAGIC, truncate=0):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    pixels = bytes(range(256)) * ((count * rows * cols) // 256 + 1)
    body = struct.pack(">iiii", magic_img, count, rows, cols) + pixels[:count * rows * cols]
    if truncate:
        body = body[:-truncate]
    img.write_bytes(body)
    lab.write_bytes(struct.pack(">ii", magic_lab, count) + bytes([i % 10 for i in range(count)]))
    return img, lab


class TestIdx:
    def test_shape(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path)
        ds = data.load_idx(img, lab)
        assert ds.features.shape == (3, 784)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_truncated_names_byte_counts(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, truncate=10)
        with pytest.raises(DataError, match="expected 2352 bytes, got 2342"):
            data.load_idx(img, lab)

    def test_bad_magic(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path, magic_img=0x12345678)
        with pytest.raises(DataError, match="magic"):
            data.load_idx(img, lab)

    def test_config_keys_reach_loader(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path)
        spec = DatasetSpec.from_dict({"name": "idx", "images": str(img), "labels": str(lab)})
        assert build_dataset(spec).features.shape == (3, 784)

    @staticmethod
    def _negative_extents_pair(tmp_path):
        img, lab = _write_idx_pair(tmp_path)
        # count * rows * cols == 2, so the two payload bytes are present
        img.write_bytes(struct.pack(">iiii", data.IDX_IMAGE_MAGIC, -2, -1, 1) + b"\x00\x01")
        return img, lab

    def test_negative_extents(self, tmp_path):
        img, lab = self._negative_extents_pair(tmp_path)
        with pytest.raises(DataError, match="negative extents"):
            data.load_idx(img, lab)

    @staticmethod
    def _train_exit_code(tmp_path, img, lab):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({
            "model": {"type": "qe_mlp", "layer_dims": [784, 2], "activation": "identity"},
            "dataset": {"name": "idx", "images": str(img), "labels": str(lab)},
            "optimizer": {"algo": "sgd", "lr": 0.1},
            "epochs": 1, "batch_size": 4}))
        return main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])

    def test_negative_extents_exit_code_through_cli(self, tmp_path):
        img, lab = self._negative_extents_pair(tmp_path)
        assert self._train_exit_code(tmp_path, img, lab) == 3

    @staticmethod
    def _oversized_header_pair(tmp_path, which):
        img, lab = _write_idx_pair(tmp_path)
        if which == "images":
            # 2^93 pixel bytes: read() itself raises OverflowError on that count
            img.write_bytes(struct.pack(">iiii", data.IDX_IMAGE_MAGIC, *[0x7FFFFFFF] * 3))
        else:
            # zero-pixel images, so the label count is the one asked of read()
            img.write_bytes(struct.pack(">iiii", data.IDX_IMAGE_MAGIC, 0x7FFFFFFF, 0, 0))
            lab.write_bytes(struct.pack(">ii", data.IDX_LABEL_MAGIC, 0x7FFFFFFF) + b"\x00")
        return img, lab

    @pytest.mark.parametrize("which, want", [
        ("images", "truncated pixel data: expected 9903520300447984150353281023 bytes, got 0"),
        ("labels", "truncated label data: expected 2147483647 bytes, got 1")])
    def test_header_larger_than_file(self, tmp_path, which, want):
        img, lab = self._oversized_header_pair(tmp_path, which)
        with pytest.raises(DataError, match=want):
            data.load_idx(img, lab)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_header_larger_than_file_exit_code_through_cli(self, tmp_path, capsys, which):
        img, lab = self._oversized_header_pair(tmp_path, which)
        assert self._train_exit_code(tmp_path, img, lab) == 3
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_pipes(self, tmp_path):
        # a pipe reports size 0, so only a regular file is size-checked
        img, lab = _write_idx_pair(tmp_path)
        want = data.load_idx(img, lab)
        pipes = []
        for src in (img, lab):
            fifo = tmp_path / (src.name + ".fifo")
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(src.read_bytes(),),
                                      daemon=True)
            writer.start()
            pipes.append(fifo)
        got = data.load_idx(*pipes)
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_oversized_header_on_a_pipe_exits_3(self, tmp_path, capsys):
        # a pipe has no size to check the 2^93 claimed pixel bytes against
        _, lab = _write_idx_pair(tmp_path)
        fifo = tmp_path / "img.fifo"
        os.mkfifo(fifo)
        header = struct.pack(">iiii", data.IDX_IMAGE_MAGIC, *[0x7FFFFFFF] * 3)
        threading.Thread(target=fifo.write_bytes, args=(header,), daemon=True).start()
        assert self._train_exit_code(tmp_path, fifo, lab) == 3
        assert ("truncated pixel data: expected 9903520300447984150353281023 bytes, got 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extent", [28, 0x7FFFFFFF])
    def test_no_images_exit_3(self, tmp_path, capsys, extent):
        img, lab = _write_idx_pair(tmp_path, count=0)
        img.write_bytes(struct.pack(">iiii", data.IDX_IMAGE_MAGIC, 0, extent, extent))
        assert self._train_exit_code(tmp_path, img, lab) == 3
        assert "img.idx: no images" in capsys.readouterr().err

    def test_count_mismatch(self, tmp_path):
        img, _ = _write_idx_pair(tmp_path, count=3)
        _, lab = _write_idx_pair(tmp_path / "..", count=3)
        lab2 = tmp_path / "lab2.idx"
        lab2.write_bytes(struct.pack(">ii", data.IDX_LABEL_MAGIC, 2) + bytes([0, 1]))
        with pytest.raises(DataError, match="label count"):
            data.load_idx(img, lab2)


class TestBatchIter:
    def test_partial_final_batch(self):
        ds = data.gen_blobs(classes=1, size=5, noise=0.1, seed=0, valid_fraction=0.0)
        sizes = [len(bx) for bx, _ in data.batch_iter(ds, 2, shuffle_seed=1)]
        assert sizes == [2, 2, 1]

    def test_same_seed_same_order(self):
        ds = data.gen_blobs(classes=2, size=20, noise=0.1, seed=0, valid_fraction=0.0)
        a = [bx.tobytes() for bx, _ in data.batch_iter(ds, 4, shuffle_seed=3)]
        b = [bx.tobytes() for bx, _ in data.batch_iter(ds, 4, shuffle_seed=3)]
        assert a == b

    def test_shuffle_is_permutation(self):
        ds = data.gen_blobs(classes=2, size=17, noise=0.1, seed=0, valid_fraction=0.0)
        rows = np.concatenate([bx for bx, _ in data.batch_iter(ds, 5, shuffle_seed=9)])
        assert sorted(map(tuple, rows)) == sorted(map(tuple, ds.features))

    def test_bad_batch_size(self):
        ds = data.gen_xor()
        with pytest.raises(ConfigError):
            list(data.batch_iter(ds, 0, shuffle_seed=0))


def test_dataset_invariant_validation():
    with pytest.raises(DataError):
        data.Dataset(features=np.zeros((2, 1)), labels=np.zeros(3, dtype=np.int64),
                     train_idx=np.arange(2), valid_idx=np.arange(2, 2), n_classes=1)
    with pytest.raises(DataError):
        data.Dataset(features=np.zeros((2, 1)), labels=np.zeros(2, dtype=np.int64),
                     train_idx=np.array([0, 1]), valid_idx=np.array([1]), n_classes=1)


def _loads_or_raises_package_error(load, *args, **kwargs) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = load(*args, **kwargs)
        except QuadEnhanceError:
            return
    assert isinstance(ds, data.Dataset)


_CSV_CELL = st.one_of(st.integers(-2, 9).map(str), st.floats().map(repr),
                      st.sampled_from(["", "x", "y", " 1 ", "1e19", "-1e300", "0x1", "1_0"]))
_CSV_TEXT = st.lists(st.lists(_CSV_CELL, min_size=1, max_size=4).map(",".join),
                     max_size=5).map(lambda rows: "\n".join(rows).encode())


@given(raw=st.one_of(_CSV_TEXT, st.binary(max_size=40)),
       label_column=st.sampled_from([0, -1, 2, "y"]), has_header=st.booleans(),
       classification=st.booleans(), valid_fraction=st.sampled_from([0.0, 0.5]))
@example(raw=b"x,y\n1,1e300\n", label_column="y", has_header=True, classification=True,
         valid_fraction=0.0)
@example(raw=b"x,y\n1,-1e300\n", label_column="y", has_header=True, classification=True,
         valid_fraction=0.0)
@example(raw=b"x,y\n1,1e19\n", label_column="y", has_header=True, classification=True,
         valid_fraction=0.0)
@settings(max_examples=300, deadline=None)
def test_fuzzed_csv_loads_or_raises_a_package_error(tmp_path_factory, raw, label_column,
                                                    has_header, classification, valid_fraction):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(raw)
    _loads_or_raises_package_error(data.load_csv, path, label_column, has_header=has_header,
                                   classification=classification, valid_fraction=valid_fraction)


# small extents, -1 and 0x7FFFFFFF; the files never hold more than ~70 bytes,
# so an extent that passes the size checks allocates no real memory
_EXTENT = st.one_of(st.integers(-1, 4), st.just(0x7FFFFFFF))
_MAGIC = st.sampled_from([data.IDX_IMAGE_MAGIC, data.IDX_LABEL_MAGIC])


def _idx_header(*fields) -> bytes:
    return struct.pack(f">{len(fields)}i", *fields)


@st.composite
def _idx_pair(draw):
    """Image and label file bytes: the payload near the size the header
    claims (capped at 64), and at times cut short anywhere."""
    files = []
    for extents in ((draw(_EXTENT), draw(_EXTENT), draw(_EXTENT)), (draw(_EXTENT),)):
        n = max(0, min(math.prod(extents), 64) + draw(st.integers(-1, 1)))
        body = _idx_header(draw(_MAGIC), *extents) + draw(st.binary(min_size=n, max_size=n))
        files.append(body[:draw(st.integers(0, len(body)))] if draw(st.booleans()) else body)
    return tuple(files)


@given(pair=_idx_pair(), valid_fraction=st.sampled_from([0.0, 0.5]))
@example(pair=(_idx_header(data.IDX_IMAGE_MAGIC, 0, 0x7FFFFFFF, 0x7FFFFFFF),
               _idx_header(data.IDX_LABEL_MAGIC, 0)), valid_fraction=0.0)
@example(pair=(_idx_header(data.IDX_IMAGE_MAGIC, 0, 28, 28),
               _idx_header(data.IDX_LABEL_MAGIC, 0)), valid_fraction=0.0)
@settings(max_examples=300, deadline=None)
def test_fuzzed_idx_loads_or_raises_a_package_error(tmp_path_factory, pair, valid_fraction):
    base = tmp_path_factory.getbasetemp()
    paths = base / "fuzz-img.idx", base / "fuzz-lab.idx"
    for path, raw in zip(paths, pair):
        path.write_bytes(raw)
    _loads_or_raises_package_error(data.load_idx, *paths, valid_fraction=valid_fraction)
