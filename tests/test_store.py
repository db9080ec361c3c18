"""Array files: round trips, the checked reader, and fuzzed checkpoints and
datasets, whose only allowed outcomes are a loaded value or a DataError."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib import format as npy

from mindalign.errors import ConfigError, DataError, NonFiniteError
from mindalign.flatkv import format_flat, parse_flat
from mindalign.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from mindalign.store import MAGIC, check_layout, read_arrays, write_arrays
from mindalign.world import (
    DATASET_FILE,
    WorldConfig,
    generate_dataset,
    generate_world,
    load_dataset_dir,
    normalize,
    save_dataset_dir,
)

# small enough that loading every prefix of each file stays quick
NANO_WORLD = WorldConfig(image_hw=2, channels=3, n_tokens=2, d_token=8, vae_hw=2,
                         vae_channels=1, d_teacher=2, n_subjects=2, voxels_min=3,
                         voxels_max=5, n_sessions=2, trials_per_session=2, n_shared=2)
NANO_MODEL = ModelConfig(h=4, n_blocks=1, t_steps=2, d_temb=2, d_cond=4,
                         denoiser_hidden=4, denoiser_blocks=1, retr_hidden=4, d_retr=2,
                         ll_hidden=4, ll_trunk=4, ll_seed_hw=1, ll_seed_channels=2,
                         teacher_hidden=2, m_tokens=2, d_token_b=2)
FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


@pytest.fixture(scope="module")
def nano_files(tmp_path_factory):
    """The bytes of a tiny checkpoint and a tiny dataset.bin, and a scratch dir."""
    root = tmp_path_factory.mktemp("nano")
    world = generate_world(NANO_WORLD, seed=3)
    datasets = {sid: normalize(generate_dataset(world, sid, seed=i))
                for i, sid in enumerate(world.subject_ids)}
    mp = init_model(NANO_WORLD, NANO_MODEL, {"s0": datasets["s0"].n_voxels}, seed=1)
    mp.meta.update(world_seed="3", pretrain_subjects="s0")
    save_checkpoint(mp, root / "c.me2c")
    save_dataset_dir(root / "data", world, datasets)
    return {"checkpoint": (root / "c.me2c").read_bytes(),
            "dataset": (root / "data" / DATASET_FILE).read_bytes(),
            "dir": root}


def _load(kind, raw, root):
    """Write ``raw`` where the loader of ``kind`` looks and load it.

    Returns None if it loaded, else the message of the DataError, which
    must name the file."""
    if kind == "checkpoint":
        path = root / "x.me2c"
        load = load_checkpoint
    else:
        path = root / "x" / DATASET_FILE
        path.parent.mkdir(exist_ok=True)
        load = lambda p: load_dataset_dir(p.parent, NANO_WORLD)  # noqa: E731
    path.write_bytes(raw)
    try:
        load(path)
    except DataError as exc:
        assert str(path) in str(exc)
        return str(exc)
    return None


def _spans(raw):
    """Byte positions of the headers (the tag, every .npy header and the
    metadata text) and of the array data."""
    fp = io.BytesIO(raw)
    fp.seek(len(MAGIC))
    heads, body = list(range(len(MAGIC))), []
    while fp.tell() < len(raw):
        start = fp.tell()
        npy.read_magic(fp)
        shape, _, dtype = npy.read_array_header_1_0(fp)
        data, end = fp.tell(), fp.tell() + math.prod(shape) * dtype.itemsize
        heads.extend(range(start, data))
        (heads if start == len(MAGIC) else body).extend(range(data, end))
        fp.seek(end)
    return heads, body


class TestArrayFile:
    def test_round_trip_keeps_items_names_dtypes_and_order(self, tmp_path):
        arrays = {"b": np.arange(6, dtype="<f4").reshape(2, 3),
                  "a": np.array([3, -1], dtype="<i8"),
                  "flags": np.array([True, False]),
                  "empty": np.zeros((0, 4), dtype="<f4")}
        write_arrays(tmp_path / "f.bin", {"k": 1.5, "name": "x"}, arrays)
        items, back = read_arrays(tmp_path / "f.bin")
        assert items == {"k": "1.5", "name": "x"}
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            np.testing.assert_array_equal(back[name], arr)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_writer_refuses_a_non_finite_float(self, tmp_path, bad):
        arrays = {"ok": np.ones(2, dtype="<f4"), "x": np.array([1, bad, 2], dtype="<f4")}
        with pytest.raises(NonFiniteError, match=r"array 'x' holds a non-finite value"):
            write_arrays(tmp_path / "f.bin", {}, arrays)
        assert not (tmp_path / "f.bin").exists()

    @pytest.mark.parametrize("name, arr", [("x", np.ones(2)), ("", np.ones(2, dtype="<f4")),
                                           ("a,b", np.ones(2, dtype="<f4"))])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, name, arr):
        with pytest.raises(ValueError, match="cannot store array"):
            write_arrays(tmp_path / "f.bin", {}, {name: arr})
        assert not (tmp_path / "f.bin").exists()

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300, -1e39])
    def test_checkpoint_refuses_a_parameter_not_finite_as_float32(self, tmp_path, value):
        # float64 values beyond float32's range overflow in the cast; that is
        # refused without numpy's overflow warning, and nothing is written
        mp = init_model(NANO_WORLD, NANO_MODEL, {"s0": 4}, seed=1)
        mp.params["prior.out.b"].data[0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"array 'prior.out.b' holds a "
                                                     r"non-finite value"):
                save_checkpoint(mp, tmp_path / "c.me2c")
        assert not (tmp_path / "c.me2c").exists()

    def test_checkpoint_keeps_float32_max(self, tmp_path):
        mp = init_model(NANO_WORLD, NANO_MODEL, {"s0": 4}, seed=1)
        top = float(np.finfo(np.float32).max)
        mp.params["prior.out.b"].data[0] = top
        save_checkpoint(mp, tmp_path / "c.me2c")
        assert load_checkpoint(tmp_path / "c.me2c").params["prior.out.b"].data[0] == top

    def _file(self, tmp_path, record: bytes) -> bytes:
        """A valid one-array file whose array record is replaced by ``record``."""
        write_arrays(tmp_path / "f.bin", {}, {"x": np.ones(3, dtype="<f4")})
        raw = (tmp_path / "f.bin").read_bytes()
        return raw[:len(raw) - len(self._record(np.ones(3, dtype="<f4")))] + record

    @staticmethod
    def _record(arr, version=(1, 0)) -> bytes:
        buf = io.BytesIO()
        npy.write_array(buf, arr, version=version, allow_pickle=True)
        return buf.getvalue()

    @pytest.mark.parametrize("case, message", [
        ("magic", "bad magic"),
        ("object", "dtype |O"),
        ("fortran", "fortran_order True"),
        ("version", "version 1.0"),
        ("float64", "dtype <f8"),
        ("short", "cut short"),
        ("trailing", "1 bytes after the last record"),
        ("nan", "non-finite"),
        ("inf", "non-finite"),
        ("bool", "bool byte"),
        ("token", "EOF in multi-line string"),
        ("negative", "shape"),
    ])
    def test_reader_rejects(self, tmp_path, case, message):
        good = self._record(np.ones(3, dtype="<f4"))
        record = {
            "object": self._record(np.array([None, 1], dtype=object)),
            "fortran": self._record(np.asfortranarray(np.ones((2, 2), dtype="<f4"))),
            "version": self._record(np.ones(3, dtype="<f4"), version=(2, 0)),
            "float64": self._record(np.ones(3)),
            "short": good[:-1],
            "trailing": good + b"\0",
            "nan": self._record(np.array([1, np.nan, 2], dtype="<f4")),
            "inf": self._record(np.array([1, -np.inf, 2], dtype="<f4")),
            "bool": self._record(np.array([True, False]))[:-2] + b"\x02\x00",
            # an unterminated triple-quoted string sends numpy's header
            # parser into the tokenizer, which raises tokenize.TokenError
            "token": good.replace(b"'<f4'", b"'''f4"),
            "negative": good.replace(b"(3,)", b"(-3)"),
        }.get(case, good)
        raw = self._file(tmp_path, record)
        if case == "magic":
            raw = b"X" + raw[1:]
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=message) as info:
            read_arrays(path)
        assert str(info.value).startswith(f"{path}: ")
        assert "\n" not in str(info.value)

    def test_check_layout_names_the_first_difference(self, tmp_path):
        arrays = {"a": np.zeros(2, dtype="<f4"), "b": np.zeros(3, dtype="<i8")}
        check_layout(tmp_path, arrays, {"a": ("<f4", (2,)), "b": ("<i8", (3,))})
        with pytest.raises(DataError, match=r"'b' is \('<i8', \(3,\)\), expected "
                                            r"\('<i8', \(4,\)\)"):
            check_layout(tmp_path, arrays, {"a": ("<f4", (2,)), "b": ("<i8", (4,))})
        with pytest.raises(DataError, match="'c' is missing"):
            check_layout(tmp_path, arrays, {"a": ("<f4", (2,)), "b": ("<i8", (3,)),
                                            "c": ("<f4", (1,))})
        with pytest.raises(DataError, match="'b' is .*, expected none"):
            check_layout(tmp_path, arrays, {"a": ("<f4", (2,))})


class TestFuzz:
    @pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
    def test_every_prefix_is_a_data_error(self, nano_files, kind):
        raw, root = nano_files[kind], nano_files["dir"]
        assert _load(kind, raw, root) is None
        for n in range(len(raw)):
            assert _load(kind, raw[:n], root) is not None, f"prefix of {n} bytes"

    @pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
    def test_one_trailing_byte_is_a_data_error(self, nano_files, kind):
        assert "after the last record" in _load(kind, nano_files[kind] + b"\0",
                                                nano_files["dir"])

    @pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
    def test_flipped_float_to_nan_is_a_data_error(self, nano_files, kind):
        raw = bytearray(nano_files[kind])
        at = _spans(nano_files[kind])[1][0]  # the first array of both files is f32
        raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        assert "non-finite" in _load(kind, bytes(raw), nano_files["dir"])

    @FUZZ
    @given(data=st.data())
    @pytest.mark.parametrize("region", [0, 1], ids=["headers", "data"])
    @pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
    def test_byte_flips_load_or_raise_data_error(self, nano_files, kind, region, data):
        raw = bytearray(nano_files[kind])
        positions = _spans(nano_files[kind])[region]
        flips = data.draw(st.lists(st.tuples(st.sampled_from(positions),
                                             st.integers(1, 255)),
                                   min_size=1, max_size=3))
        for at, bits in flips:
            raw[at] ^= bits
        _load(kind, bytes(raw), nano_files["dir"])

    @FUZZ
    @given(st.sampled_from(["k", "paths.data"]) | st.text(), st.text())
    @example("k", "s2 # x")
    @example("k", "a\nb")
    @example("k", "a\x85b")
    @example("k", " s2")
    @example("k = v", "s2")
    @example("k", "")
    @example("k", "a = b")
    def test_format_flat_round_trips_or_raises_config_error(self, key, value):
        def one_line(text):
            return text == text.strip() and "#" not in text and len(text.splitlines()) <= 1

        writable = one_line(value) and one_line(key) and key != "" and "=" not in key
        try:
            text = format_flat({key: value})
        except ConfigError:
            assert not writable
            return
        assert writable
        assert parse_flat(text) == {key: value}

    @FUZZ
    @given(st.text())
    def test_parse_flat_returns_items_or_raises_config_error(self, text):
        try:
            items = parse_flat(text)
        except ConfigError:
            return
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in items.items())
