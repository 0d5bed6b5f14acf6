import hashlib
import struct
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import toy_config, toy_model
from panelqa.checkpoint import (CheckpointError, build_model,
                                load_checkpoint, save_checkpoint)
from panelqa.model import init_model
from panelqa.tensor import Rng
from panelqa.training import OptimizerState


class TestRoundTrip:
    def test_parameters_bit_exact(self, tmp_path):
        model = toy_model(seed=1)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        ckpt = load_checkpoint(path)
        assert ckpt.optimizer is None
        assert ckpt.config == model.config
        restored = build_model(ckpt)
        for name, p in model.named_parameters().items():
            npt.assert_array_equal(restored.named_parameters()[name].data,
                                   p.data)

    def test_optimizer_state_round_trip(self, tmp_path):
        model = toy_model(seed=2)
        params = model.named_parameters()
        state = OptimizerState.init(params)
        state.step = 5
        for k in state.m:
            state.m[k] += 0.25
            state.v[k] += 0.5
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, optimizer=state)
        back = load_checkpoint(path).optimizer
        assert back.step == 5
        for k in params:
            npt.assert_array_equal(back.m[k], state.m[k])
            npt.assert_array_equal(back.v[k], state.v[k])

    def test_float32_round_trip(self, tmp_path):
        model = toy_model(seed=3)
        for p in model.named_parameters().values():
            p.data = p.data.astype(np.float32)
        path = str(tmp_path / "m32.ckpt")
        save_checkpoint(path, model)
        restored = build_model(load_checkpoint(path))
        assert restored.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_build_draws_nothing(self, tmp_path, monkeypatch, dtype):
        model = init_model(toy_config(), Rng(5), dtype=dtype)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)

        def refuse(*args, **kwargs):
            raise AssertionError("build_model drew a parameter")
        monkeypatch.setattr(Rng, "trunc_normal", refuse)
        restored = build_model(load_checkpoint(path)).named_parameters()
        for name, p in model.named_parameters().items():
            assert restored[name].data.dtype == dtype
            assert restored[name].data.tobytes() == p.data.tobytes()

    def test_byte_identical_saves(self, tmp_path):
        model = toy_model(seed=4)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), toy_model(seed=3))
        before = path.read_bytes()
        model = toy_model(seed=4)
        model.head.b2.data = model.head.b2.data.astype(np.float16)
        with pytest.raises(CheckpointError, match="tensor head.b2 is float16"):
            save_checkpoint(str(path), model)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_mixed_dtypes_not_written(self, tmp_path):
        """The writer refuses a file that the reader would refuse."""
        path = tmp_path / "m.ckpt"
        model = toy_model(seed=4)
        model.head.b2.data = model.head.b2.data.astype(np.float32)
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(str(path), model)
        assert str(info.value).startswith(f"{path}: tensor head.b2 is float32")
        assert list(tmp_path.iterdir()) == []


class TestGoldenBytes:
    """The version-1 byte layout: a change to the writer shows up here."""

    @staticmethod
    def sha256(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    def test_weights_only(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, toy_model(seed=4))
        assert self.sha256(path) == (
            "43a9ed56c41bfb71095bdb17f1ed775faf4baa7873a22a7174b8ccd84fce1d19")

    @pytest.mark.parametrize("variant,digest", [
        ("encoder_only",
         "6350cdd90032c157770f41ea4dc25a8c0d5b1aa5a220e4f698b53dd63b199a3d"),
        ("panel_no_decoder",
         "b0ba62699e0ed42b83e4f3609453d1ba6fe8d849e5a9b21d150d65da4e9f75f4"),
        ("decoder_random_queries",
         "722adf9e8eed0a509feb14f43dc9b63c5d068f56e3675056f4f35172a5f78c35"),
        ("decoder_cls_queries",
         "0e45510f5237db2bb238786237f84d395b8de53d4ea9637d6c429496db3379f6"),
    ])
    def test_weights_only_other_variants(self, tmp_path, variant, digest):
        """Each variant's parameters, in record order."""
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, toy_model(seed=4, variant=variant))
        assert self.sha256(path) == digest

    def test_with_optimizer_state(self, tmp_path):
        model = toy_model(seed=4)
        state = OptimizerState.init(model.named_parameters())
        state.step = 5
        for k in state.m:
            state.m[k] += 0.25
            state.v[k] += 0.5
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, optimizer=state)
        assert self.sha256(path) == (
            "a79b9b3eddeb64f25d36390616a10dfc1fc763077410f3b75042f990c989554f")


def edited_header(tmp_path, old: bytes, new: bytes) -> str:
    """A saved float64 toy checkpoint whose config header has ``old``
    replaced by ``new``."""
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, toy_model(seed=6))
    blob = open(path, "rb").read()
    (clen,) = struct.unpack("<I", blob[8:12])
    header = blob[12:12 + clen]
    assert header.count(old) == 1
    header = header.replace(old, new)
    bad = tmp_path / "header.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                    + blob[12 + clen:])
    return str(bad)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_file(self, tmp_path):
        model = toy_model(seed=5)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        blob = open(path, "rb").read()
        trunc = tmp_path / "trunc.ckpt"
        trunc.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(trunc))

    def test_bad_version(self, tmp_path):
        model = toy_model(seed=6)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "v99.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("old,new,names", [
        (b"token_dim = 16", b"token_dim = 1x", "bad integer for token_dim"),
        (b"variant = full", b"variant = f\xffll", "config header"),
        (b"heads = 2", b"heads = 5", "heads 5"),
        (b"heads = 2\n", b"", "missing config key 'heads'"),
        (b"heads = 2\n", b"heads = 2\nheads = 4\n",
         ":4: repeated config key 'heads'"),
        (b"mlp_ratio = 2.0", b"mlp_ratio = nan",
         "bad number for mlp_ratio: 'nan'"),
        (b"mlp_ratio = 2.0", b"mlp_ratio = 0.01",
         "mlp_ratio 0.01 x token_dim 16"),
    ])
    def test_bad_config_header_names_file_and_key(self, tmp_path, old, new,
                                                  names):
        bad = edited_header(tmp_path, old, new)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(bad)
        assert bad in str(info.value)
        assert names in str(info.value)

    @pytest.mark.parametrize("token_dim", [b"1000000", b"1099511627776"])
    def test_unbuildable_model_names_file(self, tmp_path, token_dim):
        """A float64 file: building its skeleton casts and writes nothing."""
        bad = edited_header(tmp_path, b"token_dim = 16",
                            b"token_dim = " + token_dim)
        with pytest.raises(CheckpointError) as info:
            build_model(load_checkpoint(bad))
        assert str(info.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("old,new,key", [
        (b"encoder_depth = 2", b"encoder_depth = 20000", "encoder_depth"),
        (b"encoder_depth = 2", b"encoder_depth = 1", "encoder_depth"),
        (b"decoder_depth = 1", b"decoder_depth = 20000", "decoder_depth"),
    ])
    def test_depth_checked_before_building(self, tmp_path, old, new, key):
        """A rewritten depth fails at once, not after building every block,
        and the message stays short."""
        bad = edited_header(tmp_path, old, new)
        ckpt = load_checkpoint(bad)
        start = time.perf_counter()
        with pytest.raises(CheckpointError) as info:
            build_model(ckpt)
        assert time.perf_counter() - start < 0.5
        message = str(info.value)
        assert message.startswith(f"{bad}: header {key} = ")
        assert len(message) < 1024

    def test_mixed_dtypes_name_file_and_tensor(self, tmp_path):
        model = toy_model(seed=6)
        path = str(tmp_path / "mixed.ckpt")
        save_checkpoint(path, model)
        blob = open(path, "rb").read()
        for p in model.named_parameters().values():
            p.data = p.data.astype(np.float32)
        save_checkpoint(path, model)
        blob32 = open(path, "rb").read()
        # the writer refuses mixed dtypes: splice a float32 first record
        # into the float64 file
        with open(path, "wb") as fh:
            fh.write(blob32[:record_offsets(blob32)[1]]
                     + blob[record_offsets(blob)[1]:])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert path in str(info.value)
        assert "tensor embedding.patch_proj_b is float64" in str(info.value)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        model = toy_model(seed=8)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        ckpt = load_checkpoint(path)
        ckpt.tensors["panel"] = np.zeros((5, 99))
        with pytest.raises(CheckpointError, match="panel"):
            build_model(ckpt)

    def test_missing_parameter_reported(self, tmp_path):
        model = toy_model(seed=9)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        ckpt = load_checkpoint(path)
        del ckpt.tensors["panel"]
        with pytest.raises(CheckpointError, match="panel"):
            build_model(ckpt)

    def test_old_cross_block_layout_refused(self, tmp_path):
        """A decoder layer written as a query norm (``lnq_*``), attention and
        an MLP with no norm of its own is refused, not loaded as an encoder
        block."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), toy_model(seed=6))
        blob = path.read_bytes()
        offsets = record_offsets(blob)
        records = []
        for start, end in zip(offsets, offsets[1:]):
            name = record_name(blob, start)
            if not name.startswith("cross_blocks.0.ln2_"):
                # "ln1_" and "lnq_" have one length: the name field keeps it
                records.append(blob[start:end].replace(
                    b"cross_blocks.0.ln1_", b"cross_blocks.0.lnq_"))
        old = tmp_path / "old.ckpt"
        old.write_bytes(blob[:offsets[0] - 4]
                        + struct.pack("<I", len(records)) + b"".join(records))
        with pytest.raises(CheckpointError) as info:
            build_model(load_checkpoint(str(old)))
        assert str(info.value) == (
            f"{old}: tensor name mismatch: missing=['cross_blocks.0.ln1_bias', "
            f"'cross_blocks.0.ln1_gain', 'cross_blocks.0.ln2_bias', "
            f"'cross_blocks.0.ln2_gain'] extra=['cross_blocks.0.lnq_bias', "
            f"'cross_blocks.0.lnq_gain']")


def record_offsets(blob):
    """Byte offsets of the tensor records of a version-1 checkpoint, and of
    its end."""
    (clen,) = struct.unpack_from("<I", blob, 8)
    pos = 12 + clen + 8 + 1
    (count,) = struct.unpack_from("<I", blob, pos)
    offsets = [pos + 4]
    for _ in range(count):
        pos = offsets[-1]
        (nlen,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + nlen
        itemsize = {1: 4, 2: 8}[blob[pos]]
        (rank,) = struct.unpack_from("<I", blob, pos + 1)
        dims = struct.unpack_from(f"<{rank}Q", blob, pos + 5)
        offsets.append(pos + 5 + 8 * rank + itemsize * int(np.prod(dims)))
    assert offsets[-1] == len(blob)
    return offsets


def record_name(blob, offset):
    (nlen,) = struct.unpack_from("<I", blob, offset)
    return blob[offset + 4:offset + 4 + nlen].decode()


def one_record(blob, name, dims, data=b"\0" * 100):
    """The header of ``blob`` with one float64 record of the given dims."""
    header = blob[:record_offsets(blob)[0] - 4]
    nb = name.encode()
    return (header + struct.pack("<I", 1) + struct.pack("<I", len(nb)) + nb
            + struct.pack("<BI", 2, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + data)


class TestUntrustedBytes:
    """A malformed file fails with a CheckpointError that names it, never
    with MemoryError or a bare numpy or struct message."""

    @pytest.fixture
    def blob(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        model = toy_model(seed=14)
        save_checkpoint(path, model,
                        optimizer=OptimizerState.init(model.named_parameters()))
        return open(path, "rb").read()

    def test_every_truncation_names_the_file(self, tmp_path, blob):
        offsets = record_offsets(blob)
        cuts = set(range(offsets[0] + 1))
        cuts.update(c + d for c in offsets for d in (-1, 0, 1))
        cuts.discard(len(blob))
        path = tmp_path / "cut.ckpt"
        for cut in sorted(c for c in cuts if 0 <= c < len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(str(path))
            assert str(path) in str(info.value), cut

    def test_truncated_data_names_tensor_and_offset(self, tmp_path, blob):
        offsets = record_offsets(blob)
        path = tmp_path / "cut.ckpt"
        path.write_bytes(blob[:offsets[2] - 1])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        assert (f"{path}: truncated checkpoint while reading data of tensor "
                f"embedding.patch_proj_b at byte {offsets[1]}"
                in str(info.value))

    @pytest.mark.parametrize("dims", [(2 ** 34,), (2 ** 40, 2 ** 40),
                                      (2 ** 64 - 1, 2 ** 64 - 1)])
    def test_oversized_claim_rejected_before_reading(self, tmp_path, blob,
                                                     dims):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(one_record(blob, "panel", dims))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        message = str(info.value)
        assert f"{path}: truncated checkpoint while reading data of tensor "\
               f"panel at byte {record_offsets(blob)[0]}" in message
        assert "100 left" in message

    def test_zero_dim_beside_a_huge_one_rejected(self, tmp_path, blob):
        path = tmp_path / "zero.ckpt"
        path.write_bytes(one_record(blob, "panel", (0, 2 ** 63), data=b""))
        with pytest.raises(CheckpointError, match="tensor panel at byte"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("prefix", ["", "opt.m.", "opt.v."])
    def test_repeated_name_names_tensor_and_offset(self, tmp_path, blob,
                                                   prefix):
        offsets = record_offsets(blob)
        names = [record_name(blob, o) for o in offsets[:-1]]
        i = names.index(prefix + "panel")
        count_at = offsets[0] - 4
        (count,) = struct.unpack_from("<I", blob, count_at)
        path = tmp_path / "twice.ckpt"
        path.write_bytes(blob[:count_at] + struct.pack("<I", count + 1)
                         + blob[offsets[0]:] + blob[offsets[i]:offsets[i + 1]])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        assert (f"{path}: tensor {prefix}panel at byte {len(blob)}: repeats"
                in str(info.value))

    @pytest.mark.parametrize("tail", [b"\0", b"trailing junk"],
                             ids=["nul", "junk"])
    def test_trailing_bytes_name_the_offset(self, tmp_path, blob, tail):
        path = tmp_path / "tail.ckpt"
        path.write_bytes(blob + tail)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        assert (f"{path}: {len(tail)} trailing bytes at byte {len(blob)}"
                in str(info.value))


def save_edited_state(path, edit):
    """Save a toy model with an ``OptimizerState`` changed by ``edit``."""
    model = toy_model(seed=15)
    state = OptimizerState.init(model.named_parameters())
    edit(state)
    save_checkpoint(path, model, optimizer=state)
    return path


class TestOptimizerRecords:
    """``load_checkpoint`` checks the moment records against the file's own
    model records."""

    def test_missing_second_moment_names_record(self, tmp_path):
        path = save_edited_state(str(tmp_path / "m.ckpt"),
                                 lambda state: state.v.pop("panel"))
        with pytest.raises(CheckpointError, match=r"missing=\['opt\.v\.panel'\]"):
            load_checkpoint(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = save_edited_state(str(tmp_path / "m.ckpt"), lambda state:
                                 state.m.update(ghost=np.zeros(3)))
        with pytest.raises(CheckpointError,
                           match=r"extra=\['opt\.m\.ghost'\]"):
            load_checkpoint(path)

    def test_moment_shape_must_match(self, tmp_path):
        path = save_edited_state(str(tmp_path / "m.ckpt"), lambda state:
                                 state.v.update(panel=np.zeros((1, 2))))
        with pytest.raises(CheckpointError, match="tensor opt.v.panel: checkpoint"):
            load_checkpoint(path)


class TestOptimizerFlag:
    """The header's optimizer byte is 0 or 1, and 1 exactly when the file
    holds opt.* records."""

    @pytest.mark.parametrize("with_state", [True, False])
    @pytest.mark.parametrize("flag", [0, 1, 2, 7])
    def test_flag_must_match_the_records(self, tmp_path, with_state, flag):
        model = toy_model(seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model, optimizer=(
            OptimizerState.init(model.named_parameters()) if with_state
            else None))
        blob = bytearray(path.read_bytes())
        flag_at = record_offsets(blob)[0] - 5
        assert blob[flag_at] == int(with_state)
        blob[flag_at] = flag
        path.write_bytes(bytes(blob))
        if flag == int(with_state):
            assert (load_checkpoint(str(path)).optimizer is None) != with_state
            return
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        n_opt = 2 * len(model.named_parameters()) if with_state else 0
        assert (f"{path}: optimizer flag {flag} at byte {flag_at} does not "
                f"match the {n_opt} opt.* records" in str(info.value))

    def test_step_needs_optimizer_state(self, tmp_path):
        """A file without optimizer state has step 0: the step belongs to
        the optimizer."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), toy_model(seed=4))
        blob = bytearray(path.read_bytes())
        step_at = record_offsets(blob)[0] - 13
        assert blob[step_at:step_at + 9] == bytes(9)   # step 0, flag 0
        blob[step_at:step_at + 8] = struct.pack("<Q", 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        assert (f"{path}: step 3 at byte {step_at} without optimizer state"
                in str(info.value))


class TestRecordErrorsNameTheFile:
    @pytest.fixture
    def saved(self, tmp_path):
        model = toy_model(seed=16)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model,
                        optimizer=OptimizerState.init(model.named_parameters()))
        return path

    def test_name_mismatch(self, saved):
        ckpt = load_checkpoint(saved)
        del ckpt.tensors["panel"]
        with pytest.raises(CheckpointError,
                           match=r"tensor name mismatch: missing=\['panel'\]"
                           ) as info:
            build_model(ckpt)
        assert str(info.value).startswith(f"{saved}: ")

    def test_long_name_mismatch_is_capped(self, saved):
        ckpt = load_checkpoint(saved)
        ckpt.tensors.update((f"stray.{i:03d}", np.zeros(1)) for i in range(500))
        with pytest.raises(CheckpointError) as info:
            build_model(ckpt)
        assert str(info.value) == (
            f"{saved}: tensor name mismatch: missing=[] extra=['stray.000', "
            f"'stray.001', 'stray.002', 'stray.003', 'stray.004'] and 495 more")

    def test_shape_mismatch(self, saved):
        ckpt = load_checkpoint(saved)
        ckpt.tensors["panel"] = np.zeros((5, 99))
        with pytest.raises(CheckpointError, match="shape mismatch for tensor "
                                                  "panel") as info:
            build_model(ckpt)
        assert str(info.value).startswith(f"{saved}: ")

    def test_optimizer_records(self, tmp_path):
        path = save_edited_state(str(tmp_path / "m.ckpt"), lambda state:
                                 state.v.update(panel=np.zeros((1, 2))))
        with pytest.raises(CheckpointError, match="tensor opt.v.panel") as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
