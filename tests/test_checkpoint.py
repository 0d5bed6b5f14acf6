import hashlib
import struct

import numpy as np
import numpy.testing as npt
import pytest

from conftest import toy_model
from panelqa.checkpoint import (CheckpointError, build_model,
                                load_checkpoint, load_encoder_weights,
                                load_optimizer, save_checkpoint)
from panelqa.training import OptimizerState


class TestRoundTrip:
    def test_parameters_bit_exact(self, tmp_path):
        model = toy_model(seed=1)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 0  # no optimizer, no step
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
        ckpt = load_checkpoint(path)
        restored = build_model(ckpt)
        back = load_optimizer(ckpt, restored.named_parameters())
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
            "9c2899c6c429acaf3ed085a043851917fd9c3220f328def60fe9a19b2739701a")

    @pytest.mark.parametrize("variant,digest", [
        ("encoder_only",
         "6350cdd90032c157770f41ea4dc25a8c0d5b1aa5a220e4f698b53dd63b199a3d"),
        ("panel_no_decoder",
         "b0ba62699e0ed42b83e4f3609453d1ba6fe8d849e5a9b21d150d65da4e9f75f4"),
        ("decoder_random_queries",
         "c657c922cbad360c55287af3421b86218a8997ecdf088927746eafd4f1aec19a"),
        ("decoder_cls_queries",
         "8327c8826d974d4e0b37e7341e4099337a256c4a822b11a1a06b246f9d322b6f"),
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
            "caf5491b0c0412bed6194c28bfb62f6902160503637e70c5c3bf6415cd47cc8b")


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
    ])
    def test_bad_config_header_names_file_and_key(self, tmp_path, old, new,
                                                  names):
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
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(bad))
        assert str(bad) in str(info.value)
        assert names in str(info.value)

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


class TestOptimizerRecords:
    @pytest.fixture
    def ckpt(self, tmp_path):
        model = toy_model(seed=15)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model,
                        optimizer=OptimizerState.init(model.named_parameters()))
        return load_checkpoint(path)

    def test_missing_second_moment_names_record(self, ckpt):
        del ckpt.opt_v["panel"]
        with pytest.raises(CheckpointError, match=r"missing=\['opt\.v\.panel'\]"):
            load_optimizer(ckpt, build_model(ckpt).named_parameters())

    def test_unknown_record_rejected(self, ckpt):
        ckpt.opt_m["ghost"] = np.zeros(3)
        with pytest.raises(CheckpointError,
                           match=r"extra=\['opt\.m\.ghost'\]"):
            load_optimizer(ckpt, build_model(ckpt).named_parameters())

    def test_moment_shape_must_match(self, ckpt):
        ckpt.opt_v["panel"] = np.zeros((1, 2))
        with pytest.raises(CheckpointError, match="tensor opt.v.panel: checkpoint"):
            load_optimizer(ckpt, build_model(ckpt).named_parameters())


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
            assert (load_checkpoint(str(path)).opt_m is None) != with_state
            return
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        n_opt = 2 * len(model.named_parameters()) if with_state else 0
        assert (f"{path}: optimizer flag {flag} at byte {flag_at} does not "
                f"match the {n_opt} opt.* records" in str(info.value))


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

    def test_shape_mismatch(self, saved):
        ckpt = load_checkpoint(saved)
        ckpt.tensors["panel"] = np.zeros((5, 99))
        with pytest.raises(CheckpointError, match="shape mismatch for tensor "
                                                  "panel") as info:
            build_model(ckpt)
        assert str(info.value).startswith(f"{saved}: ")

    def test_optimizer_records(self, saved):
        ckpt = load_checkpoint(saved)
        params = build_model(ckpt).named_parameters()
        ckpt.opt_v["panel"] = np.zeros((1, 2))
        with pytest.raises(CheckpointError, match="tensor opt.v.panel") as info:
            load_optimizer(ckpt, params)
        assert str(info.value).startswith(f"{saved}: ")
        ckpt.opt_m = ckpt.opt_v = None
        with pytest.raises(CheckpointError,
                           match="carries no optimizer state") as info:
            load_optimizer(ckpt, params)
        assert str(info.value).startswith(f"{saved}: ")

    def test_encoder_transfer(self, tmp_path):
        path = str(tmp_path / "enc.ckpt")
        save_checkpoint(path, toy_model(seed=12, token_dim=32, heads=2))
        with pytest.raises(CheckpointError, match="shape mismatch") as info:
            load_encoder_weights(toy_model(seed=13), load_checkpoint(path))
        assert str(info.value).startswith(f"{path}: ")


class TestEncoderTransfer:
    def test_pretrained_encoder_loadable_into_other_variant(self, tmp_path):
        donor = toy_model(seed=10, variant="encoder_only")
        path = str(tmp_path / "enc.ckpt")
        save_checkpoint(path, donor)
        target = toy_model(seed=11)  # full variant, fresh decoder
        n = load_encoder_weights(target, load_checkpoint(path))
        assert n == len([k for k in donor.named_parameters()
                         if k.startswith(("embedding.", "enc_blocks."))])
        npt.assert_array_equal(target.embedding.cls_token.data,
                               donor.embedding.cls_token.data)

    def test_encoder_shape_mismatch_rejected(self, tmp_path):
        donor = toy_model(seed=12, token_dim=32, heads=2)
        path = str(tmp_path / "enc.ckpt")
        save_checkpoint(path, donor)
        target = toy_model(seed=13)
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_encoder_weights(target, load_checkpoint(path))
