import math
import os
import re
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from panelqa import data
from panelqa.data import (Manifest, Sample, apply_distortion,
                          gen_base_images, gen_synthetic_dataset, split)
from panelqa.tensor import Rng


class TestBaseImages:
    def test_determinism(self):
        a = gen_base_images(5, 32, Rng(1))
        b = gen_base_images(5, 32, Rng(1))
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_distinctness(self):
        imgs = gen_base_images(100, 64, Rng(2))
        assert len(imgs) == 100
        for i in range(0, 100, 7):
            for j in range(i + 1, 100, 13):
                assert np.max(np.abs(imgs[i] - imgs[j])) > 0.01

    def test_range(self):
        for img in gen_base_images(10, 32, Rng(3)):
            assert img.min() >= 0.0 and img.max() <= 1.0
            assert img.shape == (3, 32, 32)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            gen_base_images(0, 32, Rng(0))


class TestDistortions:
    @pytest.fixture
    def img(self):
        return gen_base_images(1, 48, Rng(4))[0]

    @pytest.mark.parametrize("kind", data.DISTORTION_KINDS)
    def test_level_zero_is_identity(self, img, kind):
        out = apply_distortion(img, kind, 0, Rng(5))
        npt.assert_array_equal(out, img)

    def test_blur_contracts_variance(self, img):
        for level in (1, 2, 3, 4):
            out = apply_distortion(img, "gaussian_blur", level, Rng(6))
            assert out.var() <= img.var()

    def test_noise_strictly_increases_with_level(self, img):
        means = []
        for level in range(1, 5):
            deltas = []
            for seed in range(20):
                out = apply_distortion(img, "white_noise", level, Rng(seed))
                deltas.append(np.abs(out - img).mean())
            means.append(np.mean(deltas))
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_contrast_monotone(self, img):
        spreads = [apply_distortion(img, "contrast_reduction", l, Rng(7)).std()
                   for l in range(5)]
        assert all(b < a for a, b in zip(spreads, spreads[1:]))

    def test_blockiness_coarsens(self, img):
        out = apply_distortion(img, "blockiness", 2, Rng(8))
        # every 4x4 block is constant
        blocks = out[:, :48, :48].reshape(3, 12, 4, 12, 4)
        npt.assert_allclose(
            blocks, np.broadcast_to(blocks.mean(axis=(2, 4), keepdims=True),
                                    blocks.shape))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_distortion(np.zeros((3, 4, 4)), "sepia", 1, Rng(0))

    def test_output_clamped(self, img):
        out = apply_distortion(img, "white_noise", 4, Rng(9))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestSyntheticDataset:
    def test_product_count(self):
        m = gen_synthetic_dataset(10, 5, ["gaussian_blur"], Rng(10), hw=32)
        assert len(m) == 50

    def test_scores_decrease_with_level(self):
        m = gen_synthetic_dataset(2, 5, ["white_noise"], Rng(11), hw=32)
        by_family = {}
        for s in m:
            by_family.setdefault((s.group_id, s.kind), []).append((s.level, s.score))
        for fam in by_family.values():
            fam.sort()
            scores = [sc for _, sc in fam]
            assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_level_zero_scores_one(self):
        m = gen_synthetic_dataset(3, 4, ["blockiness"], Rng(12), hw=32)
        assert all(s.score == 1.0 for s in m if s.level == 0)

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            gen_synthetic_dataset(3, 1, ["white_noise"], Rng(13))


class TestSchedule:
    """The kinds, ``levels`` and ``hw`` are checked before any image is
    drawn: a kind must be known, contrast may not invert the image and a
    block may not exceed it."""

    @pytest.fixture(autouse=True)
    def no_drawing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an image was drawn before the check")
        monkeypatch.setattr(data, "gen_base_images", refuse)

    @pytest.mark.parametrize("levels,hw,kind,reason", [
        (7, 32, "contrast_reduction", "invert"),
        (6, 32, "contrast_reduction", "invert"),
        (5, 6, "blockiness", "blocks exceed"),
        (18, 32, "blockiness", "blocks exceed"),
        (3, 32, "sepia", "unknown"),
    ])
    def test_rejected_naming_kind_levels_and_hw(self, levels, hw, kind, reason):
        with pytest.raises(ValueError) as info:
            gen_synthetic_dataset(2, levels, ["white_noise", kind], Rng(0), hw=hw)
        message = str(info.value)
        assert reason in message and repr(kind) in message
        assert f"levels = {levels}" in message and f"hw = {hw}" in message

    @pytest.mark.parametrize("levels,hw,kind", [
        (5, 32, "contrast_reduction"), (5, 8, "blockiness"),
        (17, 32, "blockiness"), (9, 32, "gaussian_blur"),
        (9, 8, "white_noise")])
    def test_limits_accepted(self, monkeypatch, levels, hw, kind):
        monkeypatch.setattr(data, "gen_base_images",
                            lambda count, hw, rng: [np.zeros((3, hw, hw))])
        assert len(gen_synthetic_dataset(1, levels, [kind], Rng(0), hw=hw)) == levels

    def test_unknown_kind_fails_at_level_zero(self):
        with pytest.raises(ValueError, match="unknown distortion kind 'sepia'"):
            apply_distortion(np.zeros((3, 4, 4)), "sepia", 0, Rng(0))


class TestSplit:
    def manifest(self, n_groups=100):
        samples = [Sample(np.zeros((3, 4, 4)), 1.0 - l / 4, f"g{g:03d}", level=l)
                   for g in range(n_groups) for l in range(5)]
        return Manifest(samples)

    def test_eighty_twenty_over_100_groups(self):
        train, test = split(self.manifest(), 0.8, seed=0)
        assert len(set(s.group_id for s in train)) == 80
        assert len(set(s.group_id for s in test)) == 20

    def test_partition_no_leakage(self):
        m = self.manifest(20)
        train, test = split(m, 0.8, seed=1)
        assert len(train) + len(test) == len(m)
        assert not (set(s.group_id for s in train)
                    & set(s.group_id for s in test))

    def test_seeds_differ(self):
        m = self.manifest(50)
        a, _ = split(m, 0.8, seed=1)
        b, _ = split(m, 0.8, seed=2)
        assert set(s.group_id for s in a) != set(s.group_id for s in b)

    def test_determinism(self):
        m = self.manifest(30)
        a, _ = split(m, 0.8, seed=5)
        b, _ = split(m, 0.8, seed=5)
        assert [s.group_id for s in a] == [s.group_id for s in b]

    def test_too_few_groups(self):
        with pytest.raises(ValueError):
            split(self.manifest(1), 0.8, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split(self.manifest(10), 1.0, seed=0)


class TestFileIO:
    def test_ppm_round_trip(self, tmp_path):
        img = gen_base_images(1, 16, Rng(14))[0]
        path = str(tmp_path / "img.ppm")
        data.write_ppm(path, img)
        back = data.read_image(path)
        assert back.shape == (3, 16, 16)
        assert np.max(np.abs(back - img)) <= 1.0 / 255.0  # 8-bit quantization

    def test_pgm_read_expands_channels(self, tmp_path):
        path = tmp_path / "img.pgm"
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 4) * 16
        path.write_bytes(b"P5\n4 4\n255\n" + pixels.tobytes())
        img = data.read_image(str(path))
        assert img.shape == (3, 4, 4)
        npt.assert_array_equal(img[0], img[1])
        npt.assert_allclose(img[0], pixels / 255.0)

    @pytest.mark.parametrize("magic,channels", [(b"P6", 3), (b"P5", 1)])
    def test_every_truncation_names_path_and_field(self, tmp_path, magic,
                                                   channels):
        header = magic + b"\n# comment\n4 3\n255\n"
        blob = header + bytes(range(4 * 3 * channels))
        # byte index of the whitespace that ends each header field
        ends = {"magic": 2, "width": 14, "height": 16, "maxval": 20}
        assert len(header) == 21
        path = tmp_path / "cut.ppm"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            field = next((f for f, end in ends.items() if cut <= end),
                         "pixel data")
            with pytest.raises(ValueError) as info:
                data.read_image(str(path))
            message = str(info.value)
            assert message.startswith(f"{path}: ") and field in message, cut
        path.write_bytes(blob)
        assert data.read_image(str(path)).shape == (3, 3, 4)

    @pytest.mark.parametrize("header,message", [
        (b"P3\n4 3\n255\n", "unsupported format b'P3'"),
        (b"P6\nx 3\n255\n", "bad width b'x'"),
        (b"P6\n4 -3\n255\n", "bad height b'-3'"),
        (b"P6\n4 0\n255\n", "bad height b'0'"),
        (b"P6\n4 3\n65535\n", "maxval 65535: only 8-bit"),
        (b"P6\n99999999999 99999999999\n255\n", "truncated pixel data"),
    ])
    def test_malformed_header_names_field(self, tmp_path, header, message):
        path = tmp_path / "bad.ppm"
        path.write_bytes(header + bytes(36))
        with pytest.raises(ValueError, match=re.escape(message)):
            data.read_image(str(path))

    def test_manifest_round_trip(self, tmp_path):
        imgs = gen_base_images(3, 8, Rng(15))
        m = Manifest([Sample(img, 0.5 * i, f"g{i}")
                      for i, img in enumerate(imgs)])
        mat = data.materialize(m, str(tmp_path))
        mpath = str(tmp_path / "manifest.csv")
        data.write_manifest(mpath, mat)
        back = data.read_manifest(mpath)
        assert len(back) == 3
        assert [s.score for s in back] == [0.0, 0.5, 1.0]
        assert data.load_image(back.samples[1]).shape == (3, 8, 8)

    def test_duplicate_refs_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,score,group\na.ppm,1.0,g0\na.ppm,0.5,g1\n")
        with pytest.raises(ValueError):
            data.read_manifest(str(p))

    def test_whitespace_around_fields_dropped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,score,group\n a.ppm , 1.0 , g \nb.ppm,0.5,g\n")
        m = data.read_manifest(str(p))
        assert m.groups() == ["g"]
        assert m.samples[0].image_ref == str(tmp_path / "a.ppm")
        assert m.samples[0].score == 1.0

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,mos\n")
        with pytest.raises(ValueError):
            data.read_manifest(str(p))

    @pytest.mark.parametrize("row,message", [
        ("a.ppm,x,g0", "m.csv:3: score 'x' is not a number"),
        ("a.ppm,nan,g0", "m.csv:3: sample score must be finite"),
        ("a.ppm,-inf,g0", "m.csv:3: sample score must be finite"),
        ("a.ppm,,g0", "m.csv:3: score '' is not a number"),
        ("a.ppm,1.0,", "m.csv:3: sample group_id must be non-empty"),
        (",0.5,g2", "m.csv:3: empty image path"),
    ], ids=["text", "nan", "-inf", "empty-score", "empty-group", "empty-path"])
    def test_bad_row_names_path_line_and_field(self, tmp_path, row, message):
        p = tmp_path / "m.csv"
        p.write_text(f"path,score,group\nb.ppm,0.5,g1\n{row}\n")
        with pytest.raises(ValueError) as info:
            data.read_manifest(str(p))
        assert str(info.value) == f"{tmp_path}/{message}"


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with data.atomic_write(str(path)) as fh:
                fh.write("new, partly written")
                fh.flush()
                raise RuntimeError("failed mid-write")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_manifest_failing_partway_keeps_old_file(self, tmp_path):
        imgs = gen_base_images(2, 8, Rng(16))
        mat = data.materialize(
            Manifest([Sample(img, 0.5, f"g{i}") for i, img in enumerate(imgs)]),
            str(tmp_path))
        mpath = str(tmp_path / "manifest.csv")
        data.write_manifest(mpath, mat)
        before = open(mpath, "rb").read()
        mixed = Manifest([mat.samples[0], Sample(imgs[1], 1.0, "g9")])
        with pytest.raises(ValueError, match="file-backed"):
            data.write_manifest(mpath, mixed)
        assert open(mpath, "rb").read() == before
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))

    def test_success_replaces_with_umask_mode(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with data.atomic_write(str(path), "wb") as fh:
            fh.write(b"new")
        plain = tmp_path / "plain.bin"
        with open(plain, "wb"):
            pass
        assert path.read_bytes() == b"new"
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        assert sorted(os.listdir(tmp_path)) == ["a.bin", "plain.bin"]


# One manifest field: no comma, and no whitespace, which a line may not
# start or end with.
_FIELD = st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                       blacklist_characters=",")


@settings(derandomize=True, database=None)
@given(ref=st.text(_FIELD, min_size=1),
       score=st.one_of(st.floats().map(repr), st.text(_FIELD)),
       group=st.text(_FIELD))
def test_manifest_row_reads_back_or_names_its_line(ref, score, group):
    """A row reads back as the same path, score and group, or fails with
    ``path:line:``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"path,score,group\n{ref},{score},{group}\n")
        try:
            (sample,) = data.read_manifest(path).samples
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:2: ")
            return
    assert sample.image_ref == os.path.join(d, ref)
    assert sample.score == float(score) and math.isfinite(sample.score)
    assert sample.group_id == group


class TestSampleValidation:
    def test_nonfinite_score(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((3, 2, 2)), float("nan"), "g0")

    def test_empty_group(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((3, 2, 2)), 1.0, "")
