"""Synthetic image corpus with analytically ordered quality labels, plus
manifest / PPM file I/O for user-supplied datasets.

Images are float arrays shaped (3, H, W) with values in [0, 1]. A manifest
pairs image references with scores; higher score means better quality.
Synthetic scores are a monotone proxy MOS: 1 - level / (levels - 1).
"""
from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .tensor import Rng

DISTORTION_KINDS = ("gaussian_blur", "white_noise", "contrast_reduction",
                    "blockiness")


@dataclass
class Sample:
    image_ref: Union[str, np.ndarray]
    score: float
    group_id: str
    kind: Optional[str] = None
    level: Optional[int] = None

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError("sample score must be finite")
        if not self.group_id:
            raise ValueError("sample group_id must be non-empty")


@dataclass
class Manifest:
    samples: list[Sample]

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def scores(self) -> np.ndarray:
        return np.array([s.score for s in self.samples])

    def groups(self) -> list[str]:
        seen, out = set(), []
        for s in self.samples:
            if s.group_id not in seen:
                seen.add(s.group_id)
                out.append(s.group_id)
        return out


def _gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of each 2-D slice over the last two axes, bit for bit
    ``scipy.ndimage.gaussian_filter(slice, sigma)``: axis -2 then -1,
    ``reflect`` edges repeated when the kernel outgrows the image, radius
    ``int(4 sigma + 0.5)``, and the taps of the symmetric kernel summed
    farthest first, in the order of scipy's C loop."""
    radius = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    w = w / w.sum()
    for axis in (x.ndim - 2, x.ndim - 1):
        n = x.shape[axis]
        idx = np.arange(-radius, n + radius) % (2 * n)   # dcba|abcd|dcba
        padded = np.take(x, np.minimum(idx, 2 * n - 1 - idx), axis=axis)
        head = (slice(None),) * axis

        def tap(k):   # the padded line shifted k - radius along the axis
            return padded[head + (slice(k, k + n),)]

        out = tap(radius) * w[radius]
        pair = np.empty_like(out)
        for j in range(radius, 0, -1):
            np.add(tap(radius - j), tap(radius + j), out=pair)
            pair *= w[radius - j]
            out += pair
        x = out
    return x


def gen_base_images(count: int, hw: int, rng: Rng) -> list[np.ndarray]:
    """Procedural pristine images: gradient + shapes + band-limited texture."""
    if count < 1:
        raise ValueError("count must be >= 1")
    images = []
    yy, xx = np.meshgrid(np.linspace(0, 1, hw), np.linspace(0, 1, hw),
                         indexing="ij")
    for _ in range(count):
        img = np.zeros((3, hw, hw))
        for c in range(3):
            theta = rng.uniform((), 0, 2 * np.pi)
            ramp = np.cos(theta) * xx + np.sin(theta) * yy
            img[c] = 0.35 + 0.3 * (ramp - ramp.min()) / max(np.ptp(ramp), 1e-9)
        n_shapes = int(rng.integers(3, 8))
        for _ in range(n_shapes):
            cy, cx = rng.uniform((2,))
            r = rng.uniform((), 0.05, 0.25)
            color = rng.uniform((3,), 0.05, 0.95)
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 < r ** 2
            if rng.uniform(()) < 0.5:  # square instead of disc
                mask = (np.abs(yy - cy) < r) & (np.abs(xx - cx) < r)
            for c in range(3):
                img[c][mask] = 0.6 * img[c][mask] + 0.4 * color[c]
        texture = _gaussian_blur(rng.normal((hw, hw)),
                                 float(rng.uniform((), 0.8, 2.5)))
        img += 0.35 * texture / max(np.abs(texture).max(), 1e-9)
        images.append(np.clip(img, 0.0, 1.0))
    return images


def apply_distortion(image: np.ndarray, kind: str, level: int,
                     rng: Optional[Rng]) -> np.ndarray:
    """Degrade an image; level 0 is exactly the identity, higher levels are
    strictly stronger; only white noise draws from `rng`. Blockiness sets each
    2*level block, edge-padded to whole blocks, to its mean. Clipped to [0, 1]."""
    if kind not in DISTORTION_KINDS:
        raise ValueError(f"unknown distortion kind {kind!r}")
    if level == 0:
        return image
    if kind == "gaussian_blur":
        out = _gaussian_blur(image, 0.8 * level)
    elif kind == "white_noise":
        out = image + rng.normal(image.shape, std=0.06 * level)
    elif kind == "contrast_reduction":
        out = 0.5 + (1.0 - 0.22 * level) * (image - 0.5)
    else:  # blockiness
        b = 2 * level  # block edge in pixels
        c, h, w = image.shape
        pad = np.pad(image, ((0, 0), (0, -h % b), (0, -w % b)), mode="edge")
        blocks = pad.reshape(c, pad.shape[1] // b, b, -1, b)
        means = blocks.mean(axis=(2, 4), keepdims=True)
        out = np.broadcast_to(means, blocks.shape).reshape(pad.shape)[:, :h, :w]
    return np.clip(out, 0.0, 1.0)


def gen_synthetic_dataset(n_base: int, levels: int, kinds: Sequence[str],
                          rng: Rng, hw: int = 64) -> Manifest:
    """Every base image x kind x level becomes one sample held in memory."""
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if not kinds:
        raise ValueError("kinds is empty: name at least one distortion kind")
    for kind in kinds:  # no level may invert the image or outgrow it
        where = f"distortion kind {kind!r} with levels = {levels}, hw = {hw}"
        if kind not in DISTORTION_KINDS:
            raise ValueError(f"unknown {where}")
        if kind == "contrast_reduction" and 0.22 * (levels - 1) >= 1:
            raise ValueError(f"{where}: the top levels invert the image")
        if kind == "blockiness" and 2 * (levels - 1) > hw:
            raise ValueError(f"{where}: the top levels' blocks exceed the image")
    bases = gen_base_images(n_base, hw, rng.child(0))
    samples = []
    for bi, base in enumerate(bases):
        for kind in kinds:
            for level in range(levels):
                img = apply_distortion(base, kind, level, rng.child(1, bi, level)
                                       if kind == "white_noise" else None)
                samples.append(Sample(
                    image_ref=img,
                    score=1.0 - level / (levels - 1),
                    group_id=f"base{bi:04d}",
                    kind=kind, level=level))
    return Manifest(samples)


def split(manifest: Manifest, train_frac: float, seed) -> tuple[Manifest, Manifest]:
    """Group-aware deterministic split; no group appears on both sides."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    groups = manifest.groups()
    if len(groups) < 2:
        raise ValueError("need at least 2 groups to split")
    perm = Rng(("split", seed)).permutation(len(groups))
    n_train = int(round(train_frac * len(groups)))
    n_train = min(max(n_train, 1), len(groups) - 1)
    train_groups = {groups[i] for i in perm[:n_train]}
    train = [s for s in manifest.samples if s.group_id in train_groups]
    test = [s for s in manifest.samples if s.group_id not in train_groups]
    return Manifest(train), Manifest(test)


def load_image(sample: Sample) -> np.ndarray:
    if isinstance(sample.image_ref, np.ndarray):
        return sample.image_ref
    return read_image(sample.image_ref)


# -- PPM / PGM and manifest files ---------------------------------------------

@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Write ``<path>.tmp``, moved onto ``path`` if the block ends without
    error and removed if not. Text is UTF-8; the mode follows the umask."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class Report:
    """A text report; ``write`` puts each of its ``lines()`` on a line."""

    def write(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write("".join(line + "\n" for line in self.lines()))


def write_ppm(path: str, image: np.ndarray) -> None:
    """Binary P6, 8-bit. Values in [0,1] map to 0..255."""
    c, h, w = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with atomic_write(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(pixels.transpose(1, 2, 0).tobytes())


# One header field: whitespace and whole "#" comment lines, the field, and
# the whitespace byte that ends it.
_PNM_FIELD = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)\s")


def read_image(path: str) -> np.ndarray:
    """Read P6 (color) or P5 (grayscale, expanded to 3 channels). A truncated
    or malformed file raises ValueError naming the path and the field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sizes, pos = [], 0
    for what in ("magic", "width", "height", "maxval"):
        m = _PNM_FIELD.match(raw, pos)
        if m is None:
            raise ValueError(f"{path}: truncated or malformed {what}")
        value, pos = m.group(1), m.end()
        if what == "magic":
            if value not in (b"P5", b"P6"):
                raise ValueError(f"{path}: unsupported format {value!r}")
            channels = 3 if value == b"P6" else 1
        elif not value.isdigit() or int(value) == 0:
            raise ValueError(f"{path}: bad {what} {value!r}")
        else:
            sizes.append(int(value))
    w, h, maxval = sizes
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval}: only 8-bit images supported")
    count = w * h * channels
    if len(raw) - pos < count:
        raise ValueError(f"{path}: truncated pixel data: {len(raw) - pos} of "
                         f"{count} bytes")
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    img = data.reshape(h, w, channels).transpose(2, 0, 1)
    if channels == 1:
        img = np.repeat(img, 3, axis=0)
    return img.astype(np.float64) / 255.0


def read_text(path: str, error=ValueError) -> str:
    """The UTF-8 text of ``path``, newlines read as ``open`` reads them; a
    byte that is not UTF-8 raises ``error`` naming the file, line and byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: byte {exc.start} is not UTF-8 "
                    f"({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_manifest(path: str, manifest: Manifest) -> None:
    """CSV with header path,score,group; image_refs must be file paths."""
    with atomic_write(path) as fh:
        fh.write("path,score,group\n")
        for s in manifest.samples:
            if not isinstance(s.image_ref, str):
                raise ValueError("write_manifest needs file-backed samples")
            fh.write(f"{s.image_ref},{s.score!r},{s.group_id}\n")


def read_manifest(path: str) -> Manifest:
    """Relative image paths resolve against the manifest's directory, and
    whitespace around a field is dropped. A bad row, or a byte that is not
    UTF-8, raises ValueError starting with ``path:line:``; a manifest
    without rows raises one starting with ``path:``."""
    samples = []
    seen = set()
    base = os.path.dirname(os.path.abspath(path))
    header, *rows = [line.strip() for line in read_text(path).split("\n")]
    if header != "path,score,group":
        raise ValueError(f"{path}: bad manifest header {header!r}")
    for line_no, line in enumerate(rows, start=2):
        if not line:
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: expected 3 fields")
        ref, score, group = parts
        if not ref:
            raise ValueError(f"{path}:{line_no}: empty image path")
        image = os.path.join(base, ref)
        key = os.path.normpath(image)   # ./a.ppm is a.ppm
        if key in seen:
            raise ValueError(f"{path}:{line_no}: duplicate image {ref}")
        seen.add(key)
        try:
            value = float(score)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: score {score!r} is not "
                             f"a number") from None
        try:   # Sample rejects a non-finite score and an empty group
            samples.append(Sample(image, value, group))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    if not samples:
        raise ValueError(f"{path}: manifest has no rows")
    return Manifest(samples)


def materialize(manifest: Manifest, out_dir: str) -> Manifest:
    """Write in-memory samples to PPM files under out_dir; returns a
    file-backed manifest with paths relative to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    out = []
    for i, s in enumerate(manifest.samples):
        name = f"img{i:05d}.ppm"
        write_ppm(os.path.join(out_dir, name), load_image(s))
        out.append(Sample(name, s.score, s.group_id, s.kind, s.level))
    return Manifest(out)
