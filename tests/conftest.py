import os

# Pin BLAS threads before numpy loads, so suite wall times do not depend on
# what else runs on the host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from panelqa.encoder import ModelConfig
from panelqa.model import init_model
from panelqa.tensor import Rng, Tensor


def pytest_report_header(config):
    return (f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
            f"numpy={np.__version__}")


def toy_config(**overrides) -> ModelConfig:
    base = dict(patch_size=4, token_dim=16, heads=2, encoder_depth=2,
                decoder_depth=1, panel_size=3, mlp_ratio=2.0, channels=3,
                crop_hw=12, variant="full")
    base.update(overrides)
    return ModelConfig(**base)


def toy_model(seed=0, **overrides):
    cfg = toy_config(**overrides)
    return init_model(cfg, Rng(seed), dtype=np.float64)


def rand_image(cfg: ModelConfig, rng: Rng) -> Tensor:
    return Tensor(rng.uniform((cfg.channels, cfg.crop_hw, cfg.crop_hw)))


def batched(image: Tensor) -> Tensor:
    return image.reshape((1,) + image.shape)


def unpatchify(patches: np.ndarray, p: int, channels: int, hw: int) -> np.ndarray:
    """Inverse of ``encoder.patchify`` for a single image."""
    g = hw // p
    x = patches.reshape(g, g, channels, p, p)
    return x.transpose(2, 0, 3, 1, 4).reshape(channels, hw, hw)


@pytest.fixture
def cfg():
    return toy_config()


@pytest.fixture
def model():
    return toy_model(seed=0)
