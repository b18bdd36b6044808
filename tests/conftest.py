"""Shared fixtures: scaled-down engine configs that keep naive oracles fast."""

import numpy as np
import pytest

from clearstream.pipeline import PipelineConfig
from clearstream.tcn import TcnConfig
from clearstream.unet import UNetConfig
from clearstream.weights import random_init


@pytest.fixture(scope="session")
def small_tcn() -> TcnConfig:
    return TcnConfig(
        frame_len=5,
        packet_len=20,
        latent_channels=8,
        dilations=(1, 2, 4),
    )


@pytest.fixture(scope="session")
def small_unet() -> UNetConfig:
    return UNetConfig(input_mel=16, input_frames=16, base_channels=2, levels=2)


@pytest.fixture(scope="session")
def small_pipeline(small_unet) -> PipelineConfig:
    tcn = TcnConfig(
        frame_len=8,
        packet_len=64,
        latent_channels=8,
        dilations=(1, 2, 4, 8),
    )
    return PipelineConfig(tcn=tcn, unet=small_unet, win_len=256)


@pytest.fixture(scope="session")
def small_pipeline_bundle(small_pipeline):
    return random_init(small_pipeline, seed=42)


@pytest.fixture(scope="session")
def constant_mask_bundle():
    """Factory: random_init(cfg, seed) with every UNet tensor zeroed and
    unet.out.b set to bias.  Every UNet probability is then expit(bias):
    bias 0 gives exactly 0.5, which the >= threshold passes, so the mask
    passes every cell; bias -1 blocks every cell."""

    def make(cfg, seed: int, bias: float):
        bundle = random_init(cfg, seed=seed)
        for name in bundle.names():
            if name.startswith("unet."):
                bundle.tensor(name)[...] = 0.0
        bundle.tensor("unet.out.b")[...] = bias
        return bundle

    return make


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
