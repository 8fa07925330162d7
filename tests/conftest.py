"""Session-scoped fixtures for the slower end-to-end checks.

The stage-2 model takes a couple of minutes to train, so it is built once
and shared by every test that needs a competent 2D->3D lifter.
"""

import pytest

from graphlift.pipeline import HopePipeline, PipelineConfig
from graphlift.synth import generate_dataset
from graphlift.training import PRESET_EPOCHS, train_unet_stage2
from graphlift.unet import GraphUNetModel, UNetConfig


@pytest.fixture(scope="session")
def dataset500():
    return generate_dataset(500, seed=42)


@pytest.fixture(scope="session")
def stage2_unet(dataset500):
    """Full-width U-Net after the desk-preset stage-2 budget, seed 0.

    A fresh GraphUNetModel(UNetConfig(), seed=0) reproduces its exact
    initial state, so tests that need the pre-training baseline can
    rebuild it instead of copying parameters.
    """
    model = GraphUNetModel(UNetConfig(), seed=0)
    train_unet_stage2(model, dataset500, epochs=PRESET_EPOCHS["desk"][1],
                      batch_size=32, noise_sigma=10.0, seed=0)
    return model


@pytest.fixture(scope="session")
def desk_cascade():
    """The untrained desk-width cascade (3,768,664 parameters), seed 0.
    Tests only read it."""
    return HopePipeline(PipelineConfig(), seed=0)
