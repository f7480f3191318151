"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from dtikit.encoder import EncoderConfig


@pytest.fixture
def float32_small(monkeypatch):
    """The small preset with float32 weights, moments and compute, as the
    paper preset has."""
    small = EncoderConfig.small
    monkeypatch.setattr(
        EncoderConfig, "small", staticmethod(lambda **kw: small(**{"dtype": np.float32, **kw}))
    )
