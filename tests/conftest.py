"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from dtikit.encoder import EncoderConfig


@pytest.fixture
def float32_small(monkeypatch):
    """The small preset computing in float32 over float64 masters, as the
    paper preset does."""
    small = EncoderConfig.small
    monkeypatch.setattr(
        EncoderConfig, "small", staticmethod(lambda **kw: small(**{"dtype": np.float32, **kw}))
    )
