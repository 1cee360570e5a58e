"""Unit tests for the Shneiderman HCI response-time model."""

import pytest

from repro.core.errors import ReproError
from repro.metrics.hci import (
    CATEGORY_COMMON,
    CATEGORY_COMPLEX,
    CATEGORY_SIMPLE,
    CATEGORY_TYPING,
    HciModel,
    SHNEIDERMAN_MODEL,
)


def test_paper_thresholds():
    """'typing (150ms), simple frequent task (1s), common task (4s) and
    complex task (12s)' — paper §II-F."""
    assert SHNEIDERMAN_MODEL.threshold_us(CATEGORY_TYPING) == 150_000
    assert SHNEIDERMAN_MODEL.threshold_us(CATEGORY_SIMPLE) == 1_000_000
    assert SHNEIDERMAN_MODEL.threshold_us(CATEGORY_COMMON) == 4_000_000
    assert SHNEIDERMAN_MODEL.threshold_us(CATEGORY_COMPLEX) == 12_000_000


def test_unknown_category_rejected():
    with pytest.raises(ReproError):
        SHNEIDERMAN_MODEL.threshold_us("heroic")


def test_custom_model():
    model = HciModel("strict", {CATEGORY_TYPING: 50_000})
    assert model.threshold_us(CATEGORY_TYPING) == 50_000
