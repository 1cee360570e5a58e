"""Shneiderman's HCI response-time model.

The paper's irritation thresholds come from "a standard HCI model [8]"
(Shneiderman, *Designing the User Interface*) "which offers four
interaction categories: typing (150ms), simple frequent task (1s), common
task (4s) and complex task (12s)".  Custom models and per-lag overrides
are supported, as in the paper's GUI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.core.simtime import millis

CATEGORY_TYPING = "typing"
CATEGORY_SIMPLE = "simple_frequent"
CATEGORY_COMMON = "common"
CATEGORY_COMPLEX = "complex"


@dataclass(frozen=True, slots=True)
class HciModel:
    """Maps interaction categories to irritation thresholds (microseconds)."""

    name: str
    thresholds_us: dict[str, int] = field(default_factory=dict)

    def threshold_us(self, category: str) -> int:
        try:
            return self.thresholds_us[category]
        except KeyError:
            known = ", ".join(sorted(self.thresholds_us))
            raise ReproError(
                f"HCI model {self.name!r} has no category {category!r} "
                f"(known: {known})"
            ) from None


SHNEIDERMAN_MODEL = HciModel(
    "shneiderman",
    {
        CATEGORY_TYPING: millis(150),
        CATEGORY_SIMPLE: millis(1_000),
        CATEGORY_COMMON: millis(4_000),
        CATEGORY_COMPLEX: millis(12_000),
    },
)
