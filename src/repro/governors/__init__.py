"""DVFS governors.

Faithful state machines for the three governors the paper characterises
(ondemand, conservative, interactive), the userspace governor that
``fixed:<khz>`` pins at one operating point, and a QoE-aware governor
implementing the paper's proposed future-work direction.
"""

from repro.governors.base import Governor, GovernorContext, create_governor
from repro.governors.conservative import ConservativeGovernor
from repro.governors.interactive import InteractiveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.qoe_aware import QoeAwareGovernor
from repro.governors.userspace import UserspaceGovernor

__all__ = [
    "Governor",
    "GovernorContext",
    "create_governor",
    "OndemandGovernor",
    "ConservativeGovernor",
    "InteractiveGovernor",
    "UserspaceGovernor",
    "QoeAwareGovernor",
]
