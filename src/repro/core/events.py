"""Linux input-subsystem event model.

The paper records input directly from ``/dev/input/event*`` using the
``getevent`` tool (its Fig. 5 shows the raw hex triples).  We model the same
three-field events — ``(type, code, value)`` — plus the microsecond
timestamp ``getevent -t`` attaches, and the multi-touch protocol-B codes a
Galaxy-Nexus-class touchscreen emits.
"""

from __future__ import annotations

from dataclasses import dataclass

# --- event types (linux/input-event-codes.h) ---------------------------------
EV_SYN = 0x00
EV_KEY = 0x01
EV_REL = 0x02
EV_ABS = 0x03
EV_MSC = 0x04

# --- synchronisation codes ----------------------------------------------------
SYN_REPORT = 0x00
SYN_MT_REPORT = 0x02

# --- multi-touch protocol B absolute-axis codes -------------------------------
ABS_MT_SLOT = 0x2F
ABS_MT_TOUCH_MAJOR = 0x30
ABS_MT_WIDTH_MAJOR = 0x32
ABS_MT_POSITION_X = 0x35
ABS_MT_POSITION_Y = 0x36
ABS_MT_TRACKING_ID = 0x39
ABS_MT_PRESSURE = 0x3A

# --- key codes for the hardware buttons we model ------------------------------
KEY_POWER = 116
KEY_VOLUMEDOWN = 114
KEY_VOLUMEUP = 115
KEY_HOME = 102
KEY_BACK = 158

# ``value`` used to end a protocol-B contact: tracking id -1, which getevent
# prints as ffffffff (see the last touch line of the paper's Fig. 5).
TRACKING_ID_NONE = 0xFFFFFFFF


@dataclass(frozen=True, slots=True)
class InputEvent:
    """One kernel input event as read from ``/dev/input/event*``.

    Attributes:
        timestamp: microseconds since simulation start (``getevent -t``).
        device: device node path, e.g. ``/dev/input/event1``.
        type: event type (``EV_*``).
        code: event code within the type (``ABS_MT_*``, ``KEY_*`` …).
        value: the payload; positions, pressure, tracking ids, key state.
    """

    timestamp: int
    device: str
    type: int
    code: int
    value: int

    def is_syn_report(self) -> bool:
        """Whether this event terminates a hardware report packet."""
        return self.type == EV_SYN and self.code == SYN_REPORT
