"""Ground-truth journal of interactions.

The journal records, device-side, when each gesture was handled and when
the app *semantically* finished servicing it.  It plays the role of the
human in the paper's annotation step (part A of Fig. 4): the AutoAnnotator
uses it to pick the correct suggester candidate, once per workload.  The
matcher — the fully automatic part — never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import SimulationError


@dataclass(slots=True)
class GestureNote:
    """One decoded gesture as the framework saw it."""

    index: int
    kind: str  # "tap" | "swipe"
    down_time: int
    consumed: bool = False


@dataclass(slots=True)
class InteractionRecord:
    """One serviced interaction: begin at input, end at semantic completion.

    ``mask_rects`` snapshots the screen regions that vary between runs
    (status-bar clock, widgets, blinking cursors) at completion time; the
    AutoAnnotator turns them into the annotation's image mask.
    """

    gesture_index: int
    label: str
    category: str
    begin_time: int
    end_time: int | None = None
    mask_rects: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.end_time is not None

    @property
    def duration_us(self) -> int:
        if self.end_time is None:
            raise SimulationError(f"interaction {self.label!r} never completed")
        return self.end_time - self.begin_time


class InteractionToken:
    """Handle an app uses to mark its interaction complete."""

    __slots__ = ("_journal", "_record", "_closed")

    def __init__(self, journal: "GroundTruthJournal", record: InteractionRecord):
        self._journal = journal
        self._record = record
        self._closed = False

    def complete(self, now: int) -> None:
        """Mark the interaction serviced at time ``now``."""
        if self._closed:
            raise SimulationError(
                f"interaction {self._record.label!r} completed twice"
            )
        self._closed = True
        self._journal.open_interactions -= 1
        self._record.end_time = now
        self._record.mask_rects = self._journal.capture_mask()
        if self._journal.completion_listener is not None:
            self._journal.completion_listener(self._record)


class GroundTruthJournal:
    """Per-run record of gestures and the interactions they triggered."""

    def __init__(self) -> None:
        self.gestures: list[GestureNote] = []
        self.interactions: list[InteractionRecord] = []
        self._current_gesture: GestureNote | None = None
        #: interactions opened but not yet completed through their token.
        self.open_interactions = 0
        #: set by the window manager; returns the dynamic-region rects.
        self.mask_provider = None
        #: set by the window manager; fires with each completed record.
        self.completion_listener = None

    def capture_mask(self) -> list:
        """Snapshot the currently dynamic screen regions."""
        if self.mask_provider is None:
            return []
        return list(self.mask_provider())

    # --- framework-side hooks ------------------------------------------------------

    def note_gesture(self, kind: str, down_time: int) -> GestureNote:
        note = GestureNote(index=len(self.gestures), kind=kind, down_time=down_time)
        self.gestures.append(note)
        self._current_gesture = note
        return note

    def gesture_dispatched(self, consumed: bool) -> None:
        if self._current_gesture is not None:
            self._current_gesture.consumed = consumed
        self._current_gesture = None

    def current_down_time(self) -> int:
        """Finger-down time of the gesture being dispatched (= lag begin)."""
        if self._current_gesture is None:
            raise SimulationError("no gesture is being dispatched")
        return self._current_gesture.down_time

    # --- app-side hooks -----------------------------------------------------------

    def open_interaction(
        self, label: str, category: str, begin_time: int
    ) -> InteractionToken:
        """Open an interaction for the gesture currently being dispatched."""
        if self._current_gesture is None:
            raise SimulationError(
                f"interaction {label!r} opened outside gesture dispatch"
            )
        gesture_index = self._current_gesture.index
        # Gesture indices only grow, so a duplicate can only be the last.
        if self.interactions:
            last = self.interactions[-1]
            if last.gesture_index == gesture_index:
                raise SimulationError(
                    f"gesture {gesture_index} already has an interaction "
                    f"({last.label!r})"
                )
        record = InteractionRecord(
            gesture_index=gesture_index,
            label=label,
            category=category,
            begin_time=begin_time,
        )
        self.interactions.append(record)
        self.open_interactions += 1
        return InteractionToken(self, record)

    # --- queries -------------------------------------------------------------------
