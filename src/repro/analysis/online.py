"""The matcher as an online reducer over the capture's segment stream.

The paper's matcher (§II-E) steps through the video frame by frame and,
from each input's time on, compares the following frames with the lag
ending the annotation database holds.  :class:`OnlineMatcher` performs
that algorithm as a :class:`~repro.capture.stream.FrameTap`: each
gesture's scan state is activated when the stream reaches its input
time, every closed segment is compared against the (few) currently-open
annotation windows, and a matched window releases its state immediately
— so memory is O(active-window), not O(session), and consumed frames are
never retained.  Occurrence counting handles endings that look like
beginnings; masks handle run-to-run nondeterminism.
"""

from __future__ import annotations

from repro.core.errors import MatchError
from repro.analysis.annotation import AnnotationDatabase, LagAnnotation
from repro.analysis.diff import build_mask, frames_equal
from repro.analysis.lagprofile import LagMeasurement, LagProfile
from repro.capture.stream import FrameTap
from repro.device.display import VSYNC_PERIOD_US, frame_timestamp
from repro.obs.session import active as _obs_active


class _ScanState:
    """One annotation's progress through the stream."""

    __slots__ = (
        "lag_index",
        "annotation",
        "begin_frame",
        "mask",
        "occurrences",
        "in_match",
        "out_of_range",
    )

    def __init__(self, lag_index: int, annotation: LagAnnotation) -> None:
        self.lag_index = lag_index
        self.annotation = annotation
        self.begin_frame = annotation.begin_time_us // VSYNC_PERIOD_US
        self.mask = None
        self.occurrences = 0
        self.in_match = False
        self.out_of_range = False


class OnlineMatcher(FrameTap):
    """Fully automatic lag detection, one segment at a time.

    Subscribe to a capture (``card.add_tap(matcher)``), run the replay,
    then read :meth:`profile`.  Annotations activate in begin-time order
    (the database keeps them sorted); a segment is compared only against
    annotations whose window is open, and a serviced window drops its
    state at once.
    """

    def __init__(self, database: AnnotationDatabase) -> None:
        self._db = database
        self._scans = [
            _ScanState(lag_index, annotation)
            for lag_index, annotation in enumerate(database.annotations)
        ]
        self._next = 0
        self._active: list[_ScanState] = []
        self._done: dict[int, LagMeasurement] = {}
        self._start_frame: int | None = None
        self._end_frame: int | None = None
        self._obs = _obs_active()

    # --- FrameTap interface -----------------------------------------------------

    def on_segment(self, segment) -> None:
        if self._start_frame is None:
            self._start_frame = segment.start
        # Open every annotation window the stream has now reached.  A
        # window beginning before the capture started can never be
        # scanned; it is reported (in database order) at profile time.
        while (
            self._next < len(self._scans)
            and self._scans[self._next].begin_frame < segment.end
        ):
            scan = self._scans[self._next]
            self._next += 1
            if scan.begin_frame < self._start_frame:
                scan.out_of_range = True
                continue
            self._activate(scan)
            self._active.append(scan)
            obs = self._obs
            if obs is not None:
                obs.gesture_window_opened(
                    scan.annotation.begin_time_us,
                    scan.annotation.label,
                    scan.annotation.gesture_index,
                )
        if not self._active:
            return
        finished: list[_ScanState] | None = None
        for scan in self._active:
            annotation = scan.annotation
            matches = self._matches(scan, segment)
            if matches and not scan.in_match:
                scan.occurrences += 1
                if scan.occurrences == annotation.occurrence:
                    self._finish(scan, max(segment.start, scan.begin_frame))
                    if finished is None:
                        finished = []
                    finished.append(scan)
                    continue
            scan.in_match = matches
        if finished:
            for scan in finished:
                self._active.remove(scan)

    def on_stop(self, end_frame: int) -> None:
        self._end_frame = end_frame

    # --- comparison strategy ----------------------------------------------------

    def _activate(self, scan: _ScanState) -> None:
        """Prepare a scan whose window just opened (builds its mask)."""
        scan.mask = build_mask(
            scan.annotation.image.shape, scan.annotation.mask_rects
        )

    def _matches(self, scan: _ScanState, segment) -> bool:
        """Whether a segment's content matches the scan's ending image.

        The demand evaluation pass substitutes a precomputed-verdict
        lookup here (its segments carry interned state ids, not pixels);
        everything else — activation order, occurrence counting, the
        profile contract — is shared.
        """
        annotation = scan.annotation
        return frames_equal(
            segment.content,
            annotation.image,
            scan.mask,
            annotation.tolerance_px,
        )

    # --- results ---------------------------------------------------------------

    def profile(self) -> LagProfile:
        """The lag profile, or the first (database-order) failure.

        Raises :class:`MatchError` for an annotation beginning outside
        the captured frame range, or an ending image that never appeared.
        """
        if self._end_frame is None:
            raise MatchError("capture still running: no stop signal received")
        measurements = []
        for scan in self._scans:
            measurement = self._done.get(scan.lag_index)
            if measurement is not None:
                measurements.append(measurement)
                continue
            self._raise_unmatched(scan)
        return LagProfile(self._db.workload_name, tuple(measurements))

    def _finish(self, scan: _ScanState, end_frame: int) -> None:
        annotation = scan.annotation
        end_time = frame_timestamp(end_frame)
        duration = max(0, end_time - annotation.begin_time_us)
        self._done[scan.lag_index] = LagMeasurement(
            lag_index=scan.lag_index,
            gesture_index=annotation.gesture_index,
            label=annotation.label,
            category=annotation.category,
            begin_time_us=annotation.begin_time_us,
            end_frame=end_frame,
            duration_us=duration,
            threshold_us=annotation.threshold_us,
        )
        scan.mask = None
        obs = self._obs
        if obs is not None:
            obs.lag_window_closed(
                annotation.begin_time_us,
                duration,
                annotation.label,
                annotation.category,
                annotation.threshold_us,
            )

    def _raise_unmatched(self, scan: _ScanState) -> None:
        annotation = scan.annotation
        start_frame = (
            self._start_frame if self._start_frame is not None else self._end_frame
        )
        if (
            scan.out_of_range
            or scan.begin_frame < start_frame
            or scan.begin_frame >= self._end_frame
        ):
            raise MatchError(
                f"lag {annotation.label!r} begins at frame {scan.begin_frame}, "
                f"outside the video ({start_frame}..{self._end_frame})"
            )
        raise MatchError(
            f"lag {annotation.label!r}: ending image never appeared after "
            f"frame {scan.begin_frame} (found {scan.occurrences} of "
            f"{annotation.occurrence} occurrences) — the workload has "
            "desynchronised or the annotation is stale"
        )
