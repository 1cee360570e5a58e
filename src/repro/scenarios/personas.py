"""Personas: parameterized synthetic users.

A :class:`Persona` is a distribution over *activities* — bounded app
sessions built from the same tap/swipe vocabularies the Table I dataset
plans use — plus a think-time scale, a spurious-input rate, per-session
idle gaps and a swipe bias.  :func:`persona_plan` turns a persona and a
seeded :class:`random.Random` into an endless :class:`PlanStep` stream;
the recording harness cuts it at the scenario duration.

Activities keep the cross-visit state the live UI keeps (Pulse scroll
offset, Movie Studio clip count, Logo Quiz progress) in a
:class:`PlanState`, so every generated target resolves against the live
UI exactly the way the proven dataset plans do: list-row taps stay
inside the tracked visible window, clip selections never name a clip
that was not imported, and every activity leaves its app in the state
the next visit expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator

from repro.workloads.datasets import ANSWER_WORDS
from repro.workloads.sessions import KIND_SWIPE, KIND_TAP, PlanStep


def _tap(app: str, target: str, think_us: int) -> PlanStep:
    return PlanStep(KIND_TAP, app, target, think_us)


def _swipe(app: str, target: str, think_us: int) -> PlanStep:
    return PlanStep(KIND_SWIPE, app, target, think_us)


@dataclass(frozen=True, slots=True)
class Persona:
    """One synthetic user archetype."""

    name: str
    description: str
    #: ``(activity, weight)`` pairs; weights need not sum to one.
    app_mix: tuple[tuple[str, float], ...]
    #: Multiplier on every base think-time range (lower = faster user).
    think_scale: float
    #: Chance of a spurious (dead) tap at each activity's spurious points.
    spurious_rate: float
    #: Idle gap range in seconds between app sessions (the launcher tap
    #: that starts each activity carries this as its think time).
    idle_gap_s: tuple[float, float]
    #: Chance of an extra scroll swipe wherever an activity scrolls.
    swipe_bias: float
    #: Action blocks per app session.
    session_blocks: tuple[int, int] = (2, 3)

    def think(self, rng: Random, low_s: float, high_s: float) -> int:
        """A think time drawn from the scaled ``[low_s, high_s]`` range."""
        return int(
            rng.uniform(low_s * self.think_scale, high_s * self.think_scale)
            * 1_000_000
        )

    def blocks(self, rng: Random) -> int:
        return rng.randint(*self.session_blocks)


@dataclass(slots=True)
class PlanState:
    """Cross-visit UI state a persona's plan tracks, one per scenario."""

    quiz_started: bool = False
    pulse_rows: int = 0
    clips_imported: int = 0
    clip_selected: int = -1
    music_playing: bool = False


Activity = Callable[[Random, Persona, PlanState, int], Iterator[PlanStep]]


def _spurious(
    rng: Random, persona: Persona, app: str
) -> Iterator[PlanStep]:
    if rng.random() < persona.spurious_rate:
        yield _tap(app, "dead", persona.think(rng, 0.8, 1.6))


# --- activities -----------------------------------------------------------------------
#
# Each activity starts with a launcher tap whose think time is the
# between-session idle gap, performs a bounded number of blocks, and
# returns to the home screen, leaving its app ready for the next visit.


def _quiz(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """Logo Quiz: typing-dominated play (the Dataset 02 vocabulary)."""
    yield _tap("launcher", "icon:logoquiz", gap_us)
    if not state.quiz_started:
        yield _tap("logoquiz", "btn:play", persona.think(rng, 1.5, 3.0))
        level = rng.randint(0, 8)
        yield _tap("logoquiz", f"level:{level}", persona.think(rng, 1.2, 2.5))
        state.quiz_started = True
    for _ in range(persona.blocks(rng)):
        word = rng.choice(ANSWER_WORDS)
        first_think = persona.think(rng, 7.0, 13.0)
        for position, char in enumerate(word):
            think = first_think if position == 0 else persona.think(rng, 1.1, 2.4)
            yield _tap("logoquiz", f"key:{char}", think)
        yield from _spurious(rng, persona, "logoquiz")
        yield _tap("logoquiz", "btn:check", persona.think(rng, 1.4, 2.8))
    yield _tap("logoquiz", "nav:home", persona.think(rng, 1.5, 3.0))


def _news(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """Pulse News: scroll and read (the Dataset 05 vocabulary).

    ``state.pulse_rows`` mirrors the feed's scroll offset across visits
    so story taps always land inside the visible window.
    """
    if rng.random() < 0.3:
        yield _tap("launcher", "widget", gap_us)
    else:
        yield _tap("launcher", "icon:pulse", gap_us)
    for _ in range(persona.blocks(rng)):
        if state.pulse_rows == 0 and rng.random() < 0.2:
            yield _swipe("pulse", "pull-refresh", persona.think(rng, 2.0, 4.5))
        swipes = rng.randint(1, 2)
        if rng.random() < persona.swipe_bias:
            swipes += 1
        for _ in range(swipes):
            if state.pulse_rows < 12:
                yield _swipe("pulse", "scroll-up", persona.think(rng, 2.5, 6.0))
                state.pulse_rows += 8
            else:
                yield _swipe("pulse", "scroll-down", persona.think(rng, 2.5, 6.0))
                state.pulse_rows -= 8
        story = min(23, state.pulse_rows + rng.randint(0, 5))
        yield _tap("pulse", f"story:{story}", persona.think(rng, 3.0, 6.0))
        yield _tap("pulse", "nav:back", persona.think(rng, 9.0, 25.0))
        yield from _spurious(rng, persona, "pulse")
    yield _tap("pulse", "nav:home", persona.think(rng, 1.5, 3.0))


def _chat(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """Messaging: open a thread, type, attach, send (Dataset 03)."""
    yield _tap("launcher", "icon:messaging", gap_us)
    thread = rng.randint(0, 7)
    yield _tap("messaging", f"thread:{thread}", persona.think(rng, 2.0, 4.0))
    for _ in range(persona.blocks(rng)):
        word = rng.choice(ANSWER_WORDS)
        for position, char in enumerate(word):
            think = (
                persona.think(rng, 3.0, 7.0)
                if position == 0
                else persona.think(rng, 0.8, 2.0)
            )
            yield _tap("messaging", f"key:{char}", think)
        if rng.random() < 0.4:
            yield _tap("messaging", "btn:attach", persona.think(rng, 2.0, 4.0))
            yield _tap(
                "messaging",
                f"pick:{rng.randint(0, 5)}",
                persona.think(rng, 2.5, 5.0),
            )
        yield from _spurious(rng, persona, "messaging")
        yield _tap("messaging", "btn:send", persona.think(rng, 1.5, 3.0))
    yield _tap("messaging", "nav:home", persona.think(rng, 2.0, 5.0))


def _photos(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """Gallery: edit / filter / save — the long complex lags (Dataset 01)."""
    yield _tap("launcher", "icon:gallery", gap_us)
    album = rng.randint(0, 7)
    yield _tap("gallery", f"album:{album}", persona.think(rng, 4.0, 8.0))
    yield _tap(
        "gallery", f"photo:{rng.randint(0, 5)}", persona.think(rng, 3.0, 6.0)
    )
    flips = rng.randint(0, 2)
    if rng.random() < persona.swipe_bias:
        flips += 1
    for _ in range(flips):
        yield _swipe("gallery", "flip-next", persona.think(rng, 5.0, 10.0))
    yield _tap("gallery", "btn:edit", persona.think(rng, 4.0, 8.0))
    yield _tap("gallery", "btn:filter", persona.think(rng, 4.0, 8.0))
    if rng.random() < 0.35:
        yield _tap("gallery", "btn:filter", persona.think(rng, 4.0, 8.0))
    yield _tap("gallery", "btn:save", persona.think(rng, 4.0, 7.0))
    yield from _spurious(rng, persona, "gallery")
    # Admire the result, then back out to the albums overview.
    yield _tap("gallery", "nav:back", persona.think(rng, 8.0, 15.0))
    yield _tap("gallery", "nav:back", persona.think(rng, 2.0, 4.0))
    yield _tap("gallery", "nav:back", persona.think(rng, 2.0, 4.0))
    yield _tap("gallery", "nav:home", persona.think(rng, 1.5, 3.0))


def _video(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """Movie Studio: clip edits, previews, exports (Dataset 04).

    ``state.clips_imported`` / ``state.clip_selected`` mirror the app's
    project state so selection taps always name an imported clip.
    """
    yield _tap("launcher", "icon:moviestudio", gap_us)
    for _ in range(persona.blocks(rng)):
        if state.clips_imported < 6:
            yield _tap(
                "moviestudio", "btn:addclip", persona.think(rng, 1.5, 3.0)
            )
            state.clips_imported += 1
        for _ in range(rng.randint(2, 4)):
            choice = rng.randrange(state.clips_imported)
            if choice == state.clip_selected:
                choice = (choice + 1) % state.clips_imported
            if choice == state.clip_selected:
                continue  # only one clip imported and already selected
            state.clip_selected = choice
            yield _tap(
                "moviestudio", f"clip:{choice}", persona.think(rng, 1.0, 2.2)
            )
        yield from _spurious(rng, persona, "moviestudio")
        yield _tap("moviestudio", "btn:preview", persona.think(rng, 3.0, 6.5))
        if state.clips_imported >= 3 and rng.random() < 0.3:
            yield _tap(
                "moviestudio", "btn:export", persona.think(rng, 6.0, 12.0)
            )
    yield _tap("moviestudio", "nav:home", persona.think(rng, 1.5, 3.0))


def _feed(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """A feed app burst (the 24-hour workload's social/email vocabulary).

    Self-restoring: every scroll-up is paired with a scroll-down, so the
    feed is back at the top when the session ends.
    """
    app = rng.choice(("facebook", "gmail"))
    yield _tap("launcher", f"icon:{app}", gap_us)
    scrolled = rng.random() < max(persona.swipe_bias, 0.3)
    if scrolled:
        yield _swipe(app, "scroll-up", persona.think(rng, 2.0, 5.0))
    # One 112 px swipe over 13 px rows leaves items 9..16 on screen.
    base = 9 if scrolled else 0
    for _ in range(persona.blocks(rng)):
        yield _tap(
            app, f"item:{base + rng.randint(0, 5)}", persona.think(rng, 1.5, 3.0)
        )
        yield _tap(app, "nav:back", persona.think(rng, 5.0, 14.0))
    yield from _spurious(rng, persona, app)
    if scrolled:
        yield _swipe(app, "scroll-down", persona.think(rng, 1.5, 3.0))
    yield _tap(app, "nav:home", persona.think(rng, 1.0, 2.0))


def _tunes(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """Music: toggle playback — background decode load between sessions."""
    yield _tap("launcher", "icon:music", gap_us)
    yield _tap("music", "btn:toggle", persona.think(rng, 1.0, 2.0))
    state.music_playing = not state.music_playing
    yield from _spurious(rng, persona, "music")
    yield _tap("music", "nav:home", persona.think(rng, 1.5, 3.0))


def _sums(
    rng: Random, persona: Persona, state: PlanState, gap_us: int
) -> Iterator[PlanStep]:
    """Calculator: rapid typing-category taps."""
    yield _tap("launcher", "icon:calculator", gap_us)
    for char in str(rng.randint(10, 999)):
        yield _tap("calculator", f"key:{char}", persona.think(rng, 0.5, 1.0))
    yield _tap("calculator", "key:+", persona.think(rng, 0.5, 1.0))
    for char in str(rng.randint(10, 999)):
        yield _tap("calculator", f"key:{char}", persona.think(rng, 0.5, 1.0))
    yield _tap("calculator", "key:=", persona.think(rng, 0.5, 1.0))
    yield from _spurious(rng, persona, "calculator")
    yield _tap("calculator", "nav:home", persona.think(rng, 1.5, 3.0))


ACTIVITIES: dict[str, Activity] = {
    "quiz": _quiz,
    "news": _news,
    "chat": _chat,
    "photos": _photos,
    "video": _video,
    "feed": _feed,
    "tunes": _tunes,
    "sums": _sums,
}


# --- the personas ---------------------------------------------------------------------

PERSONAS: dict[str, Persona] = {
    persona.name: persona
    for persona in (
        Persona(
            name="gamer",
            description="Fast-fingered Logo Quiz marathons with side chats.",
            app_mix=(("quiz", 0.62), ("chat", 0.15), ("feed", 0.13), ("tunes", 0.10)),
            think_scale=0.6,
            spurious_rate=0.25,
            idle_gap_s=(4.0, 10.0),
            swipe_bias=0.1,
            session_blocks=(2, 4),
        ),
        Persona(
            name="reader",
            description="Long, slow news and feed reading sessions.",
            app_mix=(("news", 0.55), ("feed", 0.25), ("photos", 0.10), ("chat", 0.10)),
            think_scale=1.6,
            spurious_rate=0.12,
            idle_gap_s=(6.0, 18.0),
            swipe_bias=0.6,
            session_blocks=(2, 3),
        ),
        Persona(
            name="messenger",
            description="Conversation-driven: typing bursts and quick glances.",
            app_mix=(("chat", 0.60), ("news", 0.15), ("feed", 0.15), ("tunes", 0.10)),
            think_scale=0.8,
            spurious_rate=0.20,
            idle_gap_s=(3.0, 9.0),
            swipe_bias=0.25,
        ),
        Persona(
            name="creator",
            description="Media-heavy editing: Gallery filters and Movie Studio exports.",
            app_mix=(("photos", 0.45), ("video", 0.45), ("tunes", 0.10)),
            think_scale=1.0,
            spurious_rate=0.30,
            idle_gap_s=(5.0, 12.0),
            swipe_bias=0.3,
        ),
        Persona(
            name="mixed",
            description="A bit of everything, densely interleaved.",
            app_mix=(
                ("quiz", 0.15),
                ("news", 0.20),
                ("chat", 0.20),
                ("photos", 0.15),
                ("video", 0.10),
                ("feed", 0.10),
                ("sums", 0.05),
                ("tunes", 0.05),
            ),
            think_scale=1.0,
            spurious_rate=0.20,
            idle_gap_s=(4.0, 12.0),
            swipe_bias=0.35,
        ),
        Persona(
            name="burst-commuter",
            description="Short intense bursts separated by long pocket gaps.",
            app_mix=(("news", 0.30), ("chat", 0.30), ("feed", 0.30), ("sums", 0.10)),
            think_scale=0.7,
            spurious_rate=0.15,
            idle_gap_s=(45.0, 150.0),
            swipe_bias=0.3,
        ),
    )
}


def persona_names() -> list[str]:
    return sorted(PERSONAS)


def _weighted_choice(
    rng: Random, mix: tuple[tuple[str, float], ...]
) -> str:
    total = sum(weight for _, weight in mix)
    mark = rng.random() * total
    for name, weight in mix:
        mark -= weight
        if mark < 0:
            return name
    return mix[-1][0]


def persona_plan(who: Persona, rng: Random) -> Iterator[PlanStep]:
    """An endless seeded :class:`PlanStep` stream for one persona."""
    state = PlanState()
    first = True
    while True:
        activity = ACTIVITIES[_weighted_choice(rng, who.app_mix)]
        low, high = who.idle_gap_s
        # The first session starts promptly; later ones wait out the gap.
        gap_us = (
            int(rng.uniform(1.5, 3.0) * 1_000_000)
            if first
            else int(rng.uniform(low, high) * 1_000_000)
        )
        first = False
        yield from activity(rng, who, state, gap_us)
