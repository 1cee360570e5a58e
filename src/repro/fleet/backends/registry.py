"""The fleet backend registry: name → execution backend.

A *backend* is the piece of the fleet engine that actually runs pending
cells: the engine decides *what* to run (cache scan, demand-trace
resolution, ordered merge, accounting) and the backend decides *where*
and *how* (inline, a local process pool, a shared work queue spanning
processes or machines).  Backends are addressable by spec strings on the
CLI — ``--backend NAME[:key=value,...]`` — through the same
``name:options`` grammar governor configs use::

    local                      # inline / multiprocessing.Pool (default)
    local:jobs=8               # override the worker count
    distributed:dir=/shared,workers=4,lease=30,batch=2

Every backend honours the engine's contract: it receives the pending
``(index, spec)`` cells and yields ``(index, record, failure,
telemetry)`` in completion order — a backend that ships a cell across a
process boundary encodes its record as the wire row there and decodes it
again before yielding; the engine's ordered merge then makes output
bit-identical to the serial path regardless of backend, worker count or
completion order.

Registration follows the governor-registry idiom: importing
:mod:`repro.fleet.backends` registers the built-ins; callers go through
:func:`create_backend` which loads them on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.engine import WorkerFailure
    from repro.fleet.spec import RunSpec
    from repro.harness.experiment import WorkloadArtifacts
    from repro.results import RunRecord

#: One executed cell crossing the backend boundary: the spec's index,
#: the RunRecord (or None), the captured failure (or None) and the
#: worker's telemetry dict.
CellResult = tuple[int, "RunRecord | None", "WorkerFailure | None", dict]


class FleetBackend:
    """Contract every execution backend implements.

    ``stores_results`` — True when :meth:`execute` publishes executed
    rows to the shared record store itself (workers write as they ack);
    the engine then skips its own per-cell store call but still counts
    the row as stored.

    ``requires_store`` — True when the backend cannot run without a
    content-addressed record store (the distributed backend's workers
    publish rows there; the store is also what makes a killed run
    resumable).  The engine rejects such a backend when caching is off.
    """

    name = "?"
    stores_results = False
    requires_store = False

    def execute(
        self,
        artifacts: "WorkloadArtifacts",
        pending: "list[tuple[int, RunSpec]]",
        demand_trace=None,
        keys: dict[int, str] | None = None,
        store=None,
    ) -> Iterable[CellResult]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


BackendFactory = Callable[[dict, int], FleetBackend]

_REGISTRY: dict[str, BackendFactory] = {}
_BUILTINS_LOADED = False


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a backend factory under ``name``.

    The factory receives the parsed option dict (string values, the
    backend's job to coerce and validate) and the CLI ``--jobs`` value
    as its default worker count.
    """
    _REGISTRY[name] = factory


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.fleet.backends.distributed  # noqa: F401  — self-registers
    import repro.fleet.backends.local  # noqa: F401  — self-registers

    _BUILTINS_LOADED = True


def backend_names() -> list[str]:
    _load_builtins()
    return sorted(_REGISTRY)


def parse_backend_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Split ``NAME[:key=value,...]`` into ``(name, options)``.

    Mirrors the governor config grammar; every malformed spelling raises
    a one-line :class:`ReproError` before any recording or replay starts.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ReproError(f"empty backend spec {spec!r}")
    spec = spec.strip()
    name, sep, opt_text = spec.partition(":")
    name = name.strip()
    if not name:
        raise ReproError(f"backend spec {spec!r} has no backend name")
    if sep and not opt_text.strip():
        raise ReproError(f"backend spec {spec!r} has a ':' but no options")
    opts: dict[str, str] = {}
    if opt_text:
        for pair in opt_text.split(","):
            key, eq, value = pair.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key or not value:
                raise ReproError(
                    f"backend spec {spec!r}: malformed option {pair!r} "
                    "(expected key=value)"
                )
            if key in opts:
                raise ReproError(
                    f"backend spec {spec!r}: duplicate option {key!r}"
                )
            opts[key] = value
    return name, opts


def create_backend(spec: str | None = None, jobs: int = 1) -> FleetBackend:
    """Build the backend a spec string names (default: ``local``).

    ``jobs`` seeds the backend's default worker count (the CLI's
    ``--jobs``); a backend option like ``workers=`` overrides it.
    """
    _load_builtins()
    name, opts = parse_backend_spec(spec if spec is not None else "local")
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ReproError(
            f"unknown fleet backend {name!r} "
            f"(known: {', '.join(backend_names())})"
        )
    return factory(opts, jobs)


def opt_int(opts: dict[str, str], key: str, default: int, minimum: int = 1) -> int:
    """Coerce an integer backend option with a one-line error."""
    text = opts.get(key)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        raise ReproError(
            f"backend option {key}={text!r} needs an integer value"
        ) from None
    if value < minimum:
        raise ReproError(f"backend option {key}={value} must be >= {minimum}")
    return value


def opt_float(
    opts: dict[str, str], key: str, default: float, minimum: float = 0.0
) -> float:
    """Coerce a float backend option with a one-line error."""
    text = opts.get(key)
    if text is None:
        return default
    try:
        value = float(text)
    except ValueError:
        raise ReproError(
            f"backend option {key}={text!r} needs a numeric value"
        ) from None
    if value < minimum:
        raise ReproError(f"backend option {key}={value} must be >= {minimum}")
    return value


def reject_unknown_opts(name: str, opts: dict[str, str], known: tuple[str, ...]) -> None:
    """One-line error for misspelled backend options."""
    unknown = [key for key in opts if key not in known]
    if unknown:
        raise ReproError(
            f"backend {name!r} does not take option(s) "
            f"{', '.join(sorted(unknown))} (known: {', '.join(known)})"
        )
