"""The fleet backend table: name → execution backend.

A *backend* is the piece of the fleet engine that actually runs pending
cells: the engine decides *what* to run (cache scan, demand-trace
resolution, ordered merge, accounting) and the backend decides *where*
and *how* (inline, a local process pool, a shared work queue spanning
processes or machines).  Backends are addressable by spec strings on the
CLI — ``--backend NAME[:key=value,...]`` — through the same
``name:options`` grammar governor configs use::

    local                      # inline / multiprocessing.Pool (default)
    distributed:dir=/shared,workers=4,lease=30

Every backend honours the engine's contract: it receives the pending
``(index, spec)`` cells and yields ``(index, record, failure,
telemetry)`` in completion order — a backend that ships a cell across a
process boundary encodes its record as the wire row there and decodes it
again before yielding; the engine's ordered merge then makes output
bit-identical to the serial path regardless of backend, worker count or
completion order.

The two built-ins form a fixed table; :func:`create_backend` imports
them when it first builds one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

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

    ``publishes_results`` — True when the backend's workers publish
    executed rows to a shared content-addressed record store of the
    backend's own (the distributed backend; the store is also what makes
    a killed run resumable).  Such a backend cannot run without that
    store: the CLI makes it the engine's result cache, the engine
    rejects the backend when caching is off, and it skips its own
    per-cell store call but still counts the row as stored.

    ``last_redispatched`` — cells the last :meth:`execute` dispatched
    more than once (expired leases); the engine copies it into
    ``FleetStats.redispatched``.
    """

    name = "?"
    publishes_results = False
    last_redispatched = 0

    def execute(
        self,
        artifacts: "WorkloadArtifacts",
        pending: "list[tuple[int, RunSpec]]",
        demand_trace=None,
        keys: dict[int, str] | None = None,
        store=None,
    ) -> Iterable[CellResult]:
        raise NotImplementedError


def _backends() -> dict:
    """The built-in backends' ``from_opts`` factories, by name."""
    # Imported here because both modules import this one.
    from repro.fleet.backends.distributed import DistributedBackend
    from repro.fleet.backends.local import LocalBackend

    return {
        "local": LocalBackend.from_opts,
        "distributed": DistributedBackend.from_opts,
    }


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

    ``jobs`` is the CLI's ``--jobs``: the local backend's worker count,
    and the distributed backend's unless ``workers=`` overrides it.
    """
    name, opts = parse_backend_spec(spec if spec is not None else "local")
    backends = _backends()
    factory = backends.get(name)
    if factory is None:
        raise ReproError(
            f"unknown fleet backend {name!r} "
            f"(known: {', '.join(sorted(backends))})"
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
            f"{', '.join(sorted(unknown))} (known: {', '.join(known) or 'none'})"
        )
