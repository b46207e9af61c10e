"""Executor registry — one name-to-factory table for every back-end.

The four executors (simulated, threaded, process-pool, distributed) share
one runtime contract but historically were constructed by hand at every
call site
(runner, CLI, benches), each site hard-coding the name→class mapping and
its own error message. The registry centralises that: back-end modules
self-register at import time, and :func:`make_executor` is the single
constructor every harness routes through.

The table maps a *name* to a factory ``(runtime, **opts) -> executor``.
Factories may massage options (the simulated back-end resolves a platform
name string to a :class:`~repro.platforms.base.Platform`), but must accept
the same core vocabulary: ``policy``, ``workers`` where meaningful.

Registering is open: applications can add their own back-ends::

    from repro.sre.registry import register_executor
    register_executor("mybackend", MyExecutor)

and ``repro run --executor mybackend`` works, as does
``RunConfig(executor="mybackend")``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SchedulingError

__all__ = ["EXECUTORS", "register_executor", "make_executor", "executor_names"]

#: Global name → factory table. Populated by executor modules at import
#: time (see the ``register_executor`` calls at the bottom of
#: executor_sim/executor_threads/executor_procs) and open to applications.
EXECUTORS: dict[str, Callable[..., Any]] = {}


def register_executor(name: str, factory: Callable[..., Any]) -> None:
    """Register (or replace) an executor factory under ``name``.

    Args:
        name: the key users pass to :func:`make_executor`, ``repro run
            --executor`` and ``RunConfig.executor``.
        factory: callable ``(runtime, **opts) -> executor``. Usually the
            executor class itself.
    """
    if not name or not isinstance(name, str):
        raise SchedulingError("executor name must be a non-empty string")
    EXECUTORS[name] = factory


def _load_builtins() -> None:
    # Import for side effects: the built-in back-ends self-register when
    # their modules load, but a caller may reach the registry before any
    # executor module was imported (e.g. straight from repro.sre.registry).
    from repro.sre import (executor_dist, executor_procs,  # noqa: F401
                           executor_sim, executor_threads)


def executor_names() -> tuple[str, ...]:
    """Registered back-end names, sorted (for listings and errors)."""
    _load_builtins()
    return tuple(sorted(EXECUTORS))


def make_executor(name: str, runtime: Any, **opts: Any) -> Any:
    """Construct the executor registered under ``name``.

    Args:
        name: registered back-end name (``"sim"``, ``"threads"``,
            ``"procs"``, or anything applications registered).
        runtime: the :class:`~repro.sre.runtime.Runtime` to drive.
        **opts: forwarded to the factory (``policy=``, ``workers=``,
            back-end specifics like ``dispatch_timeout_s=`` or ``platform=``).

    Raises:
        SchedulingError: unknown name; the message lists the choices.
    """
    _load_builtins()
    try:
        factory = EXECUTORS[name]
    except KeyError:
        choices = ", ".join(executor_names()) or "<none registered>"
        raise SchedulingError(
            f"unknown executor {name!r}; registered back-ends: {choices}"
        ) from None
    return factory(runtime, **opts)
