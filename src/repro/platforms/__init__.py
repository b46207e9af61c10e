"""Platform models — analytic cost models standing in for real hardware.

The paper evaluates on an 8×quad-core Opteron x86 system and a Cell BE
blade. We cannot run on those (nor would wall-clock Python timings transfer),
so each platform is an analytic model: per-task-kind service times, data
transfer (DMA) latency, and the dispatch structure that matters to the
paper's findings — the Cell's 4-deep multiple buffering and 32 KB task
memory cap (§III-A). See DESIGN.md §2 for the substitution rationale.
"""

from repro.platforms.base import Platform
from repro.platforms.costmodel import CostModel, KindCost
from repro.platforms.localstore import LocalStore
from repro.platforms.x86 import X86Platform
from repro.platforms.cell import CellPlatform

__all__ = [
    "Platform",
    "CostModel",
    "KindCost",
    "LocalStore",
    "X86Platform",
    "CellPlatform",
    "PLATFORMS",
    "get_platform",
]


#: The ``platform`` vocabulary: name -> platform model.
PLATFORMS: dict[str, type[Platform]] = {"x86": X86Platform,
                                        "cell": CellPlatform}


def get_platform(name: str, **overrides) -> Platform:
    """Instantiate a platform by its :data:`PLATFORMS` name."""
    cls = PLATFORMS.get(name.lower())
    if cls is None:
        from repro.errors import PlatformError

        raise PlatformError(f"unknown platform {name.lower()!r}; choose "
                            f"{' or '.join(map(repr, PLATFORMS))}")
    return cls(**overrides)
