"""Speculation and verification frequency controls (§II-B, §V-B).

Two distinct rates govern speculative execution:

* **speculation frequency** — the *step size*: at which source updates a new
  speculative value is produced. Handled by
  :class:`SpeculationInterval`. Step 0 means "speculate on the very first
  partial value available" (in the Huffman benchmark, the first count
  histogram, before any reduce completes).
* **verification frequency** — at which updates an active speculation is
  re-checked. Three policies from the paper:

  - :class:`EveryK` — the baseline verifies upon every *k*-th update
    (k = 8 in §V-A);
  - :class:`Optimistic` — a single comparison against the final value only;
  - :class:`FullVerification` — verify at every opportunity and restart
    speculation immediately when failure is detected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpeculationError

__all__ = [
    "SpeculationInterval",
    "VerificationPolicy",
    "EveryK",
    "Optimistic",
    "FullVerification",
    "VERIFICATIONS",
    "get_verification",
]


@dataclass(frozen=True)
class SpeculationInterval:
    """Step-size rule for when (re-)speculation may start.

    ``step == 0``: the only scheduled opportunity is update 0 (the earliest
    partial value); after a rollback, re-speculation happens at the next
    update. ``step >= 1``: opportunities at updates ``step, 2·step, ...``.
    """

    step: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise SpeculationError(f"step size must be >= 0, got {self.step}")

    def is_opportunity(self, index: int, had_rollback: bool = False) -> bool:
        if self.step == 0:
            return index == 0 or had_rollback
        return index > 0 and index % self.step == 0


class VerificationPolicy:
    """When to verify an active speculation against a fresh update."""

    name = "base"
    #: restart speculation in the same instant a check fails?
    respeculate_on_failure = False

    def check_at(self, index: int) -> bool:
        """Should an intermediate check run at update ``index``?

        The final update always triggers a check regardless of policy.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


@dataclass(frozen=True, repr=False)
class EveryK(VerificationPolicy):
    """Verify on every ``k``-th update (paper baseline: k = 8)."""

    k: int = 8
    name = "every_k"
    respeculate_on_failure = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SpeculationError(f"verification period must be >= 1, got {self.k}")

    def check_at(self, index: int) -> bool:
        return index % self.k == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EveryK k={self.k}>"


class Optimistic(VerificationPolicy):
    """Speculate on the first available value; verify only at the end.

    "Virtually no overhead caused by checking tasks", but when the guess is
    bad the entire speculative effort is discovered wasted only at the final
    comparison (§V-B, Fig. 6).
    """

    name = "optimistic"
    respeculate_on_failure = False

    def check_at(self, index: int) -> bool:
        return False


class FullVerification(VerificationPolicy):
    """Verify at every opportunity; re-start speculation on failure at once."""

    name = "full"
    respeculate_on_failure = True

    def check_at(self, index: int) -> bool:
        return True


#: The ``verification`` vocabulary: each policy's paper name -> its class.
VERIFICATIONS: dict[str, type[VerificationPolicy]] = {
    cls.name: cls for cls in (EveryK, Optimistic, FullVerification)}


def get_verification(name: str, k: int = 8) -> VerificationPolicy:
    """Instantiate a verification policy by its paper name
    (``baseline`` and ``balanced`` are aliases of ``every_k``)."""
    name = name.lower()
    if name in ("baseline", "balanced"):
        name = EveryK.name
    cls = VERIFICATIONS.get(name)
    if cls is None:
        raise SpeculationError(
            f"unknown verification policy {name!r}; "
            f"choose {'/'.join(VERIFICATIONS)}")
    return cls(k) if cls is EveryK else cls()
