"""Configuration of a parallel Nested Monte-Carlo Search run."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["DispatcherKind", "ParallelConfig"]


class DispatcherKind(str, enum.Enum):
    """Which dispatcher algorithm assigns clients to median jobs (Section IV)."""

    ROUND_ROBIN = "round_robin"
    LAST_MINUTE = "last_minute"

    @classmethod
    def parse(cls, value: "DispatcherKind | str") -> "DispatcherKind":
        if isinstance(value, DispatcherKind):
            return value
        normalized = str(value).strip().lower().replace("-", "_")
        aliases = {
            "round_robin": cls.ROUND_ROBIN,
            "rr": cls.ROUND_ROBIN,
            "last_minute": cls.LAST_MINUTE,
            "lm": cls.LAST_MINUTE,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown dispatcher kind {value!r}")
        return aliases[normalized]


@dataclass(frozen=True)
class ParallelConfig:
    """Parameters of one parallel NMCS run.

    Attributes
    ----------
    level:
        Total nesting level of the search (the root plays at this level).
        Must be at least 2 for the three-tier root/median/client architecture.
    dispatcher:
        Round-Robin or Last-Minute client dispatching; a string is parsed
        with :meth:`DispatcherKind.parse`, so ``"rr"`` and ``"lm"`` work.
    n_medians:
        Number of median processes.  The paper runs 40, "greater than the
        number of possible moves"; fewer medians serialise the root fan-out
        (this is one of the ablations).
    max_root_steps:
        ``None`` plays the root's game to the end (the paper's "one rollout"
        experiments); ``1`` stops after the first move (the "first move"
        experiments).
    master_seed:
        The root :class:`~repro.prng.SeedSequence` is
        ``SeedSequence(master_seed, "nmcs")``, the one
        :func:`repro.core.nested.nmcs` uses, so sequential and parallel runs
        with the same ``master_seed`` are comparable.
    lm_fifo_jobs:
        Ablation switch: when True the Last-Minute dispatcher serves pending
        jobs first-come-first-served instead of longest-expected-first.
    """

    level: int = 3
    dispatcher: DispatcherKind = DispatcherKind.ROUND_ROBIN
    n_medians: int = 40
    max_root_steps: Optional[int] = None
    master_seed: int = 0
    lm_fifo_jobs: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "dispatcher", DispatcherKind.parse(self.dispatcher))
        if self.level < 2:
            raise ValueError(
                "parallel NMCS needs level >= 2 (root, median and client tiers)"
            )
        if self.n_medians < 1:
            raise ValueError("n_medians must be >= 1")
        if self.max_root_steps is not None and self.max_root_steps < 1:
            raise ValueError("max_root_steps must be >= 1 when given")
