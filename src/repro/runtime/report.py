"""Structured outcome of one hardened run, plus the CLI exit codes.

A `RunReport` answers, after any run — clean, degraded, interrupted, or
out of budget — exactly what happened: which phases ran (and which were
replayed from the journal), every silent-degradation event (quarantined
cache entries, resilience retries), and the best cost
known so far.  The acceptance bar for a healthy run is *zero* entries in
``degradations``.

Exit codes (documented in ``pase --help`` and the README):

====  =====================================================
code  meaning
====  =====================================================
0     success
1     unexpected internal error
2     usage error (argparse)
3     search resource budget exceeded (`SearchResourceError`)
4     cluster-simulation error (`SimulationError`)
5     wall-clock deadline exceeded (`DeadlineExceededError`)
6     interrupted by SIGINT/SIGTERM, journal flushed
      (`RunInterrupted`; resume with ``--resume``)
7     fleet sweep drained, but some tasks were quarantined
      after exhausting their retries (``pase sweep``)
====  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseRecord", "RunReport", "EXIT_OK", "EXIT_ERROR",
           "EXIT_USAGE", "EXIT_RESOURCE", "EXIT_SIMULATION",
           "EXIT_DEADLINE", "EXIT_INTERRUPTED", "EXIT_QUARANTINED",
           "EXIT_CODES"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_SIMULATION = 4
EXIT_DEADLINE = 5
EXIT_INTERRUPTED = 6
EXIT_QUARANTINED = 7

#: Outcome label -> process exit code.
EXIT_CODES: dict[str, int] = {
    "ok": EXIT_OK,
    "resource-error": EXIT_RESOURCE,
    "deadline": EXIT_DEADLINE,
    "interrupted": EXIT_INTERRUPTED,
}


@dataclass(frozen=True)
class PhaseRecord:
    """One pipeline phase as it actually ran."""

    name: str                      # "tables", "reduction", "search"
    seconds: float
    status: str                    # "ok", "journal", "degraded", ...


@dataclass
class RunReport:
    """What one hardened run did, degraded, and left behind."""

    outcome: str = "ok"            # key of `EXIT_CODES`
    phases: list[PhaseRecord] = field(default_factory=list)
    degradations: list[str] = field(default_factory=list)
    resumed: bool = False
    journal_path: str | None = None
    best_cost: float | None = None
    detail: str | None = None      # e.g. the terminating error message

    @property
    def exit_code(self) -> int:
        return EXIT_CODES.get(self.outcome, EXIT_ERROR)

    @property
    def clean(self) -> bool:
        """True when nothing degraded anywhere in the run."""
        return self.outcome == "ok" and not self.degradations

    def add_phase(self, name: str, seconds: float,
                  status: str = "ok") -> None:
        self.phases.append(PhaseRecord(name, seconds, status))

    def degrade(self, message: str) -> None:
        self.degradations.append(message)

    def summary(self) -> str:
        from ..analysis.reporting import format_run_report

        return format_run_report(self)
