"""Report assembly shared by the verification suites and the CLI.

A report is a deterministic JSON document: suite name, configuration echo,
table checksum, one record per check, and summary counts (of the checks, or
the evidence table's own counts for a report without checks, such as the
conjecture comparison).  Timing lives in a single top-level field so reports
stay byte-comparable after dropping it.
"""

from __future__ import annotations

import json
import time


class Report:
    def __init__(self, suite: str, config: dict, table_checksum: str | None = None,
                 checks: list[dict] | None = None, elapsed_ms: int | None = None,
                 extra: dict | None = None, counts: dict | None = None):
        self.suite = suite
        self.config = config
        self.table_checksum = table_checksum
        self.checks = [] if checks is None else checks
        self.elapsed_ms = elapsed_ms
        self.extra = {} if extra is None else extra
        #: summary counts to report instead of counting ``checks``
        self.counts = counts

    def extend(self, checks: list[dict]) -> None:
        self.checks.extend(checks)

    @property
    def failed(self) -> list[dict]:
        return [c for c in self.checks if c.get("status") == "fail"]

    def summary(self) -> dict:
        if self.counts is not None:
            return self.counts
        return {
            "total": len(self.checks),
            "passed": sum(c.get("status") == "pass" for c in self.checks),
            "failed": len(self.failed),
        }

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "config": self.config,
            "table_checksum": self.table_checksum,
            "checks": self.checks,
            "summary": self.summary(),
        }
        out.update(self.extra)
        if include_timing and self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=1) + "\n"


class Stopwatch:
    def __enter__(self):
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed_ms = int((time.monotonic() - self._start) * 1000)
        return False
