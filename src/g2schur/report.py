"""Report assembly shared by the verification suites and the CLI.

A report is a deterministic JSON document: suite name, configuration echo,
table checksum, one record per check, and summary counts (of the checks, or
the evidence table's own counts for a report without checks, such as the
conjecture comparison).  Timing lives in a single top-level field so reports
stay byte-comparable after dropping it.  The text is the layout of
``json.dumps(..., indent=1)``, written by ``to_json_text``: the standard
library serves ``indent`` only from its pure-Python encoder, about twice as
slow on the larger reports.  ``json.dumps`` is the test oracle.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


class Report:
    """A report under construction: the runner of ``cli`` creates it with
    the suite name and configuration echo, and the command fills the rest."""

    def __init__(self, suite: str, config: dict):
        self.suite = suite
        self.config = config
        self.table_checksum: str | None = None
        self.checks: list[dict] = []
        self.elapsed_ms: int | None = None
        self.extra: dict = {}
        #: summary counts to report instead of counting ``checks``
        self.counts: dict | None = None

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

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "config": self.config,
            "table_checksum": self.table_checksum,
            "checks": self.checks,
            "summary": self.summary(),
        }
        out.update(self.extra)
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=1)`` plus a newline, as one
        string; ``to_json_text`` writes it."""
        return to_json_text(self.to_dict()) + "\n"


def to_json_text(value) -> str:
    """The text ``json.dumps(value, indent=1)`` writes, without its
    pure-Python encoder: each string through the encoder's own quoting,
    integers and constants as ``json`` writes them, containers one item per
    line.  ``json.dumps`` is the test oracle.

    Every report value is exact, so only string keys, strings, integers,
    None, booleans, lists, tuples and dicts are written; anything else, a
    float or a non-string key among them, raises ``TypeError``."""
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, indent: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``; ``indent`` is the newline and
    the spaces before the line that closes it.  A string or ``int`` item is
    written with its key or separator."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + " "
        sep = "{" + inner
        for key, item in value.items():
            head = sep + _quote(key) + ": "
            if type(item) is str:
                out.append(head + _quote(item))
            elif type(item) is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + " "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                out.append(sep + _quote(item))
            elif type(item) is int:
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, str):
        out.append(_quote(value))
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
