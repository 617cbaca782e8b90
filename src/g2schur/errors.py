"""The two exceptions of the package, in a module that imports nothing.

``TableError`` is a configuration or I/O failure (exit code 2) and
``FalsificationError`` an identity that failed (exit code 1).  They live
here so that the CLI, the kernel suite and the closed forms can raise and
catch them without compiling ``table.py``, which re-exports both.
"""


class TableError(Exception):
    """Failure while constructing, saving or loading a table."""


class FalsificationError(AssertionError):
    """An exactly-provable identity failed; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
