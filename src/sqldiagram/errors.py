"""Exception hierarchy shared by every stage of the pipeline."""

from __future__ import annotations


class SqlDiagramError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2  # the CLI's exit status: 2 unreadable input, 1 failed validation


class PositionedError(SqlDiagramError):
    """An error at a place in the SQL text; line 0 means it has none."""

    def __init__(self, message: str, line: int = 0, column: int = 0, detail: str = ""):
        self.line = line
        self.column = column
        at = f" at line {line}:{column}" if line else ""
        super().__init__(message + at + detail)


class SqlSyntaxError(PositionedError):
    """Input text does not match the supported SQL fragment."""

    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        super().__init__(message, line, column, f" (expected {expected})" if expected else "")


class UnsupportedFeatureError(PositionedError):
    """Syntactically recognisable SQL that the fragment deliberately excludes."""

    def __init__(self, feature: str, line: int, column: int):
        self.feature = feature
        super().__init__(f"unsupported feature {feature}", line, column)


class UnknownAliasError(PositionedError):
    """A column reference names an alias that is not in its scope chain."""

    def __init__(self, alias: str, attribute: str, line: int = 0, column: int = 0):
        self.alias = alias
        self.attribute = attribute
        super().__init__(f"unknown table alias {alias!r} in {alias}.{attribute}", line, column)


class AmbiguousColumnError(PositionedError):
    """An unqualified column could belong to more than one in-scope table, or
    one FROM clause declares an alias twice (placed at the second alias)."""


class MalformedSubqueryError(PositionedError):
    """An IN/ANY/ALL subquery whose select list is not exactly one column,
    placed at the column to the left of IN, ANY or ALL."""


class DegenerateQueryError(SqlDiagramError):
    """The query failed non-degeneracy validation; carries the full report."""

    exit_code = 1

    def __init__(self, report):
        self.report = report
        super().__init__("query failed validation: " + "; ".join(str(v) for v in report.violations))


class InvalidDiagramError(SqlDiagramError):
    """A diagram that cannot be read back: a repeated group id or table alias,
    an edge endpoint or SELECT link that names no table box, or a group graph
    that admits no consistent depth assignment within MAX_DEPTH."""

    exit_code = 1

    def __init__(self, message: str, stage: str | None = None):
        self.stage = stage
        super().__init__(f"{stage}: {message}" if stage else message)
