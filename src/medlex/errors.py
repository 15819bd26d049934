"""Exception types, each with the CLI exit code and message prefix it ends in."""

from __future__ import annotations


class MedlexError(Exception):
    """Base class for all toolkit errors; the CLI prints ``prefix: message``
    to stderr and exits with ``exit_code``."""

    exit_code, prefix = 2, "error"


class ParseError(MedlexError):
    """Malformed or missing input; names the file and line when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(where + message)


class LintError(MedlexError):
    """Configuration table failed a lint check."""

    exit_code, prefix = 3, "lint error"


class MergeConflictError(MedlexError):
    """Different sources with equal trust rank disagree on a term's category.

    The message lists the first ``MAX_LISTED`` conflicts; ``conflicts`` holds
    them all.
    """

    MAX_LISTED = 20
    exit_code, prefix = 4, "merge conflict"

    def __init__(self, conflicts: list[tuple[str, str, str, str, str]]):
        self.conflicts = conflicts
        lines = [
            f"  {term!r}: {src_a}={cat_a} vs {src_b}={cat_b}"
            for term, src_a, cat_a, src_b, cat_b in conflicts[: self.MAX_LISTED]
        ]
        hidden = len(conflicts) - self.MAX_LISTED
        if hidden > 0:
            lines.append(f"  … and {hidden} more ({len(conflicts)} conflicts in total)")
        super().__init__(
            "equal trust rank with disagreeing categories; assign explicit ranks:\n"
            + "\n".join(lines)
        )


class GoldCoverageError(MedlexError):
    """Gold terms without a prediction to score against, in gold order; the
    message names the gold and outcome files when they are given."""

    exit_code = 5

    def __init__(self, terms: list[str], gold: str | None = None, mapped: str | None = None):
        self.terms = terms
        where = "no prediction" if gold is None else f"{gold}: no prediction in {mapped}"
        super().__init__(f"{where} for {len(terms)} gold term(s), the first {terms[0]!r}")
