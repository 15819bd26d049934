"""Domain types and normalization shared by the whole toolkit.

Everything here is an immutable value: safe to share across threads
and to use as dict keys where hashable.
"""

from __future__ import annotations

import enum
import unicodedata
from typing import NamedTuple, Sequence


class Category(enum.Enum):
    """The twelve assignable entity types plus the gold-only OTHER label."""

    ABBREV = "ABBREV"
    ANAT_LOC = "ANAT_LOC"
    CONDITION = "CONDITION"
    DISCIPLINE = "DISCIPLINE"
    MICROORG = "MICROORG"
    ORGANIZATION = "ORGANIZATION"
    PERSON = "PERSON"
    PHYSIOLOGY = "PHYSIOLOGY"
    PROCEDURE = "PROCEDURE"
    SERVICE = "SERVICE"
    SUBSTANCE = "SUBSTANCE"
    TOOL = "TOOL"
    # Accepted in gold-label files only; never produced by mapping.
    OTHER = "OTHER"

    def __str__(self) -> str:
        return self.value


ASSIGNABLE_CATEGORIES: tuple[Category, ...] = tuple(
    c for c in Category if c is not Category.OTHER
)

# Every label accepted after folding case and hyphens: the member names
# plus the long form of MICROORG.
_CATEGORY_LABELS = {c.name: c for c in Category} | {"MICROORGANISM": Category.MICROORG}


def parse_category(label: str, allow_other: bool = False) -> Category:
    """Parse a category label; hyphen and underscore forms are equivalent.

    Raises ValueError for anything outside the scheme, or for OTHER
    unless ``allow_other`` is set.
    """
    cat = _CATEGORY_LABELS.get(label.strip().upper().replace("-", "_"))
    if cat is None:
        raise ValueError(f"unknown category label: {label!r}")
    if cat is Category.OTHER and not allow_other:
        raise ValueError("OTHER is a gold-only label, not assignable")
    return cat


class Provenance(enum.Enum):
    """How a mapping outcome got its category: the one strategy that voted
    or won (SUFF, KW_E, KW_1N, which are also what a vote names), agreeing
    strategies (MULTI), the iterative pass (ITER), or none (UNMAPPED)."""

    SUFF = "SUFF"
    KW_E = "KW_E"
    KW_1N = "KW_1N"
    MULTI = "MULTI"
    ITER = "ITER"
    UNMAPPED = "UNMAPPED"

    def __str__(self) -> str:
        return self.value


# The strategies that vote, in the priority order that resolves disagreeing votes.
STRATEGY_PRIORITY: tuple[Provenance, ...] = (Provenance.SUFF, Provenance.KW_E, Provenance.KW_1N)


def normalize_term(raw: str, lowercase: bool = True) -> str:
    """Canonical form of a term: NFC, trimmed, inner whitespace collapsed.

    Lowercasing is unicode-aware and applied only when ``lowercase`` is on;
    NFC is applied again after it (see ``fold``). Raises ValueError if
    nothing is left after trimming.
    """
    # str.split() breaks at exactly the characters re's \s matches.
    text = " ".join(unicodedata.normalize("NFC", raw).split())
    if not text:
        raise ValueError("empty term")
    if lowercase:
        text = unicodedata.normalize("NFC", text.lower())
    return text


def fold(text: str) -> str:
    """NFC, then lowercase, then NFC again, as ``normalize_term`` folds a term;
    table triggers, list items and definition words are compared in this form.

    The second NFC is needed because lowercasing can leave a sequence NFC
    composes: ``"W\u030a"`` lowercases to ``"w\u030a"``, whose NFC is U+1E98.
    """
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).lower())


class Frozen:
    """Base of the value types whose constructor checks its arguments.

    A subclass names its constructor's arguments, in order, in ``_fields``
    and lists them in ``__slots__`` with anything it derives from them;
    its ``__init__`` checks the arguments and stores them as given, with
    ``object.__setattr__``. Equality, hashing and repr read ``_fields``
    alone, as a frozen dataclass's would; assigning or deleting an
    attribute afterwards raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a value through its constructor.
        return type(self), self._values()


class Token(Frozen):
    """One token of a definition with its universal POS tag."""

    __slots__ = _fields = ("surface", "upos")

    def __init__(self, surface: str, upos: str) -> None:
        if not surface:
            raise ValueError("empty token surface")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "upos", upos)


class Definition(Frozen):
    """Definition text, optionally with token/POS annotation attached.

    Each token's surface must start at the next non-whitespace character
    after the previous token: the tokens spell out the text in order,
    separated only by whitespace (a text may end in untokenized material).
    """

    __slots__ = _fields = ("text", "tokens")

    def __init__(self, text: str, tokens: tuple[Token, ...] | None = None) -> None:
        if tokens is not None:
            surfaces = [tok.surface for tok in tokens]
            joined = " ".join(surfaces)
            # The usual text spells its tokens out one space apart. When it
            # starts with them so joined, and each surface is non-empty and
            # free of whitespace, the loop below would accept them: skip it.
            if not (text.startswith(joined) and joined.split() == surfaces):
                cursor = 0
                for surface in surfaces:
                    while cursor < len(text) and text[cursor].isspace():
                        cursor += 1
                    if not text.startswith(surface, cursor):
                        raise ValueError(
                            f"token {surface!r} does not align with text at offset {cursor}"
                        )
                    cursor += len(surface)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "tokens", tokens)


class Entry(Frozen):
    """A dictionary headword with its senses.

    Synonyms are standalone entries that share a definition with the
    entry they point to via ``synonym_of``.
    """

    __slots__ = _fields = ("id", "term", "senses", "synonym_of")

    def __init__(
        self,
        id: str,
        term: str,
        senses: tuple[Definition, ...] = (),
        synonym_of: str | None = None,
    ) -> None:
        if not term.strip():
            raise ValueError(f"entry {id}: empty term")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "synonym_of", synonym_of)

    def first_sense(self) -> Definition | None:
        """Only the first sense is ever consulted by the mapping."""
        return self.senses[0] if self.senses else None


class Vote(NamedTuple):
    """One strategy's category proposal for an entry.

    ``strategy`` is the ``STRATEGY_PRIORITY`` member that cast it.
    ``position`` is the character index of a containment match; it is
    None for suffix matches and exact keyword matches.
    """

    strategy: Provenance
    category: Category
    trigger: str
    position: int | None = None


def resolve_votes(votes: Sequence[Vote]) -> tuple[Category | None, Provenance]:
    """Resolve per-strategy votes into one category with provenance.

    Unanimous multi-strategy agreement becomes MULTI; any disagreement
    falls back to the highest-priority voter (SUFF > KW_E > KW_1N). Two
    votes from one strategy, or a vote from a provenance that does not
    vote, raise ValueError.
    """
    # Most entries get no vote or one; such a vote needs no other check.
    if not votes:
        return None, Provenance.UNMAPPED
    if len(votes) == 1:
        strategy = votes[0].strategy
        if strategy is Provenance.SUFF or strategy is Provenance.KW_E or strategy is Provenance.KW_1N:
            return votes[0].category, strategy
    # Enum members hash in Python, so the checks compare them by identity.
    strategies = [v.strategy for v in votes]
    for strategy in strategies:
        if strategy not in STRATEGY_PRIORITY:
            raise ValueError(f"{strategy} is not a voting strategy")
        if strategies.count(strategy) > 1:
            raise ValueError("more than one vote from the same strategy")
    for strategy in STRATEGY_PRIORITY:
        if strategy in strategies:
            winner = votes[strategies.index(strategy)]
            break
    else:
        return None, Provenance.UNMAPPED
    if len(votes) > 1 and all(v.category is winner.category for v in votes):
        return winner.category, Provenance.MULTI
    return winner.category, winner.strategy


class MappingOutcome(NamedTuple):
    """Resolved category with provenance for one entry. Building one checks
    nothing; ``validate`` checks that ``map`` could have written it."""

    entry_id: str
    term: str
    category: Category | None
    provenance: Provenance
    votes: tuple[Vote, ...] = ()

    def validate(self) -> None:
        """Raise ValueError naming the entry id unless ``map`` could write this outcome:
        an ITER one has a category and no votes, any other what its votes resolve to."""
        if self.provenance is Provenance.ITER:
            if self.category is None or self.votes:
                raise ValueError(f"{self.entry_id}: an ITER outcome has a category and no votes")
            return
        try:
            resolved = resolve_votes(self.votes)
        except ValueError as exc:
            raise ValueError(f"{self.entry_id}: {exc}") from None
        if resolved != (self.category, self.provenance):
            raise ValueError(
                f"{self.entry_id}: votes resolve to {resolved[0] or '(none)'} {resolved[1]}, "
                f"not {self.category or '(none)'} {self.provenance}"
            )


class LexiconRecord(NamedTuple):
    """One merged, deduplicated row of the lexicon, as its file holds it:
    the category's label, and the sorted names of the row's sources joined
    by ``,`` (a source name holds no ``,``)."""

    term: str
    category: str
    sources: str
    provenance: str
