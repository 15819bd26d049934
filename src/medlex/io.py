"""File input and output, and JSON: the only module that opens, reads or
writes a file, and the only one that encodes or decodes JSON. Every input
is read whole by ``read_text``; unreadable input becomes a ParseError
naming the file, and text that is not UTF-8 one naming the file and line.
Outputs are written by ``write_texts``, TSV rendered by ``tsv_lines`` and
JSON lines by ``json_lines``. A reader's check on a row raises ValueError
(``json_object``, ``json_field`` and ``column_count_error`` word the
shared ones), and its one ``except`` adds the file and line."""

from __future__ import annotations

import json
import os
import re
import stat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import ParseError

# A str as JSON text, as json.dumps(..., ensure_ascii=False) writes it.
json_string = encode_basestring


def sniff_format(path: str | Path, fmt: str | None = None) -> str:
    """``fmt`` when given, else ``jsonl`` or ``tsv`` from the file suffix."""
    if fmt:
        return fmt
    return "jsonl" if Path(path).suffix.lower() in (".jsonl", ".json", ".ndjson") else "tsv"


def read_text(path: str | Path, what: str) -> str:
    """The whole of a UTF-8 text input, without a leading byte-order mark;
    ``what`` names it in errors."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}", str(path)) from exc
    try:
        # utf-8-sig: UTF-8, less one byte-order mark at the start.
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The prefix before the bad byte is valid UTF-8.
        line = line_at(exc.object[: exc.start].decode("utf-8"))
        raise ParseError(f"{what} is not UTF-8: {exc.reason}", str(path), line) from None


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, broken only at CR LF, CR and LF: ``str.splitlines``
    also breaks at U+2028, U+0085 and more, which a JSON string or term may hold."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def line_at(prefix: str) -> int:
    """The number, as ``split_lines`` counts, of the line on which the text
    that follows ``prefix`` begins."""
    return len(split_lines(prefix + "x"))


def column_count_error(expected: str, got: int) -> ValueError:
    """The fault of a TSV row with ``got`` tab-separated columns where its
    reader wants ``expected`` ("2", "3 or 4", "at least 3"). Built only once
    a count is wrong, so a reader's row loop makes no call for it."""
    return ValueError(f"expected {expected} tab-separated columns, got {got}")


def data_lines(text: str, *, tsv: bool, comments: bool) -> Iterator[tuple[int, str]]:
    """(line number, line) for each row of ``text``, a whole file as
    ``read_text`` returns it, cut into lines by ``split_lines``. Every
    reader finds its rows here but CoNLL-U's, where a blank line ends a
    sentence. A line that holds no tab is skipped when it is blank or, in
    a file that takes ``comments``, when its first character that is not
    blank is ``#``. In a ``tsv`` file a line that holds a tab is a row,
    even of blank columns, unless the file takes comments and its first
    column begins with ``#`` after leading blanks; in any other file a tab
    is one more blank."""
    for lineno, line in enumerate(split_lines(text), start=1):
        head = line.lstrip()
        if head and (head[0] != "#" or not comments):
            yield lineno, line
        # Blank or a comment, unless it is a TSV row whose first column is not.
        elif tsv and "\t" in line and line.split("\t", 1)[0].lstrip()[:1] != "#":
            yield lineno, line


def json_object(line: str) -> dict[str, Any]:
    """One JSON-lines row, decoded by ``json.loads``, which must be a JSON
    object whose strings are text (no lone surrogate); anything else raises
    a ValueError, to which the reader adds the file and line. The
    dictionary and outcome readers bring here only the rows their
    ``json_line_values`` match misses."""
    try:
        obj = json.loads(line)
    # RecursionError: nested too deep; a plain ValueError: an integer too long to convert.
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    # Only a \u escape can spell a surrogate: UTF-8 text holds none.
    if "\\u" in line:
        surrogate = _lone_surrogate(line)
        if surrogate:
            raise ValueError(f"bad JSON: lone surrogate {surrogate}")
    return obj


def json_document(text: str, where: str, what: str) -> Any:
    """The JSON value the whole of ``text`` holds, such as a manifest that
    is one JSON list. A fault raises ParseError ``bad JSON {what}: ...``
    naming ``where`` and a line: a syntax error names its own line, or at
    the end of the text the last line that is not blank; a fault without a
    position (nested too deep, an integer too long) names the line the
    value begins on; a lone surrogate names the line of its string."""
    try:
        value = json.loads(text)
    # RecursionError: nested too deep; a plain ValueError: an integer too long to convert.
    except (ValueError, RecursionError) as exc:
        # Python's own "line L column C" counts LF only, so it is left out.
        pos = getattr(exc, "pos", len(text) - len(text.lstrip()))
        at = line_at(text[:pos] if pos < len(text) else text.rstrip())
        raise ParseError(f"bad JSON {what}: {getattr(exc, 'msg', exc)}", where, at) from None
    if "\\u" in text:
        for lineno, line in enumerate(split_lines(text), start=1):
            surrogate = _lone_surrogate(line)
            if surrogate:
                raise ParseError(f"bad JSON {what}: lone surrogate {surrogate}", where, lineno)
    return value


# A JSON string as written, quotes included. A string holds no line break,
# so on a line of valid JSON each match is one whole string.
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _lone_surrogate(line: str) -> str | None:
    """The first lone surrogate a JSON string on ``line`` (valid JSON)
    decodes to, as its escape (``\\ud800``), or None. ``json.loads`` reads
    such an escape, but the code point is not a character: UTF-8 cannot
    encode it, so it could not be written or printed."""
    for literal in _JSON_STRING.findall(line):
        if "\\u" in literal:
            try:
                json.loads(literal).encode("utf-8")
            except UnicodeEncodeError as exc:
                return f"\\u{ord(exc.object[exc.start]):04x}"
    return None


def tsv_lines(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The TSV twin of ``json_lines``: the ``header`` line, then one line
    for each row, its values joined by tabs, every line ending in LF. No
    rows give the header line alone."""
    return "\n".join(["\t".join(header), *map("\t".join, rows)]) + "\n"


# The separators json.dumps writes by default: between items, and after a key.
_ITEM_SEPARATOR, _KEY_SEPARATOR = ", ", ": "


def json_lines(keys: Sequence[str], rows: Iterable[tuple[str, ...]]) -> str:
    """One line for each row: the JSON object that maps each of ``keys``, in
    order, to the row's value at its place. A value is JSON text already
    (``json_string`` encodes a str), so a line is what
    ``json.dumps(obj, ensure_ascii=False)`` writes for the object. No rows
    give empty text."""
    template = "{" + _ITEM_SEPARATOR.join(json_string(key).replace("%", "%%") + _KEY_SEPARATOR + "%s"
                                          for key in keys) + "}"
    text = "\n".join(map(template.__mod__, rows))
    return text + "\n" if text else ""


# A value as ``json_line_values`` matches it: null, or a JSON string whose
# text is the string itself, with no quote, backslash or control character.
_PLAIN_VALUE = r'(?:"([^"\\\x00-\x1f]*)"|null)'


def json_line_values(keys: Sequence[str]) -> Callable[[str], tuple[str | None, ...] | None]:
    """The reading side of ``json_lines``: a function that, for a line that
    is exactly what ``json_lines`` writes for ``keys``, each value ``null``
    or a JSON string without ``"``, ``\\`` or U+0000-U+001F, returns the
    values in key order (None for null), and else None. Such a string's
    JSON text is the string itself, so the values are what ``json.loads``
    gives, and hold no lone surrogate. Any other line, such as one with an
    escape, other spacing or other keys, is for ``json_object``. The
    pattern is compiled here, not at import."""
    pattern = "\\{" + re.escape(_ITEM_SEPARATOR).join(
        re.escape(json_string(key) + _KEY_SEPARATOR) + _PLAIN_VALUE for key in keys) + "\\}"
    match = re.compile(pattern).fullmatch

    def values(line: str) -> tuple[str | None, ...] | None:
        found = match(line)
        return None if found is None else found.groups()

    return values


# The JSON name of each type a value of a JSON-lines row or manifest may need.
_JSON_NAMES = {str: "string", int: "integer", list: "list", dict: "object"}


def _json_type(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def json_field(
    obj: dict[str, Any], key: str, *types: type, optional: bool = False, items: type | None = None
) -> Any:
    """``obj[key]``, which must be of one of ``types`` as ``json.loads`` gives
    them (a JSON ``true`` is not an integer), with every item or object value
    of type ``items`` when that is given; with ``optional``, None when the key
    is absent or null. Anything else raises a ValueError naming the key:
    ``"id" must be a JSON string or integer, not list``, ``"term" is missing``."""
    value = obj.get(key)
    if type(value) in types:
        if items is not None:
            for item in value.values() if type(value) is dict else value:
                if type(item) is not items:
                    raise ValueError(
                        f'"{key}" must be a JSON {_JSON_NAMES[type(value)]} of '
                        f"{_JSON_NAMES[items]}s, not one holding {_json_type(item)}"
                    )
        return value
    if optional and value is None:
        return None
    if key not in obj:
        raise ValueError(f'"{key}" is missing')
    want = " or ".join(_JSON_NAMES[t] for t in types)
    raise ValueError(f'"{key}" must be a JSON {want}, not {_json_type(value)}')


def check_outputs(outputs: Iterable[str | Path | None], inputs: Iterable[str | Path | None]) -> None:
    """Refuse (ParseError) an output that names an input, before anything
    is written: by the rule ``write_texts`` applies to two outputs, a
    regular file both name once each path is resolved. None stands for an
    option not given."""
    read = {}
    for path in inputs:
        if path is not None and os.path.isfile(path):
            read.setdefault(os.path.realpath(path), path)
    for path in outputs:
        if path is not None and os.path.isfile(path):
            source = read.get(os.path.realpath(path))
            if source is not None:
                raise ParseError(f"an output and an input name one file: {path} and {source}")


def write_texts(files: Sequence[tuple[str | Path, str]]) -> None:
    """Write each (path, text) as UTF-8, replacing a regular file only once
    every file is written: each is staged in a temp file beside its target
    first, so a target that cannot be written leaves every old file as it
    was and no partial one. A symlink is written through, an existing file
    keeps its mode and a new one gets the mode a plain ``open`` would give
    it. A target that is not a regular file, such as a device or a pipe,
    is written directly once every regular file is staged. Two regular
    targets that resolve to one file are refused (ParseError) before any
    file is staged."""
    regular: dict[Path, tuple[str | Path, os.stat_result | None, str]] = {}
    direct = []
    for path, text in files:
        old = os.stat(path) if os.path.exists(path) else None
        if old is not None and not stat.S_ISREG(old.st_mode):
            direct.append((path, text))
            continue
        target = Path(os.path.realpath(path))
        if target in regular:
            raise ParseError(f"two outputs name one file: {regular[target][0]} and {path}")
        regular[target] = (path, old, text)
    staged: list[tuple[Path, Path]] = []
    try:
        for target, (path, old, text) in regular.items():
            tmp = target.parent / f".{target.name}.{os.urandom(6).hex()}.tmp"
            try:
                # O_EXCL with mode 0o666 lets the umask decide a new file's mode.
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            staged.append((tmp, target))
            with open(fd, "w", encoding="utf-8") as fh:
                if old is not None:
                    os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
                fh.write(text)
        for path, text in direct:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
