"""The program's YAML: every file it writes, and the block documents it
reads without PyYAML's scanner and composer.

``write`` turns a tree of dicts, lists, strs, ints, floats, bools and Nones
into block YAML, one line per scalar.  A mapping's keys are sorted; a bare
``key:`` is followed by its value, a mapping two columns in or a list whose
dashes are at the key's own column; a mapping or list in a list starts on
its dash's line (``- a: 1``, ``- - 1``); an empty collection is ``{}`` or
``[]``.  A string that is a ``_WORD`` resolving to str, and every other
scalar, is one plain token; any other string is one double-quoted scalar
on one line, with YAML 1.1's escapes for ``_ESCAPED`` characters.  For a
tree whose strings PyYAML writes plain these are the bytes of
``yaml.safe_dump(data, sort_keys=True)`` through libyaml's emitter.
PyYAML's own emitter writes the same bytes but for a key of 123 to 128
characters, which it writes as an explicit ``? key``.  For every tree,
both of PyYAML's safe loaders read them back.

``read`` takes a block document whose every line is::

    INDENT ("- ")? (TOKEN ":" [" " VALUE] | VALUE)

where VALUE is a TOKEN, ``{}`` or ``[]``, at the indentation ``write``
gives it.  A TOKEN is ``_TOKEN``, at most ``_MAX_TOKEN_CHARS`` long;
PyYAML's scanner reads it as a plain scalar of exactly its characters.
Each distinct token is resolved and built once by this module's table of
YAML 1.1's plain scalars (``_scalar``), the one PyYAML's resolver and safe
constructor apply, so values are what ``yaml.safe_load`` gives.  ``read``
returns None for any other document (quotes, ``- -``, comments, flow
collections), and the caller hands it to PyYAML.  Neither function imports
PyYAML.
"""

from __future__ import annotations

import re
from typing import Any

_TOKEN = r"-?[A-Za-z0-9_.][A-Za-z0-9_.+-]*"
_MAX_TOKEN_CHARS = 128
_VALUE = rf"{_TOKEN}|\{{\}}|\[\]"
_LINE = re.compile(rf"^( *)(- )?(?:({_TOKEN}):(?: ({_VALUE}))?|({_VALUE}))\n",
                   re.M)
# The strings ``write`` writes as tokens, when at most ``_MAX_TOKEN_CHARS``
# long and resolving to str; PyYAML quotes one that starts with "...".
_WORD = re.compile(rf"(?!\.\.\.){_TOKEN}")
# What a double-quoted scalar escapes: the quote and backslash, every
# character PyYAML's reader refuses (C0 and C1 controls, surrogates, U+FFFE
# and U+FFFF), and the line breaks, tab and byte order mark it would read
# as layout.
_ESCAPED = re.compile(
    r'["\\\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff]')
# PyYAML reads a simple key only if its ":" is within 1,024 characters.
_MAX_KEY_CHARS = 1024
_EMPTY = {dict: "{}", list: "[]"}
_FLOAT_WORDS = {"inf": ".inf", "-inf": "-.inf", "nan": ".nan"}

# YAML 1.1's plain scalars of the null, bool, int, float and timestamp
# tags (yaml.org/type, 2005), as PyYAML resolves and builds them, for the
# tokens ``_TOKEN`` admits: no "+" sign, and no ":" for base 60.  Every
# other token is a str.  The bool and null words, and infinity and NaN:
_INF = float("inf")
_SCALAR_WORDS = {
    **dict.fromkeys(("yes", "Yes", "YES", "true", "True", "TRUE",
                     "on", "On", "ON"), True),
    **dict.fromkeys(("no", "No", "NO", "false", "False", "FALSE",
                     "off", "Off", "OFF"), False),
    **dict.fromkeys(("null", "Null", "NULL")),
    **dict.fromkeys((".inf", ".Inf", ".INF"), _INF),
    **dict.fromkeys(("-.inf", "-.Inf", "-.INF"), -_INF),
    # PyYAML's NaN, whose sign bit the division sets on most hardware.
    **dict.fromkeys((".nan", ".NaN", ".NAN"), -_INF / _INF),
}
# The numbers: a float has a "." and at most a signed exponent, an int a
# "0b", "0x" or octal "0" prefix or none; "_" separates digits anywhere
# after the first.  A date is a timestamp, which ``read`` declines.
_NUMBER = re.compile(r"""
    (?P<float>-?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?
             |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?)
   |(?P<int>-?(?:0b[01_]+|0x[0-9a-fA-F_]+|0[0-7_]*|[1-9][0-9_]*))
   |(?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2})""", re.X)
_BASES = {"0b": 2, "0x": 16}


class _Decline(Exception):
    """The document is outside the grammar."""


def _scalar(token: str):
    """``token``'s value as PyYAML's resolver and safe constructor give
    it; _Decline for a date, and for an int of no digits (``0x_``), which
    its constructor cannot read."""
    if token in _SCALAR_WORDS:
        return _SCALAR_WORDS[token]
    number = _NUMBER.fullmatch(token)
    if number is None:
        return token
    kind, digits = number.lastgroup, token.replace("_", "")
    if kind == "float":
        return float(digits)
    if kind == "date":
        raise _Decline
    sign, digits = (-1, digits[1:]) if digits[0] == "-" else (1, digits)
    base = _BASES.get(digits[:2])
    try:
        if base is None:
            return sign * int(digits, 8 if digits[0] == "0" else 10)
        return sign * int(digits[2:], base)
    except ValueError as exc:
        raise _Decline from exc


def _is_str(token: str) -> bool:
    """Whether ``token`` is a str under ``_scalar``'s table."""
    return token not in _SCALAR_WORDS and _NUMBER.fullmatch(token) is None


class _Values(dict):
    """Each token's value, built on first use by ``_scalar``; an empty
    collection is a new one each time."""

    def __missing__(self, token: str):
        if token == "{}":
            return {}
        if token == "[]":
            return []
        if len(token) > _MAX_TOKEN_CHARS:
            raise _Decline
        value = self[token] = _scalar(token)
        return value


def read(text: str) -> dict | None:
    """``text`` as ``yaml.safe_load`` reads it, or None if it is not a
    block document.

    A line must match ``_LINE`` at exactly the indentation ``write`` gives
    it, so the text is ASCII, ends in a newline and has no tab, CR, blank
    line or comment.  A token that resolves to a tag other than the five
    plain scalar tags (``2024-01-01``), or that its constructor cannot read
    (``0x_``), is declined.
    """
    rows = _LINE.findall(text)
    if len(rows) != text.count("\n") or text[-1:] != "\n":
        return None
    values = _Values()
    root: dict = {}
    # (column, collection, is a list) of each open collection, innermost
    # last: a mapping's column is its keys', a list's its dashes'.
    stack: list[tuple[int, Any, bool]] = [(-1, None, False), (0, root, False)]
    bare = None  # (mapping, key, column) after a ``key:`` line
    # The innermost collection and its column when it is a mapping and no
    # ``key:`` line is open, else column -1: a ``key: value`` line at that
    # column is one more of its items.
    filling, at = root, 0
    try:
        for indent, dash, key, key_value, value in rows:
            column = len(indent)
            if column == at and key_value and not dash:
                filling[values[key]] = values[key_value]
                continue
            is_list = bool(dash)
            if bare is not None:
                parent, parent_key, parent_column = bare
                bare = None
                if column != parent_column + (0 if is_list else 2):
                    return None
                parent[parent_key] = [] if is_list else {}
                stack.append((column, parent[parent_key], is_list))
            else:
                while stack[-1][0] > column or (stack[-1][0] == column and
                                                stack[-1][2] is not is_list):
                    stack.pop()
                if stack[-1][0] != column:
                    return None
            into = stack[-1][1]
            if is_list:
                if not key:
                    into.append(values[value])
                    at = -1
                    continue
                into.append({})
                into, column = into[-1], column + 2
                stack.append((column, into, False))
            elif not key:
                return None
            if key_value:
                into[values[key]] = values[key_value]
                filling, at = into, column
            else:
                bare = (into, values[key], column)
                at = -1
    except _Decline:
        return None
    return None if bare is not None else root


def _escape(match) -> str:
    char = match.group()
    if char in '"\\':
        return "\\" + char
    code = ord(char)
    return f"\\x{code:02X}" if code < 0x100 else f"\\u{code:04X}"


def write(data: dict) -> str:
    """``data`` as block YAML (see above).

    A dict or list met twice, shared or recursive, is a ValueError, and so
    is a key written longer than ``_MAX_KEY_CHARS``.  A type other than
    dict, list, str, int, float, bool and None, and keys that do not sort,
    are a TypeError.
    """
    if type(data) is not dict:
        raise TypeError(f"cannot write a {type(data).__name__} as a YAML "
                        f"file")
    if not data:
        return "{}\n"
    lines: list[str] = []
    words: dict[str, str] = {}
    seen = {id(data)}

    def token(obj) -> str:
        kind = type(obj)
        if kind is str:
            text = words.get(obj)
            if text is None:
                plain = (len(obj) <= _MAX_TOKEN_CHARS
                         and _WORD.fullmatch(obj) is not None
                         and _is_str(obj))
                text = words[obj] = (obj if plain else
                                     f'"{_ESCAPED.sub(_escape, obj)}"')
            return text
        if kind is float:
            text = repr(obj)
            if "e" not in text:
                return _FLOAT_WORDS.get(text, text)
            return text if "." in text else text.replace("e", ".0e", 1)
        if kind is int:
            return repr(obj)
        if kind is bool:
            return "true" if obj else "false"
        if obj is None:
            return "null"
        raise TypeError(f"cannot write a {kind.__name__} as YAML")

    def entered(obj) -> bool:
        """Whether ``obj`` is a dict or list, met for the first time."""
        kind = type(obj)
        if kind is not dict and kind is not list:
            return False
        if id(obj) in seen:
            raise ValueError(f"cannot write a {kind.__name__} met twice "
                             f"as YAML")
        seen.add(id(obj))
        return True

    def mapping(obj: dict, pad: str, lead: str):
        """Each item's lines at ``pad``; the first line starts with
        ``lead``."""
        for key, value in sorted(obj.items()):
            key = token(key)
            if len(key) > _MAX_KEY_CHARS:
                raise ValueError(f"cannot write a key of {len(key)} "
                                 f"characters as YAML")
            head = f"{lead}{key}:"
            lead = pad
            if not entered(value):
                lines.append(f"{head} {token(value)}")
            elif not value:
                lines.append(f"{head} {_EMPTY[type(value)]}")
            else:
                lines.append(head)
                if type(value) is dict:
                    mapping(value, pad + "  ", pad + "  ")
                else:
                    sequence(value, pad, pad)

    def sequence(obj: list, pad: str, lead: str):
        """Each item's dash at ``pad``; the first line starts with
        ``lead``."""
        for item in obj:
            head = f"{lead}- "
            lead = pad
            if not entered(item):
                lines.append(head + token(item))
            elif not item:
                lines.append(head + _EMPTY[type(item)])
            elif type(item) is dict:
                mapping(item, pad + "  ", head)
            else:
                sequence(item, pad + "  ", head)

    mapping(data, "", "")
    lines.append("")
    return "\n".join(lines)
