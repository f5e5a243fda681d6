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
Each distinct token is resolved by PyYAML's resolver and built by its safe
constructor, so values are what ``yaml.safe_load`` gives.  ``read`` returns
None for any other document (quotes, ``- -``, comments, flow collections),
and the caller hands it to PyYAML.
"""

from __future__ import annotations

import re
from typing import Any

from yaml.constructor import SafeConstructor
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

_TAG = "tag:yaml.org,2002:"
_STR = _TAG + "str"
_SCALAR_TAGS = tuple(_TAG + name for name in ("str", "null", "bool", "int",
                                              "float"))

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


class _Decline(Exception):
    """The document is outside the grammar."""


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
    resolve, constructor = Resolver().resolve, SafeConstructor()
    ctors = {tag: constructor.yaml_constructors[tag] for tag in _SCALAR_TAGS}
    words: dict[str, Any] = {}
    missing = object()

    def word(token: str):
        obj = words.get(token, missing)
        if obj is not missing:
            return obj
        if token == "{}":
            return {}
        if token == "[]":
            return []
        if len(token) > _MAX_TOKEN_CHARS:
            raise _Decline
        tag = resolve(ScalarNode, token, (True, False))
        if tag not in ctors:
            raise _Decline
        try:
            obj = words[token] = ctors[tag](constructor, ScalarNode(tag, token))
        except (ValueError, LookupError, AttributeError) as exc:
            raise _Decline from exc
        return obj

    root: dict = {}
    # (column, collection, is a list) of each open collection, innermost
    # last: a mapping's column is its keys', a list's its dashes'.
    stack: list[tuple[int, Any, bool]] = [(-1, None, False), (0, root, False)]
    bare = None  # (mapping, key, column) after a ``key:`` line
    try:
        for indent, dash, key, key_value, value in rows:
            column, is_list = len(indent), bool(dash)
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
                    into.append(word(value))
                    continue
                into.append({})
                into, column = into[-1], column + 2
                stack.append((column, into, False))
            elif not key:
                return None
            if key_value:
                into[word(key)] = word(key_value)
            else:
                bare = (into, word(key), column)
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
    resolve = Resolver().resolve

    def token(obj) -> str:
        kind = type(obj)
        if kind is str:
            text = words.get(obj)
            if text is None:
                plain = (len(obj) <= _MAX_TOKEN_CHARS
                         and _WORD.fullmatch(obj) is not None
                         and resolve(ScalarNode, obj, (True, False)) == _STR)
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
