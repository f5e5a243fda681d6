"""The block YAML the program writes, read and written without PyYAML's
scanner, composer and emitter.

Every line of a block document is::

    INDENT ("- ")? (TOKEN ":" [" " VALUE] | VALUE)

where VALUE is a TOKEN, ``{}`` or ``[]``.  The top level is a mapping with
its keys at column 0.  A bare ``key:`` is followed by its value: a mapping
two columns in, or a list whose dashes are at the key's own column.  A
mapping in a list starts on its dash's line, and its keys are two columns
in from the dash.  A TOKEN is ``_TOKEN``, at most ``_MAX_TOKEN_CHARS``
long; PyYAML's scanner reads it as a plain scalar of exactly its
characters.  This is what ``yaml.dump(data, sort_keys=True,
default_flow_style=False)`` writes, through libyaml's emitter or PyYAML's
own, for trees of dicts and lists whose scalars are written plain.

``read`` and ``write`` return None for any document outside the grammar,
and the caller hands it to PyYAML.  A token is resolved by PyYAML's
resolver and built by its safe constructor, once per distinct token in a
call, so values are what ``yaml.safe_load`` gives.
"""

from __future__ import annotations

import re
from typing import Any

from yaml.constructor import SafeConstructor
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

_TAG = "tag:yaml.org,2002:"
_STR = _TAG + "str"
SCALAR_TAGS = tuple(_TAG + name for name in ("str", "null", "bool", "int",
                                             "float"))

_TOKEN = r"-?[A-Za-z0-9_.][A-Za-z0-9_.+-]*"
_MAX_TOKEN_CHARS = 128
_VALUE = rf"{_TOKEN}|\{{\}}|\[\]"
_LINE = re.compile(rf"^( *)(- )?(?:({_TOKEN}):(?: ({_VALUE}))?|({_VALUE}))\n",
                   re.M)
# The strings ``write`` writes as tokens: both emitters quote a string that
# starts with "---" or "...", and write a key of 123 or more characters
# their own ways.  A string must also resolve to str.
_WORD = re.compile(rf"(?![-.]){_TOKEN}")
_MAX_WORD_CHARS = 100
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
    ctors = {tag: constructor.yaml_constructors[tag] for tag in SCALAR_TAGS}
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


def write(data: dict) -> str | None:
    """``data`` as ``yaml.dump(data, sort_keys=True,
    default_flow_style=False)`` writes it, or None if it is not a non-empty
    dict that fits the grammar.

    It does not fit when it holds a string that is not a ``_WORD`` of at
    most ``_MAX_WORD_CHARS`` or that resolves to another tag, an int longer
    than that, a non-empty list in a list, or a dict or list met twice.
    A type other than dict, list, str, int, float, bool and None, and keys
    that do not sort, are a TypeError.
    """
    if type(data) is not dict or not data:
        return None
    lines: list[str] = []
    words: dict[str, bool] = {}
    seen = {id(data)}
    resolve = Resolver().resolve

    def token(obj) -> str:
        kind = type(obj)
        if kind is str:
            plain = words.get(obj)
            if plain is None:
                plain = words[obj] = (
                    len(obj) <= _MAX_WORD_CHARS
                    and _WORD.fullmatch(obj) is not None
                    and resolve(ScalarNode, obj, (True, False)) == _STR)
            if plain:
                return obj
            raise _Decline
        if kind is float:
            text = repr(obj)
            if "e" not in text:
                return _FLOAT_WORDS.get(text, text)
            return text if "." in text else text.replace("e", ".0e", 1)
        if kind is int:
            text = repr(obj)
            if len(text) > _MAX_WORD_CHARS:
                raise _Decline
            return text
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
            raise _Decline
        seen.add(id(obj))
        return True

    def mapping(obj: dict, pad: str, lead: str):
        """Each item's lines at ``pad``; the first line starts with
        ``lead``."""
        for key, value in sorted(obj.items()):
            head = f"{lead}{token(key)}:"
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
                    sequence(value, pad)

    def sequence(obj: list, pad: str):
        for item in obj:
            if not entered(item):
                lines.append(f"{pad}- {token(item)}")
            elif not item:
                lines.append(f"{pad}- {_EMPTY[type(item)]}")
            elif type(item) is dict:
                mapping(item, pad + "  ", pad + "- ")
            else:
                raise _Decline

    try:
        mapping(data, "", "")
    except _Decline:
        return None
    lines.append("")
    return "\n".join(lines)
