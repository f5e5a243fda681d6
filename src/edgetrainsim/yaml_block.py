"""The program's YAML: every file it writes, and the one reader of every
file it reads; neither imports PyYAML.

``write`` turns a tree of dicts, lists, strs, ints, floats, bools and Nones
into block YAML, one line per scalar: sorted keys, a bare ``key:`` followed
by a mapping two columns in or a list whose dashes are at the key's column,
a mapping or list in a list on its dash's line (``- a: 1``, ``- - 1``), and
``{}`` or ``[]`` for an empty collection.  A ``_WORD`` that resolves to str,
and every other scalar, is one plain token; any other string is one
double-quoted line, with YAML 1.1's escapes for ``_ESCAPED`` characters.
Both of PyYAML's safe loaders read every tree back; with no quoted string
the bytes are libyaml's ``yaml.safe_dump(data, sort_keys=True)`` (PyYAML's
own emitter writes a key of 123 to 128 characters as ``? key``).

``read`` takes, after a leading byte order mark, blank lines, full-line
comments and, at ``write``'s indentation, rows ``INDENT ("- ")* (KEY ":"
[" " VALUE] | VALUE)``.  A KEY, at most ``_MAX_KEY_CHARS`` long, is a
TOKEN (``_TOKEN``, at most ``_MAX_TOKEN_CHARS`` long, which PyYAML's
scanner reads as a plain scalar of exactly its characters) or a one-line
double-quoted str whose only escapes are ``write``'s: ``\\"``, ``\\\\``,
``\\xHH`` and ``\\uHHHH``.  A VALUE is one of those, ``{}`` or ``[]``.
Tokens resolve by YAML 1.1's plain scalar table (``_scalar``), the one
PyYAML's resolver and safe constructor apply, so values are what
``yaml.safe_load`` gives.  Any other document is a ValueError naming its
first refused line and what that line holds (``_CONSTRUCTS``).
"""

from __future__ import annotations

import re
from operator import length_hint

_TOKEN = r"-?[A-Za-z0-9_.][A-Za-z0-9_.+-]*"
_MAX_TOKEN_CHARS = 128
# The strings ``write`` writes as tokens, when at most ``_MAX_TOKEN_CHARS``
# long and resolving to str; PyYAML quotes one that starts with "...".
_WORD = re.compile(rf"(?!\.\.\.){_TOKEN}")
# What a double-quoted scalar escapes: the quote and backslash, what
# PyYAML's reader refuses (C0 and C1 controls, surrogates, U+FFFE, U+FFFF),
# and the line breaks, tab and byte order mark it would read as layout.
_ESCAPED_CHARS = r'"\\\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff'
_ESCAPED = re.compile(f"[{_ESCAPED_CHARS}]")
# A double-quoted scalar as ``write`` writes it, without its closing quote.
_GOOD_ESCAPE = r'["\\]|x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}'
_OPEN_QUOTE = rf'"(?:[^{_ESCAPED_CHARS}]|\\(?:{_GOOD_ESCAPE}))*'
_UNESCAPE = re.compile(r'\\(["\\]|x..|u....)')
_KEY = rf'{_TOKEN}|{_OPEN_QUOTE}"'
_VALUE = rf"{_KEY}|\{{\}}|\[\]"
# A row, or a blank or comment line (of characters PyYAML's reader takes),
# with its newline.
_ANY_LINE = re.compile(
    rf"^(?:( *)((?:- )*)(?:({_KEY}):(?: ({_VALUE}))?|({_VALUE}))"
    r"| *(?:#[^\x00-\x08\x0a-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff"
    r"\ufffe\uffff]*)?)\n", re.M)
# What a line that is neither holds: the first of these matching it after
# the indentation, dashes and key the grammar takes.
_ROW_START = re.compile(rf" *(?:- )*(?:(?:{_KEY}):(?: |$))?")
_CONSTRUCTS = [(re.compile(pattern), construct) for pattern, construct in (
    (r"(?:---|\.\.\.)(?:[ \t]|$)", "a document marker"),
    (r"&", "an anchor"), (r"\*", "an alias"), (r"!", "a tag"),
    (r"[{[]", "a flow collection"), (r"<<", "a merge key"),
    (r"[|>]", "a block scalar"), (r"'", "a single-quoted scalar"),
    (f"{_OPEN_QUOTE}$", "a multi-line scalar"),
    (rf"{_OPEN_QUOTE}\\(?!{_GOOD_ESCAPE})",
     "an escape other than \\\", \\\\, \\xHH and \\uHHHH"),
    (r"[0-9]{4}-[0-9][0-9]?-[0-9][0-9]?(?:[Tt \t]|$)", "a timestamp"),
    (rf"(?:{_VALUE})? *#", "a comment after a value"),
    (r"\?", "an explicit key"), (r"%", "a directive"), (r"\t", "a tab"),
    (rf"(?:{_VALUE})? *$| ", "spaces other than the writer's"),
    (r"", "a scalar that is neither a token nor quoted"))]
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
# after the first.  A date is a timestamp, which ``read`` refuses.
_NUMBER = re.compile(r"""
    (?P<float>-?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?
             |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?)
   |(?P<int>-?(?:0b[01_]+|0x[0-9a-fA-F_]+|0[0-7_]*|[1-9][0-9_]*))
   |(?P<date>[0-9]{4}-[0-9]{2}-[0-9]{2})""", re.X)
_BASES = {"0b": 2, "0x": 16}


class _Refused(Exception):
    """What a line outside the grammar holds, and its number if known."""


def _scalar(token: str):
    """``token``'s value as PyYAML's resolver and safe constructor give it;
    _Refused for a date, and an int of no digits (``0x_``) they refuse."""
    if token in _SCALAR_WORDS:
        return _SCALAR_WORDS[token]
    number = _NUMBER.fullmatch(token)
    if number is None:
        return token
    kind, digits = number.lastgroup, token.replace("_", "")
    if kind == "float":
        return float(digits)
    if kind == "date":
        raise _Refused("a timestamp")
    sign, digits = (-1, digits[1:]) if digits[0] == "-" else (1, digits)
    base = _BASES.get(digits[:2], 8 if digits[0] == "0" else 10)
    try:
        return sign * int(digits[2:] if base in (2, 16) else digits, base)
    except ValueError:
        raise _Refused("an int of no digits") from None


class _Values(dict):
    """Each token's value by ``_scalar`` and quoted scalar's str, built on
    first use; an empty collection is a new one each time."""

    def __missing__(self, token: str):
        if token in ("{}", "[]"):
            return {} if token == "{}" else []
        if token[0] == '"':
            value = _UNESCAPE.sub(lambda m: m[1] if len(m[1]) == 1 else
                                  chr(int(m[1][1:], 16)), token[1:-1])
        elif len(token) > _MAX_TOKEN_CHARS:
            raise _Refused(f"a token of more than {_MAX_TOKEN_CHARS} characters")
        else:
            value = _scalar(token)
        self[token] = value
        return value


def read(text: str) -> dict:
    """``text`` as ``yaml.safe_load`` reads it, if it is a document of the
    grammar above, else a ValueError ``line N: <construct> is not read:
    '<the line>'`` for its first refused line.  One ``_ANY_LINE`` scan
    reads every line; the lines are walked only to name the first it
    misses.  A leading byte order mark is dropped, as PyYAML drops it, and
    a missing last newline is taken."""
    text = text.removeprefix("\ufeff")
    text = text if text.endswith("\n") else text + "\n"
    if text == "{}\n":
        return {}
    rows = _ANY_LINE.findall(text)
    missed = None  # (construct, number) of the first line outside the grammar
    if len(rows) != text.count("\n"):
        # Row i is line i + 1 before it; blank and comment rows are empty.
        number, line = next((number, line) for number, line
                            in enumerate(text.split("\n"), 1)
                            if _ANY_LINE.match(line + "\n") is None)
        rest = line[_ROW_START.match(line).end():]
        missed = (next(construct for pattern, construct in _CONSTRUCTS
                       if pattern.match(rest)), number)
        del rows[number - 1:]
    values = _Values()
    root: dict = {}
    # (column, collection, is a list) of each open collection, innermost
    # last: a mapping's column is its keys', a list's its first dash's.
    stack = [(-1, None, False), (0, root, False)]
    bare = None  # (mapping, key, column) after a ``key:`` row
    # The innermost collection and its column if it is a mapping and no
    # ``key:`` row is open, else -1: a ``key: value`` row there is its item.
    filling, at = root, 0
    remaining = iter(rows)
    try:
        for indent, dashes, key, key_value, value in remaining:
            if len(key) > _MAX_KEY_CHARS:
                raise _Refused(f"a key of more than {_MAX_KEY_CHARS} "
                               f"characters")
            column, is_list = len(indent), bool(dashes)
            if column == at and key_value and not is_list:
                into = filling
            elif not (key or is_list):
                if value:
                    raise _Refused("a value with no key or dash")
                continue
            elif bare is not None:
                (parent, parent_key, parent_column), bare = bare, None
                if column != parent_column + (0 if is_list else 2):
                    raise _Refused("indentation other than the writer's")
                into = parent[parent_key] = [] if is_list else {}
                stack.append((column, into, is_list))
            else:
                while stack[-1][0] > column or (stack[-1][0] == column and
                                                stack[-1][2] is not is_list):
                    stack.pop()
                if stack[-1][0] != column:
                    raise _Refused("a list at the top level" if column == 0
                                   else "indentation other than the writer's")
                into = stack[-1][1]
            if is_list:
                if len(dashes) > 2:  # each later dash opens a list in the last
                    for _ in range(len(dashes) // 2 - 1):
                        into.append([])
                        into, column = into[-1], column + 2
                        stack.append((column, into, True))
                if not key:
                    into.append(values[value])
                    at = -1
                    continue
                into.append({})
                into, column = into[-1], column + 2
                stack.append((column, into, False))
            key = values[key]
            if key in into:
                raise _Refused("a repeated key")
            if key_value:
                into[key] = values[key_value]
                filling, at = into, column
            else:
                bare = (into, key, column)
                at = -1
        if missed is not None:
            raise _Refused(*missed)
        if bare is not None:
            raise _Refused("a key with no value")
        if not root:
            raise _Refused("an empty document", 1)
    except _Refused as exc:
        # A row refused with no line number is the last one read.
        construct, *number = exc.args
        number = number[0] if number else len(rows) - length_hint(remaining)
        line = text.split("\n", number)[number - 1]
        raise ValueError(f"line {number}: {construct} is not read"
                         + (f": {line!r}" if line else "")) from None
    return root


def _escape(match) -> str:
    char, code = match[0], ord(match[0])
    return ("\\" + char if char in '"\\' else f"\\x{code:02X}"
            if code < 0x100 else f"\\u{code:04X}")


def write(data: dict) -> str:
    """``data`` as block YAML (see above).

    A dict or list met twice, shared or recursive, is a ValueError, and so
    is a key written longer than ``_MAX_KEY_CHARS``.  A type other than
    dict, list, str, int, float, bool and None, and keys that do not sort,
    are a TypeError.
    """
    if type(data) is not dict:
        raise TypeError(f"cannot write a {type(data).__name__} as a YAML file")
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
                         and obj not in _SCALAR_WORDS
                         and _NUMBER.fullmatch(obj) is None)
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
            raise ValueError(f"cannot write a {kind.__name__} met twice as YAML")
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
