"""The one JSON codec of every HTTP door: declared dataclasses in and out.

A door's document is a frozen dataclass, and its field annotations are
the schema.  :func:`decode` builds one from a parsed JSON value,
:func:`encode` turns one back into plain JSON:

* ``str``, ``bool``; ``int`` (not a boolean); ``float``, a finite
  number (an integer is stored as a float); ``Any``, passed through;
* ``Optional[T]``: ``T`` or ``null``;
* ``tuple[T, ...]``: a list; ``tuple[A, B]``: a list ``[A, B]``;
* ``tuple[tuple[str, V], ...]``: an object, sorted by key on decode;
* a dataclass: an object, decoded field by field.

A field with a default takes it when its key is absent or ``null``; one
without is required (an ``Optional`` one reads ``None``).  Unknown keys
are ignored.  Bounds go in ``field(metadata=...)``: :data:`POSITIVE`,
:data:`NON_EMPTY`, :data:`EMPTY_IS_DEFAULT` (``""``, ``[]`` and ``{}``
read as the default).  A refusal is a :class:`BadRequest` worded
``what: field 'x' must be ...``, ``what`` being the class name in words
and ``x`` the value's path (``acks[2].task_id``).  Each class's plan is
resolved from its hints once and cached.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import types
import typing
from typing import Any, Union

POSITIVE = {"bound": ("positive ", lambda value: value > 0)}
NON_EMPTY = {"bound": ("non-empty ", len)}
EMPTY_IS_DEFAULT = {"empty_is_default": True}

_REQUIRED = object()
_WORDS = {str: "string", int: "integer", float: "finite number",
          bool: "boolean", Any: "value"}


class BadRequest(ValueError):
    """A request a plane cannot parse or decode; planes answer it 400."""


class _Refused(Exception):
    """The value at ``path`` is not ``wanted``; :func:`decode` words it."""

    def __init__(self, path: str, wanted: str) -> None:
        self.path = path
        self.wanted = wanted


def decode(cls: type, doc: Any) -> Any:
    """``cls`` built from the parsed JSON value ``doc``; raises
    :class:`BadRequest` naming the first value that does not fit."""
    try:
        if isinstance(doc, dict):
            return _object(cls, doc, "")
        problem = "body must be a JSON object"
    except _Refused as refused:
        problem = f"field {refused.path!r} must be {refused.wanted}"
    what = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
    raise BadRequest(f"{what}: {problem}")


def encode(obj: Any) -> dict[str, Any]:
    """The JSON object of dataclass ``obj``: every field, by name."""
    return {name: _json(spec, getattr(obj, name))
            for name, spec, *_rest in _fields(type(obj))}


@functools.cache
def _fields(cls: type) -> tuple[tuple, ...]:
    """``(name, spec, default, bound, wanted, empty_is_default)`` per
    field of dataclass ``cls``: its plan."""
    hints = typing.get_type_hints(cls)
    fields = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        args = typing.get_args(hint)
        optional = (typing.get_origin(hint) in (Union, types.UnionType)
                    and type(None) in args and len(args) == 2)
        spec = _spec(args[0] if optional else hint)
        prefix, bound = field.metadata.get("bound", ("", None))
        default = field.default
        if default is dataclasses.MISSING:
            default = None if optional else _REQUIRED
        fields.append((field.name, spec, default, bound,
                       _article(prefix + _words(spec)),
                       field.metadata.get("empty_is_default", False)))
    return tuple(fields)


def _object(cls: type, doc: dict, prefix: str) -> Any:
    values = {}
    for name, spec, default, bound, wanted, empty_is_default in _fields(cls):
        raw = doc.get(name)
        path = prefix + name
        if raw is None or (empty_is_default and raw in ("", [], {})):
            if default is _REQUIRED:
                raise _Refused(path, wanted)
            values[name] = default
            continue
        value = _value(spec, raw, path, wanted)
        if bound is not None and not bound(value):
            raise _Refused(path, wanted)
        values[name] = value
    return cls(**values)


def _spec(hint: Any) -> Any:
    """A hint as the codec walks it: a scalar type, a dataclass, or
    ``("list" | "map" | "pair", inner)``."""
    if hint in _WORDS or dataclasses.is_dataclass(hint):
        return hint
    args = typing.get_args(hint)
    if typing.get_origin(hint) is not tuple or not args:
        raise TypeError(f"the codec has no JSON form for {hint!r}")
    if args[-1] is not Ellipsis:
        return ("pair", tuple(_spec(arg) for arg in args))
    item = args[0]
    if typing.get_origin(item) is tuple and typing.get_args(item)[0] is str:
        return ("map", _spec(typing.get_args(item)[1]))
    return ("list", _spec(item))


def _value(spec: Any, raw: Any, path: str, wanted: str = "") -> Any:
    """``raw`` decoded as ``spec``; refused as ``wanted`` (by default,
    the spec in words)."""
    kind = type(raw)
    if spec is str or spec is bool or spec is int:
        if kind is spec:
            return raw
    elif spec is float:
        if kind is float or kind is int:
            try:
                value = float(raw)
            except OverflowError:  # an integer past the float range
                value = math.inf
            if math.isfinite(value):
                return value
    elif spec is Any:
        return raw
    elif isinstance(spec, type):
        if kind is dict:
            return _object(spec, raw, path + ".")
    elif spec[0] == "map":
        if kind is dict:
            return tuple(sorted((key, _value(spec[1], item, f"{path}.{key}"))
                                for key, item in raw.items()))
    elif kind is list and (spec[0] == "list" or len(raw) == len(spec[1])):
        specs = spec[1] if spec[0] == "pair" else [spec[1]] * len(raw)
        return tuple(_value(item_spec, item, f"{path}[{index}]")
                     for index, (item_spec, item)
                     in enumerate(zip(specs, raw)))
    raise _Refused(path, wanted or _article(_words(spec)))


def _json(spec: Any, value: Any) -> Any:
    if value is None or spec in _WORDS:
        return value
    if isinstance(spec, type):
        return encode(value)
    kind, inner = spec
    if kind == "map":
        return {key: _json(inner, item) for key, item in value}
    specs = inner if kind == "pair" else [inner] * len(value)
    return [_json(item_spec, item) for item_spec, item in zip(specs, value)]


def _words(spec: Any) -> str:
    """What ``spec`` wants, without an article; a refusal inside a list
    or an object names the item's own path and words."""
    if not isinstance(spec, tuple):
        return _WORDS.get(spec, "object")
    kind, inner = spec
    if kind == "pair":
        return f"list of {len(inner)}"
    return "list" if kind == "list" else "object"


def _article(words: str) -> str:
    return ("an " if words[0] in "aeiou" else "a ") + words
