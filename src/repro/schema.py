"""Declared shapes for the files and payloads the command line reads, and
the one way a file is read (:func:`load_document`) and replaced whole.

A reader declares per value a :class:`Field`: its exact JSON kind (a bool
is never a number, and a number is finite, as JSON defines it), whether it
may be absent or null, a bound or the allowed values, and the object or
list inside it.  :func:`check` raises one :class:`SchemaError` naming the
field path (``'faults[0].at' is not a non-negative finite number: nan``),
or the reader's own error class after its prefix, so each reader keeps its
message and exit code.
"""

from __future__ import annotations

import json
import os
from math import isfinite
from typing import (Any, Callable, Dict, NamedTuple, Optional, Sequence,
                    TextIO)

#: The exact types ``json.loads`` yields per kind ("any": not checked).
_TYPES = {"integer": (int,), "number": (int, float), "string": (str,),
          "boolean": (bool,), "object": (dict,), "list": (list,)}


class SchemaError(ValueError):
    """A parsed document that does not have its declared shape."""


class Field(NamedTuple):
    """``low``/``above`` bound a number inclusively/exclusively, ``choices``
    (``label`` in messages) enumerate a value, ``fields`` are an object's
    keys, ``items`` each element of a list or value of an object, and
    ``rule`` returns a cross-field problem or ``None``."""

    kind: str
    required: bool = True
    null: bool = False
    low: Optional[float] = None
    above: Optional[float] = None
    choices: Optional[Sequence[Any]] = None
    label: Optional[str] = None
    fields: Optional[Dict[str, "Field"]] = None
    items: Optional["Field"] = None
    rule: Optional[Callable[[Any], Optional[str]]] = None


def _problem(field: Field, path: str, value: Any, finite: bool = True) -> str:
    shown = repr(value) if len(repr(value)) <= 60 else repr(value)[:57] + "..."
    if field.choices is not None:
        return (f"unknown {field.label or path} {shown}; "
                f"expected one of {tuple(field.choices)}")
    if not path:
        return f"not a JSON {field.kind}"
    noun = ("non-negative " if field.low == 0 else "") \
        + ("finite " if finite and field.kind == "number" else "") + field.kind
    text = ("an " if noun[0] in "aeiou" else "a ") + noun
    text += f" >= {field.low}" if field.low not in (None, 0) else ""
    text += f" > {field.above}" if field.above is not None else ""
    return f"'{path}' is not {text}{' or null' if field.null else ''}: {shown}"


def check(value: Any, field: Field, where: str = "",
          error: type = SchemaError) -> Any:
    """``value`` as ``field`` declares it -- an object keeps its declared
    keys, a number becomes a ``float`` -- or ``error("<where>: <problem>")``."""
    try:
        return _walk(value, field, "")
    except SchemaError as exc:
        raise error(f"{where}: {exc}" if where else str(exc)) from None


def _walk(value: Any, field: Field, path: str) -> Any:
    if value is None and field.null:
        return None
    types, checked = _TYPES.get(field.kind), value
    if field.kind == "number" and type(value) in types:
        try:
            checked = float(value)
        except OverflowError:           # an integer past the float range
            checked = float("nan")
    if (types is not None and type(value) not in types
            or field.choices is not None and value not in field.choices
            or field.kind == "number" and not isfinite(checked)
            or field.low is not None and not checked >= field.low
            or field.above is not None and not checked > field.above):
        raise SchemaError(_problem(field, path, value))
    if field.fields is not None:
        checked = {}
        for key, sub in field.fields.items():
            where = f"{path}.{key}" if path else key
            if key in value:
                checked[key] = _walk(value[key], sub, where)
            elif sub.required:
                raise SchemaError(f"'{where}' is missing")
    elif field.items is not None and field.kind == "list":
        checked = [_walk(item, field.items, f"{path}[{index}]")
                   for index, item in enumerate(value)]
    elif field.items is not None:
        checked = {key: _walk(item, field.items, f"{path}[{key!r}]")
                   for key, item in value.items()}
    problem = field.rule(checked) if field.rule is not None else None
    if problem:
        raise SchemaError(f"'{path}' {problem}" if path else problem)
    return checked


def flat_table(field: Field) -> Sequence[Any]:
    """An object field's ``(key, types, choices, field)`` rows, for
    :func:`flat_problem`."""
    return tuple((key, _TYPES[sub.kind], sub.choices, sub)
                 for key, sub in field.fields.items())


def flat_problem(record: Dict[str, Any], table: Sequence[Any]) -> Optional[str]:
    """What is wrong with ``record``'s kinds or choices, if anything: one
    record per line, no recursion, no exception.  Bounds, nesting, rules
    and finiteness are not judged."""
    for key, types, choices, field in table:
        value = record.get(key)
        if type(value) not in types or (choices is not None
                                        and value not in choices):
            return _problem(field, key, value, finite=False)
    return None


def load_document(path: str, field: Field, error: type = SchemaError,
                  unreadable: Optional[str] = None,
                  malformed: Optional[str] = None) -> Any:
    """The JSON document at ``path`` as decoded, once checked against
    ``field``: ``error("<unreadable>: <reason>")`` if it cannot be read, is
    not UTF-8 or not JSON, ``error("<malformed>: <problem>")`` if it is not
    of ``field``'s shape.  Both prefixes default to ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:        # not JSON, or not UTF-8
        raise error(f"{path if unreadable is None else unreadable}: "
                    f"{exc}") from exc
    check(document, field, path if malformed is None else malformed, error)
    return document


def check_version(document: Dict[str, Any], want: int, path: str,
                  noun: str, error: type = SchemaError) -> None:
    """Refuse a file whose ``version`` is not the integer ``want``: a bool
    or a float equal to it is no version either."""
    version = document.get("version")
    if type(version) is not int or version != want:
        raise error(f"{path}: unsupported {noun} version "
                    f"{version!r} (want {want})")


class atomic_file:
    """A text file that replaces ``path`` when its ``with`` block ends; an
    exception in the block leaves ``path`` as it was.  (A slotted class,
    not a generator: a streaming rewrite holds it for its whole run.)"""

    __slots__ = ("path", "fh")

    def __init__(self, path: str) -> None:
        self.path = path

    def __enter__(self) -> TextIO:
        self.fh = open(f"{self.path}.tmp", "w", encoding="utf-8")
        return self.fh

    def __exit__(self, kind: Any, *_: Any) -> None:
        try:
            self.fh.close()
            if kind is None:
                os.replace(self.fh.name, self.path)
        finally:
            if os.path.exists(self.fh.name):
                os.remove(self.fh.name)


def write_document(path: str, document: Any) -> None:
    """Write ``document`` atomically: two-space indent, sorted keys, and a
    final newline."""
    with atomic_file(path) as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
