"""One dict codec for the dataclasses that round-trip through JSON.

Scenario files, fault plans and replay checkpoints live on disk as
plain dicts.  :class:`DictCodec` gives a dataclass ``to_dict`` /
``from_dict`` driven by its field declarations: nested dataclasses
become nested dicts and tuples become lists.  A field typed as a union
of several dataclasses is tagged by each member's ``kind`` class
attribute, written as a ``"kind"`` key.  Decoding is strict: an unknown
key, a missing key without a default, or an unknown ``kind`` raises
:class:`ValueError` naming the key path (``rrl.rate``,
``events[2].loss``).  ``from_dict`` then runs the class's
``validate()``, if it has one.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import types
import typing


class DictCodec:
    """Mixin: dict round-trip for a dataclass (see the module doc)."""

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict):
        obj = _decode_object(cls, data, "")
        validate = getattr(obj, "validate", None)
        if validate is not None:
            validate()
        return obj


def _encode(value):
    if dataclasses.is_dataclass(value):
        kind = getattr(type(value), "kind", None)
        out = {} if kind is None else {"kind": kind}
        for f in dataclasses.fields(value):
            out[f.name] = _encode(getattr(value, f.name))
        return out
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


@functools.cache
def _label(cls) -> str:
    """``CacheConfig`` -> ``cache config``, for error messages."""
    return re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _decode_object(cls, data, path: str):
    if not isinstance(data, dict):
        raise ValueError(f"{path or _label(cls)}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    for key in data:
        if key not in fields:
            raise ValueError(
                f"unknown {_label(cls)} key {_join(path, key)!r}")
    kwargs = {}
    for name, f in fields.items():
        if name in data:
            kwargs[name] = _decode(_field_types(cls)[name], data[name],
                                   _join(path, name))
        elif f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ValueError(
                f"missing {_label(cls)} key {_join(path, name)!r}")
    return cls(**kwargs)


def _decode(tp, value, path: str):
    if value is None:
        return None
    members = [tp]
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        members = [m for m in typing.get_args(tp) if m is not type(None)]
    classes = [m for m in members if dataclasses.is_dataclass(m)]
    if len(classes) == 1:
        return _decode_object(classes[0], value, path)
    if classes:
        body = dict(value) if isinstance(value, dict) else {}
        kind = body.pop("kind", None)
        for cls in classes:
            if cls.kind == kind:
                return _decode_object(cls, body, path)
        raise ValueError(f"unknown kind {kind!r} at {_join(path, 'kind')!r}")
    origin = typing.get_origin(members[0])
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path}: expected a list")
        item_type = typing.get_args(members[0])[0]
        items = [_decode(item_type, item, f"{path}[{i}]")
                 for i, item in enumerate(value)]
        return tuple(items) if origin is tuple else items
    return value
