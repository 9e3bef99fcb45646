"""The one JSON codec: ``[re, im]`` pairs and frozen-dataclass dicts.

:func:`to_dict` / :func:`from_dict` follow each field's annotation, in
declaration order: ``complex`` and ``np.ndarray`` become (nested) pairs,
``tuple[...]`` a list, ``X | None`` keeps ``None`` and a nested dataclass
an object.  Each class's encoder and decoder are built once and cached.
A value that is not a dataclass instance, or a dict that is not the form
of ``cls``, raises :class:`~sep4.errors.StateFormatError`.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

import numpy as np

from .errors import StateFormatError

_SCALARS = (bool, int, float, str)


def to_pairs(value):
    """``[re, im]`` for a number; nested lists of pairs for an array."""
    if not isinstance(value, np.ndarray):
        return [float(value.real), float(value.imag)]
    if value.ndim > 1:
        return [to_pairs(row) for row in value]
    return [[z.real, z.imag] for z in value.astype(complex, copy=False).tolist()]


def from_pairs(obj):
    """Inverse of :func:`to_pairs`: a ``complex`` for one pair, else an array.

    Raises ``ValueError`` or ``TypeError`` unless ``obj`` is a dense grid
    of numeric pairs.
    """
    try:
        arr = np.asarray(obj, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"entry beyond the float range: {exc}") from exc
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs, got an array of shape {arr.shape}")
    if arr.ndim == 1:
        return complex(arr[0], arr[1])
    # a view, not re + 1j * im, whose sum would turn a real part of -0.0 into 0.0
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def _compile(tp) -> tuple[typing.Callable, typing.Callable]:
    """(encoder, decoder) for values annotated ``tp``."""
    if dataclasses.is_dataclass(tp):
        return _codec(tp)
    if tp is complex or tp is np.ndarray:
        return to_pairs, from_pairs
    if tp in _SCALARS:
        return (lambda v: v), tp
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _compile(inner)
        return (
            lambda v: None if v is None else enc(v),
            lambda v: None if v is None else dec(v),
        )
    if origin is tuple:
        items = {a for a in args if a is not Ellipsis}
        if items <= set(_SCALARS):
            return list, tuple
        (item,) = items
        enc, dec = _compile(item)
        return (lambda v: [enc(x) for x in v]), (lambda v: tuple(dec(x) for x in v))
    raise TypeError(f"no JSON form for annotation {tp!r}")


@functools.cache
def _codec(cls) -> tuple[typing.Callable, typing.Callable]:
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise StateFormatError(f"no JSON form for {cls!r}, which is not a dataclass")
    hints = typing.get_type_hints(cls)
    fields = [(f.name, *_compile(hints[f.name])) for f in dataclasses.fields(cls)]

    def encode(obj) -> dict:
        return {name: enc(getattr(obj, name)) for name, enc, _ in fields}

    def decode(obj: dict):
        try:
            return cls(**{name: dec(obj[name]) for name, _, dec in fields})
        except (KeyError, TypeError, ValueError) as exc:
            raise StateFormatError(f"not the JSON form of {cls.__name__}: {exc!r}") from exc

    return encode, decode


def to_dict(obj) -> dict:
    """JSON-ready dict of a frozen dataclass instance."""
    return _codec(type(obj))[0](obj)


def from_dict(cls, obj: dict):
    """Rebuild an instance of dataclass ``cls`` from :func:`to_dict` output."""
    return _codec(cls)[1](obj)
