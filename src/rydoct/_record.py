"""Record types: dataclass fields, with methods that read them at call time.

`dataclasses.dataclass` writes the source text of each class's `__init__`,
`__repr__`, comparisons and frozen `__setattr__` and compiles it when the
class is defined, about 10 ms of every CLI process's import over the
package's records (README, "A command as a process").  `record` asks
`dataclasses` for the field bookkeeping alone, so `dataclasses.fields`,
`replace`, `is_dataclass` and `FrozenInstanceError` work on a record as on
a dataclass, and gives the class methods written once, here, that loop
over its fields.  They behave as the generated ones of Python 3.10-3.12:
the constructor takes each field by position or keyword, fills defaults
and default factories and then calls `__post_init__`, and
`inspect.signature` of the class reports the generated signature; the
repr skips `repr=False` fields; equality, and with `order=True` ordering,
compare the tuples of the fields when both sides are of the same class; a
frozen record hashes that tuple and raises `FrozenInstanceError` on a
field's assignment or deletion.  Neither `InitVar`, `init=False` nor
keyword-only fields are supported.
"""

from __future__ import annotations

import dataclasses
import inspect
import operator

__all__ = ["record"]

_MISSING = dataclasses.MISSING


def record(cls=None, /, *, frozen: bool = False, order: bool = False):
    """`dataclasses.dataclass(cls, frozen=frozen, order=order)` without
    per-class code generation; usable as `@record` or `@record(...)`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, order=order)
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    for f in fields:
        if not f.init or f.kw_only is True:
            raise TypeError(f"{cls.__name__}.{f.name}: a record takes every field in __init__")
    # compared(obj) is the tuple of obj's compared fields (one field: its value).
    compared = operator.attrgetter(*[f.name for f in fields if f.compare])
    methods = {
        "__init__": _init(cls, fields),
        "__repr__": _repr(tuple(f.name for f in fields if f.repr)),
        "__eq__": _comparison(operator.eq, compared),
    }
    if order:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            methods[f"__{op.__name__}__"] = _comparison(op, compared)
    if frozen:
        methods.update(_frozen(cls, tuple(f.name for f in fields)))
        methods["__hash__"] = _hash(compared)
    for name, method in methods.items():
        if name not in cls.__dict__:
            method.__name__ = name
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if not frozen and "__hash__" not in cls.__dict__:
        cls.__hash__ = None
    cls.__signature__ = _SIGNATURE
    # Python 3.13's dataclasses set their own __replace__ (copy.replace).
    cls.__replace__ = _replace
    return cls


def _init(cls, fields):
    names = tuple(f.name for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not _MISSING}
    factories = {f.name: f.default_factory for f in fields if f.default_factory is not _MISSING}
    post_init = hasattr(cls, "__post_init__")
    n_fields = len(names)

    def __init__(self, *args, **kwargs):
        if len(args) > n_fields:
            raise TypeError(
                f"{cls.__qualname__}() takes {n_fields} positional arguments "
                f"but {len(args)} were given"
            )
        # Fields are plain instance attributes, also on a frozen record.
        values = self.__dict__
        values.update(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in defaults:
                values[name] = defaults[name]
            elif name in factories:
                values[name] = factories[name]()
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument: {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        if post_init:
            self.__post_init__()

    return __init__


def _repr(names):
    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({shown})"

    return __repr__


def _comparison(op, values):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(values(self), values(other))
        return NotImplemented

    return compare


def _hash(values):
    def __hash__(self):
        return hash(values(self))

    return __hash__


def _frozen(cls, names):
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return {"__setattr__": __setattr__, "__delattr__": __delattr__}


class _InitSignature:
    """A record's `__signature__`, which `inspect.signature` reads: the
    parameters of the generated `__init__`, built when they are asked for."""

    def __get__(self, obj, cls):
        parameters = []
        for f in dataclasses.fields(cls):
            default = inspect.Parameter.empty if f.default is _MISSING else f.default
            if f.default_factory is not _MISSING:
                default = dataclasses._HAS_DEFAULT_FACTORY  # shown as <factory>
            kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
            parameters.append(inspect.Parameter(f.name, kind, default=default, annotation=f.type))
        return inspect.Signature(parameters, return_annotation=None)


_SIGNATURE = _InitSignature()


def _replace(self, /, **changes):
    return dataclasses.replace(self, **changes)
