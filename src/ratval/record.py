"""The base of the library's value records, such as FieldElement and
Certificate: plain classes, so that importing the library runs no code
generation."""

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """An immutable record of the two or more fields named in `_fields`:
    == and hash are those of the tuple of the fields, between instances
    of one class; repr is Name(field=value, ...); setting or deleting an
    attribute raises AttributeError.  A subclass's __init__ stores its
    fields with _set, or one by one with _setattr where the arithmetic
    builds it in an inner loop."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _setattr(self, name, value)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values(self) == self._values(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
