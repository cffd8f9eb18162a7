"""Base of the immutable value types whose constructors validate.

A subclass names its fields in ``_fields`` and ``__slots__``; its
``__init__`` validates them and stores each with ``object.__setattr__``,
usually by calling ``self.__post_init__()`` after storing.  Defining one
runs no generated code.
"""


class Value:
    """Equal to its own class only, hashed as its field tuple, immutable."""

    __slots__ = ()

    @classmethod
    def _derived(cls, *fields):
        """Skips ``__post_init__``: only for values derived from validated values."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(self, name, value)
        return self

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through the constructor
        return self.__class__, self._key()
