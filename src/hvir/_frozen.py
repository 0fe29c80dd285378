"""The base of hvir's immutable value classes.

A value class lists its fields, in constructor order, in
``__match_args__`` and keeps them in ``__slots__``.  Its ``__init__``
validates the arguments and writes each slot with :func:`set_field`;
after that every assignment and deletion raises ``AttributeError``.
Equality holds between instances of one class with equal fields, the
hash is the hash of the field tuple, and ``repr`` reads like a
dataclass's, ``Cyclic(generator=Fraction(1, 2))``.  The classes that
are compared and hashed in hot loops override ``__eq__`` and
``__hash__`` with field-by-field versions of the same rules.
"""

__all__ = ["Frozen", "set_field"]

# writes a slot past Frozen.__setattr__; only constructors call it
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    __match_args__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__match_args__),
        )

    def __reduce__(self):
        # rebuilt by the constructor from the fields alone, so no cached
        # hash travels: str hashes are salted per process
        return self.__class__, self._values()
