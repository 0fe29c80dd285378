"""The base of hvir's immutable value classes, and the one home of their
equality and hash.

A value class names its fields once, in constructor order, in
``__slots__``; ``Frozen.__init_subclass__`` appends them to the
inherited ``__match_args__``.  Its ``__init__`` validates the arguments
and writes each slot with :func:`set_field`; after that every
assignment and deletion raises ``AttributeError``.  A value equals
itself, and otherwise equals the values of its own class whose field
tuple is equal.  The hash is the hash of the field tuple, computed on
each ``hash``.  ``repr`` reads like a dataclass's,
``Cyclic(generator=Fraction(1, 2))``.

One rule covers the slots that are not fields: a slot whose name begins
with an underscore, such as ``ModuleParams._ints`` or ``Window._indices``,
caches something the fields determine.  The constructor fills it, and it
takes no part in ``__match_args__``, ``==``, ``hash``, ``repr`` or
pickling.
"""

from operator import attrgetter

__all__ = ["Frozen", "set_field"]

# writes a slot past Frozen.__setattr__; only constructors call it
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    __match_args__ = ()
    # the field tuple of a value, set for each class from its fields
    _fields = staticmethod(lambda value: ())

    def __init_subclass__(cls):
        fields = tuple(name for name in cls.__dict__["__slots__"] if name[0] != "_")
        names = cls.__match_args__ = cls.__match_args__ + fields
        if len(names) > 1:
            cls._fields = attrgetter(*names)
        elif names:
            # attrgetter returns a lone field bare, not in a 1-tuple
            lone = attrgetter(*names)
            cls._fields = staticmethod(lambda value: (lone(value),))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

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
        # rebuilt by the constructor from the fields alone, so no cache
        # travels
        return self.__class__, self._fields(self)
