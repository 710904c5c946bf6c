"""The one base of the package's records: tuples with named fields.

A record class over :class:`Record` sets ``__slots__ = ()`` and
``_fields``; every field is given, by position or by name.  Making the
class gives each field a ``property(itemgetter(i))``, with no ``eval`` as
in ``collections.namedtuple``; records compare and hash as plain tuples.
"""

from operator import itemgetter


class Record(tuple):
    __slots__ = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        rest = cls._fields[len(args):]  # each given by name, and no other
        if len(args) > len(cls._fields) or {*kwargs} != {*rest}:
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}")
        return tuple.__new__(cls, args + tuple(map(kwargs.__getitem__, rest)))

    def __repr__(self):
        pairs = map("{}={!r}".format, self._fields, self)
        return f"{type(self).__name__}({', '.join(pairs)})"

    def __getnewargs__(self):
        return tuple(self)
