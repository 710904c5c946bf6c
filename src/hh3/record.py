"""The one base of the package's records: tuples with named fields.

A record class over :class:`Record` sets ``__slots__ = ()``, ``_fields``
and, where fields may be left out, ``_field_defaults``.  Making the class
gives each field a ``property(itemgetter(i))``, with no ``eval`` as in
``collections.namedtuple``; records compare and hash as plain tuples.
"""

from operator import itemgetter


class Record(tuple):
    __slots__ = ()
    _field_defaults = {}

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            rest, given = fields[len(args):], {**cls._field_defaults, **kwargs}
            if args[len(fields):] or not {*kwargs} <= {*rest} <= {*given}:
                raise TypeError(f"{cls.__name__}() takes the fields {fields}")
            args += tuple(map(given.__getitem__, rest))
        return tuple.__new__(cls, args)

    def __repr__(self):
        pairs = map("{}={!r}".format, self._fields, self)
        return f"{type(self).__name__}({', '.join(pairs)})"

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **kwargs):
        record = self._make(map(kwargs.pop, self._fields, self))
        if kwargs:
            raise ValueError(f"Got unexpected field names: {list(kwargs)!r}")
        return record

    def __getnewargs__(self):
        return tuple(self)
