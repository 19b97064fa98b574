"""The base of the records that check their values.

Every record in techflux is a named tuple: immutable, and cheap to define,
build and hold. A record that checks its values declares them in its
``__new__``. A named tuple's ``_make``, and ``_replace`` through it, fill
the tuple without calling ``__new__``; on a `Checked` record both build
through the class, so no constructor skips the checks.
"""


class Checked:
    """Mixin, listed before the named tuple, of a record whose ``__new__`` checks its values."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
