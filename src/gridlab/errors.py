"""Exception types shared across the library.

The CLI maps these onto exit codes: guard exhaustion is reported as
"inconclusive" (exit 2), never silently coerced to a negative verdict.
``Record``, the base of the value records of every other module, lives
here too.
"""

from operator import attrgetter


class GridlabError(Exception):
    """Base class for all library errors."""


class ContractViolation(GridlabError):
    """An argument breaks a documented precondition or invariant."""


class GuardExceeded(GridlabError):
    """A size or work guard was hit before the operation could finish."""


class DomainError(GridlabError):
    """The input is structurally outside the operation's domain."""


class InvalidInput(GridlabError):
    """A file or serialized payload failed validation."""


class ChainStepFailure(GridlabError):
    """A witness chain step did not deliver its guaranteed structure."""


class Record:
    """Base of the library's value records, in place of frozen dataclasses.

    A subclass lists its fields as annotations, in order, with optional
    class-attribute defaults; ``__init_subclass__`` reads them once. A
    record class is not subclassed further. The base supplies what
    ``@dataclass(frozen=True)`` would generate: an ``__init__`` taking the
    fields positionally or by keyword, equality and hashing on the tuple of
    fields (so a record hashes exactly as its dataclass did), the
    ``Name(field=value, ...)`` repr, and refusal of assignment and deletion.
    Nothing is compiled when a class is created, which keeps the import of
    the library cheap. ``frozen=False`` in the class statement gives a
    mutable, unhashable record. A record that validates or derives state,
    or whose default is a fresh list or dict, writes its own ``__init__``:
    it stores the fields with ``object.__setattr__`` or passes them on to
    ``Record.__init__``.
    """

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        if len(fields) == 1:
            one = attrgetter(fields[0])
            cls._values = staticmethod(lambda record: (one(record),))
        else:
            cls._values = staticmethod(attrgetter(*fields))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from arguments that are not all positional."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        missing = [f for f in fields if f not in given and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [given[f] if f in given else cls._defaults[f] for f in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
