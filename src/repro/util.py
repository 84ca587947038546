"""Small shared utilities.

Determinism in this project comes from *derived* seeds: every
stochastic component seeds its own ``random.Random`` from a tuple of
stable parts (experiment seed, domain, purpose).  ``random.Random``
itself only accepts hashable scalars with stable semantics for int/str/
bytes, so :func:`seeded_rng` canonicalizes arbitrary parts into a
stable string seed.  (Never use ``hash()`` for this: string hashing is
randomized per process.)

:class:`computed_once` is :func:`functools.cached_property` without
the lock that Python 3.11's version takes, class-wide, on every
instance's first access: the package runs on one thread.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generic, TypeVar

__all__ = ["computed_once", "seeded_rng", "derive_seed"]

_T = TypeVar("_T")


def derive_seed(*parts: Any) -> str:
    """A stable scalar seed derived from *parts*.

    >>> derive_seed(7, "example.com", "adoption")
    '7|example.com|adoption'
    """
    return "|".join(str(part) for part in parts)


def seeded_rng(*parts: Any) -> random.Random:
    """A ``random.Random`` deterministically seeded from *parts*.

    >>> seeded_rng(1, "x").random() == seeded_rng(1, "x").random()
    True
    """
    return random.Random(derive_seed(*parts))


class computed_once(Generic[_T]):  # noqa: N801 - named like the property it stands for
    """An attribute computed on first access and then stored in the
    instance's ``__dict__`` under the method's name, where it shadows
    this descriptor.

    Writing to ``__dict__`` bypasses a frozen dataclass's ``__setattr__``,
    and the value is not a field, so equality, hashing and ``repr`` stay
    on the fields.
    """

    def __init__(self, compute: Callable[[Any], _T]):
        self._compute = compute
        self._name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance: Any, owner: type) -> _T:
        if instance is None:
            return self  # type: ignore[return-value]
        value = instance.__dict__[self._name] = self._compute(instance)
        return value
