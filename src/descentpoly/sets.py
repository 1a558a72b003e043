"""Sets of positive integers, including symbolic infinite families.

Every statistic in this package depends on a set only through its
restriction to {1, ..., n}, so infinite sets (residue classes, half-lines)
are kept symbolic and restricted on demand.  All sets live inside the
positive integers; 0 is never a member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .perms import InputError

__all__ = [
    "IntegerSet",
    "Explicit",
    "ResidueClasses",
    "HalfLine",
    "AllIntegers",
    "SetUnion",
    "explicit_set",
    "residue_set",
    "at_least",
    "parse_set",
    "ALL",
    "EMPTY",
    "EVENS",
    "ODDS",
]


class IntegerSet:
    """Base class: a subset of the positive integers."""

    def contains(self, z: int) -> bool:
        raise NotImplementedError

    def __contains__(self, z: int) -> bool:
        return z >= 1 and self.contains(z)

    def restrict(self, n: int) -> tuple[int, ...]:
        """The sorted elements of this set that lie in {1, ..., n}."""
        return tuple(z for z in range(1, n + 1) if z in self)

    def complement_in(self, n: int) -> tuple[int, ...]:
        """The sorted elements of {1, ..., n} not in this set."""
        return tuple(z for z in range(1, n + 1) if z not in self)

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Explicit(IntegerSet):
    """A finite set: ``members`` sorted, looked up in a frozenset."""

    members: tuple[int, ...]
    _lookup: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(z < 1 for z in self.members):
            raise InputError("set members must be positive integers")
        if list(self.members) != sorted(set(self.members)):
            raise InputError("members must be sorted and distinct")
        object.__setattr__(self, "_lookup", frozenset(self.members))

    def contains(self, z: int) -> bool:
        return z in self._lookup

    # every member is >= 1, so the base class's z >= 1 test is implied
    __contains__ = contains

    def __str__(self) -> str:
        return "{" + ",".join(str(z) for z in self.members) + "}"


@dataclass(frozen=True)
class ResidueClasses(IntegerSet):
    """Positive z with z mod modulus in a fixed residue set.

    Residue 0 means z divisible by the modulus, so residue_set(2, (0,))
    is the positive even numbers.
    """

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise InputError("modulus must be >= 1")
        if any(not 0 <= r < self.modulus for r in self.residues):
            raise InputError("residues must lie in [0, modulus)")
        if list(self.residues) != sorted(set(self.residues)):
            raise InputError("residues must be sorted and distinct")

    def contains(self, z: int) -> bool:
        return z % self.modulus in self.residues

    def __str__(self) -> str:
        return f"mod:{self.modulus}:" + ",".join(str(r) for r in self.residues)


@dataclass(frozen=True)
class HalfLine(IntegerSet):
    """The half-line {start, start + 1, start + 2, ...}."""

    start: int

    def __post_init__(self):
        if self.start < 1:
            raise InputError("half-line start must be >= 1")

    def contains(self, z: int) -> bool:
        return z >= self.start

    def __str__(self) -> str:
        return f"geq:{self.start}"


@dataclass(frozen=True)
class AllIntegers(IntegerSet):
    def contains(self, z: int) -> bool:
        return True

    def __str__(self) -> str:
        return "all"


@dataclass(frozen=True)
class SetUnion(IntegerSet):
    parts: tuple[IntegerSet, ...]

    def contains(self, z: int) -> bool:
        return any(z in p for p in self.parts)

    def __str__(self) -> str:
        return "|".join(str(p) for p in self.parts)


def explicit_set(members: Iterable[int]) -> Explicit:
    return Explicit(tuple(sorted(set(members))))


def residue_set(modulus: int, residues: Iterable[int]) -> ResidueClasses:
    return ResidueClasses(modulus, tuple(sorted(set(residues))))


def at_least(start: int) -> HalfLine:
    return HalfLine(start)


ALL = AllIntegers()
EMPTY = explicit_set(())
EVENS = residue_set(2, (0,))
ODDS = residue_set(2, (1,))


_FORMS = {"{": "{n1,n2,...}", "mod:": "mod:k:r1,r2", "geq:": "geq:k"}


def _parse_atom(text: str) -> IntegerSet:
    text = text.strip()
    if text == "all":
        return ALL
    prefix = next((p for p in _FORMS if text.startswith(p)), None)
    if prefix is None or (prefix == "{" and not text.endswith("}")):
        expected = ", ".join(("all", *_FORMS.values()))
        raise InputError(f"cannot parse set syntax: {text!r} (expected {expected})")
    try:
        if prefix == "{":
            inner = text[1:-1].strip()
            members = [int(t) for t in inner.split(",")] if inner else []
            make, args = explicit_set, (members,)
        elif prefix == "mod:":
            _, k, rs = text.split(":")
            make, args = residue_set, (int(k), [int(t) for t in rs.split(",")])
        else:
            _, k = text.split(":")
            make, args = at_least, (int(k),)
    except ValueError:
        raise InputError(
            f"cannot parse set syntax: {text!r} (expected {_FORMS[prefix]})"
        ) from None
    try:
        return make(*args)
    except ValueError as err:
        raise InputError(f"invalid set {text!r}: {err}") from None


def parse_set(text: str) -> IntegerSet:
    """Parse the CLI set syntax: `all`, `{2,3,5}`, `mod:k:r1,r2`, `geq:k`,
    and unions of these joined by `|`."""
    atoms = [_parse_atom(tok) for tok in text.split("|")]
    if len(atoms) == 1:
        return atoms[0]
    return SetUnion(tuple(atoms))

