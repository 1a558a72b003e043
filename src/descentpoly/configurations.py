"""Signed configurations and the sign-reversing involution.

A configuration is an array mixing the letters of a sequence (a permutation
of 1..n, or a word from a rearrangement class) with '+' and '-' signs.
Which arrays are legal depends on the flavor:

* STANDARD: every '-' sits at the start or right after a letter, and every
  matching descent pair has at least one '+' between its members.
* OVERLINE: every '-' sits at the start or right after a letter, every
  potential-top letter that is NOT the top of a matching descent must be
  followed (before the next letter) by at least one '+', and a trailing
  potential-top letter must be followed by at least one '+'.

The involution flips the first sign (scanning left to right) whose flip
keeps the array legal; arrays with no flippable sign are fixed points and
correspond to sequences with the prescribed number of descents.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .closed_forms import permutation_form
from .perms import all_permutations
from .polynomials import binom
from .sets import IntegerSet
from .stats import CapExceededError
from .words import enumerate_rearrangements, word_form

__all__ = [
    "Flavor",
    "Configuration",
    "MalformedConfigurationError",
    "enumerate_configs",
    "involution",
    "fixed_point_from_seq",
    "staged_count",
    "config_to_str",
    "config_from_str",
]

PLUS = "+"
MINUS = "-"


class Flavor(enum.Enum):
    STANDARD = "standard"
    OVERLINE = "overline"


class MalformedConfigurationError(ValueError):
    pass


CapError = CapExceededError  # the package's one cap error, by this module's name


@dataclass(frozen=True)
class Configuration:
    items: tuple  # ints and the strings '+' / '-'
    flavor: Flavor
    tops: IntegerSet
    bottoms: IntegerSet

    @property
    def sequence(self) -> tuple[int, ...]:
        return tuple(it for it in self.items if isinstance(it, int))

    @property
    def plus_count(self) -> int:
        return sum(1 for it in self.items if it == PLUS)

    @property
    def minus_count(self) -> int:
        return sum(1 for it in self.items if it == MINUS)

    @property
    def sign(self) -> int:
        return (-1) ** self.minus_count

    def __str__(self) -> str:
        return config_to_str(self)


def _conditions_hold(items, flavor: Flavor, tops, bottoms) -> bool:
    seq = tuple(it for it in items if isinstance(it, int))
    required = _required_gap_set(seq, flavor, tops, bottoms)
    gap = 0
    plus_gaps = set()
    for idx, it in enumerate(items):
        if isinstance(it, int):
            gap += 1
        elif it == PLUS:
            plus_gaps.add(gap)
        # (i): '-' only at the very start or right after a letter
        elif idx > 0 and not isinstance(items[idx - 1], int):
            return False
    return required <= plus_gaps


def involution(config: Configuration) -> Configuration:
    """Flip the first reversible sign; identity on fixed points.

    Legality only constrains where a '-' may sit and which gaps must keep
    a '+', so whether a sign can flip is a local question: a '-' can always
    become a '+'; a '+' can become a '-' exactly when it opens its gap (a
    second '-' in a gap would trail a sign) and its gap either is not a
    required-plus gap or holds another '+'.
    """
    items = config.items
    seq = config.sequence
    required = _required_gap_set(seq, config.flavor, config.tops, config.bottoms)
    gap_of = [0] * len(items)
    plus_in_gap = [0] * (len(seq) + 1)
    gap = 0
    signs = []
    for idx, it in enumerate(items):
        if isinstance(it, int):
            gap += 1
        else:
            gap_of[idx] = gap
            signs.append(idx)
            if it == PLUS:
                plus_in_gap[gap] += 1
            elif idx > 0 and not isinstance(items[idx - 1], int):
                raise MalformedConfigurationError(str(config))
    if not required <= {gap_of[idx] for idx in signs if items[idx] == PLUS}:
        raise MalformedConfigurationError(str(config))
    for idx in signs:
        it = items[idx]
        if it == MINUS:
            can_flip = True
        else:
            opens_gap = idx == 0 or isinstance(items[idx - 1], int)
            gap = gap_of[idx]
            can_flip = opens_gap and (gap not in required or plus_in_gap[gap] >= 2)
        if can_flip:
            flipped = list(items)
            flipped[idx] = PLUS if it == MINUS else MINUS
            return Configuration(
                tuple(flipped), config.flavor, config.tops, config.bottoms
            )
    return config


def _sign_layouts(n_gaps: int, n_plus: int, n_minus: int, required_plus_gaps):
    """Yield (minus_gaps, plus_by_gap) for all legal sign placements.

    Gap g in 0..n_gaps-1; a gap holds at most one '-' (a second would
    trail a sign), placed before that gap's '+'s.  Gaps in
    required_plus_gaps must receive at least one '+'.
    """
    req = sorted(required_plus_gaps)
    free = n_plus - len(req)
    if free < 0:
        return
    for minus_gaps in combinations(range(n_gaps), n_minus):
        for plus_by_gap in _weak_compositions(free, n_gaps):
            layout = list(plus_by_gap)
            for g in req:
                layout[g] += 1
            yield frozenset(minus_gaps), layout


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _assemble(seq, minus_gaps, plus_by_gap):
    items = []
    for g in range(len(seq) + 1):
        if g in minus_gaps:
            items.append(MINUS)
        items.extend([PLUS] * plus_by_gap[g])
        if g < len(seq):
            items.append(seq[g])
    return tuple(items)


@lru_cache(maxsize=1 << 16)
def _required_gap_set(seq, flavor: Flavor, tops, bottoms) -> frozenset:
    """Gaps (0..len(seq)) that must contain a '+', from the letters alone.

    STANDARD: the gap inside each matching descent pair.  OVERLINE: the gap
    after each potential-top letter that is not a matching descent top,
    including the final gap when the last letter is a potential top.
    """
    top_vals = {v for v in seq if v in tops}
    bottom_vals = {v for v in seq if v in bottoms}
    req = set()
    n = len(seq)
    for i in range(1, n):
        a, b = seq[i - 1], seq[i]
        matching = a > b and a in top_vals and b in bottom_vals
        if flavor is Flavor.STANDARD:
            if matching:
                req.add(i)
        elif a in top_vals and not matching:
            req.add(i)
    if flavor is Flavor.OVERLINE and n and seq[n - 1] in top_vals:
        req.add(n)
    return frozenset(req)


def _required_gaps(seq, flavor: Flavor, tops, bottoms):
    return sorted(_required_gap_set(tuple(seq), flavor, tops, bottoms))


def _minus_count(flavor: Flavor, seq_len_in_tops: int, s: int, r: int) -> int:
    if flavor is Flavor.STANDARD:
        return s - r
    return seq_len_in_tops - s - r


def enumerate_configs(
    flavor: Flavor,
    s: int,
    r: int,
    tops: IntegerSet,
    bottoms: IntegerSet,
    n: int | None = None,
    rho: tuple[int, ...] | None = None,
    limit: int = 8,
) -> list[Configuration]:
    """All legal configurations with r '+'s over S_n or over R(rho).

    The number of '-'s is s - r for STANDARD and (#potential-top letters)
    - s - r for OVERLINE.  Generation inserts signs into the gaps of every
    underlying sequence; the start-or-after-a-letter condition is built
    into the gap encoding, the descent conditions restrict which gaps may
    or must hold a '+'.
    """
    if (n is None) == (rho is None):
        raise ValueError("pass exactly one of n and rho")
    if n is not None:
        if n > limit:
            raise CapExceededError(f"configuration enumeration capped at n <= {limit}")
        seqs = all_permutations(n)
        length = n
        top_letters = len(tops.restrict(n))
    else:
        length = sum(rho)
        if length > limit:
            raise CapExceededError(f"configuration enumeration capped at n <= {limit}")
        seqs = enumerate_rearrangements(rho)
        top_letters = sum(
            rho[x - 1] for x in range(1, len(rho) + 1) if x in tops
        )
    n_minus = _minus_count(flavor, top_letters, s, r)
    if n_minus < 0 or r < 0:
        return []
    out = []
    for seq in seqs:
        req = _required_gaps(seq, flavor, tops, bottoms)
        for minus_gaps, plus_by_gap in _sign_layouts(length + 1, r, n_minus, req):
            out.append(
                Configuration(
                    _assemble(seq, minus_gaps, plus_by_gap), flavor, tops, bottoms
                )
            )
    return out


def fixed_point_from_seq(seq, flavor: Flavor, tops, bottoms) -> Configuration:
    """The canonical fixed point carrying a given sequence.

    STANDARD: one '+' inside each matching descent pair.  OVERLINE: one
    '+' after every potential-top letter that is not a descent top.
    """
    n = len(seq)
    plus_gaps = _required_gap_set(tuple(seq), flavor, tops, bottoms)
    layout = [1 if g in plus_gaps else 0 for g in range(n + 1)]
    return Configuration(_assemble(seq, frozenset(), layout), flavor, tops, bottoms)


def staged_count(
    flavor: Flavor,
    s: int,
    r: int,
    tops: IntegerSet,
    bottoms: IntegerSet,
    n: int | None = None,
    rho: tuple[int, ...] | None = None,
) -> int:
    """Closed product count of configurations, from the staged construction
    (order the non-top letters, insert '+'s, insert top letters, insert
    '-'s): the r-th weight of the matching closed form times the ways to
    place the '-'s.  Cross-checked against direct enumeration in the tests."""
    if (n is None) == (rho is None):
        raise ValueError("pass exactly one of n and rho")
    second = flavor is Flavor.OVERLINE
    if n is not None:
        form = permutation_form(n, tops, bottoms, second)
    else:
        form = word_form(rho, tops, bottoms, second)
    n_minus = _minus_count(flavor, form.top_mass, s, r)
    if n_minus < 0 or r < 0:
        return 0
    return form.prefactor * form.weight(r) * binom(form.n + 1, n_minus)


def config_to_str(config: Configuration) -> str:
    """Serialize like `5+2-+46+13-`; letters above 9 force comma-separated
    letters, e.g. `11,3+2-`."""
    seq = config.sequence
    wide = bool(seq) and max(seq) > 9
    out = []
    prev_was_letter = False
    for it in config.items:
        if isinstance(it, int):
            if wide and prev_was_letter:
                out.append(",")
            out.append(str(it))
            prev_was_letter = True
        else:
            out.append(it)
            prev_was_letter = False
    return "".join(out)


def config_from_str(
    text: str, flavor: Flavor, tops: IntegerSet, bottoms: IntegerSet
) -> Configuration:
    """Inverse of config_to_str: digits are single letters unless the string
    contains commas, in which case runs of digits are whole letters."""
    wide = "," in text
    items: list = []
    num = ""

    def flush():
        nonlocal num
        if num:
            items.append(int(num))
            num = ""

    for ch in text:
        if ch.isdigit():
            num += ch
            if not wide:
                flush()
        elif ch == ",":
            flush()
        elif ch in (PLUS, MINUS):
            flush()
            items.append(ch)
        else:
            raise ValueError(f"bad character {ch!r} in configuration")
    flush()
    config = Configuration(tuple(items), flavor, tops, bottoms)
    if not _conditions_hold(config.items, flavor, tops, bottoms):
        raise MalformedConfigurationError(text)
    return config
