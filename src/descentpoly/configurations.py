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

Both rules act gap by gap: gap g (0..len(sequence)) holds the signs between
letter g and letter g + 1.  Since a '-' may only open its gap, a legal array
is its sequence plus a sign layout: the gaps that open with a '-' and the
number of '+'s in each gap.  A configuration is stored as two references: a
frame, the tuple (sequence, flavor, tops, bottoms) that every configuration
of one sequence shares, and a layout object, which configurations with the
same layout and required gaps share.  Item tuples are built when read, and
the constructor refuses an illegal array, so every configuration is legal.
The layout keeps the involution's image of that layout once it is computed,
and an image shares its source's frame; a sweep can check the involution on
layouts alone.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import combinations

from .perms import InputError, check_size
from .polynomials import binom
from .sets import IntegerSet
from .stats import CapExceededError, DescentQuery
from .words import _check_rho, enumerate_rearrangements, word_form

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
CONFIG_CAP = 8  # letters in an enumerated configuration's sequence


class Flavor(enum.Enum):
    STANDARD = "standard"
    OVERLINE = "overline"


class MalformedConfigurationError(InputError):
    pass


_new = object.__new__


class _Layout:
    """A sign layout and its required gaps (see `Configuration`), shared by
    every configuration that carries it, interned by `_layout`.  `image`, the
    involution's one memo, is None until `_image` first flips a legal
    layout: then it is the interned layout that `_flip` maps this one to, or
    the layout itself at a fixed point.
    """

    __slots__ = ("minus_mask", "plus_by_gap", "required_mask", "minus_count", "image")

    def __init__(self, minus_mask, plus_by_gap, required_mask, minus_count):
        self.minus_mask = minus_mask
        self.plus_by_gap = plus_by_gap
        self.required_mask = required_mask
        self.minus_count = minus_count
        self.image = None


@lru_cache(maxsize=1 << 16)
def _layout(minus_mask: int, plus_by_gap: tuple, required_mask: int) -> _Layout:
    """The shared layout object; the table is bounded, so an evicted layout
    lives on in its configurations and an equal one may be made again."""
    return _Layout(minus_mask, plus_by_gap, required_mask, minus_mask.bit_count())


class Configuration:
    """An array of letters and signs, held as a frame and a sign layout.

    `Configuration(items, flavor, tops, bottoms)` parses an item tuple (ints
    and the strings '+' / '-').  The frame is the tuple (sequence, flavor,
    tops, bottoms), read through the four properties of those names; every
    configuration that `enumerate_configs` builds for one sequence, and each
    image `involution` builds from it, shares one frame object.  Bit g of
    `minus_mask` is set when gap g opens with a '-', `plus_by_gap[g]` counts
    the '+'s in gap g, and bit g of `required_mask` is set when the flavor's
    rules ask gap g for a '+'; all three are read off the layout, which
    configurations with the same signs in the same gaps share.  An illegal
    array, with a '-' that does not open its gap or a required gap without
    a '+', raises MalformedConfigurationError naming the array, and leaves
    nothing in the layout table.  Letters must be positive integers
    (InputError otherwise); whether they belong to the class, 1..n for S_n,
    is the caller's check, as in the CLI's `configs --trace`.

    Equality and hashing follow the values, whether or not two frames or two
    layouts are the same object.  Treat instances as frozen: after
    construction only the shared layout's `image` is written, once.
    """

    __slots__ = ("_frame", "_layout")

    def __init__(self, items, flavor: Flavor, tops: IntegerSet, bottoms: IntegerSet):
        items = tuple(items)
        seq = tuple(it for it in items if isinstance(it, int))
        if seq and min(seq) < 1:
            raise InputError(f"bad letter {min(seq)!r} in configuration")
        plus = [0] * (len(seq) + 1)
        minus_mask = 0
        gap = 0
        opens_gap = True
        for it in items:
            if isinstance(it, int):
                gap += 1
                opens_gap = True
                continue
            if it == PLUS:
                plus[gap] += 1
            elif it != MINUS:
                raise InputError(f"bad item {it!r} in configuration")
            elif opens_gap and minus_mask is not None:
                minus_mask |= 1 << gap
            else:
                minus_mask = None
            opens_gap = False
        if minus_mask is not None:
            # checked on the counts, so a refused array interns no layout
            required = _required_mask(seq, flavor, tops, bottoms)
            unmet = any(not count and required >> g & 1 for g, count in enumerate(plus))
        if minus_mask is None or unmet:
            raise MalformedConfigurationError(_written(items))
        self._frame = (seq, flavor, tops, bottoms)
        self._layout = _layout(minus_mask, tuple(plus), required)

    @property
    def sequence(self) -> tuple:
        return self._frame[0]

    @property
    def flavor(self) -> Flavor:
        return self._frame[1]

    @property
    def tops(self) -> IntegerSet:
        return self._frame[2]

    @property
    def bottoms(self) -> IntegerSet:
        return self._frame[3]

    @property
    def minus_mask(self) -> int:
        return self._layout.minus_mask

    @property
    def plus_by_gap(self) -> tuple:
        return self._layout.plus_by_gap

    @property
    def required_mask(self) -> int:
        return self._layout.required_mask

    @property
    def items(self) -> tuple:
        layout = self._layout
        return _assemble(self._frame[0], layout.minus_mask, layout.plus_by_gap)

    @property
    def plus_count(self) -> int:
        return sum(self._layout.plus_by_gap)

    @property
    def minus_count(self) -> int:
        return self._layout.minus_count

    @property
    def sign(self) -> int:
        return -1 if self._layout.minus_count & 1 else 1

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        a, b = self._frame, other._frame
        return _same(self._layout, other._layout) and (a is b or a == b)

    def __hash__(self) -> int:
        layout = self._layout
        return hash((self._frame, layout.minus_mask, layout.plus_by_gap))

    def __repr__(self) -> str:
        return (
            f"Configuration(items={self.items!r}, flavor={self.flavor!r}, "
            f"tops={self.tops!r}, bottoms={self.bottoms!r})"
        )

    def __str__(self) -> str:
        return config_to_str(self)


def _layout_config(seq, layout, flavor, tops, bottoms):
    """A configuration straight from a legal sign layout, skipping the parse."""
    config = _new(Configuration)
    config._frame = (seq, flavor, tops, bottoms)
    config._layout = layout
    return config


def _same(a: _Layout, b: _Layout) -> bool:
    """Equal signs in equal gaps, whether or not the layouts are one object."""
    return a is b or a.minus_mask == b.minus_mask and a.plus_by_gap == b.plus_by_gap


def _flip(minus_mask: int, plus_by_gap: tuple, required_mask: int):
    """The involution on a sign layout: None when a required gap lacks a
    '+', () at a fixed point, otherwise the flipped (minus_mask, plus_by_gap).

    Legality and the image depend on the layout alone, not on the letters,
    the flavor or the sets, so `_image` keeps the answer on the layout.
    """
    for gap, count in enumerate(plus_by_gap):
        if not count and required_mask >> gap & 1:
            return None
    for gap, count in enumerate(plus_by_gap):
        bit = 1 << gap
        if minus_mask & bit:
            count += 1
        elif count > 1 or (count and not required_mask & bit):
            count -= 1
        else:
            continue
        flipped = list(plus_by_gap)
        flipped[gap] = count
        return minus_mask ^ bit, tuple(flipped)
    return ()


def _image(layout: _Layout):
    """The interned layout the involution maps this one to (itself at a fixed
    point), flipped once and kept; None when the layout is illegal."""
    image = layout.image
    if image is None:
        required = layout.required_mask
        flipped = _flip(layout.minus_mask, layout.plus_by_gap, required)
        if flipped is not None:
            image = layout.image = _layout(*flipped, required) if flipped else layout
    return image


def involution(config: Configuration) -> Configuration:
    """Flip the first reversible sign; identity on fixed points.

    Legality only constrains where a '-' may sit and which gaps must keep
    a '+', so whether a sign can flip is a local question: a '-' can always
    become a '+'; a '+' can become a '-' exactly when it opens its gap (a
    second '-' in a gap would trail a sign) and its gap either is not a
    required-plus gap or holds another '+'.  On the layout, the first
    flippable sign leads the first gap that opens with a '-', holds two
    '+'s, or holds an unrequired '+'; `_image` finds it once per layout.
    A configuration is legal, so its layout always has an image.  The
    image is a new configuration on the source's frame; nothing points it
    back to its source.
    """
    layout = config._layout
    image = layout.image or _image(layout)
    if image is layout:
        return config
    mapped = _new(Configuration)
    mapped._frame = config._frame
    mapped._layout = image
    return mapped


def _sign_layouts(n_gaps: int, n_plus: int, n_minus: int, required_mask: int):
    """All legal (minus_mask, plus_by_gap) placements of the signs.

    Gap g in 0..n_gaps-1; a gap holds at most one '-' (a second would
    trail a sign), placed before that gap's '+'s.  Gaps whose bit is set
    in required_mask must receive at least one '+'.
    """
    required = tuple(required_mask >> g & 1 for g in range(n_gaps))
    free = n_plus - sum(required)
    if free < 0:
        return []
    minus_masks = [
        sum(1 << g for g in gaps) for gaps in combinations(range(n_gaps), n_minus)
    ]
    # stars and bars: n_gaps - 1 bars among the free '+'s cut them into gaps
    slots = free + n_gaps - 1
    plus_layouts = [
        tuple(b - a - 1 + r for a, b, r in zip((-1, *bars), (*bars, slots), required))
        for bars in combinations(range(slots), n_gaps - 1)
    ]
    return [(minus, plus) for minus in minus_masks for plus in plus_layouts]


def _assemble(seq, minus_mask, plus_by_gap):
    items = []
    for g in range(len(seq) + 1):
        if minus_mask >> g & 1:
            items.append(MINUS)
        items.extend([PLUS] * plus_by_gap[g])
        if g < len(seq):
            items.append(seq[g])
    return tuple(items)


@lru_cache(maxsize=1 << 16)
def _required_mask(seq, flavor: Flavor, tops, bottoms) -> int:
    """Gaps (0..len(seq)) that must contain a '+', from the letters alone,
    as a bit mask; gap g follows letter g.

    STANDARD: the gap inside each matching descent pair.  OVERLINE: the gap
    after each potential-top letter that is not a matching descent top,
    including the final gap when the last letter is a potential top.
    """
    matches = DescentQuery(tops, bottoms).matches
    standard = flavor is Flavor.STANDARD
    req = 0
    for gap, letter in enumerate(seq, 1):
        descent = gap < len(seq) and matches(letter, seq[gap])
        req |= (descent if standard else letter in tops and not descent) << gap
    return req


def _minus_count(flavor: Flavor, seq_len_in_tops: int, s: int, r: int) -> int:
    """The number of '-'s; InputError names s or r when it is negative."""
    for name, value in (("s", s), ("r", r)):
        if value < 0:
            raise InputError(f"{name} must be >= 0, got {value}")
    if flavor is Flavor.STANDARD:
        return s - r
    return seq_len_in_tops - s - r


def _composition(n: int | None, rho) -> tuple[int, ...]:
    """The word class to walk: rho, or 1^n for S_n."""
    if (n is None) == (rho is None):
        raise InputError("pass exactly one of n and rho")
    return (1,) * check_size(n) if rho is None else _check_rho(rho)


def enumerate_configs(
    flavor: Flavor,
    s: int,
    r: int,
    tops: IntegerSet,
    bottoms: IntegerSet,
    n: int | None = None,
    rho: tuple[int, ...] | None = None,
) -> list[Configuration]:
    """All legal configurations with r '+'s over S_n or over R(rho).

    The number of '-'s is s - r for STANDARD and (#potential-top letters)
    - s - r for OVERLINE.  Generation inserts signs into the gaps of every
    underlying sequence; the start-or-after-a-letter condition is built
    into the gap encoding, the descent conditions restrict which gaps may
    or must hold a '+'.  Sequences with the same required-plus gaps share
    one list of sign layouts.
    """
    configs = []
    append = configs.append
    for seq, layouts in _layouts_by_sequence(flavor, s, r, tops, bottoms, n, rho):
        frame = (seq, flavor, tops, bottoms)
        for layout in layouts:
            config = _new(Configuration)
            config._frame = frame
            config._layout = layout
            append(config)
    return configs


def _layouts_by_sequence(flavor, s, r, tops, bottoms, n=None, rho=None):
    """`enumerate_configs` one sequence at a time, as (sequence, interned
    layouts) pairs in the same order, without building configurations."""
    rho = _composition(n, rho)
    top_letters = sum(part for x, part in enumerate(rho, 1) if x in tops)
    n_minus = _minus_count(flavor, top_letters, s, r)
    length = sum(rho)
    if length > CONFIG_CAP:
        raise CapExceededError(f"configuration enumeration capped at n <= {CONFIG_CAP}")
    if n_minus < 0:
        return
    layouts_by_required = {}
    for seq in enumerate_rearrangements(rho):
        required = _required_mask(seq, flavor, tops, bottoms)
        layouts = layouts_by_required.get(required)
        if layouts is None:
            layouts = [
                _layout(minus, plus, required)
                for minus, plus in _sign_layouts(length + 1, r, n_minus, required)
            ]
            layouts_by_required[required] = layouts
        yield seq, layouts


def fixed_point_from_seq(seq, flavor: Flavor, tops, bottoms) -> Configuration:
    """The canonical fixed point carrying a given sequence.

    STANDARD: one '+' inside each matching descent pair.  OVERLINE: one
    '+' after every potential-top letter that is not a descent top.
    """
    seq = tuple(seq)
    required = _required_mask(seq, flavor, tops, bottoms)
    plus = tuple(required >> g & 1 for g in range(len(seq) + 1))
    return _layout_config(seq, _layout(0, plus, required), flavor, tops, bottoms)


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
    form = word_form(_composition(n, rho), tops, bottoms, flavor is Flavor.OVERLINE)
    n_minus = _minus_count(flavor, form.top_mass, s, r)
    if n_minus < 0:
        return 0
    return form.prefactor * form.weight(r) * binom(form.n + 1, n_minus)


def _written(items) -> str:
    """The items as config_to_str writes them, without its round-trip check."""
    wide = any(isinstance(it, int) and it > 9 for it in items)
    out = []
    prev_was_letter = False
    for it in items:
        if isinstance(it, int):
            if wide and prev_was_letter:
                out.append(",")
            out.append(str(it))
            prev_was_letter = True
        else:
            out.append(it)
            prev_was_letter = False
    return "".join(out)


def config_to_str(config: Configuration) -> str:
    """Serialize like `5+2-+46+13-`; letters above 9 force comma-separated
    letters, e.g. `11,3+2-`.  Only a comma between two adjacent letters
    marks that format, so a letter above 9 with no two letters adjacent
    raises InputError: `(11, '+', 3)` would read back as 1, 1, 3."""
    text = _written(config.items)
    if "," not in text and max(config.sequence, default=0) > 9:
        raise InputError(
            f"configuration {config.items} has a letter above 9 and no two "
            "adjacent letters, so no string reads back as it"
        )
    return text


def config_from_str(
    text: str, flavor: Flavor, tops: IntegerSet, bottoms: IntegerSet
) -> Configuration:
    """Inverse of config_to_str: digits 0-9 are single letters unless the
    string contains commas, in which case runs of digits are whole letters
    and each comma sits between two of them.  So a string without a comma
    has no letter above 9, and config_to_str refuses to write one that
    should.  A letter 0, an empty field or any other character raises
    InputError; whether the letters form a sequence of the class (1..n for
    S_n) is the caller's check."""
    wide = "," in text
    items: list = []
    num = ""

    def flush():
        nonlocal num
        if num:
            items.append(int(num))
            num = ""

    for i, ch in enumerate(text):
        if "0" <= ch <= "9":
            num += ch
            if not wide:
                flush()
        elif ch == ",":
            if not num or not "0" <= text[i + 1 : i + 2] <= "9":
                raise InputError(
                    f"empty letter next to ',' at {i} in configuration {text!r}"
                )
            flush()
        elif ch in (PLUS, MINUS):
            flush()
            items.append(ch)
        else:
            raise InputError(f"bad character {ch!r} in configuration")
    flush()
    try:
        return Configuration(items, flavor, tops, bottoms)
    except MalformedConfigurationError:
        raise MalformedConfigurationError(text) from None  # as written, commas too
