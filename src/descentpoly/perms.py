"""Permutations in one-line notation, represented as tuples of 1..n."""

from __future__ import annotations

from itertools import permutations

__all__ = [
    "InputError",
    "VerificationError",
    "check_size",
    "check_permutation",
    "check_composition",
    "cycles",
    "from_cycles",
    "all_permutations",
    "parse_int",
    "parse_permutation",
    "format_permutation",
]


class InputError(ValueError):
    """Input that names no valid object: a size, permutation, set,
    composition or configuration.  The CLI reports it as a usage error."""


class VerificationError(AssertionError):
    """Two routes disagree on a case; `payload` names the case.  It lives
    here, not in `verify`, so the CLI can catch it without importing the
    sweeps (and numpy) on commands that run none.  The CLI exits 1."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


def check_size(n: int, name: str = "n") -> int:
    """n itself when it can be a size; InputError naming ``name`` when n < 0."""
    if n < 0:
        raise InputError(f"{name} must be >= 0, got {n}")
    return n


def parse_int(token: str, context: str) -> int:
    """int(token), or InputError naming the token and the text it came from."""
    try:
        return int(token)
    except ValueError:
        msg = f"cannot parse {context}: {token!r} is not an integer"
        raise InputError(msg) from None


def check_permutation(values) -> tuple[int, ...]:
    p = tuple(values)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise InputError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def check_composition(rho) -> tuple[int, ...]:
    """rho as a tuple when it can be a composition; InputError otherwise."""
    rho = tuple(rho)
    if min(rho, default=0) < 0:
        raise InputError(f"composition parts must be >= 0: {rho}")
    return rho


def cycles(p: tuple[int, ...]) -> list[list[int]]:
    """Cycle decomposition; each cycle starts at its smallest unvisited point."""
    n = len(p)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = p[cur - 1]
        out.append(cyc)
    return out


def from_cycles(cycs, n: int) -> tuple[int, ...]:
    vals = [0] * n
    for cyc in cycs:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= n:
                raise InputError(f"cycle letter {a!r} is not in 1..{n}")
            vals[a - 1] = b
    for i, v in enumerate(vals):
        if v == 0:
            vals[i] = i + 1
    return check_permutation(vals)


def all_permutations(n: int):
    return permutations(range(1, n + 1))


def parse_permutation(text: str) -> tuple[int, ...]:
    """Accepts `61437258` (single digits) or a comma list `6,1,4,3,7,2,5,8`."""
    text = text.strip()
    tokens = text.split(",") if "," in text else text
    context = f"permutation {text!r}"
    return check_permutation(parse_int(tok, context) for tok in tokens)


def format_permutation(p: tuple[int, ...]) -> str:
    if p and max(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)
