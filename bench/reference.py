"""Reference answers the benchmark computes without the package.

Nothing here imports descentpoly.  Each function derives its answer from
first principles (a recurrence, a closed form, an own enumeration or an
elementary counting identity), so a wrong route in the package cannot
make its own check pass.
"""

from __future__ import annotations

from itertools import permutations, product
from math import comb, factorial, prod


class Mismatch(Exception):
    """An output disagrees with its reference; the payload says where."""

    def __init__(self, what: str, payload: dict):
        super().__init__(what)
        self.payload = {"check": what, **payload}


def expect(ok: bool, what: str, **payload):
    if not ok:
        raise Mismatch(what, payload)


# --- permutations ---------------------------------------------------------


def eulerian(n: int) -> list[int]:
    """A(n, k) for k = 0..n-1 by A(n,k) = (k+1)A(n-1,k) + (n-k)A(n-1,k-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return row


def even_tops(m: int) -> list[int]:
    """Descents with even tops in S_2m: (m!)^2 C(m, s)^2."""
    return [factorial(m) ** 2 * comb(m, s) ** 2 for s in range(m + 1)]


def insertion_poly(n: int, in_x, in_y) -> list[int]:
    """Descents with top in X and bottom in Y, by inserting 1, 2, ..., n.

    Inserting m+1 into a permutation of [m] with s matching descents and
    t letters outside Y: when m+1 is not in X it destroys a matching pair
    in s of the m+1 slots; when it is, it creates one in front of each of
    the m-t letters of Y except the s that already close a matching pair.
    """
    coeffs = [1]
    t = 0
    for m in range(n):
        new = [0] * (len(coeffs) + 1)
        for s, c in enumerate(coeffs):
            if not c:
                continue
            if in_x(m + 1):
                new[s] += c * (s + t + 1)
                new[s + 1] += c * (m - s - t)
            else:
                if s:
                    new[s - 1] += c * s
                new[s] += c * (m + 1 - s)
        coeffs = new
        if not in_y(m + 1):
            t += 1
    return trim(coeffs)


def brute_poly(n: int, match) -> list[int]:
    """Walk S_n with itertools and count adjacent pairs (a, b) with match."""
    counts = [0] * n if n else [1]
    for p in permutations(range(1, n + 1)):
        counts[sum(1 for a, b in zip(p, p[1:]) if match(a, b))] += 1
    return trim(counts)


def hit_walk(n: int, cells: set) -> list[int]:
    """Hit numbers: placements omega_j = i counted by rooks (i, j) on cells."""
    counts = [0] * (n + 1)
    for omega in permutations(range(1, n + 1)):
        counts[sum(1 for j, i in enumerate(omega, 1) if (i, j) in cells)] += 1
    return trim(counts)


def board(n: int, match) -> list[tuple[int, int]]:
    return [(i, j) for i in range(2, n + 1) for j in range(1, i) if match(i, j)]


def is_ferrers(cells) -> bool:
    """True when the nonempty rows (cells sharing a top) nest into a chain."""
    rows: dict[int, set] = {}
    for i, j in cells:
        rows.setdefault(i, set()).add(j)
    chain = sorted(rows.values(), key=len)
    return all(a <= b for a, b in zip(chain, chain[1:]))


def check_moments(coeffs: list[int], n: int, cells) -> None:
    """Factorial moments of a descent polynomial from its board alone.

    sum C(k, j) h_k = r_j (n - j)! for j = 0, 1, 2, where r_1 counts the
    cells and r_2 the pairs of cells with distinct tops and bottoms: each
    such pair of adjacencies fits into exactly (n-2)! permutations.
    """
    expect(all(c >= 0 for c in coeffs), "coefficients are nonnegative")
    cells = list(cells)
    tops: dict[int, int] = {}
    bottoms: dict[int, int] = {}
    for i, j in cells:
        tops[i] = tops.get(i, 0) + 1
        bottoms[j] = bottoms.get(j, 0) + 1
    r1 = len(cells)
    r2 = (
        comb(r1, 2)
        - sum(comb(a, 2) for a in tops.values())
        - sum(comb(b, 2) for b in bottoms.values())
    )
    for j, rj in enumerate((1, r1, r2)):
        if j > n:
            break
        got = sum(comb(k, j) * c for k, c in enumerate(coeffs))
        expect(got == rj * factorial(n - j), f"factorial moment {j}",
               n=n, expected=str(rj * factorial(n - j)), got=str(got))


def mahonian(n: int) -> list[int]:
    """Coefficients of [n]_q! = prod_{m<=n} (1 + q + ... + q^(m-1))."""
    coeffs = [1]
    for m in range(1, n + 1):
        new = [0] * (len(coeffs) + m - 1)
        for e, c in enumerate(coeffs):
            for d in range(m):
                new[e + d] += c
        coeffs = new
    return coeffs


def trim(coeffs: list[int]) -> list[int]:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# --- words ----------------------------------------------------------------


def multinomial(rho) -> int:
    return factorial(sum(rho)) // prod(factorial(p) for p in rho)


def rearrangements(rho):
    """Distinct words with rho[v-1] copies of v, by own recursion."""
    rest = list(rho)
    word: list[int] = []

    def gen(left):
        if not left:
            yield tuple(word)
            return
        for v in range(1, len(rest) + 1):
            if rest[v - 1]:
                rest[v - 1] -= 1
                word.append(v)
                yield from gen(left - 1)
                word.pop()
                rest[v - 1] += 1

    yield from gen(sum(rho))


def word_brute(rho, match) -> list[int]:
    counts = [0] * (sum(rho) + 1)
    for w in rearrangements(rho):
        counts[sum(1 for a, b in zip(w, w[1:]) if match(a, b))] += 1
    return trim(counts)


def check_word_moments(coeffs: list[int], rho, match) -> None:
    """Coefficients sum to the multinomial M; sum k h_k = M sum rho_a rho_b / N.

    A fixed adjacency "a then b" sits at each of the N-1 positions of a
    uniform word with probability rho_a rho_b / (N (N-1)).
    """
    expect(all(c >= 0 for c in coeffs), "coefficients are nonnegative")
    total = multinomial(rho)
    expect(sum(coeffs) == total, "coefficients sum to the multinomial",
           expected=str(total), got=str(sum(coeffs)))
    m, n = len(rho), sum(rho)
    pairs = sum(
        rho[a - 1] * rho[b - 1]
        for a in range(2, m + 1) for b in range(1, a) if match(a, b)
    )
    got = sum(k * c for k, c in enumerate(coeffs))
    expect(got * n == total * pairs, "first moment of a word polynomial",
           expected=str(total * pairs // n), got=str(got))


# --- signed configurations ------------------------------------------------


def required_plus_gaps(seq, flavor: str, in_x, in_y) -> set:
    """Gaps (0 before the first letter, k after the k-th) that need a '+'.

    standard: the gap inside each matching descent; overline: the gap after
    each letter of X that does not open a matching descent, the last gap
    included.
    """
    req = set()
    for k in range(1, len(seq) + 1):
        a = seq[k - 1]
        nxt = seq[k] if k < len(seq) else None
        matching = nxt is not None and a > nxt and in_x(a) and in_y(nxt)
        if flavor == "standard" and matching:
            req.add(k)
        if flavor == "overline" and in_x(a) and not matching:
            req.add(k)
    return req


def minus_signs(flavor: str, n: int, in_x, s: int, r: int) -> int:
    if flavor == "standard":
        return s - r
    return sum(1 for v in range(1, n + 1) if in_x(v)) - s - r


def layout_count(n: int, required: int, n_minus: int, r: int) -> int:
    """Stars and bars: the '-'s take distinct gaps of the n+1, the r-required
    free '+'s spread over n+1 gaps."""
    if n_minus < 0 or r < required:
        return 0
    free = r - required
    return comb(n + 1, n_minus) * comb(free + n, n)


# --- sweep case counts ------------------------------------------------------


def formula_cases(max_n: int) -> int:
    """All (X, Y) subset pairs of [n] and all s in 0..n."""
    return sum(4**n * (n + 1) for n in range(1, max_n + 1))


def word_cases(max_n: int) -> int:
    """Compositions of n into m parts (C(n-1, m-1) of them), 4^m set pairs."""
    return sum(
        comb(n - 1, m - 1) * 4**m * (n + 1)
        for n in range(1, max_n + 1)
        for m in range(1, n + 1)
    )


def foata_cases(max_n: int, queries: int) -> int:
    return queries * sum(factorial(n) for n in range(1, max_n + 1))


def _poch_vanishes(x: int, length: int) -> bool:
    return x <= 0 and -x < length


def saalschutz_cases(top: int) -> int:
    """Grid points where both sides of Pfaff-Saalschutz are defined.

    The left side terminates at min(n, -a, -b) and is undefined when a
    denominator Pochhammer vanishes first; the right side needs
    (c)_n (c-a-b)_n to be nonzero.
    """
    count = 0
    for a in range(-top, 1):
        for b in range(-top, 1):
            for n in range(top + 1):
                last = min(n, -a, -b)
                for c in range(-2 * top, top + 1):
                    d = a + b - c - n + 1
                    if _poch_vanishes(c, last) or _poch_vanishes(d, last):
                        continue
                    if _poch_vanishes(c, n) or _poch_vanishes(c - a - b, n):
                        continue
                    count += 1
    return count


def hypergeom_cases(top: int) -> int:
    """The Saalschutz grid, the mod-(k+1) identity for k, m in {1, 2} at
    s = 0..km, and the balanced identity at s = 0..n for every profile with
    k in {1, 2} rows, offsets u weakly increasing in 0..3 and lengths v in
    1..3, where n = sum(v) + max(M, max(u+v) - u_1) and M = max(u+v-1)."""
    cor35 = sum(k * m + 1 for k in (1, 2) for m in (1, 2))
    balanced = 0
    for k in (1, 2):
        for u in product(range(4), repeat=k):
            if any(a > b for a, b in zip(u, u[1:])):
                continue
            for v in product(range(1, 4), repeat=k):
                ends = [a + b for a, b in zip(u, v)]
                n = sum(v) + max(max(ends) - 1, max(ends) - u[0])
                balanced += n + 1
    return saalschutz_cases(top) + cor35 + balanced
