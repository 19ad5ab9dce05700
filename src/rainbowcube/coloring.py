"""Edge-color assignment schemes for Q_n and color counting.

A color is a pair (d, p): an arithmetic component and a level congruence
class. The two schemes:

* ``construction1`` targets cycle lengths divisible by 4. With a B_t set
  S (t = k/4 - 1) aligned to the directions and M = (k/4) * max(S) + 1,
  an edge with bottom v and direction j on level p gets
  (a(v) + M * j, p mod k/2), where a(v) sums the S entries over the set
  bits of v. The d component is an unbounded integer.

* ``construction2`` targets 6-cycles. With a 3-AP-free set S inside
  [1, N], the edge gets ((a(v) + 2 * s_j) mod 2N, p mod 3), so at most
  6N colors appear.

Scheme colorings are recomputed from their parameters, whose formulas
``EdgeColoring._form`` writes once and ``EdgeColoring._bottoms`` applies to
every edge, a bottom at a time, and are counted on bitsets of reachable
sums (``_count_bits``); explicit colorings carry a full table, whose keys
``EdgeColoring`` checks once, when it is built.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import log2
from typing import Iterator, Union

from .addsets import _check_positive_int, behrend_set, verify_3ap_free, verify_bt
from .errors import BudgetError, UsageError
from .hypercube import Edge, validate_edge, _check_dim

Color = tuple[int, int]

SCHEMES = ("construction1", "construction2", "explicit")
TABLE_DIM_LIMIT = 18
# Largest N that derive_c2_params gives construction2: behrend_set(2^20) takes
# about a millisecond, and the c2 color count's bitsets stay at 2^21 bits.
C2_CAP_LIMIT = 1 << 20
# count_colors runs _count_bits on bitsets of at most 2^min(n + COUNT_BITS_LEAD,
# COUNT_BITS_LOG_LIMIT) bits (512 KiB per int at 2^22), else the walk over the
# n 2^(n-1) edges: on Python 3.11, 2 vCPUs, the two cost the same at 2^(n+7) bits
# in construction2 (n = 8, 10), 2^(n+8) to 2^(n+10) in construction1 (n = 10..14).
COUNT_BITS_LEAD = 7
COUNT_BITS_LOG_LIMIT = 22
# Decimal order of magnitude (Decimal.adjusted()) beyond which an eps is
# refused before Fraction reads it: Fraction("1e1000000") builds a
# million-digit power of ten (0.13 s, and 12.9 s for 1e10000000). 10^1000 is
# far past any eps that yields N.
EPS_EXPONENT_LIMIT = 1000


class EdgeColoring:
    """Total assignment of colors to the edges of Q_n.

    ``scheme`` is one of "construction1", "construction2" or "explicit".
    Scheme colorings compute colors on demand from ``params``; explicit
    colorings carry a table keyed by ``Edge.key()``, checked once here: it
    must hold n 2^(n-1) keys, each the key of an edge of Q_n, and that many
    distinct edges are all of them.
    """

    __slots__ = ("n", "k", "scheme", "params", "_table")

    def __init__(self, n, k, scheme, params=None, table=None):
        _check_dim(n)
        if scheme not in SCHEMES:
            raise UsageError(f"unknown scheme {scheme!r}")
        if scheme == "explicit":
            if table is None:
                raise UsageError("explicit coloring needs a color table")
            table = dict(table)
            expected = n << n - 1
            if len(table) != expected:
                raise UsageError(
                    f"coloring has {len(table)} edge keys, Q_{n} has {expected} edges"
                )
            bottoms = 1 << n
            for key in table:  # edge_key, read inline: bottom << 5 | dir - 1
                if (
                    type(key) is not int
                    or key < 0
                    or key & 31 >= n
                    or key >> 5 >= bottoms
                    or key >> 5 >> (key & 31) & 1
                ):
                    shown = (  # hex: a decimal str() of a huge int may raise
                        f"{key:#x} (bottom {key >> 5:#x}, dir {(key & 31) + 1})"
                        if type(key) is int
                        else repr(key)
                    )
                    raise UsageError(f"edge key {shown} is not an edge of Q_{n}")
        elif table is not None:
            raise UsageError("scheme colorings are recomputed, not tabulated")
        self.n = n
        self.k = k
        self.scheme = scheme
        self.params = dict(params or {})
        self._table = table

    def color_of(self, e: Edge) -> Color:
        validate_edge(self.n, e)
        if self._table is not None:
            return self._table[e.key()]
        s, offsets, mod, levels = self._form()
        a = weight_a(e.bottom, s) + offsets[e.dir - 1]
        return a % mod if mod else a, (e.bottom.bit_count() + 1) % levels

    def items(self) -> Iterator[tuple[Edge, Color]]:
        """(edge, color) pairs in enumeration order, streamed."""
        for bottom, d, color in self._rows():
            yield Edge(bottom, d), color

    def _form(self) -> tuple[tuple[int, ...], list[int], int, int]:
        """A scheme as (S, offsets, mod, levels): the edge with bottom v and
        direction j gets the color (a(v) + offsets[j - 1], (|v| + 1) mod
        levels), its first part reduced mod ``mod`` unless that is 0, with
        a(v) the sum of S over the set bits of v. The offset is M * j in
        construction1, 2 * s_j in construction2."""
        n, s = self.n, self.params["S"][: self.n]
        if self.scheme == "construction1":
            return s, [self.params["M"] * j for j in range(1, n + 1)], 0, self.k // 2
        return s, [2 * x for x in s], 2 * self.params["N"], 3

    def _rows(self) -> Iterator[tuple[int, int, Color]]:
        """(bottom, direction, color) of every edge, bottom ascending, then
        direction: the order of ``sorted(key_table())``. An explicit table
        is read in sorted key order; a scheme's colors come from
        ``_bottoms``."""
        table = self._table
        if table is not None:
            for key in sorted(table):
                yield key >> 5, (key & 31) + 1, table[key]
            return
        for bottom, dirs, firsts, level in self._bottoms(range(1, self.n + 1)):
            for d, c in zip(dirs, firsts):
                yield bottom, d, (c, level)

    def _bottoms(self, tags) -> Iterator[tuple[int, list, list[int], int]]:
        """A scheme's edges grouped by bottom, bottoms ascending, skipping
        the all-ones bottom, which has none: (v, the tags of the directions
        free at v, ascending, the first color parts of their edges in the
        same order, the level part they share). ``tags`` holds one value
        per direction, 1 to n, for the caller to name them by.

        This is where ``_form``'s formula is applied to every edge, once
        per bottom. Split v = hi << h | lo, h = n // 2: the free tags and
        offsets of v are those of lo, then those of hi, and a(v) = a(lo) +
        a(hi << h), so tables of 2^h and 2^(n - h) entries serve all 2^n
        bottoms."""
        s, offsets, mod, levels = self._form()
        n = self.n
        h = n // 2
        low = _free_parts(tags[:h], offsets[:h], s[:h])
        high = _free_parts(tags[h:], offsets[h:], s[h:])
        level_of = [(n - free + 1) % levels for free in range(n + 1)]
        for hi, (hi_tags, hi_offs, hi_a) in enumerate(high):
            base = hi << h
            for lo, (lo_tags, lo_offs, lo_a) in enumerate(low):
                offs = lo_offs + hi_offs
                if offs:
                    a = lo_a + hi_a
                    if mod:
                        firsts = [(a + off) % mod for off in offs]
                    else:
                        firsts = [a + off for off in offs]
                    yield base | lo, lo_tags + hi_tags, firsts, level_of[len(offs)]

    def key_table(self) -> dict[int, Color]:
        """Full table keyed by Edge.key(): a copy of an explicit table, or a
        scheme's colors, refused above TABLE_DIM_LIMIT."""
        if self._table is not None:
            return dict(self._table)
        if self.n > TABLE_DIM_LIMIT:
            raise BudgetError(
                f"refusing to materialize a color table for n={self.n}", kind="class"
            )
        # edge_key, inline: the tags are the directions less one
        return {
            bottom << 5 | tag: (c, level)
            for bottom, tags, firsts, level in self._bottoms(range(self.n))
            for tag, c in zip(tags, firsts)
        }


def weight_a(v: int, s) -> int:
    """Sum of s_i over the set bits i of v (1-based alignment)."""
    if v < 0:
        raise UsageError(f"vertex must be >= 0, got {v}")
    if v >> len(s):
        raise UsageError(f"vertex {v:#x} has bits beyond the {len(s)} set elements")
    total = 0
    i = 0
    while v:
        if v & 1:
            total += s[i]
        v >>= 1
        i += 1
    return total


def _free_parts(tags, offsets, s) -> list[tuple[list, list[int], int]]:
    """For each mask m on len(s) bits, ascending: the tags and the offsets
    at the clear bits of m, and a(m), the sum of s over its set bits. The
    masks below 2^(i + 1) are those below 2^i with bit i clear, then with
    bit i set."""
    parts: list[tuple[list, list[int], int]] = [([], [], 0)]
    for tag, off, x in zip(tags, offsets, s):
        parts = [(t + [tag], o + [off], a) for t, o, a in parts] + [
            (t, o, a + x) for t, o, a in parts
        ]
    return parts


def _checked_set(s, n: int) -> tuple[int, ...]:
    out = tuple(sorted(s))
    if len(out) < n:
        raise UsageError(f"set has {len(out)} elements, need at least n = {n}")
    return out[:n]


def construction1(n: int, k: int, s) -> EdgeColoring:
    """Coloring from a B_t set for cycle length k = 0 mod 4, k >= 8."""
    _check_dim(n)
    if not isinstance(k, int) or k % 4 or k < 8:
        raise UsageError(f"cycle length must be divisible by 4 and >= 8, got {k!r}")
    used = _checked_set(s, n)
    t = k // 4 - 1
    ok, witness = verify_bt(used, t)
    if not ok:
        raise UsageError(f"set is not B_{t}: {witness[0]} and {witness[1]} share a sum")
    m = (k // 4) * used[-1] + 1
    return EdgeColoring(n, k, "construction1", {"S": used, "M": m})


def construction2(n: int, s, cap: int) -> EdgeColoring:
    """Coloring from a 3-AP-free subset of [1, cap], for 6-cycles."""
    _check_dim(n)
    used = _checked_set(s, n)
    _check_positive_int("cap", cap)
    if used[-1] > cap:
        raise UsageError(f"max element {used[-1]} exceeds the cap {cap}")
    ok, witness = verify_3ap_free(used)
    if not ok:
        raise UsageError(f"set has the 3-term progression {witness}")
    return EdgeColoring(n, 6, "construction2", {"S": used, "N": cap})


def _iroot(value: int, degree: int) -> int:
    """Floor of the degree-th root of a nonnegative int, in integers only.

    Newton's iteration from a power of two above the root decreases
    monotonically until it reaches the floor.
    """
    bits = value.bit_length()
    if value < 2 or degree == 1:
        return value
    if degree >= bits:
        return 1
    root = 1 << -(-bits // degree)
    while True:
        nxt = ((degree - 1) * root + value // root ** (degree - 1)) // degree
        if nxt >= root:
            return root
        root = nxt


def _ceil_power(n: int, expo: Fraction) -> int:
    """ceil(n^expo) for an int n >= 1 and a rational expo = p/q > 1 whose
    power is at most about 2^21.

    n^(p/q) is an integer exactly when n is a perfect q-th power, and
    irrational otherwise. An irrational power is placed between two
    integers by decimal logarithms at rising precision, so no power with
    q in its exponent is ever built.
    """
    p, q = expo.numerator, expo.denominator
    root = _iroot(n, q)
    if root**q == n:
        return root**p
    prec = 32
    while prec <= 1024:
        with localcontext() as ctx:
            ctx.prec = prec
            try:
                x = (Decimal(n).ln() * p / q).exp()
            except ArithmeticError:  # decimal.Overflow: p or q is past the Emax
                break
            # ln, the product, the quotient and exp are each correctly
            # rounded and the exponent is below 15, so x is within a
            # relative 10^(3 - prec) of the power; the slack is 1000 times that
            slack = x.scaleb(6 - prec)
            # n^expo > n as expo > 1, which settles an eps too small to resolve
            low, high = max(int(x - slack), n), int(x + slack)
        if low == high:
            return low + 1
        prec *= 2
    raise BudgetError(
        f"cannot tell which integers n^(1+eps) lies between for n={n}", kind="class"
    )


def derive_c2_params(n: int, eps: Union[Fraction, int, float, str]):
    """Pick (S, N) for construction2: N = ceil(n^(1+eps)), S generated.

    The exponent is handled as an exact rational so the ceiling is exact
    at integer boundaries. N above C2_CAP_LIMIT is refused as a class
    error, decided from a log estimate before any large power is built.
    Fails with guidance when the generator cannot produce n
    progression-free elements below N. Accepts any positive n; the
    cube-model dimension cap only applies once a coloring is built. A
    text is read once: a ratio "p/q" by Fraction, any other text by
    Decimal, in every spelling Python reads (underscores, Unicode digits,
    surrounding whitespace). A decimal whose order of magnitude is past
    EPS_EXPONENT_LIMIT is refused by its sign and order alone.
    """
    _check_positive_int("n", n)
    # a text is echoed as given: str() of the Fraction may pass Python's
    # 4,300-digit limit for int-to-str conversion
    given = eps.strip() if isinstance(eps, str) else eps
    try:
        # Decimal reads a decimal text once; a ratio p/q, which it does not
        # read, goes to Fraction as written
        if isinstance(eps, str) and "/" not in eps:
            eps = Decimal(eps)
        # 10^order <= |eps| < 10^(order + 1): past the limit the sign and
        # the order decide, before Fraction builds the power of ten
        order = eps.adjusted() if isinstance(eps, Decimal) and eps.is_finite() else 0
        if abs(order) <= EPS_EXPONENT_LIMIT:
            eps = Fraction(eps)
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise UsageError(f"eps must be a rational number, got {given!r}") from exc
    if eps <= 0:
        raise UsageError(f"eps must be positive, got {given}")
    if order < -EPS_EXPONENT_LIMIT:
        raise UsageError(
            f"eps has a decimal exponent below -{EPS_EXPONENT_LIMIT}; "
            f"retry with a larger eps"
        )
    if order > EPS_EXPONENT_LIMIT:
        raise BudgetError(
            f"eps has a decimal exponent above {EPS_EXPONENT_LIMIT}", kind="class"
        )
    expo = 1 + eps
    # log2 of the cap is expo * log2(n); past 21 the cap is surely too large
    # and its exact value is not worked out
    fits = n == 1 or (expo <= 21 and float(expo) * log2(n) <= 21)
    cap = _ceil_power(n, expo) if fits else None
    if cap is None or cap > C2_CAP_LIMIT:
        raise BudgetError(
            f"N = ceil(n^(1+eps)) for n={n} exceeds the limit {C2_CAP_LIMIT}",
            kind="class",
        )
    full = behrend_set(cap)
    if len(full) < n:
        raise UsageError(
            f"only {len(full)} progression-free elements found below {cap}; "
            f"retry with a larger eps"
        )
    return full[:n], cap, eps


def count_colors(coloring: EdgeColoring) -> int:
    """Number of distinct colors in the image of the coloring.

    A scheme coloring is counted by ``_count_bits`` when its bitsets hold
    at most 2^min(n + COUNT_BITS_LEAD, COUNT_BITS_LOG_LIMIT) bits, else by
    walking its edges, which keeps up to one int per edge, as a color
    table does, and so is refused above n = TABLE_DIM_LIMIT."""
    if coloring._table is not None:
        return len(set(coloring._table.values()))
    n, (s, offsets, mod, levels) = coloring.n, coloring._form()
    top = sum(s) + max(offsets) + 1  # no color sum reaches it: mod 2N is exact below
    width = min(top, mod or top)
    if width <= 1 << min(n + COUNT_BITS_LEAD, COUNT_BITS_LOG_LIMIT):
        return _count_bits(s, offsets, width, levels)
    if n > TABLE_DIM_LIMIT:
        raise BudgetError(f"refusing to walk {n << n - 1} edges", kind="class")
    # (a, p) as the one int a * levels + p, which is exact as 0 <= p < levels
    return len({a * levels + p for _, _, (a, p) in coloring._rows()})


def _count_bits(s, offsets, width: int, levels: int) -> int:
    """Distinct colors of a scheme from ``_form``: for each direction j,
    the pairs (a + offsets[j] mod width, (c + 1) mod levels) over the
    subsets of the other elements with sum a and size c. ``width`` is
    beyond every sum, or 2N in construction2 if that is smaller.

    One bitset of sums per size mod L, L = min(levels, n); adding an
    element rotates each by it, mod width, into the next size. For L = n <
    levels no size wraps: size n - 1 needs all n - 1 other elements, so
    its bitset is still empty when the last one moves it into size 0.
    """
    n, sizes = len(s), min(levels, len(s))
    full = (1 << width) - 1

    def rotate(bits: int, step: int) -> int:
        step %= width
        return (bits << step | bits >> width - step) & full

    colors = [0] * levels
    for j in range(n):
        reach = [1] + [0] * (sizes - 1)
        for i in range(n):
            if i != j:
                reach = [reach[c] | rotate(reach[c - 1], s[i]) for c in range(sizes)]
        for c in range(sizes):
            colors[(c + 1) % levels] |= rotate(reach[c], offsets[j])
    return sum(bits.bit_count() for bits in colors)
