"""Additive set constructions and predicates.

Covers B_t sets (all size-t multiset sums distinct), the Bose-Chowla
finite-field construction, progression-free sets (the base-3 digit set,
which no sphere shell beats in the supported range), the genus of a
linear equation, trivial-solution detection, and solution-free subset
search.

Integer sets are plain sorted tuples of distinct positive ints. Linear
equations are tuples of nonzero coefficients (a_1, ..., a_k) representing
a_1 x_1 + ... + a_k x_k = 0; an equation system is a nonempty sequence of
equations.

A solution-free subset is grown one candidate at a time from a kept set
with no nontrivial solution. A candidate c creates one exactly when some
sub-multiset of an equation's coefficients, with nonzero sum t, can sit
on c while the remaining positions are met from the kept set; so each
check is a few tests of t c against sums over the kept set, which are
formed once per kept set (the lemma and its proof are in the docstring
of ``equation_free_subset``). The budget counts the splits tested and
the sums formed. A greedy scan charges all its checks to one budget, so
its time and memory are bounded as a whole. The sets found, and every
``optimal`` flag, are those a scan over every assignment gives.
"""

from __future__ import annotations

import collections
import itertools
from typing import Iterator, Optional, Sequence

from .errors import BudgetError, InternalError, UsageError

MAX_EQUATION_ARITY = 12
DEFAULT_SOLUTION_NODES = 5_000_000
DEFAULT_SEARCH_NODES = 20_000_000
EXHAUSTIVE_LIMIT = 30
# Most elements, over all size-t multisets of the set, that verify_bt sums
# and whose sums greedy_bt collects
BT_SCAN_LIMIT = 10**6
GREEDY_LIMIT = 100_000
# greedy_bt charges a sieve rebuild one unit per shift and per
# 2^SIEVE_UNIT_BITS bits of the t-sum bitmask it shifts. With 2^11 the
# default budget stops t = 2, 3 and 4 further on, and in less time, than
# a scan of every candidate at one unit per sum tested (see README)
SIEVE_UNIT_BITS = 11
# Largest limit behrend_set accepts, at least C2_CAP_LIMIT (2^20), the most
# construction2 asks for. Up to it no sphere shell beats the digit set (see
# behrend_set). Building is cheap (1.2 ms at 2^22), but checking the result
# for 3-APs, as the sets command does, grows faster: 1.2 s at 2^22, 8.6 s
# at 10^7.
BEHREND_LIMIT = 1 << 22
# verify_3ap_free scans with bitsets when max(set) <= this factor times the set
# size. On progression-free sets of 64 to 2,048 elements (Python 3.11, one
# process) the bitsets win 1.4-2.5x at max/size ~ 512, and the pair loop
# takes over between about 730 and 1,000 (near 750 at 2,048 elements)
AP_BITSET_DENSITY = 512


def _check_positive_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise UsageError(f"{name} must be a positive int, got {value!r}")


def _as_intset(elems, what: str = "set") -> tuple[int, ...]:
    out = tuple(sorted(elems))
    if any(not isinstance(e, int) or isinstance(e, bool) for e in out):
        raise UsageError(f"{what} must contain ints")
    if out and out[0] < 1:
        raise UsageError(f"{what} must contain positive ints")
    if len(set(out)) != len(out):
        raise UsageError(f"{what} must not contain repeats")
    return out


def _as_equation(coeffs, what: str = "equation") -> tuple[int, ...]:
    eq = tuple(coeffs)
    if len(eq) < 2:
        raise UsageError(f"{what} needs at least two coefficients")
    if any(not isinstance(a, int) or isinstance(a, bool) or a == 0 for a in eq):
        raise UsageError(f"{what} coefficients must be nonzero ints")
    return eq


def _as_system(eqs) -> tuple[tuple[int, ...], ...]:
    sys_ = tuple(_as_equation(eq) for eq in eqs)
    if not sys_:
        raise UsageError("equation system must be nonempty")
    return sys_


# ---------------------------------------------------------------------------
# B_t sets


def _check_bt_scan(size: int, t: int) -> None:
    """Refuse, as a class error, B_t work over the size-t multisets of a
    set of ``size`` elements when they hold more than BT_SCAN_LIMIT
    elements in all: t * C(size + t - 1, t)."""
    # C(size + t - 1, r) as C(n - r + i, i) for i = 1..r, r = min(t, size - 1):
    # each step at least doubles, so the loop stops within ~20 steps
    r = min(t, size - 1)
    count = 1
    for i in range(1, r + 1):
        count = count * (size + t - 1 - r + i) // i
        if t * count > BT_SCAN_LIMIT:
            break
    if t * count > BT_SCAN_LIMIT:
        raise BudgetError(
            f"the size-{t} multisets of {size} elements hold more than "
            f"{BT_SCAN_LIMIT} elements",
            kind="class",
        )


def verify_bt(elems, t: int):
    """Check that all size-t multiset sums from the set are distinct.

    Returns (True, None) or (False, witness) where the witness is the
    lexicographically smallest pair of distinct size-t multisets with
    equal sums. Multisets of more than BT_SCAN_LIMIT elements in all are
    a class error.
    """
    s = _as_intset(elems)
    _check_positive_int("t", t)
    _check_bt_scan(len(s), t)
    first: dict[int, tuple[int, ...]] = {}
    best: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    for multi in itertools.combinations_with_replacement(s, t):
        total = sum(multi)
        prev = first.get(total)
        if prev is None:
            first[total] = multi
        elif best is None or (prev, multi) < best:
            best = (prev, multi)
    if best is None:
        return True, None
    return False, best


def greedy_bt(t: int, size: int) -> tuple[int, ...]:
    """Greedy B_t set: start at 1, append the smallest int keeping B_t.

    For t = 2 this is the Mian-Chowla sequence 1, 2, 4, 8, 13, ...
    A result whose size-t multisets hold more than BT_SCAN_LIMIT elements
    in all is a class error.

    A candidate c is scanned layer by layer: for r = 0, ..., t - 1 (r
    elements of the set, t - r copies of c) it forms the sums
    s + (t - r) c over the sums s of r-multisets of the set (``subs[r]``),
    and fails on a sum that is already a t-sum of the set (in ``full``) or
    that it formed before (in ``fresh``). Only the survivors of a sieve are
    scanned. After each accepted element the t-sums are kept as one int
    bitmask F, and the sieve is M = OR over s in ``subs[t - 1]`` of F >> s,
    read from the candidate after that element on. Bit c of M is set
    exactly when c + s is in F for some (t - 1)-multiset sum s. That sum
    is one the layer r = t - 1 scan forms from c and finds in ``full``, so
    the scan rejects every candidate the sieve skips. F and ``subs`` change
    only when an element is accepted, and M is rebuilt then, so the set
    found is the one a scan of every candidate finds. At t = 3 the 20
    elements take 22 survivors, out of about 11,000 candidates.

    The budget counts units: a survivor costs the sums it forms plus one,
    and a sieve rebuild, charged before it starts, 1 + w >> SIEVE_UNIT_BITS
    per shift, w the width in bits of F above the last element (the shifts
    cost time in proportion to it). More than DEFAULT_SEARCH_NODES
    units raises BudgetError: the candidates to scan and the width of F
    grow like size^t and faster, which no class limit on the result bounds.
    """
    _check_positive_int("t", t)
    _check_positive_int("size", size)
    _check_bt_scan(size, t)
    if t == 1 or size == 1:  # distinct ints are B_1, and one int B_t for any t
        return tuple(range(1, size + 1))
    elems = [1]
    # sums of r-multisets for r < t, and the full t-multiset sums
    subs: list[set[int]] = [{0}] + [{1 * r} for r in range(1, t)]
    full = {t}
    fbytes = bytearray((t >> 3) + 1)  # F: bit v set for each t-sum v
    fbytes[t >> 3] = 1 << (t & 7)
    cand = 1
    units = 0

    def charge(cost: int) -> None:
        nonlocal units
        units += cost
        if units > DEFAULT_SEARCH_NODES:
            raise BudgetError(
                f"greedy B_{t} scan exceeded {DEFAULT_SEARCH_NODES} units "
                f"at {len(elems)} of {size} elements"
            )

    while len(elems) < size:
        first = cand + 1  # bit i of the sieve stands for candidate first + i
        width = (len(fbytes) << 3) - first  # of F >> first, to a byte
        charge(len(subs[t - 1]) * (1 + (width >> SIEVE_UNIT_BITS)))
        wide = int.from_bytes(fbytes[first >> 3 :], "little") >> (first & 7)
        sieve = 0
        for base in subs[t - 1]:
            sieve |= wide >> base
        holes = ~sieve  # negative: every bit above the sieve is a hole
        ok = False
        while not ok:
            hole = holes & -holes
            holes ^= hole
            cand = first + hole.bit_length() - 1
            fresh: set[int] = set()
            ok = True
            for r in range(t):  # r existing elements, t - r copies of cand
                mult = t - r
                for base in subs[r]:
                    val = base + mult * cand
                    if val in full or val in fresh:
                        ok = False
                        break
                    fresh.add(val)
                if not ok:
                    break
            charge(len(fresh) + 1)  # the sums tested, and the candidate
        full |= fresh
        fbytes.extend(bytes((t * cand >> 3) + 1 - len(fbytes)))
        for val in fresh:
            fbytes[val >> 3] |= 1 << (val & 7)
        for r in range(t - 1, 0, -1):
            grown = set()
            for j in range(1, r + 1):
                grown |= {base + j * cand for base in subs[r - j]}
            subs[r] |= grown
        elems.append(cand)
    return tuple(elems)


# ---------------------------------------------------------------------------
# Bose-Chowla construction over GF(q^t)

BOSE_CHOWLA_LIMIT = 2_000_000


def _is_prime(m: int) -> bool:
    return m >= 2 and _prime_factors(m) == [m]


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _poly_mul(a: tuple, b: tuple, modpoly: tuple, q: int, t: int) -> tuple:
    """Multiply field elements given as little-endian coefficient tuples."""
    prod = [0] * (2 * t - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    for d in range(2 * t - 2, t - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(t):
                prod[d - t + i] = (prod[d - t + i] - c * modpoly[i]) % q
    return tuple(prod[:t])


def _poly_pow(a: tuple, e: int, modpoly: tuple, q: int, t: int) -> tuple:
    result = tuple([1] + [0] * (t - 1))
    base = a
    while e:
        if e & 1:
            result = _poly_mul(result, base, modpoly, q, t)
        base = _poly_mul(base, base, modpoly, q, t)
        e >>= 1
    return result


def _decode_element(m: int, q: int, t: int) -> tuple:
    coeffs = []
    for _ in range(t):
        coeffs.append(m % q)
        m //= q
    return tuple(coeffs)


def _poly_divides(div: tuple, poly: list, q: int) -> bool:
    """Whether the monic polynomial ``div`` divides ``poly`` over GF(q)."""
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - dd
            for i, c in enumerate(div):
                rem[shift + i] = (rem[shift + i] - lead * c) % q
        rem.pop()
    return all(c == 0 for c in rem)


def _smallest_irreducible(t: int, q: int) -> tuple:
    """Monic irreducible of degree t over GF(q), smallest by encoded value.

    Encoding: the lower coefficients read as a base-q integer, constant
    term least significant. A reducible polynomial of degree t has a monic
    divisor of degree 1..t // 2, and a root a is the divisor x - a.
    """
    for m in range(q**t):
        poly = [*_decode_element(m, q, t), 1]
        if not any(
            _poly_divides((*_decode_element(enc, q, d), 1), poly, q)
            for d in range(1, t // 2 + 1)
            for enc in range(q**d)
        ):
            return tuple(poly[:-1])
    raise InternalError(f"no irreducible of degree {t} over GF({q})")


def bose_chowla(t: int, q: int) -> tuple[int, ...]:
    """B_t set of size q inside [1, q^t - 1] from discrete logs in GF(q^t).

    With theta a primitive element of GF(q^t), the set is
    { log_theta(theta + a) : a in GF(q) }, lifted to integer
    representatives. Sums of t elements are distinct modulo q^t - 1,
    hence distinct over the integers. One walk over the powers of theta
    meets the q logs in ascending order, and no table of logs is kept.
    """
    if not isinstance(t, int) or t < 2:
        raise UsageError(f"t must be an int >= 2, got {t!r}")
    if not isinstance(q, int) or q < 2:
        raise UsageError(f"q must be prime, got {q!r}")
    # the size check comes before the primality test, whose trial division
    # of a large q takes unbounded time, and q^t is built only for small q, t
    limit = BOSE_CHOWLA_LIMIT
    if q > limit or t >= limit.bit_length() or q**t > limit:
        raise BudgetError(
            f"q^t = {q}^{t} exceeds the Bose-Chowla limit {limit}", kind="class"
        )
    order = q**t - 1
    if not _is_prime(q):
        raise UsageError(f"q must be prime, got {q!r}")
    modpoly = _smallest_irreducible(t, q)
    one = tuple([1] + [0] * (t - 1))
    factors = _prime_factors(order)
    theta = None
    for m in range(2, order + 1):
        el = _decode_element(m, q, t)
        if all(
            _poly_pow(el, order // p, modpoly, q, t) != one for p in factors
        ):
            theta = el
            break
    if theta is None:
        raise InternalError(f"no primitive element found in GF({q}^{t})")
    wanted = {((theta[0] + a) % q, *theta[1:]) for a in range(q)}
    out = []
    power = one
    for e in range(order):
        if power in wanted:
            out.append(e)
            if len(out) == q:
                break
        power = _poly_mul(power, theta, modpoly, q, t)
    return tuple(out)


# ---------------------------------------------------------------------------
# Progression-free sets


def _bitset(ascending) -> int:
    """The int with bit v set for each v of an ascending list of ints >= 0."""
    if not ascending:
        return 0
    buf = bytearray((ascending[-1] >> 3) + 1)
    for v in ascending:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def verify_3ap_free(elems):
    """Check for three distinct elements with x + z = 2y.

    Returns (True, None) or (False, (x, y, z)) with the first witness in
    ascending (x, y) order.

    Dense sets are scanned with big-int bitsets of at most max(set) + 1
    bits. Let M = sum 2^v over the set and, for each parity p,
    H_p = sum 2^(v >> 1) over the elements v = p (mod 2). For x < y the
    third term z = 2y - x has the parity of x, and z >> 1 = y - c with
    c = (x + 1) >> 1, the ceiling of x / 2. So bit y of H_(x & 1) << c
    is set exactly when z is in the set, and bit y - x - 1 of
    (M & (H_(x & 1) << c)) >> (x + 1) is set exactly when y and z are in
    the set for some y > x. Its lowest bit gives the smallest such y, so
    the witness order is that of a scan over x, then y. Sparse sets,
    whose bitsets could be arbitrarily long, keep the pair loop.
    """
    s = _as_intset(elems)
    if s and s[-1] <= AP_BITSET_DENSITY * len(s):
        members = _bitset(s)
        halves = [_bitset([v >> 1 for v in s if v & 1 == p]) for p in (0, 1)]
        for xval in s:
            hit = (members & (halves[xval & 1] << ((xval + 1) >> 1))) >> (xval + 1)
            if hit:
                yval = xval + (hit & -hit).bit_length()
                return False, (xval, yval, 2 * yval - xval)
        return True, None
    members = set(s)
    for i, xval in enumerate(s):
        for yval in s[i + 1 :]:
            if 2 * yval - xval in members:
                return False, (xval, yval, 2 * yval - xval)
    return True, None


def behrend_set(limit: int) -> tuple[int, ...]:
    """A 3-AP-free subset of [1, limit]: { m + 1 : every base-3 digit of m
    is 0 or 1 }, ascending, the binary digits of i = 0, 1, 2, ... read in
    base 3. Adding two such m never carries, so x + z = 2y forces x = y = z.

    The elements built from the digits below 3^j are at most
    1 + (3^j - 1) / 2, so adding 3^j to each of them, in order, appends
    larger elements in ascending order.

    The paper's construction, a sphere shell over digit vectors in a
    carry-free base, is absent because no shell beats this set for any
    limit up to BEHREND_LIMIT. Digits x_i in [0, d-1] read in base 2d - 1
    fit D of them when (2d - 1)^D <= limit, and a shell of D digits has at
    most d^(D-1) elements: once D - 1 digits are fixed, the last digit c
    must satisfy c^2 = norm - (the squares of the others), which at most
    one c >= 0 does. That bound, taken where D digits first fit, never
    exceeds the size of this set there, for every d and D in range. The
    shell search stays in the tests as
    ``tests/oracles.py::best_sphere_shell_enum``.

    A limit above BEHREND_LIMIT is refused as a class error before
    anything is built.
    """
    _check_positive_int("limit", limit)
    if limit > BEHREND_LIMIT:
        raise BudgetError(
            f"behrend_set supports limit <= {BEHREND_LIMIT}", kind="class"
        )
    out = [1]
    power = 1
    while power < limit:
        out += [v + power for v in out if v + power <= limit]
        power *= 3
    return tuple(out)


# ---------------------------------------------------------------------------
# Genus, trivial solutions, solution-free sets


def genus(coeffs):
    """Largest m such that [k] splits into m parts each summing to zero.

    Returns (m, partition) with 1-based index parts, or (0, None) when no
    zero-sum partition exists at all.
    """
    eq = _as_equation(coeffs)
    k = len(eq)
    if k > MAX_EQUATION_ARITY:
        raise BudgetError(
            f"genus search supports up to {MAX_EQUATION_ARITY} variables, got {k}",
            kind="class",
        )
    full = (1 << k) - 1
    sums = [0] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + eq[low.bit_length() - 1]

    best: dict[int, int] = {0: 0}

    def score(mask: int) -> int:
        cached = best.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        top = -1
        sub = mask
        while sub:
            if sub & low and sums[sub] == 0:
                rest = score(mask ^ sub)
                if rest >= 0 and rest + 1 > top:
                    top = rest + 1
            sub = (sub - 1) & mask
        best[mask] = top
        return top

    g = score(full)
    if g <= 0:
        return 0, None

    parts = []
    mask = full
    while mask:
        low = mask & -mask
        chosen = None
        sub = mask
        while sub:
            if sub & low and sums[sub] == 0 and score(mask ^ sub) == score(mask) - 1:
                ids = tuple(i + 1 for i in range(k) if sub >> i & 1)
                if chosen is None or ids < chosen[1]:
                    chosen = (sub, ids)
            sub = (sub - 1) & mask
        if chosen is None:
            raise InternalError("genus witness reconstruction failed")
        parts.append(chosen[1])
        mask ^= chosen[0]
    return g, tuple(parts)


def is_trivial_solution(coeffs, values) -> bool:
    """Whether a solution's value-equality classes all have zero coefficient sum."""
    eq = _as_equation(coeffs)
    vals = tuple(values)
    if len(vals) != len(eq):
        raise UsageError(f"expected {len(eq)} values, got {len(vals)}")
    if sum(a * v for a, v in zip(eq, vals)) != 0:
        raise UsageError("values do not satisfy the equation")
    return _is_trivial(eq, vals)


def _is_trivial(eq: Sequence[int], vals: Sequence[int]) -> bool:
    classes: dict[int, int] = {}
    for a, v in zip(eq, vals):
        classes[v] = classes.get(v, 0) + a
    return all(total == 0 for total in classes.values())


def _suffix_bounds(eq: Sequence[int], lo: int, hi: int) -> tuple[list, list]:
    """Least and greatest sum of a_i x_i over i >= pos, x_i in [lo, hi], per pos."""
    k = len(eq)
    suffix_min = [0] * (k + 1)
    suffix_max = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        a = eq[i]
        suffix_min[i] = suffix_min[i + 1] + (a * lo if a > 0 else a * hi)
        suffix_max[i] = suffix_max[i + 1] + (a * hi if a > 0 else a * lo)
    return suffix_min, suffix_max


def find_solutions(
    coeffs, elems, max_nodes: int = DEFAULT_SOLUTION_NODES
) -> Iterator[tuple[int, ...]]:
    """All nontrivial solutions with values from the set, lexicographic.

    Assignments may repeat values. Enumeration is a depth-first scan with
    interval pruning on the reachable partial sums; exceeding
    ``max_nodes`` raises BudgetError.
    """
    eq = _as_equation(coeffs)
    if len(eq) > MAX_EQUATION_ARITY:
        raise BudgetError(
            f"solution search supports up to {MAX_EQUATION_ARITY} variables",
            kind="class",
        )
    s = _as_intset(elems)
    return _solution_gen(eq, s, max_nodes)


def _solution_gen(
    eq: tuple[int, ...], s: tuple[int, ...], max_nodes: int
) -> Iterator[tuple[int, ...]]:
    if not s:
        return
    k = len(eq)
    suffix_min, suffix_max = _suffix_bounds(eq, s[0], s[-1])
    assignment = [0] * k
    nodes = 0

    def rec(pos: int, partial: int) -> Iterator[tuple[int, ...]]:
        nonlocal nodes
        if pos == k:
            if partial == 0 and not _is_trivial(eq, assignment):
                yield tuple(assignment)
            return
        a = eq[pos]
        for val in s:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetError(
                    f"solution enumeration exceeded {max_nodes} nodes"
                )
            nxt = partial + a * val
            if nxt + suffix_min[pos + 1] > 0 or nxt + suffix_max[pos + 1] < 0:
                continue
            assignment[pos] = val
            yield from rec(pos + 1, nxt)

    yield from rec(0, 0)


def _splits(system) -> tuple:
    """The distinct split tests of a system, fewest kept positions first.

    A split puts a sub-multiset C of an equation's coefficients on the
    candidate c and leaves the rest R to the kept set. With t = sum(C),
    P the sum of |a| x over the positive coefficients of R and Q that
    over the negative ones, the equation reads P - Q = -t c. Each split
    with t != 0 and R nonempty becomes one test P' + t c = Q' with t > 0:
    P' is R's positive part and Q' its negative part when t > 0, and the
    other way round when t < 0. A part is the ascending tuple of its |a|,
    so that the sums of a part extend those of its prefix. A test is
    stored as (t, lower, sum(lower), upper, sum(upper)), with lower the
    part of P' and upper that of Q'.
    """
    found = set()
    for eq in system:
        counts = collections.Counter(eq)
        coeffs = sorted(counts)
        for picks in itertools.product(*(range(counts[a] + 1) for a in coeffs)):
            t = sum(a * n for a, n in zip(coeffs, picks))
            rest = [(a, counts[a] - n) for a, n in zip(coeffs, picks)]
            pos = tuple(sorted(a for a, r in rest if a > 0 for _ in range(r)))
            neg = tuple(sorted(-a for a, r in rest if a < 0 for _ in range(r)))
            if t == 0 or not (pos or neg):
                continue
            if t < 0:
                t, pos, neg = -t, neg, pos
            found.add((t, pos, sum(pos), neg, sum(neg)))
    return tuple(sorted(found, key=lambda s: (len(s[1]) + len(s[3]), s)))


class _KeptSums:
    """The split test of a system (``_splits``) for one kept set K, an
    ascending tuple, with the sums it has formed.

    ``sums[part]`` is the set of sums of a_i x_i over the ascending tuple
    ``part`` of positive coefficients, with every x_i in K; it is formed
    from the sums of ``part[:-1]`` when a test first needs it, and kept
    while K stays the same. ``left`` is the budget: one unit per split
    tested and per sum formed, both in the memo and in the shifted sums a
    test probes. Units are charged before the work they pay for, so
    ``left`` bounds both time and memory, and running out raises
    BudgetError.
    """

    def __init__(self, splits: tuple, kept: tuple[int, ...], left: int):
        self.splits = splits
        self.kept = kept
        self.left = left
        self.sums: dict[tuple[int, ...], set[int]] = {(): {0}}

    def _charge(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise BudgetError("solution check exceeded its node budget")

    def _part_sums(self, part: tuple[int, ...]) -> set[int]:
        got = self.sums.get(part)
        if got is None:
            prev = self._part_sums(part[:-1])
            self._charge(len(prev) * len(self.kept))
            steps = [part[-1] * v for v in self.kept]
            got = self.sums[part] = {s + step for s in prev for step in steps}
        return got

    def creates_solution(self, cand: int) -> bool:
        """Whether adding ``cand``, outside K, to K yields a nontrivial
        solution of the equations whose ``_splits`` the test holds; K
        itself must have none (see ``equation_free_subset``)."""
        if not self.kept:
            return False  # all positions on cand: trivial or no solution
        lo, hi = self.kept[0], self.kept[-1]
        for t, lower, low_w, upper, up_w in self.splits:
            self._charge(1)
            shift = t * cand
            # the sums over a part of weight w lie in [w lo, w hi]
            if shift + low_w * lo > up_w * hi or shift + low_w * hi < up_w * lo:
                continue
            small, big = self._part_sums(lower), self._part_sums(upper)
            if len(small) > len(big):
                small, big, shift = big, small, -shift
            self._charge(len(small))
            if not big.isdisjoint(map(shift.__add__, small)):
                return True
        return False


def equation_free_subset(
    system,
    limit: int,
    mode: str = "greedy",
    max_nodes: int = DEFAULT_SEARCH_NODES,
):
    """Subset of [1, limit] with no nontrivial solution to any equation.

    Greedy mode scans 1..limit and keeps an element whenever it stays
    solution-free. Exhaustive mode backtracks to a maximum-size subset.
    Returns (elements, optimal_flag). An equation of more than
    MAX_EQUATION_ARITY coefficients is refused as a class error before
    any work, since a check tests up to 2^arity splits.

    **The split test.** Both modes keep a set K with no nontrivial
    solution and admit a candidate c not in K only when it creates none.
    Lemma: adding c creates a nontrivial solution of an equation iff some
    sub-multiset C of its coefficients with t = sum(C) != 0 can sit on c
    while the rest R is met from K: sum over R of a_i x_i = -t c with
    every x_i in K.

    - If: the positions of C hold c and those of R hold values of K,
      which differ from c, so c's value class is exactly C. Its
      coefficient sum is t != 0, so the solution is nontrivial.
    - Only if: take a nontrivial solution over K + {c} and let C be the
      positions holding c. C is not empty, or the solution would lie in
      K. If sum(C) = 0, R is not empty (else the one class, C, sums to 0
      and the solution is trivial), so K is not empty; move the positions
      of C onto any value v of K. The sum changes by sum(C) (v - c) = 0,
      v's class gains a coefficient sum of 0, and every other class keeps
      its sum, so some class is still nonzero: a nontrivial solution
      inside K, against the invariant. So sum(C) != 0.

    Each split is one test of (S(lower) + t c) against S(upper), the
    sums over K of R's two parts (see ``_splits``), by the smaller set
    probing the larger; a split whose sum ranges cannot meet is skipped.
    The sums of each part are formed once per kept set (``_KeptSums``).
    The greedy scan forms them again when it admits an element, and the
    exhaustive search keeps one ``_KeptSums`` per depth on a stack.

    **Budget.** A unit is one split tested or one sum formed, so
    ``max_nodes`` bounds time and memory. The greedy scan charges every
    check to one budget of ``max_nodes`` units. The exhaustive search
    bounds its backtracking nodes by ``max_nodes`` and, separately, each
    candidate check. A blown budget raises BudgetError carrying the best
    set found so far.
    """
    sys_ = _as_system(system)
    _check_positive_int("limit", limit)
    if mode not in ("greedy", "exhaustive"):
        raise UsageError(f"mode must be 'greedy' or 'exhaustive', got {mode!r}")
    if mode == "exhaustive" and limit > EXHAUSTIVE_LIMIT:
        raise BudgetError(
            f"exhaustive search supports limit <= {EXHAUSTIVE_LIMIT}", kind="class"
        )
    if mode == "greedy" and limit > GREEDY_LIMIT:
        raise BudgetError(
            f"greedy scan supports limit <= {GREEDY_LIMIT}", kind="class"
        )
    if max(map(len, sys_)) > MAX_EQUATION_ARITY:
        raise BudgetError(
            f"solution search supports up to {MAX_EQUATION_ARITY} variables",
            kind="class",
        )
    splits = _splits(sys_)

    if mode == "greedy":
        check = _KeptSums(splits, (), max_nodes)
        for cand in range(1, limit + 1):
            try:
                conflict = check.creates_solution(cand)
            except BudgetError as exc:
                raise BudgetError(
                    f"greedy scan exceeded {max_nodes} nodes",
                    best=(check.kept, False),
                ) from exc
            if not conflict:
                check = _KeptSums(splits, check.kept + (cand,), check.left)
        return check.kept, False

    best: tuple[int, ...] = ()
    stack = [_KeptSums(splits, (), 0)]
    nodes = 0

    def rec(cand: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > max_nodes:
            raise BudgetError(
                f"exhaustive search exceeded {max_nodes} nodes",
                best=(best, False),
            )
        check = stack[-1]
        if cand > limit:
            if len(check.kept) > len(best):
                best = check.kept
            return
        if len(check.kept) + (limit - cand + 1) <= len(best):
            return
        check.left = max_nodes
        if not check.creates_solution(cand):
            stack.append(_KeptSums(splits, check.kept + (cand,), 0))
            rec(cand + 1)
            stack.pop()
        rec(cand + 1)

    try:
        rec(1)
    except BudgetError as exc:
        if exc.best is None:
            raise BudgetError(str(exc), best=(best, False)) from exc
        raise
    return best, True


def conjecture_system(k: int) -> tuple[tuple[int, ...], ...]:
    """Three-equation system tied to k-cycles with k = 2 mod 4, k >= 10.

    With m = k // 4 the equations are, as coefficient vectors:
    balanced m-vs-m sums, the (m+1)-vs-(m-1, double) variant, and the
    doubled-endpoint variant. Their 2m, 2m + 1 and 2m variables are
    refused past MAX_EQUATION_ARITY, as ``genus`` would refuse them, before
    any is built: building costs memory linear in k.
    """
    if not isinstance(k, int) or k % 4 != 2 or k < 10:
        raise UsageError(f"k must be 2 mod 4 and at least 10, got {k!r}")
    m = k // 4
    if 2 * m + 1 > MAX_EQUATION_ARITY:
        refused = 2 * m if 2 * m > MAX_EQUATION_ARITY else 2 * m + 1
        raise BudgetError(
            f"genus search supports up to {MAX_EQUATION_ARITY} variables, "
            f"got {refused}",
            kind="class",
        )
    eq1 = (1,) * m + (-1,) * m
    eq2 = (1,) * (m + 1) + (-1,) * (m - 1) + (-2,)
    eq3 = (1,) * (m - 1) + (2,) + (-1,) * (m - 1) + (-2,)
    return eq1, eq2, eq3
