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

A solution-free subset is grown one candidate at a time, and each
candidate is checked by a depth-first search over the assignments that
use it. The search visits one assignment per orbit under permutations
of positions with equal coefficients: such a permutation changes neither
the sum, nor triviality, nor the values used (the proof is in the
docstring of ``_solution_search``). Its node budget counts the values
tried at each position, so it counts far fewer nodes than a scan over
every assignment would, and a check that such a scan would abandon may
finish. A greedy scan charges the nodes of all its checks to one budget,
so its time is bounded as a whole. The sets found, and every ``optimal``
flag, are those the full scan gives.
"""

from __future__ import annotations

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
    if not isinstance(t, int) or t < 1:
        raise UsageError(f"t must be a positive int, got {t!r}")
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
    in all is a class error. The scan's sum tests are counted, and more
    than DEFAULT_SEARCH_NODES of them raises BudgetError: the candidates
    to scan grow like size^t, which no class limit on the result bounds.
    """
    if not isinstance(t, int) or t < 1:
        raise UsageError(f"t must be a positive int, got {t!r}")
    if not isinstance(size, int) or size < 1:
        raise UsageError(f"size must be a positive int, got {size!r}")
    _check_bt_scan(size, t)
    if size == 1:  # t alone may be up to BT_SCAN_LIMIT; build no t sum sets
        return (1,)
    elems = [1]
    # sums of r-multisets for r < t, and the full t-multiset sums
    subs: list[set[int]] = [{0}] + [{1 * r} for r in range(1, t)]
    full = {t}
    cand = 1
    tests = 0
    while len(elems) < size:
        cand += 1
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
        tests += len(fresh) + 1  # the sums tested, and the candidate
        if tests > DEFAULT_SEARCH_NODES:
            raise BudgetError(
                f"greedy B_{t} scan exceeded {DEFAULT_SEARCH_NODES} sum tests "
                f"at {len(elems)} of {size} elements"
            )
        if not ok:
            continue
        full |= fresh
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
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


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
    if not isinstance(limit, int) or limit < 1:
        raise UsageError(f"limit must be a positive int, got {limit!r}")
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


def _creates_solution(system, kept: list, cand: int, max_nodes: int) -> bool:
    """Whether adding ``cand`` to the kept set yields a nontrivial solution
    of an equation of the system; ``max_nodes`` bounds the search nodes of
    each equation (``_solution_search``), and exceeding it raises
    BudgetError."""
    return any(_solution_search((eq,), kept, cand, max_nodes)[0] for eq in system)


def _solution_search(system, kept: list, cand: int, budget: int) -> tuple[bool, int]:
    """(whether adding ``cand`` to the kept set yields a nontrivial
    solution, search nodes visited).

    Only assignments using ``cand`` at least once are searched; solutions
    avoiding it were ruled out when earlier elements were admitted.

    The search visits one assignment per orbit under permutations of
    positions with equal coefficients. Such a permutation keeps the sum
    a_1 x_1 + ... + a_k x_k, since it only swaps equal terms a x_i and
    a x_j; it keeps the coefficient sum of each value class, so it keeps
    triviality (``_is_trivial``); and it keeps the set of values used, so
    it keeps whether ``cand`` is used. The answer is therefore the same on
    a whole orbit. The positions are sorted by coefficient, so equal
    coefficients form runs, and within a run each position takes a value
    at least that of the position before it: sorting the values within
    each run maps every assignment to exactly one such representative of
    its orbit.

    A node is one value tried at one position; ``budget`` bounds the
    nodes of all equations together, and exceeding it raises BudgetError.
    The answer does not depend on the order of the search, but the node
    count does, and it is usually far below that of a scan over every
    assignment: admitting 8 after 1, 2 against ``conjecture_system(22)``
    takes 2,185 nodes here and 176,271 in such a scan. So a check that
    the scan would abandon at ``budget`` may now finish.
    """
    values = sorted(kept + [cand])
    spent = 0
    for coeffs in system:
        eq = sorted(coeffs)
        k = len(eq)
        suffix_min, suffix_max = _suffix_bounds(eq, values[0], values[-1])
        # run_start[pos]: whether pos begins a run of equal coefficients
        run_start = [pos == 0 or eq[pos] != eq[pos - 1] for pos in range(k)]
        assignment = [0] * k
        nodes = 0
        cap = budget - spent

        def rec(pos: int, partial: int, used: bool, first: int) -> bool:
            nonlocal nodes
            if pos == k:
                return partial == 0 and used and not _is_trivial(eq, assignment)
            a = eq[pos]
            for idx in range(0 if run_start[pos] else first, len(values)):
                nodes += 1
                if nodes > cap:
                    raise BudgetError(f"solution check exceeded {budget} nodes")
                val = values[idx]
                nxt = partial + a * val
                if nxt + suffix_min[pos + 1] > 0 or nxt + suffix_max[pos + 1] < 0:
                    continue
                assignment[pos] = val
                if rec(pos + 1, nxt, used or val == cand, idx):
                    return True
            return False

        found = rec(0, 0, False, 0)
        spent += nodes
        if found:
            return True, spent
    return False, spent


def equation_free_subset(
    system,
    limit: int,
    mode: str = "greedy",
    max_nodes: int = DEFAULT_SEARCH_NODES,
):
    """Subset of [1, limit] with no nontrivial solution to any equation.

    Greedy mode scans 1..limit and keeps an element whenever it stays
    solution-free; the search nodes of all its candidate checks share the
    one budget ``max_nodes``. Exhaustive mode backtracks to a maximum-size
    subset; ``max_nodes`` bounds its backtracking nodes and, separately,
    each equation of each candidate check. Returns (elements,
    optimal_flag). A blown node budget raises BudgetError carrying the
    best set found so far.
    """
    sys_ = _as_system(system)
    if not isinstance(limit, int) or limit < 1:
        raise UsageError(f"limit must be a positive int, got {limit!r}")
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

    if mode == "greedy":
        kept: list[int] = []
        left = max_nodes
        for cand in range(1, limit + 1):
            try:
                conflict, nodes = _solution_search(sys_, kept, cand, left)
            except BudgetError as exc:
                raise BudgetError(
                    f"greedy scan exceeded {max_nodes} nodes",
                    best=(tuple(kept), False),
                ) from exc
            left -= nodes
            if not conflict:
                kept.append(cand)
        return tuple(kept), False

    best: list[int] = []
    kept = []
    nodes = 0

    def rec(cand: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > max_nodes:
            raise BudgetError(
                f"exhaustive search exceeded {max_nodes} nodes",
                best=(tuple(best), False),
            )
        if cand > limit:
            if len(kept) > len(best):
                best = list(kept)
            return
        if len(kept) + (limit - cand + 1) <= len(best):
            return
        if not _creates_solution(sys_, kept, cand, max_nodes):
            kept.append(cand)
            rec(cand + 1)
            kept.pop()
        rec(cand + 1)

    try:
        rec(1)
    except BudgetError as exc:
        if exc.best is None:
            raise BudgetError(str(exc), best=(tuple(best), False)) from exc
        raise
    return tuple(best), True


def conjecture_system(k: int) -> tuple[tuple[int, ...], ...]:
    """Three-equation system tied to k-cycles with k = 2 mod 4, k >= 10.

    With m = k // 4 the equations are, as coefficient vectors:
    balanced m-vs-m sums, the (m+1)-vs-(m-1, double) variant, and the
    doubled-endpoint variant.
    """
    if not isinstance(k, int) or k % 4 != 2 or k < 10:
        raise UsageError(f"k must be 2 mod 4 and at least 10, got {k!r}")
    m = k // 4
    eq1 = (1,) * m + (-1,) * m
    eq2 = (1,) * (m + 1) + (-1,) * (m - 1) + (-2,)
    eq3 = (1,) * (m - 1) + (2,) + (-1,) * (m - 1) + (-2,)
    return eq1, eq2, eq3
