"""Broadword lanes for level certificates (Knuth, TAOCP 7.1.3).

A chunk of edge-key pairs packs into ints with one 64-bit lane per pair,
pair j in bits 64j to 64j + 63: the first keys of the pairs in one int,
the second keys in another. A witness cycle of the chunk is k vertex
columns, one int each, whose lane j holds that vertex of pair j's cycle.
Vertices take the n <= 32 low bits of a lane, and bit n is its guard, so
one subtraction tells the zero lanes of a whole column. ``_span_columns``
routes a chunk to the cycles ``hypercube._span_cycle`` gives, and
``_lanes_hold`` checks them; ``verifier.lower_bound_clique`` runs both.
"""

from __future__ import annotations

from array import array
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterator


def _lane_ones(count: int) -> int:
    return int.from_bytes(b"\1\0\0\0\0\0\0\0" * count, "little")


# byte j of 1 << (key & 31), indexed by the low byte of the key
_DIR_BYTES = [
    bytes((1 << (c & 31)) >> 8 * j & 255 for c in range(256)) for j in range(4)
]


def _dir_bits(count: int, keys: int) -> int:
    """The lanes of ``keys``, edge keys, mapped to their direction bits
    1 << (key & 31), a byte table lookup per lane."""
    low = keys.to_bytes(8 * count, "little")[::8]
    bits = bytearray(8 * count)
    for j, table in enumerate(_DIR_BYTES):
        bits[j::8] = low.translate(table)
    return int.from_bytes(bits, "little")


def _pair_chunks(keys: list, size: int) -> Iterator[tuple[int, int, int]]:
    """(count, ka, kb) for each run of ``size`` pairs (a, b) of
    ``combinations(keys, 2)``, in order: ka packs the a and kb the b of
    its pairs. The pairs of one first key are added at a time, so memory
    stays within a chunk and a row."""
    row = array("Q", keys).tobytes()
    firsts, seconds, step = bytearray(), bytearray(), 8 * size
    for i in range(0, len(row), 8):
        firsts += row[i : i + 8] * (len(row) - i - 8 >> 3)
        seconds += row[i + 8 :]
        while len(firsts) >= step or firsts and i + 8 == len(row):
            ka, kb = firsts[:step], seconds[:step]
            del firsts[:step], seconds[:step]
            count = len(ka) >> 3
            yield count, int.from_bytes(ka, "little"), int.from_bytes(kb, "little")


def _span_columns(n: int, k: int, count: int, ka: int, kb: int) -> list[int]:
    """The k vertex columns of the canonical cycles that
    ``hypercube._span_cycle`` routes for the ``count`` pairs of a chunk:
    lane j of column i is vertex i of the cycle for the edge keys a < b
    in lane j of ``ka`` and ``kb``. The caller stands for what
    ``_span_cycle`` assumes, and for a < b.

    Let H be the guard bits, L the lane ones and low = H - L. Each lane
    takes x, d from a and y, e from b, then P = x ^ y, Q = P less
    {d, e} and Z, the coordinates outside the span, as in ``_span_cycle``.
    The lowbit of v is v ^ v & ((v | H) - L), which also tells the lanes
    where v is 0: those lose their guard bit. The cases of
    ``_span_cycle`` become lane masks: d = e, d in P, and neither. In the
    last, the walk (d, R, e, Q)^2 from x is the same cycle as
    (e, Q, d, R)^2 from x ^ Q ^ e, where it flips e. So every lane walks
    f, the run of Q, g, then the run of Z, with (f, g) = (e, d) in the
    third case and (d, e) in the others. One step of this machine, u = 1
    to m = k/2, gives the next bit of Q while Q lasts, g at the step Q
    runs out, then the next bit of Z. R is never formed: the first m
    letters take m - 2 - |Q| = |R| bits of Z. With d != e these m letters
    are the word, walked twice. With d = e, the word (d, P, d, R, P, R)
    is the machine's m + 1 letters, then a second run of P and R: at step
    u, the bit of Q of step u, or else the bit of Z of step u + 1, which
    starts one step earlier with no g before it.

    Canonical form: a lane-wise minimum over the vertex columns keeps the
    binary index of the column it came from as masks; masked stages
    rotate each lane left by 1, 2, 4, ... where that bit of its index is
    set, and a masked swap reverses columns 1 to k - 1 in the lanes where
    vertex 1 is above vertex k - 1.
    """
    m = k // 2
    lanes = _lane_ones(count)
    guard = lanes << n
    low = guard - lanes

    def spread(g: int) -> int:
        """Lanes whose guard bit is set in ``g``, as masks of their n low bits."""
        return g - (g >> n)

    x, d, e = ka >> 5 & low, _dir_bits(count, ka), _dir_bits(count, kb)
    p = x ^ kb >> 5 & low
    de = d | e
    q = p ^ p & de
    z = low ^ q ^ de
    same = spread(guard ^ (d ^ e | guard) - lanes & guard)
    other = low ^ same ^ spread((p & d | guard) - lanes & guard)
    swap = (d ^ e) & other
    f, g = d ^ swap, e ^ swap
    start = x ^ (q ^ e) & other
    word, qbits, zbits = [f], [0], [0]
    ended = 0  # lanes whose run of Q ended before this step
    for _ in range(m):
        t = (q | guard) - lanes
        qb = q ^ q & t
        q ^= qb
        now = spread(guard ^ t & guard)
        t = (z | guard) - lanes
        zb = (z ^ z & t) & ended
        z ^= zb
        qbits.append(qb)
        zbits.append(zb)
        word.append(qb | g & (now ^ ended) | zb)
        ended = now
    word[m] = f ^ (f ^ word[m]) & same
    for u in range(1, m):
        word.append(word[u] ^ (word[u] ^ qbits[u] ^ zbits[u + 1]) & same)
    v = [start]
    for letter in word[: k - 1]:
        v.append(v[-1] ^ letter)

    least, index = v[0], [0] * (k - 1).bit_length()
    for i in range(1, k):
        below = spread(guard ^ (v[i] | guard) - least & guard)
        least ^= (least ^ v[i]) & below
        for j, mask in enumerate(index):
            index[j] = mask | below if i >> j & 1 else mask ^ mask & below
    for j, mask in enumerate(index):
        v = [w ^ (w ^ v[(i + (1 << j)) % k]) & mask for i, w in enumerate(v)]
    flip = spread(guard ^ (v[-1] | guard) - v[1] & guard)
    for i in range(1, m):
        t = (v[i] ^ v[-i]) & flip
        v[i] ^= t
        v[-i] ^= t
    return v


def _lanes_hold(n: int, k: int, count: int, ka: int, kb: int, v: list) -> bool:
    """Whether lane j of the vertex columns ``v`` is a valid canonical
    k-cycle of Q_n through both edges of the key pair in lane j of ``ka``
    and ``kb``, for each of the ``count`` lanes: the check of
    ``hypercube._witness_problem``, for a whole chunk at once. False only
    sends the chunk to that scalar walk (``verifier._chunk_error``), which
    names the first failing pair.

    Broadword lane tests (Knuth, TAOCP 7.1.3). Column i is one int Vi.
    Let L be the lane ones and H = L << n the guard bits. Once every
    vertex lies in [0, 2^n), a lane of X | H is 2^n + x, so (X | H) - L
    keeps the guard of exactly the lanes with x >= 1, and no subtraction
    below borrows across a lane. The rules, in the terms of
    ``_cycle_keys_or_problem``:

    - length k, and range: no lane may hold a bit at n or above, and no
      column a bit past the last lane;
    - distinct: Vi ^ Vj has no zero lane, for every i < j;
    - adjacent: each step Si = Vi ^ Vi+1 (indices mod k) has at most one
      bit per lane, S & ((S | H) - L) == 0, and at least one as its ends
      are distinct;
    - canonical: (Vi | H) - V0 keeps every guard (v0 is the minimum), and
      so does (Vk-1 | H) - V1 - L (v1 < vk-1);
    - both edges: edge i is (x, d) exactly when the lane of
      ((Vi & Vi+1) ^ X) | (Si ^ D) is zero, for X the bottoms and D the
      direction bits of one side of the pairs; for each side, every lane
      must see a zero.
    """
    if len(v) != k:
        return False
    lanes = _lane_ones(count)
    guard = lanes << n
    low = guard - lanes
    if reduce(or_, v) & ~low:
        return False
    nxt = v[1:] + v[:1]
    step = [u ^ w for u, w in zip(v, nxt)]
    if any(s & (s | guard) - lanes for s in step):
        return False
    kept = guard  # ANDs the results that keep their guards when a rule holds
    for u, w in combinations(v, 2):
        kept &= (u ^ w | guard) - lanes
    for u in v[1:]:
        kept &= (u | guard) - v[0]
    kept &= (v[-1] | guard) - v[1] - lanes
    if kept & guard != guard:
        return False
    bottoms = [u & w for u, w in zip(v, nxt)]
    for keys in (ka, kb):
        x = keys >> 5 & low
        d = _dir_bits(count, keys)
        missed = guard
        for b, s in zip(bottoms, step):
            missed &= (b ^ x | s ^ d | guard) - lanes
        if missed & guard:
            return False
    return True
