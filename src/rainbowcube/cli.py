"""Command-line front end.

Subcommands: construct, verify, exact, sets, genus. Machine-readable
documents go to files, human-readable summaries to stdout. Exit codes:
0 success or property verified, 1 violation or failed property (witness
printed), 2 usage or format error, 3 budget exceeded.

Coloring document (JSON): {"n", "k", "scheme", "params", "edges"}, where
edges is a list of {"b": "<hex bottom mask>", "dir": <1-based int>,
"color": [d, p]} covering every edge of Q_n exactly once; a mask is hex
digits with an optional 0x prefix. A document may not repeat a
top-level key. Documents of Q_n above n = 14, which verify does not
support, are refused on loading (exit 2): from the header when "n"
precedes "edges", else after decoding. A header that ends within the
first HEAD_CHARS characters is refused without reading the rest of the
file. Equation files hold {"equations": [[a1, ..., ak], ...]} with
nonzero int coefficients. Set files hold a sorted int array, bare or
under an "elements" key.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import islice
from typing import Callable, Iterator, Optional

from . import addsets, coloring, verifier
from .errors import BudgetError, UsageError
from .hypercube import _check_dim
from .verifier import Violation

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_HEX_MASK = re.compile(r"(?:0[xX])?[0-9a-fA-F]+")
# JSON whitespace, as the json module skips it, and the separators around it
_WS = re.compile(r"[ \t\n\r]*")
_COLON = re.compile(r"[ \t\n\r]*:[ \t\n\r]*")
_NEXT = re.compile(r"[ \t\n\r]*([,}])[ \t\n\r]*")
_DECODER = json.JSONDecoder()
# about this many edge records per write in save_coloring: whole bottoms of a
# scheme coloring, 2 * SAVE_CHUNK // n of them, as a bottom has n / 2 edges
SAVE_CHUNK = 4096
# characters _read_json reads before it walks a document's header; a whole
# coloring document of Q_8 (44 KB for c2) fits in this first read
HEAD_CHARS = 1 << 16


def save_coloring(col: coloring.EdgeColoring, path: str) -> None:
    """Write the coloring document, the text ``json.dumps`` gives it plus a
    newline, streaming the edge records.

    A scheme coloring is rendered a bottom at a time (``_bottom_records``),
    and each write holds whole bottoms, about SAVE_CHUNK records. An
    explicit table is rendered a record at a time (``_records``).

    Everything that can refuse the coloring runs before the file is
    opened, so a refused coloring leaves the path untouched: the size
    class, the first chunk, and every record of an explicit table, whose
    colors may be any value (its edges were checked when it was built).
    Scheme records after the first chunk are rendered as they are
    written.
    """
    if col.n > coloring.TABLE_DIM_LIMIT:
        raise BudgetError(
            f"refusing to write a coloring document for n={col.n}", kind="class"
        )
    head = json.dumps({
        "n": col.n,
        "k": col.k,
        "scheme": col.scheme,
        "params": {
            key: (list(val) if isinstance(val, tuple) else val)
            for key, val in col.params.items()
        },
    })
    if col.scheme == "explicit":  # a per_write of None renders it all at once
        parts, per_write = _records(col._rows()), None
    else:
        parts, per_write = _bottom_records(col), max(1, 2 * SAVE_CHUNK // col.n)
    first = list(islice(parts, per_write))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "edges": [' + ", ".join(first))
        while chunk := list(islice(parts, per_write)):
            fh.write(", " + ", ".join(chunk))
        fh.write("]}\n")


def _records(rows) -> Iterator[str]:
    """Edge records as ``json.dumps`` renders {"b", "dir", "color"}; a color
    other than a pair of plain ints goes through ``json.dumps`` itself."""
    last = None
    for bottom, d, color in rows:
        if type(color) is tuple and len(color) == 2:
            c, p = color
            if type(c) is int and type(p) is int:
                if bottom != last:  # rows come grouped by bottom
                    last = bottom
                    lead = f'{{"b": "{bottom:#x}", "dir": '
                yield f'{lead}{d}, "color": [{c}, {p}]}}'
                continue
        yield json.dumps({"b": hex(bottom), "dir": d, "color": list(color)})


def _bottom_records(col: coloring.EdgeColoring) -> Iterator[str]:
    """The edge records of a scheme coloring, as ``_records`` renders
    them, one string of ", "-joined records per bottom with an edge. A
    record is the bottom's lead, its direction's fragment with the first
    color part and the bottom's tail, so a bottom's records are its
    fragments joined by tail + ", " + lead, the parts filled in by %d."""
    fragments = [f'{d}, "color": [%d' for d in range(1, col.n + 1)]
    for bottom, frags, firsts, level in col._bottoms(fragments):
        lead = f'{{"b": "{bottom:#x}", "dir": '
        tail = f", {level}]}}"
        yield lead + (tail + ", " + lead).join(frags) % tuple(firsts) + tail


def _read_json(path: str, peek: Optional[Callable[[str, dict], None]] = None):
    """The parsed document; undecodable, malformed or too deeply nested
    input, and an object that repeats a top-level key, is a UsageError.

    A top-level object is decoded one member at a time, and
    ``peek(key, members)`` runs before each member's value is decoded,
    with the members read so far, so a caller can refuse a document from
    its header before a large value is decoded. Other documents are
    decoded whole.

    The first HEAD_CHARS characters are read first. A document that ends
    within them is walked once. A longer one has its members walked, with
    ``peek``, up to the first value the prefix cuts off; only then is the
    whole text read and walked, so ``peek`` may run twice on a member and
    a document ``peek`` refuses from its header is never read in full.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(HEAD_CHARS)
            pos = _WS.match(text).end()
            if len(text) == HEAD_CHARS:
                if peek is not None and text.startswith("{", pos):
                    try:
                        _read_members(text, pos + 1, peek)
                    except json.JSONDecodeError:
                        pass  # the cut, or an error the full walk reports
                fh.seek(0)
                text = fh.read()
                pos = _WS.match(text).end()
        if not text.startswith("{", pos):
            return json.loads(text)
        return _read_members(text, pos + 1, peek)
    except UsageError:  # raised by peek; a ValueError, but not a decoding error
        raise
    except UnicodeDecodeError as exc:  # its position counts from where a read began
        raise UsageError(f"{path}: not valid UTF-8: {exc.reason}") from exc
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: not valid JSON: {exc}") from exc


def _read_members(text: str, pos: int, peek) -> dict:
    """The object whose members start at text[pos], which must end the
    text; keys go through the stdlib string scanner and values through
    its C scanner, so every member decodes as ``json.loads`` decodes it."""
    members: dict = {}
    pos = _WS.match(text, pos).end()
    closed = text.startswith("}", pos)
    if closed:
        pos = _WS.match(text, pos + 1).end()
    while not closed:
        if not text.startswith('"', pos):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", text, pos
            )
        key, end = json.decoder.scanstring(text, pos + 1)
        if key in members:
            raise json.JSONDecodeError(f"repeated key {key!r}", text, pos)
        colon = _COLON.match(text, end)
        if colon is None:
            raise json.JSONDecodeError("Expecting ':' delimiter", text, end)
        if peek is not None:
            peek(key, members)
        members[key], end = _DECODER.raw_decode(text, colon.end())
        sep = _NEXT.match(text, end)
        if sep is None:
            raise json.JSONDecodeError("Expecting ',' delimiter", text, end)
        pos = sep.end()
        closed = sep[1] == "}"
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return members


def _parse_mask(text) -> int:
    """A bottom mask from hex digits with an optional 0x/0X prefix."""
    if not _HEX_MASK.fullmatch(text):
        raise ValueError(f"not a hex mask: {text!r}")
    return int(text, 16)


def _check_size(path: str, n: int) -> None:
    _check_dim(n)
    if n > verifier.VERIFY_DIM_LIMIT:
        raise BudgetError(
            f"{path}: a coloring of Q_{n} is outside the supported "
            f"n <= {verifier.VERIFY_DIM_LIMIT}",
            kind="class",
        )


def load_coloring(path: str) -> coloring.EdgeColoring:
    """The coloring a document holds; documents of Q_n that ``verify``
    cannot check (n above ``VERIFY_DIM_LIMIT``) are refused with a class
    BudgetError, before the edge list is decoded when ``n`` precedes
    ``edges``. The records are only parsed here: that they name every
    edge of Q_n once is checked by ``EdgeColoring``, and every refusal
    names the path."""

    def refuse_early(key: str, head: dict) -> None:
        n = head.get("n")
        if key == "edges" and type(n) is int:
            _check_size(path, n)

    doc = _read_json(path, refuse_early)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: top level must be an object")
    for field in ("n", "k", "scheme", "edges"):
        if field not in doc:
            raise UsageError(f"{path}: missing field {field!r}")
    n, k = doc["n"], doc["k"]
    if type(n) is not int or type(k) is not int:
        raise UsageError(f"{path}: n and k must be ints")
    _check_size(path, n)
    if doc["scheme"] not in coloring.SCHEMES:
        raise UsageError(f"{path}: unknown scheme {doc['scheme']!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise UsageError(f"{path}: params must be an object")
    if "S" in params:
        s = params["S"]
        if not isinstance(s, list) or any(type(e) is not int for e in s):
            raise UsageError(f"{path}: params S must be a list of ints")
        params["S"] = tuple(s)
    table = {}
    records = doc["edges"]
    if not isinstance(records, list):
        raise UsageError(f"{path}: edges must be a list")
    masks: dict[str, int] = {}  # each distinct mask text is parsed once
    for rec in records:
        try:
            text = rec["b"]
            bottom = masks.get(text)
            if bottom is None:
                bottom = masks[text] = _parse_mask(text)
            direction = rec["dir"]
            d, p = rec["color"]
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{path}: malformed edge record {rec!r}") from exc
        if type(direction) is not int or not 1 <= direction <= n:
            raise UsageError(f"{path}: direction {direction!r} out of range")
        if type(d) is not int or type(p) is not int:
            raise UsageError(f"{path}: color parts must be ints in {rec!r}")
        table[bottom << 5 | direction - 1] = (d, p)  # edge_key, inline
    if len(table) != len(records):
        raise UsageError(f"{path}: an edge has more than one record")
    try:
        col = coloring.EdgeColoring(n, k, "explicit", params, table)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if doc["scheme"] != "explicit":
        _check_scheme(path, doc["scheme"], n, k, params, table)
    return col


def _check_scheme(path: str, scheme: str, n: int, k: int, params: dict, table) -> None:
    """Rebuild a scheme document from its params; it must match k, the
    params and every edge color. A construction1 rebuild whose B_t check
    would sum more than ``addsets.BT_SCAN_LIMIT`` multiset elements is
    refused by that check as a class error."""
    try:
        if scheme == "construction1":
            rebuilt = coloring.construction1(n, k, params["S"])
        else:
            rebuilt = coloring.construction2(n, params["S"], params["N"])
    except KeyError as exc:
        raise UsageError(f"{path}: {scheme} params lack {exc}") from exc
    except UsageError as exc:
        raise UsageError(
            f"{path}: params cannot rebuild the {scheme} coloring: {exc}"
        ) from exc
    except BudgetError as exc:
        raise BudgetError(f"{path}: {exc}", kind=exc.kind) from exc
    if (rebuilt.k, rebuilt.params) != (k, params):
        raise UsageError(
            f"{path}: k={k} and params {params} do not match the {scheme} "
            f"rebuild: k={rebuilt.k} and params {rebuilt.params}"
        )
    for key, color in rebuilt.key_table().items():
        stored = table[key]
        if stored != color:
            raise UsageError(
                f"{path}: edge {hex(key >> 5)} dir {(key & 31) + 1} has color "
                f"{list(stored)}, {scheme} with these params gives {list(color)}"
            )


def load_set(path: str) -> tuple[int, ...]:
    doc = _read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("elements")
    if not isinstance(doc, list) or not all(type(e) is int for e in doc):
        raise UsageError(f"{path}: expected an int array (or an 'elements' key)")
    return tuple(doc)


def load_equations(path: str) -> tuple[tuple[int, ...], ...]:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "equations" not in doc:
        raise UsageError(f"{path}: expected an object with an 'equations' list")
    eqs = doc["equations"]
    if not isinstance(eqs, list) or not eqs:
        raise UsageError(f"{path}: 'equations' must be a nonempty list")
    for eq in eqs:
        if not isinstance(eq, list):
            raise UsageError(f"{path}: each equation must be a list, got {eq!r}")
    return tuple(tuple(eq) for eq in eqs)


def _print_violation(vio: Violation) -> None:
    cyc = " ".join(hex(v) for v in vio.cycle)
    print(f"violation: cycle {cyc}")
    print(
        f"  edges ({hex(vio.e1.bottom)}, dir {vio.e1.dir}) and "
        f"({hex(vio.e2.bottom)}, dir {vio.e2.dir}) share color {list(vio.color)}"
    )


def _cmd_construct(args) -> int:
    n, k = args.n, args.k
    _check_dim(n)
    if n > coloring.TABLE_DIM_LIMIT:
        raise BudgetError(
            f"refusing to write a coloring document for n={n}: it would hold "
            f"{n << n - 1} edge records (limit n = {coloring.TABLE_DIM_LIMIT})",
            kind="class",
        )
    if args.scheme == "c2":
        if k is None:
            k = 6
        if k != 6:
            raise UsageError("scheme c2 colors 6-cycles; use --k 6 or omit --k")
        if args.sidon is not None:
            raise UsageError("--sidon applies to scheme c1 only")
        if args.eps is None:
            raise UsageError("scheme c2 needs --eps")
        s, cap, _ = coloring.derive_c2_params(n, args.eps)
        col = coloring.construction2(n, s, cap)
        bound = 6 * cap
        print(f"colors used: {coloring.count_colors(col)} (at most 6N = {bound}, N = {cap})")
    else:
        if k is None:
            raise UsageError("scheme c1 needs --k")
        if k % 4 or k < 8:
            raise UsageError("scheme c1 needs k divisible by 4 and at least 8")
        if args.eps is not None:
            raise UsageError("--eps applies to scheme c2 only")
        t = k // 4 - 1
        source = args.sidon or "greedy"
        if source == "greedy":
            s = addsets.greedy_bt(t, n)
        else:
            if t < 2:
                raise UsageError(
                    "the finite-field generator needs t >= 2 (k >= 12); use --sidon greedy"
                )
            q = n
            while not addsets._is_prime(q):
                q += 1
            s = addsets.bose_chowla(t, q)
        col = coloring.construction1(n, k, s)
        used = col.params["S"]
        bound = k * k * (used[-1] // n**t + 1) * n ** (k // 4)
        print(f"colors used: {coloring.count_colors(col)} (scheme bound {bound})")
    save_coloring(col, args.out)
    print(f"wrote coloring to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    col = load_coloring(args.coloring)
    k = args.k if args.k is not None else col.k
    vio = verifier.verify_rainbow(col, k)
    if vio is None:
        print(f"rainbow: every {k}-cycle of Q_{col.n} carries {k} distinct colors")
        return EXIT_OK
    _print_violation(vio)
    return EXIT_VIOLATION


def _cmd_exact(args) -> int:
    try:
        value, col = verifier.exact_min_colors(args.n, args.k, args.timeout)
    except BudgetError as exc:
        if exc.kind == "timeout":
            lo, hi = exc.bounds
            print(f"timed out; certified bounds [{lo}, {hi}]")
            return EXIT_BUDGET
        raise
    print(f"minimum colors for {args.k}-rainbow on Q_{args.n}: {value}")
    if args.out:
        save_coloring(col, args.out)
        print(f"wrote optimal coloring to {args.out}")
    return EXIT_OK


def _cmd_sets(args) -> int:
    if args.kind == "bt":
        if args.t is None:
            raise UsageError("--kind bt needs --t")
        if args.N is not None:
            raise UsageError("--N applies to --kind behrend")
        if args.verify_only:
            if args.q is not None or args.size is not None:
                raise UsageError("--q/--size do not apply to --verify-only")
        elif (args.q is None) == (args.size is None):
            raise UsageError("--kind bt needs exactly one of --q or --size")
    else:
        if args.t is not None or args.q is not None or args.size is not None:
            raise UsageError("--t/--q/--size apply to --kind bt")
        if args.verify_only:
            if args.N is not None:
                raise UsageError("--N does not apply to --verify-only")
        elif args.N is None:
            raise UsageError("--kind behrend needs --N")
    if args.verify_only:
        elems = load_set(args.verify_only)
    elif args.kind == "behrend":
        elems = addsets.behrend_set(args.N)
    elif args.q is not None:
        if args.t >= 2 and args.q >= 2:  # verify_bt's refusal, before building
            addsets._check_bt_scan(args.q, args.t)
        elems = addsets.bose_chowla(args.t, args.q)
    else:
        elems = addsets.greedy_bt(args.t, args.size)
    if args.kind == "bt":
        ok, witness = addsets.verify_bt(elems, args.t)
        prop = f"B_{args.t} sums distinct"
        why = "" if ok else f"{witness[0]} vs {witness[1]}"
    else:
        ok, witness = addsets.verify_3ap_free(elems)
        prop, why = "3-term progression free", f"progression {witness}"
    print(f"elements: {sorted(elems)}")
    print(f"{prop}: true" if ok else f"{prop}: false; {why}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_genus(args) -> int:
    if (args.eqs is None) == (args.conjecture is None):
        raise UsageError("needs exactly one of --eqs or --conjecture")
    if args.conjecture is not None:
        # conjecture_system(K) has equations of 2m, 2m + 1 and 2m variables,
        # m = K // 4; genus refuses each above MAX_EQUATION_ARITY, so refuse
        # here before building them, as building costs memory linear in K
        m = args.conjecture // 4
        if args.conjecture % 4 == 2 and 2 * m + 1 > addsets.MAX_EQUATION_ARITY:
            refused = 2 * m if 2 * m > addsets.MAX_EQUATION_ARITY else 2 * m + 1
            raise BudgetError(
                f"genus search supports up to {addsets.MAX_EQUATION_ARITY} "
                f"variables, got {refused}",
                kind="class",
            )
        system = addsets.conjecture_system(args.conjecture)
    else:
        system = load_equations(args.eqs)
    for idx, eq in enumerate(system, 1):
        g, parts = addsets.genus(eq)
        if parts is None:
            print(f"equation {idx}: {list(eq)} genus {g}")
        else:
            shown = " ".join("{" + ",".join(map(str, part)) + "}" for part in parts)
            print(f"equation {idx}: {list(eq)} genus {g} partition {shown}")
    if args.freeset is not None:
        try:
            found = addsets.equation_free_subset(system, args.freeset, mode=args.mode)
        except BudgetError as exc:
            # a blown node budget still shows the set kept so far (exit 3)
            if exc.best is not None:
                _print_free_subset(args.freeset, *exc.best)
            raise
        _print_free_subset(args.freeset, *found)
    return EXIT_OK


def _print_free_subset(limit: int, elems, optimal: bool) -> None:
    print(
        f"solution-free subset of [1, {limit}]: {list(elems)} "
        f"(size {len(elems)}, optimal {str(optimal).lower()})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowcube",
        description="Rainbow cycle colorings of hypercubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a coloring and write it to a file")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int)
    c.add_argument("--scheme", choices=("c1", "c2"), required=True)
    c.add_argument("--eps", help="exponent margin for scheme c2, e.g. 1.0 or 1/2")
    c.add_argument("--sidon", choices=("greedy", "bose-chowla"))
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_construct)

    v = sub.add_parser("verify", help="check a coloring file for rainbow cycles")
    v.add_argument("--coloring", required=True)
    v.add_argument("--k", type=int)
    v.set_defaults(fn=_cmd_verify)

    e = sub.add_parser("exact", help="exact minimum color count")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--timeout", type=float)
    e.add_argument("--out")
    e.set_defaults(fn=_cmd_exact)

    s = sub.add_parser("sets", help="generate or verify integer sets")
    s.add_argument("--kind", choices=("bt", "behrend"), required=True)
    s.add_argument("--t", type=int)
    s.add_argument("--q", type=int)
    s.add_argument("--size", type=int)
    s.add_argument("--N", type=int)
    s.add_argument("--verify-only", dest="verify_only")
    s.set_defaults(fn=_cmd_sets)

    g = sub.add_parser("genus", help="equation genus and solution-free subsets")
    g.add_argument("--eqs")
    g.add_argument("--conjecture", type=int)
    g.add_argument("--freeset", type=int)
    g.add_argument("--mode", choices=("greedy", "exhaustive"), default="greedy")
    g.set_defaults(fn=_cmd_genus)

    return parser


# build_parser's result, made on the first main call and reused: the build
# reads the terminal size 29 times (once per HelpFormatter that add_argument
# makes), which costs more than many commands do
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE if exc.kind == "class" else EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
