import hashlib
import io
import json
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from rainbowcube import cli
from rainbowcube.addsets import behrend_set, greedy_bt
from rainbowcube.cli import (
    SAVE_CHUNK,
    _read_json,
    build_parser,
    load_coloring,
    main,
    save_coloring,
)
from rainbowcube.errors import BudgetError, UsageError
from rainbowcube.coloring import (
    TABLE_DIM_LIMIT,
    EdgeColoring,
    construction1,
    construction2,
    derive_c2_params,
)
from rainbowcube.hypercube import enumerate_edges
from rainbowcube.verifier import exact_min_colors


def run(*args):
    return main(list(args))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def monochrome_doc(n, k):
    return {
        "n": n,
        "k": k,
        "scheme": "explicit",
        "params": {},
        "edges": [
            {"b": hex(e.bottom), "dir": e.dir, "color": [0, 0]}
            for e in enumerate_edges(n)
        ],
    }


def blank_text(n, n_first=True):
    """A one-color coloring document of Q_n, with n before or after edges."""
    records = ", ".join(
        f'{{"b": "{b:#x}", "dir": {d}, "color": [0, 0]}}'
        for b in range(1 << n)
        for d in range(1, n + 1)
        if not b >> (d - 1) & 1
    )
    head = '"k": 6, "scheme": "explicit", "params": {}'
    if n_first:
        return f'{{"n": {n}, {head}, "edges": [{records}]}}\n'
    return f'{{{head}, "edges": [{records}], "n": {n}}}\n'


class TestConstruct:
    def test_c2_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(
            "construct", "--n", "5", "--k", "6", "--scheme", "c2",
            "--eps", "1.0", "--out", str(out),
        ) == 0
        text = capsys.readouterr().out
        assert "colors used" in text
        assert run("verify", "--coloring", str(out)) == 0

    def test_c1_requires_k_divisible_by_four(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(
            "construct", "--n", "4", "--k", "6", "--scheme", "c1", "--out", str(out)
        ) == 2

    def test_c1_greedy_end_to_end(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(
            "construct", "--n", "4", "--k", "8", "--scheme", "c1",
            "--sidon", "greedy", "--out", str(out),
        ) == 0
        assert run("verify", "--coloring", str(out), "--k", "8") == 0

    def test_c1_bose_chowla(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(
            "construct", "--n", "4", "--k", "12", "--scheme", "c1",
            "--sidon", "bose-chowla", "--out", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        assert len(doc["params"]["S"]) == 4

    def test_flag_mismatches(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert run(
            "construct", "--n", "4", "--scheme", "c2", "--eps", "1",
            "--sidon", "greedy", "--out", out,
        ) == 2
        assert run(
            "construct", "--n", "4", "--k", "8", "--scheme", "c1",
            "--eps", "1", "--out", out,
        ) == 2
        assert run("construct", "--n", "4", "--scheme", "c2", "--out", out) == 2

    def test_infeasible_params_exit_usage(self, tmp_path):
        assert run(
            "construct", "--n", "16", "--scheme", "c2", "--eps", "0.25",
            "--out", str(tmp_path / "c.json"),
        ) == 2

    def test_roundtrip_rederives_bit_exact(self, tmp_path):
        out = tmp_path / "c.json"
        run(
            "construct", "--n", "4", "--k", "6", "--scheme", "c2",
            "--eps", "1.0", "--out", str(out),
        )
        doc = json.loads(out.read_text())
        rebuilt = construction2(doc["n"], doc["params"]["S"], doc["params"]["N"])
        expected = [
            {"b": hex(e.bottom), "dir": e.dir, "color": list(c)}
            for e, c in rebuilt.items()
        ]
        assert doc["edges"] == expected

    @pytest.mark.parametrize(
        "flags",
        [
            ("--n", "7", "--scheme", "c2", "--eps", "1"),
            ("--n", "6", "--k", "12", "--scheme", "c1", "--sidon", "bose-chowla"),
        ],
    )
    def test_file_matches_json_dump_rendering(self, tmp_path, flags):
        out = tmp_path / "c.json"
        assert run("construct", *flags, "--out", str(out)) == 0
        col = load_coloring(str(out))
        doc = json.loads(out.read_text())
        doc["edges"] = [
            {"b": hex(e.bottom), "dir": e.dir, "color": list(c)} for e, c in col.items()
        ]
        expected = io.StringIO()
        json.dump(doc, expected)
        assert out.read_bytes() == (expected.getvalue() + "\n").encode()

    def test_too_large_to_write_refused_up_front(self, tmp_path):
        out = tmp_path / "c.json"
        start = time.monotonic()
        assert run(
            "construct", "--n", "24", "--k", "6", "--scheme", "c2", "--eps", "1",
            "--out", str(out),
        ) == 2
        assert time.monotonic() - start < 2
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1000", "1/1000000", "10", "1e400"])
    def test_extreme_eps_exit_usage(self, tmp_path, eps):
        out = tmp_path / "c.json"
        start = time.monotonic()
        assert run(
            "construct", "--n", "8", "--scheme", "c2", "--eps", eps, "--out", str(out)
        ) == 2
        assert time.monotonic() - start < 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "eps",
        [
            "1e10000000",
            "1e-10000000",
            "-1e5000",
            "-" + "1" * 4000 + "e1000",
            "1e1_0000000",
            "1e-1_000000",
            "1e-1_0000000",
            "0e9_9999999",
        ],
    )
    def test_huge_eps_exponent_exit_two(self, tmp_path, eps):
        out = tmp_path / "c.json"
        start = time.monotonic()
        assert run(
            "construct", "--n", "8", "--scheme", "c2", f"--eps={eps}", "--out", str(out)
        ) == 2
        assert time.monotonic() - start < 2
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1/2", "1.0"])
    def test_ordinary_eps_still_builds(self, tmp_path, eps):
        out = tmp_path / "c.json"
        assert run(
            "construct", "--n", "8", "--scheme", "c2", "--eps", eps, "--out", str(out)
        ) == 0
        assert out.exists()

    def test_save_load_roundtrip(self, tmp_path):
        s, cap, _ = derive_c2_params(3, 1)
        col = construction2(3, s, cap)
        path = tmp_path / "c.json"
        save_coloring(col, str(path))
        loaded = load_coloring(str(path))
        assert loaded.key_table() == col.key_table()
        assert loaded.n == col.n and loaded.k == col.k


class TestVerify:
    @pytest.mark.parametrize("n,k", [(8, 16), (7, 20)])
    def test_c1_long_cycles_verify_in_seconds(self, tmp_path, n, k):
        # the conflict test counts a span, so no cycle walk grows with k
        out = tmp_path / "c.json"
        start = time.monotonic()
        assert run(
            "construct", "--n", str(n), "--k", str(k), "--scheme", "c1",
            "--out", str(out),
        ) == 0
        assert run("verify", "--coloring", str(out)) == 0
        assert time.monotonic() - start < 10

    def test_dense_clashes_verify_in_seconds(self, tmp_path):
        # a monochrome Q_12 at k=6 and a k=10 table with 32 clashing pairs:
        # the witness search looks only at the clashing pairs
        mono = tmp_path / "mono.json"
        mono.write_text(blank_text(12))
        table = oracles.k10_mod_table(8)
        k10 = write_json(tmp_path / "k10.json", {
            "n": 8, "k": 10, "scheme": "explicit", "params": {},
            "edges": [
                {"b": hex(key >> 5), "dir": (key & 31) + 1, "color": list(color)}
                for key, color in sorted(table.items())
            ],
        })
        for path in (str(mono), k10):
            start = time.monotonic()
            assert run("verify", "--coloring", path) == 1
            assert time.monotonic() - start < 5

    def test_violation_prints_witness(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", monochrome_doc(3, 6))
        assert run("verify", "--coloring", path) == 1
        out = capsys.readouterr().out
        assert "violation" in out and "0x0" in out

    def refused_naming_file(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "bad.json", doc)
        assert run("verify", "--coloring", path) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_truncated_file(self, tmp_path, capsys):
        doc = monochrome_doc(3, 6)
        doc["edges"] = doc["edges"][:-1]
        self.refused_naming_file(tmp_path, capsys, doc)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,')
        assert run("verify", "--coloring", str(path)) == 2

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path / "list.json", [monochrome_doc(2, 4)])
        assert run("verify", "--coloring", path) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: top level must be an object\n"

    def test_duplicate_edge(self, tmp_path, capsys):
        doc = monochrome_doc(2, 4)
        doc["edges"][1] = doc["edges"][0]
        self.refused_naming_file(tmp_path, capsys, doc)

    def test_every_edge_and_one_repeated(self, tmp_path, capsys):
        doc = monochrome_doc(3, 6)
        doc["edges"].append(doc["edges"][5])
        self.refused_naming_file(tmp_path, capsys, doc)

    def test_direction_bit_set(self, tmp_path, capsys):
        doc = monochrome_doc(2, 4)
        doc["edges"][0] = {"b": "0x1", "dir": 1, "color": [0, 0]}
        self.refused_naming_file(tmp_path, capsys, doc)

    def test_mask_above_n(self, tmp_path, capsys):
        doc = monochrome_doc(2, 4)
        doc["edges"][0] = {"b": "0x8", "dir": 1, "color": [0, 0]}
        self.refused_naming_file(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "top,edge",
        [
            ({"n": 400000000, "edges": []}, {}),
            ({"n": 0, "edges": []}, {}),
            ({"n": True}, {}),
            ({"k": True}, {}),
            ({}, {"dir": True}),
            ({}, {"color": [3, True]}),
            ({"params": [1]}, {}),
            ({"params": None}, {}),
            ({"params": {"S": 5}}, {}),
            ({"params": {"S": [1, True]}}, {}),
            ({}, {"b": " 0x0 "}),
            ({}, {"b": "-0x0"}),
            ({}, {"b": "0_0"}),
            ({}, {"b": "f" * 5000}),  # past the 4,300-digit int-to-str limit
            ({"edges": {}}, {}),
            ({"scheme": "construction2", "params": {"S": [1, 2]}}, {}),
        ],
    )
    def test_malformed_field(self, tmp_path, capsys, top, edge):
        doc = monochrome_doc(2, 4)
        doc["edges"][0].update(edge)
        doc.update(top)
        path = write_json(tmp_path / "bad.json", doc)
        assert run("verify", "--coloring", path) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oversized_refused_from_header(self, tmp_path, capsys):
        path = tmp_path / "q15.json"
        path.write_text(blank_text(15))
        size = path.stat().st_size
        start = time.monotonic()
        assert run("verify", "--coloring", str(path)) == 2
        assert time.monotonic() - start < 1
        assert capsys.readouterr().err.startswith("budget exceeded: ")
        # decoding the 245,760 records peaks near 8.6 times the file size
        tracemalloc.start()
        try:
            assert run("verify", "--coloring", str(path)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size

    def test_oversized_refused_within_the_prefix(self, tmp_path, capsys):
        # a byte that is not UTF-8, well past the first read and its
        # look-ahead: reading the whole file would fail on it (a UsageError)
        text = blank_text(15).encode()
        cut = 4 * cli.HEAD_CHARS
        path = tmp_path / "q15.json"
        path.write_bytes(text[:cut] + b"\xff" + text[cut:])
        with pytest.raises(BudgetError) as info:
            load_coloring(str(path))
        assert info.value.kind == "class"
        assert run("verify", "--coloring", str(path)) == 2
        assert capsys.readouterr().err.startswith("budget exceeded: ")

    def test_oversized_with_n_last_refused_after_decoding(self, tmp_path, capsys):
        path = tmp_path / "q15.json"
        path.write_text(blank_text(15, n_first=False))
        assert run("verify", "--coloring", str(path)) == 2
        assert capsys.readouterr().err.startswith("budget exceeded: ")

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "k": 4, "n": 2, "scheme": "explicit", "edges": []}',
            '{"n": 16, "k": 4, "scheme": "explicit", "n": 2, "edges": []}',
            '{"n": 2, "k": 4, "scheme": "explicit", "edges": [], "edges": []}',
        ],
    )
    def test_repeated_top_level_key_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert run("verify", "--coloring", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "repeated key" in err

    def test_mask_forms_accepted(self, tmp_path):
        doc = monochrome_doc(2, 4)
        for i, (rec, b) in enumerate(zip(doc["edges"], ("0", "0X0", "1", "0x2"))):
            rec.update(b=b, color=[i, 0])
        assert run("verify", "--coloring", write_json(tmp_path / "ok.json", doc)) == 0


class TestSchemeDocuments:
    """A document naming a construction must be what its params rebuild."""

    def construct(self, tmp_path, *flags):
        out = tmp_path / "c.json"
        assert run("construct", *flags, "--out", str(out)) == 0
        return out, json.loads(out.read_text())

    def test_unrelated_colors_exit_two(self, tmp_path, capsys):
        doc = monochrome_doc(2, 6)
        doc.update(scheme="construction2", params={"S": [1, 2], "N": 3})
        assert run("verify", "--coloring", write_json(tmp_path / "c.json", doc)) == 2
        assert "edge 0x0 dir 1 has color [0, 0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--n", "4", "--scheme", "c2", "--eps", "1"),
            ("--n", "5", "--k", "8", "--scheme", "c1"),
        ],
    )
    def test_round_trip_exit_zero(self, tmp_path, flags):
        out, _ = self.construct(tmp_path, *flags)
        assert run("verify", "--coloring", str(out)) == 0

    def test_first_differing_edge_named(self, tmp_path, capsys):
        out, doc = self.construct(tmp_path, "--n", "4", "--scheme", "c2", "--eps", "1")
        rec = doc["edges"][7]
        rec["color"] = doc["edges"][0]["color"]
        capsys.readouterr()
        assert run("verify", "--coloring", write_json(out, doc)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"edge {rec['b']} dir {rec['dir']} has color" in err

    @pytest.mark.parametrize(
        "change",
        [
            {"N": 5},
            {"S": [2, 1, 4, 5]},
            {"S": [1, 2, 4, 5, 10]},
            {"extra": 1},
            {"N": None},
            {"S": [1, 2, 3, 4]},
            {"S": []},
        ],
    )
    def test_params_mismatch_or_unusable_exit_two(self, tmp_path, capsys, change):
        out, doc = self.construct(tmp_path, "--n", "4", "--scheme", "c2", "--eps", "1")
        doc["params"].update(change)
        capsys.readouterr()
        assert run("verify", "--coloring", write_json(out, doc)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("change", [{"M": 1}, {"S": [1, 2, 3, 4, 5]}])
    def test_construction1_params_mismatch_exit_two(self, tmp_path, change):
        out, doc = self.construct(tmp_path, "--n", "4", "--k", "8", "--scheme", "c1")
        doc["params"].update(change)
        assert run("verify", "--coloring", write_json(out, doc)) == 2

    @pytest.mark.parametrize("k", [6, 10])
    def test_k_the_params_cannot_rebuild_exit_two(self, tmp_path, k):
        out, doc = self.construct(tmp_path, "--n", "4", "--k", "8", "--scheme", "c1")
        doc["k"] = k
        assert run("verify", "--coloring", write_json(out, doc)) == 2

    def test_oversized_bt_rebuild_refused(self, tmp_path, capsys):
        out, doc = self.construct(tmp_path, "--n", "4", "--k", "8", "--scheme", "c1")
        doc["k"] = 800  # a B_199 check over comb(202, 199) multisets
        capsys.readouterr()
        path = write_json(out, doc)
        assert run("verify", "--coloring", path) == 2
        assert capsys.readouterr().err.startswith(f"budget exceeded: {path}: ")

    def test_one_element_rebuild_with_huge_t_refused(self, tmp_path, capsys):
        # the rebuild's B_t check would build one tuple of 999,999,999 ones
        k = 4 * 10**9
        doc = {
            "n": 1, "k": k, "scheme": "construction1",
            "params": {"S": [1], "M": k // 4 + 1},
            "edges": [{"b": "0x0", "dir": 1, "color": [k // 4 + 1, 1]}],
        }
        start = time.monotonic()
        assert run("verify", "--coloring", write_json(tmp_path / "q1.json", doc)) == 2
        assert time.monotonic() - start < 1
        assert capsys.readouterr().err.startswith("budget exceeded: ")


@pytest.mark.parametrize(
    "command",
    [
        ("verify", "--coloring"),
        ("sets", "--kind", "bt", "--t", "2", "--verify-only"),
        ("genus", "--eqs"),
    ],
)
@pytest.mark.parametrize(
    "content", [b"\xff\xfe[1, 2]", b"[" * 200_000], ids=["bom", "deep"]
)
def test_unreadable_json_exit_two(tmp_path, capsys, command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert run(*command, str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


VALID_TEXT = json.dumps(
    {
        "n": 2,
        "k": 4,
        "scheme": "explicit",
        "params": {},
        "edges": [
            {"b": hex(e.bottom), "dir": e.dir, "color": [i, 0]}
            for i, e in enumerate(enumerate_edges(2))
        ],
    }
).encode()


@st.composite
def edited_text(draw):
    """VALID_TEXT cut short, or with one byte replaced, deleted or inserted."""
    text = VALID_TEXT
    i = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(["truncate", "replace", "delete", "insert"]))
    if op == "truncate":
        return text[:i]
    byte = bytes([draw(st.integers(0, 255))])
    if op == "insert":
        return text[:i] + byte + text[i:]
    i = min(i, len(text) - 1)
    if op == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + byte + text[i + 1:]


def _top_level_repeats(text):
    """Whether json.loads(text)'s top-level object repeats a key."""
    seen = []

    def hook(pairs):
        seen.append(len({key for key, _ in pairs}) != len(pairs))
        return dict(pairs)

    json.loads(text, object_pairs_hook=hook)
    return seen[-1]


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=edited_text())
@example(data=VALID_TEXT + b"}")
@example(data=VALID_TEXT.replace(b'"k"', b'"n"'))
@example(data=VALID_TEXT.replace(b'"k"', b'"\\u006b"'))
@example(data=VALID_TEXT.replace(b'"k"', b'"\\u006e"'))
def test_edited_documents_never_raise(tmp_path, data):
    path = tmp_path / "edited.json"
    path.write_bytes(data)
    assert main(["verify", "--coloring", str(path)]) in (0, 1, 2)
    try:
        text = data.decode("utf-8")
        want = json.loads(text)
    except ValueError:
        with pytest.raises(UsageError):
            _read_json(str(path))
        return
    if isinstance(want, dict) and _top_level_repeats(text):
        with pytest.raises(UsageError, match="repeated key"):
            _read_json(str(path))
        return
    # repr compares key order and types, where == would not
    assert repr(_read_json(str(path))) == repr(want)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=edited_text(), cut=st.integers(1, len(VALID_TEXT) + 1))
@example(data=VALID_TEXT, cut=VALID_TEXT.index(b'"edges"') + 3)
@example(data=VALID_TEXT + b"\xe2", cut=100)  # a UTF-8 byte cut off at the end
def test_edited_documents_read_past_a_short_prefix(tmp_path, monkeypatch, data, cut):
    """A first read of ``cut`` characters, then the whole text, gives the
    document, or the error, of a single read."""
    path = tmp_path / "edited.json"
    path.write_bytes(data)

    def outcome():
        keys = []
        try:
            doc = _read_json(str(path), lambda key, members: keys.append(key))
        except UsageError as exc:
            return "error", str(exc)
        return repr(doc), list(dict.fromkeys(keys))

    monkeypatch.undo()  # the single read: no cut left from an earlier example
    whole = outcome()
    monkeypatch.setattr(cli, "HEAD_CHARS", cut)
    assert outcome() == whole


class TestExact:
    def test_q4_c4(self, capsys):
        assert run("exact", "--n", "4", "--k", "4") == 0
        assert ": 4" in capsys.readouterr().out

    def test_q3_c6(self, capsys):
        assert run("exact", "--n", "3", "--k", "6") == 0
        assert ": 12" in capsys.readouterr().out

    def test_writes_optimal_coloring(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run("exact", "--n", "2", "--k", "4", "--out", str(out)) == 0
        assert run("verify", "--coloring", str(out)) == 0

    @pytest.mark.parametrize("n", ["7", "9"])
    def test_fgls_value_without_timeout(self, capsys, n):
        assert run("exact", "--n", n, "--k", "4") == 0
        out = capsys.readouterr().out
        assert out == f"minimum colors for 4-rainbow on Q_{n}: {n}\n"

    def test_timeout_exit_three(self, capsys):
        assert run("exact", "--n", "10", "--k", "12", "--timeout", "0.2") == 3
        assert "bounds" in capsys.readouterr().out

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    def test_non_finite_timeout_exit_two(self, capsys, limit):
        assert run("exact", "--n", "3", "--k", "6", "--timeout", limit) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oversize_without_timeout_exit_two(self, monkeypatch, capsys):
        # over the adjacency cap: refused before any build
        assert run("exact", "--n", "13", "--k", "4") == 2
        assert "MB" in capsys.readouterr().err
        # under it: the default time limit ends the run with bounds
        monkeypatch.setattr(cli.verifier, "EXACT_TIME_LIMIT", 0.5)
        assert run("exact", "--n", "10", "--k", "12") == 3
        assert capsys.readouterr().out.startswith("timed out; certified bounds [")

    def test_oversize_conflict_graph_exit_two(self, capsys):
        assert run("exact", "--n", "16", "--k", "4", "--timeout", "1000") == 2
        assert "MB" in capsys.readouterr().err


class TestSets:
    def test_bose_chowla_generation(self, capsys):
        assert run("sets", "--kind", "bt", "--t", "2", "--q", "5") == 0
        out = capsys.readouterr().out
        assert "true" in out

    def test_bose_chowla_refused_before_building(self, monkeypatch, capsys):
        # 1409 elements hold 2 * C(1410, 2) > 10^6 multiset elements, so
        # verify_bt would refuse them after a 3 s, 378 MB build
        def fail(t, q):
            raise AssertionError("bose_chowla ran")

        monkeypatch.setattr(cli.addsets, "bose_chowla", fail)
        assert run("sets", "--kind", "bt", "--t", "2", "--q", "1409") == 2
        assert "multisets of 1409 elements" in capsys.readouterr().err

    def test_greedy_generation(self, capsys):
        assert run("sets", "--kind", "bt", "--t", "2", "--size", "5") == 0
        assert "[1, 2, 4, 8, 13]" in capsys.readouterr().out

    def test_behrend_generation(self, capsys):
        assert run("sets", "--kind", "behrend", "--N", "14") == 0
        out = capsys.readouterr().out
        assert "[1, 2, 4, 5, 10, 11, 13, 14]" in out

    def test_behrend_huge_N_exit_two(self, capsys):
        start = time.monotonic()
        assert run("sets", "--kind", "behrend", "--N", "1000000000000") == 2
        assert time.monotonic() - start < 2
        assert "behrend_set supports limit" in capsys.readouterr().err

    def test_behrend_output_unchanged(self, capsys):
        # stdout of `sets --kind behrend --N 100000` before the limit existed
        assert run("sets", "--kind", "behrend", "--N", "100000") == 0
        out = capsys.readouterr().out
        assert len(out) == 13733
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "511ff29b6acba910e464195cbbe6be0271559ae7fdc4ef6435ebeb1de1aff900"
        )

    def test_verify_only_failure(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", [1, 2, 3])
        assert run("sets", "--kind", "bt", "--t", "2", "--verify-only", path) == 1
        out = capsys.readouterr().out
        assert "(1, 3)" in out and "(2, 2)" in out

    def test_verify_only_elements_key(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"elements": [1, 2, 5, 11]})
        assert run("sets", "--kind", "bt", "--t", "2", "--verify-only", path) == 0

    @pytest.mark.parametrize("doc", [[True, 2], {"elements": "x"}])
    def test_verify_only_not_an_int_array(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "s.json", doc)
        assert run("sets", "--kind", "bt", "--t", "2", "--verify-only", path) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: expected an int array (or an 'elements' key)\n"
        )

    def test_verify_only_behrend(self, tmp_path):
        path = write_json(tmp_path / "s.json", [3, 7, 11])
        assert run("sets", "--kind", "behrend", "--verify-only", path) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "behrend", "--N", "3"),
            ("--kind", "bt", "--t", "2", "--q", "7"),
            ("--kind", "bt", "--t", "2", "--size", "3"),
        ],
    )
    def test_verify_only_refuses_generator_flags(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "s.json", [1, 2, 3])
        assert run("sets", *argv, "--verify-only", path) == 2
        assert "apply to --verify-only" in capsys.readouterr().err

    def test_inconsistent_flags(self):
        assert run("sets", "--kind", "bt", "--t", "2") == 2
        assert run("sets", "--kind", "bt", "--t", "2", "--q", "5", "--size", "4") == 2
        assert run("sets", "--kind", "behrend") == 2
        assert run("sets", "--kind", "behrend", "--N", "10", "--t", "2") == 2


class TestGenus:
    def test_conjecture_ten(self, capsys):
        assert run("genus", "--conjecture", "10") == 0
        out = capsys.readouterr().out
        assert out.count("genus 2") == 3

    def test_single_equation_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "e.json", {"equations": [[1, -1]]})
        assert run("genus", "--eqs", path) == 0
        assert "genus 1" in capsys.readouterr().out

    def test_freeset_exhaustive(self, capsys):
        assert run(
            "genus", "--conjecture", "10", "--freeset", "20", "--mode", "exhaustive"
        ) == 0
        out = capsys.readouterr().out
        assert "size 4" in out and "optimal true" in out

    def test_genus_zero_equation(self, tmp_path, capsys):
        path = write_json(tmp_path / "e.json", {"equations": [[1, 1, -3]]})
        assert run("genus", "--eqs", path) == 0
        assert capsys.readouterr().out == "equation 1: [1, 1, -3] genus 0\n"

    @pytest.mark.parametrize(
        "doc,why",
        [
            ({}, "expected an object with an 'equations' list"),
            ({"equations": []}, "'equations' must be a nonempty list"),
            ({"equations": [5]}, "each equation must be a list, got 5"),
        ],
        ids=["no-key", "empty", "not-a-list"],
    )
    def test_equation_file_shape_exit_two(self, tmp_path, capsys, doc, why):
        path = write_json(tmp_path / "e.json", doc)
        assert run("genus", "--eqs", path) == 2
        assert capsys.readouterr().err == f"error: {path}: {why}\n"

    def test_malformed_equations(self, tmp_path):
        path = write_json(tmp_path / "e.json", {"equations": [[1, 0, -1]]})
        assert run("genus", "--eqs", path) == 2
        path = write_json(tmp_path / "e.json", {"rows": []})
        assert run("genus", "--eqs", path) == 2

    def test_wrong_conjecture_k(self):
        assert run("genus", "--conjecture", "8") == 2

    @pytest.mark.parametrize("k,arity", [(26, 13), (30, 14), (10**9 + 2, 500_000_000)])
    def test_conjecture_above_arity_refused_before_building(self, capsys, k, arity):
        tracemalloc.start()
        start = time.monotonic()
        try:
            assert run("genus", "--conjecture", str(k), "--freeset", "10") == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - start < 1
        assert peak < 1 << 20
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"budget exceeded: genus search supports up to 12 variables, got {arity}\n"
        )

    def test_largest_conjecture_still_runs(self, capsys):
        assert run("genus", "--conjecture", "22", "--freeset", "12") == 0
        assert "[1, 2, 8]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode,best,why",
        [
            ("greedy", [1, 2, 5], "greedy scan"),
            ("exhaustive", [1, 2, 5, 16, 25], "exhaustive search"),
        ],
    )
    def test_budget_exit_prints_best_set(self, monkeypatch, capsys, mode, best, why):
        # the whole greedy scan to 30 costs 479 units, so it gets less
        nodes = {"greedy": 100, "exhaustive": 2000}[mode]
        search = cli.addsets.equation_free_subset
        monkeypatch.setattr(
            cli.addsets,
            "equation_free_subset",
            lambda *args, **kwargs: search(*args, max_nodes=nodes, **kwargs),
        )
        argv = ("genus", "--conjecture", "10", "--freeset", "30", "--mode", mode)
        assert run(*argv) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == (
            f"solution-free subset of [1, 30]: {best} "
            f"(size {len(best)}, optimal false)"
        )
        assert err == f"budget exceeded: {why} exceeded {nodes} nodes\n"

    def test_needs_exactly_one_source(self, tmp_path):
        assert run("genus") == 2
        path = write_json(tmp_path / "e.json", {"equations": [[1, -1]]})
        assert run("genus", "--eqs", path, "--conjecture", "10") == 2


def test_unknown_command_exit_two():
    assert run("frobnicate") == 2


class TestParserReuse:
    def test_built_once(self, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        assert run("genus", "--conjecture", "10") == 0
        assert run("genus", "--conjecture", "14") == 0
        assert built == [1]

    def test_defaults_not_carried_between_calls(self, monkeypatch):
        modes = []
        free_subset = cli.addsets.equation_free_subset

        def recorded(system, limit, mode):
            modes.append(mode)
            return free_subset(system, limit, mode=mode)

        monkeypatch.setattr(cli.addsets, "equation_free_subset", recorded)
        args = ("genus", "--conjecture", "10", "--freeset", "12")
        assert run(*args, "--mode", "exhaustive") == 0
        assert run(*args) == 0
        assert modes == ["exhaustive", "greedy"]

    def test_usage_error_then_a_valid_call(self, capsys):
        assert run("genus", "--conjecture", "x") == 2
        assert run("genus", "--conjecture", "10") == 0
        assert "genus 2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        for _ in range(2):
            assert run(*argv) == 0
            assert capsys.readouterr().out.startswith("usage: rainbowcube")


@st.composite
def saved_colorings(draw):
    """An explicit table on Q_n, n <= 5, with random int colors, or a c1 or
    c2 coloring from a random affine image of a subset of a B_t or 3-AP-free
    set (a x + b keeps both properties)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["explicit", "c1", "c2"]))
    if kind == "explicit":
        color = st.tuples(st.integers(-(10**20), 10**20), st.integers(-5, 5))
        table = {e.key(): draw(color) for e in enumerate_edges(n)}
        return EdgeColoring(n, draw(st.integers(4, 16)), "explicit", {}, table)
    t = draw(st.sampled_from([1, 2]))
    base = greedy_bt(t, 7) if kind == "c1" else behrend_set(30)
    picked = draw(st.lists(st.sampled_from(base), min_size=n, unique=True))
    a, b = draw(st.integers(1, 40)), draw(st.integers(0, 100))
    s = sorted(a * x + b for x in picked)
    if kind == "c1":
        return construction1(n, 4 * (t + 1), s)
    return construction2(n, s, s[-1] + draw(st.integers(0, 50)))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(col=saved_colorings())
def test_save_load_round_trip(tmp_path, col):
    path = str(tmp_path / "saved.json")
    save_coloring(col, path)
    back = load_coloring(path)
    assert (back.n, back.k) == (col.n, col.k)
    assert back.key_table() == col.key_table()


@st.composite
def odd_tables(draw):
    """An explicit table on Q_n, n <= 4, whose color parts may be bools,
    floats (inf and nan too), ints past 64 bits or lists."""
    n = draw(st.integers(1, 4))
    part = st.one_of(
        st.integers(-5, 5), st.booleans(), st.floats(),
        st.integers(-(10**30), 10**30), st.just(None),
    )
    color = st.one_of(
        st.tuples(part, part), st.lists(part, min_size=1, max_size=3).map(tuple),
        st.lists(part, min_size=2, max_size=2),
    )
    table = {e.key(): draw(color) for e in enumerate_edges(n)}
    return EdgeColoring(n, draw(st.integers(4, 16)), "explicit", {}, table)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(col=st.one_of(saved_colorings(), odd_tables()))
def test_save_matches_dumps_oracle(tmp_path, col):
    save_coloring(col, str(tmp_path / "streamed.json"))
    oracles.save_coloring_dumps(col, str(tmp_path / "dumped.json"))
    assert (tmp_path / "streamed.json").read_bytes() == (
        tmp_path / "dumped.json"
    ).read_bytes()


@pytest.mark.parametrize("chunk", [1, SAVE_CHUNK], ids=["one bottom a write", "default"])
@pytest.mark.parametrize("n", range(1, 9))
def test_scheme_documents_match_dumps_oracle(tmp_path, monkeypatch, n, chunk):
    # SAVE_CHUNK = 1 writes one bottom at a time, so the all-ones bottom, which
    # has no free direction and no record, would be a write of its own
    monkeypatch.setattr(cli, "SAVE_CHUNK", chunk)
    s, cap, _ = derive_c2_params(n, 1)
    wide = construction1(n, 12, [2**64 * x + 1 for x in greedy_bt(2, n)])
    assert wide.params["M"] > 2**64  # first color parts past 64 bits
    cols = [construction2(n, s, cap), construction1(n, 8, greedy_bt(1, n)), wide]
    for col in cols:
        save_coloring(col, str(tmp_path / "streamed.json"))
        oracles.save_coloring_dumps(col, str(tmp_path / "dumped.json"))
        assert (tmp_path / "streamed.json").read_bytes() == (
            tmp_path / "dumped.json"
        ).read_bytes()


class TestStreamedSave:
    def test_exact_document_matches_dumps_oracle(self, tmp_path):
        out = tmp_path / "exact.json"
        assert run("exact", "--n", "5", "--k", "4", "--out", str(out)) == 0
        _, col = exact_min_colors(5, 4)
        oracles.save_coloring_dumps(col, str(tmp_path / "dumped.json"))
        assert out.read_bytes() == (tmp_path / "dumped.json").read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--n", "12", "--scheme", "c2", "--eps", "1"),
            ("--n", "11", "--k", "8", "--scheme", "c1"),
        ],
    )
    def test_several_chunks_match_dumps_oracle(self, tmp_path, flags):
        out = tmp_path / "c.json"
        assert run("construct", *flags, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert len(doc["edges"]) > 2 * SAVE_CHUNK
        if doc["scheme"] == "construction2":
            rebuilt = construction2(doc["n"], doc["params"]["S"], doc["params"]["N"])
        else:
            rebuilt = construction1(doc["n"], doc["k"], doc["params"]["S"])
        oracles.save_coloring_dumps(rebuilt, str(tmp_path / "dumped.json"))
        assert out.read_bytes() == (tmp_path / "dumped.json").read_bytes()

    @pytest.mark.parametrize("where", ["missing edge", "unrenderable last color"])
    def test_refused_table_leaves_the_file_untouched(self, tmp_path, where):
        n = 10  # 5,120 edges, more than one chunk
        table = {e.key(): (0, 0) for e in enumerate_edges(n)}
        last = max(table)
        if where == "missing edge":
            del table[last]
            error = UsageError
        else:
            table[last] = (object(), 0)
            error = TypeError
        path = tmp_path / "kept.json"
        path.write_bytes(b"earlier bytes\n")
        with pytest.raises(error):
            save_coloring(EdgeColoring(n, 6, "explicit", {}, table), str(path))
        assert path.read_bytes() == b"earlier bytes\n"

    @pytest.mark.parametrize("scheme", ["c1", "c2"])
    def test_oversized_scheme_refused_before_open(self, tmp_path, scheme):
        n = TABLE_DIM_LIMIT + 1
        if scheme == "c1":
            col = construction1(n, 8, range(1, n + 1))
        else:
            col = construction2(n, *derive_c2_params(n, 1)[:2])
        path = tmp_path / "kept.json"
        path.write_bytes(b"earlier bytes\n")
        with pytest.raises(BudgetError) as info:
            save_coloring(col, str(path))
        assert info.value.kind == "class"
        assert path.read_bytes() == b"earlier bytes\n"

    def test_c2_n14_memory_stays_flat(self, tmp_path):
        # one dict per edge and the whole text peaked at 62 MB here
        s, cap, _ = derive_c2_params(14, 1)
        col = construction2(14, s, cap)
        tracemalloc.start()
        try:
            save_coloring(col, str(tmp_path / "c2.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (tmp_path / "c2.json").stat().st_size > 5 * 10**6


INT_FLAGS = ("--t", "--q", "--size", "--N", "--conjecture", "--freeset")
# values argparse's int() rejects
NOT_INTS = ["x", "2.5", "", "0x10", "1e3", "--", "3 4", "-"]
# values each command refuses before any work: out of range, a non-prime
# q, a wrong k, or above a size class
REFUSED = {
    "--t": ["0", "-1", str(10**9), str(10**30)],
    "--q": ["0", "1", "4", "9", str(2**61 - 1), str(10**30)],
    "--size": ["0", "-3", str(10**9), str(10**30)],
    "--N": ["0", "-5", str(2**22 + 1), str(10**30)],
    "--conjecture": ["8", "12", "6", "-2", "26", str(10**9 + 2), str(10**30 + 2)],
    "--freeset": ["0", "-1", str(10**30)],
}
CHEAP_ARGV = [
    ["sets", "--kind", "bt", "--t", "2", "--size", "6"],
    ["sets", "--kind", "bt", "--t", "3", "--q", "5"],
    ["sets", "--kind", "bt", "--t", "2", "--verify-only", "SET"],
    ["sets", "--kind", "behrend", "--N", "100"],
    ["sets", "--kind", "behrend", "--verify-only", "SET"],
    ["genus", "--conjecture", "10", "--freeset", "12"],
    ["genus", "--conjecture", "14", "--freeset", "8", "--mode", "exhaustive"],
    ["genus", "--eqs", "EQS", "--freeset", "10"],
]


@st.composite
def malformed_argv(draw):
    """A cheap valid genus or sets argument list (SET and EQS stand for
    input files) with one defect."""
    argv = list(draw(st.sampled_from(CHEAP_ARGV)))
    slots = [i for i in range(2, len(argv)) if argv[i - 1] in INT_FLAGS]
    defect = draw(st.sampled_from(
        ["not-int", "refused", "drop", "other", "unknown", "choice", "no-file"]
    ))
    if defect in ("not-int", "refused") and slots:
        i = draw(st.sampled_from(slots))
        argv[i] = draw(st.sampled_from(
            NOT_INTS if defect == "not-int" else REFUSED[argv[i - 1]]
        ))
    elif defect == "drop":  # a flag, leaving its value stray, or a value
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif defect == "unknown":
        flag = draw(st.sampled_from(["--bogus", "-z"]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    elif defect == "choice":
        if argv[0] == "sets":
            argv[2] = draw(st.sampled_from(["sidon", "", "BT"]))
        else:
            argv += ["--mode", draw(st.sampled_from(["fast", "", "GREEDY"]))]
    elif defect == "no-file":
        for i, arg in enumerate(argv):
            if arg in ("SET", "EQS"):
                argv[i] = "MISSING"
        if "MISSING" not in argv:
            argv += ["--verify-only" if argv[0] == "sets" else "--eqs", "MISSING"]
    else:  # a flag of the other kind or a second equation source
        argv += {"bt": ["--N", "50"], "behrend": ["--t", "2"]}.get(
            argv[2], ["--eqs", "EQS"] if "--conjecture" in argv else ["--conjecture", "10"]
        )
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=malformed_argv())
@example(argv=["genus", "--conjecture", str(10**9 + 2)])
@example(argv=["sets", "--kind", "bt", "--t", "2", "--q", str(2**61 - 1)])
@example(argv=["sets", "--kind", "bt", "--t", str(10**9), "--size", "1"])
@example(argv=["sets", "--kind", "bt", "--t", "2", "--size", str(10**9)])
@example(argv=["sets", "--kind", "bt", "--t", str(10**9), "--verify-only", "SET"])
@example(argv=["sets", "--kind", "bt", "--size", "6"])
def test_malformed_arguments_exit_two(tmp_path, capsys, argv):
    files = {
        "SET": write_json(tmp_path / "set.json", [1, 2, 5]),
        "EQS": write_json(tmp_path / "eqs.json", {"equations": [[1, 1, -2]]}),
        "MISSING": str(tmp_path / "missing.json"),
    }
    capsys.readouterr()
    start = time.monotonic()
    assert main([files.get(arg, arg) for arg in argv]) == 2
    assert time.monotonic() - start < 5
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "budget exceeded: ", "usage: ")), err


# cheap valid construct, verify and exact argument lists; COL stands for a
# Q_4 coloring file and OUT for an output path
CHEAP_COLORING_ARGV = [
    ["construct", "--n", "6", "--scheme", "c2", "--eps", "1", "--out", "OUT"],
    ["construct", "--n", "6", "--k", "8", "--scheme", "c1", "--out", "OUT"],
    ["construct", "--n", "5", "--k", "12", "--scheme", "c1", "--sidon", "bose-chowla",
     "--out", "OUT"],
    ["verify", "--coloring", "COL"],
    ["verify", "--coloring", "COL", "--k", "6"],
    ["exact", "--n", "4", "--k", "4"],
    ["exact", "--n", "3", "--k", "6", "--timeout", "5", "--out", "OUT"],
]
# values each argument list above refuses before any search
REFUSED_VALUES = {
    ("construct", "--n"): ["0", "-1", "19", "33", str(10**30)],
    ("construct", "--k"): ["0", "-8", "4", "7", "10", str(10**30)],
    ("construct", "--eps"): [
        "0", "-1", "x", "", "nan", "inf", "1/0", "10", "1e10000000", "1e1_0000000",
        "1e-1_000000",
    ],
    ("verify", "--k"): ["0", "3", "5", "-6", "1000", str(10**30)],
    ("exact", "--n"): ["0", "-1", "1", "33", str(10**30)],
    ("exact", "--k"): ["0", "3", "5", "-4", "1000", str(10**30)],
    ("exact", "--timeout"): ["nan", "inf", "-inf", "x", "", "-5"],
}
# a flag another command takes, or one that contradicts the argument list
FOREIGN = {
    "construct": [["--coloring", "COL"], ["--timeout", "1"], ["--t", "2"]],
    "verify": [["--n", "4"], ["--out", "OUT"], ["--scheme", "c2"]],
    "exact": [["--scheme", "c2"], ["--coloring", "COL"], ["--eps", "1"]],
}


@st.composite
def malformed_coloring_argv(draw):
    """A cheap valid construct, verify or exact argument list with one
    defect."""
    argv = list(draw(st.sampled_from(CHEAP_COLORING_ARGV)))
    cmd = argv[0]
    slots = [i for i in range(2, len(argv)) if (cmd, argv[i - 1]) in REFUSED_VALUES]
    defect = draw(st.sampled_from(
        ["not-int", "refused", "drop", "other", "unknown", "choice", "no-file"]
    ))
    int_slots = [i for i in slots if argv[i - 1] in ("--n", "--k")]
    if defect == "not-int" and int_slots:
        argv[draw(st.sampled_from(int_slots))] = draw(st.sampled_from(NOT_INTS))
    elif defect == "refused" and slots:
        i = draw(st.sampled_from(slots))
        argv[i] = draw(st.sampled_from(REFUSED_VALUES[cmd, argv[i - 1]]))
    elif defect == "drop":
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif defect == "choice" and "--scheme" in argv:
        i = argv.index("--scheme") + 1
        argv[i] = draw(st.sampled_from(["c3", "", "C2", "construction2"]))
    elif defect == "choice" and "--sidon" in argv:
        argv[argv.index("--sidon") + 1] = draw(st.sampled_from(["fast", "", "Greedy"]))
    elif defect == "no-file":
        if "COL" in argv:
            argv[argv.index("COL")] = "MISSING"
        elif "OUT" in argv:
            argv[argv.index("OUT")] = "NODIR"
        else:
            argv += ["--out", "NODIR"]
    elif defect == "other":
        argv += draw(st.sampled_from(FOREIGN[cmd]))
    else:
        flag = draw(st.sampled_from(["--bogus", "-z", "--sets"]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=malformed_coloring_argv())
@example(argv=["construct", "--n", "19", "--scheme", "c2", "--eps", "1", "--out", "OUT"])
@example(argv=["exact", "--n", "17", "--k", "4", "--timeout", "5"])
@example(argv=["construct", "--n", "6", "--scheme", "c2", "--k", "8", "--out", "OUT"])
@example(argv=["construct", "--n", "6", "--scheme", "c1", "--out", "OUT"])
@example(argv=["construct", "--n", "6", "--k", "8", "--scheme", "c1", "--sidon",
               "bose-chowla", "--out", "OUT"])
@example(argv=["construct", "--n", "6", "--scheme", "c2", "--eps", "1", "--sidon",
               "greedy", "--out", "OUT"])
def test_malformed_coloring_arguments_exit_two(tmp_path, capsys, argv):
    col = tmp_path / "col.json"
    if not col.exists():
        assert main(["construct", "--n", "4", "--scheme", "c2", "--eps", "1",
                     "--out", str(col)]) == 0
    files = {
        "COL": str(col),
        "OUT": str(tmp_path / "out.json"),
        "MISSING": str(tmp_path / "missing.json"),
        "NODIR": str(tmp_path / "no-such-dir" / "out.json"),
    }
    capsys.readouterr()
    start = time.monotonic()
    assert main([files.get(arg, arg) for arg in argv]) == 2
    assert time.monotonic() - start < 5
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "budget exceeded: ", "usage: ")), err
