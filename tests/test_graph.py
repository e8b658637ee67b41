from __future__ import annotations

import collections
import importlib
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given

from triconvex import graph
from triconvex.bitset import VertexSet, bit_members, byte_members
from triconvex.convexity import is_t_convex
from triconvex.errors import ParseError, ValidationError
from triconvex.generators import cycle_graph, path_graph, star_graph
from triconvex.graph import (
    FORMATS,
    Graph,
    _component_bits,
    _components_bits,
    _fold,
    _reach,
    is_connected,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    shortest_path,
    to_dimacs,
    to_edge_list,
)
from triconvex.oracle import is_triangle_path

from .strategies import graphs, graphs_with_subsets
from .test_convexity import cubic_core_with_trees, min_degree_gnp, wide_mask_cases

# A number that int() refuses: it reads at most 4300 digits.
LONG = "1" * 4301


class TestGraph:
    def test_basic_structure(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate collapses
        assert g.n == 4 and g.m == 2
        assert g.has_edge(2, 1) and not g.has_edge(0, 2)
        assert list(g.neighbors(1)) == [0, 2]
        assert g.degree(3) == 0
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_self_loop_and_bad_ids(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValidationError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValidationError, match="^vertex count must be nonnegative$"):
            Graph(-1)

    @pytest.mark.parametrize("v", [-1, 5, 7])
    def test_row_of_an_unknown_vertex_is_rejected(self, bowtie, v):
        with pytest.raises(ValidationError):
            bowtie.neighbors(v)
        with pytest.raises(ValidationError):
            bowtie.degree(v)

    def test_row_of_a_graph_with_no_vertices_says_so(self):
        with pytest.raises(ValidationError, match="^vertex 0: the graph has no vertices$"):
            Graph(0).neighbors(0)

    @pytest.mark.parametrize("u, v", [(0, -1), (-1, 0), (0, 5), (5, 0), (-1, 7)])
    def test_edge_with_an_unknown_end_is_absent(self, bowtie, u, v):
        assert not bowtie.has_edge(u, v)

    def test_induced_subgraph_keeps_ascending_order(self):
        g = Graph(5, [(0, 2), (2, 4), (0, 4), (1, 3)])
        sub, vertices = g.induced(VertexSet.from_iterable(5, [0, 2, 4]))
        assert vertices == (0, 2, 4)
        assert sub.n == 3 and sub.m == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and sub.has_edge(0, 2)


class TestParsing:
    def test_edge_list_basic(self):
        g = parse_graph("0 1\n1 2\n")
        assert g.n == 3 and list(g.edges()) == [(0, 1), (1, 2)]

    def test_edge_list_comments_and_isolated(self):
        g = parse_edge_list("# a triangle plus a loner\n0 1\n1 2 # chain\n0 2\n3\n")
        assert g.n == 4 and g.m == 3 and g.degree(3) == 0

    def test_edge_list_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 0\n")

    def test_edge_list_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\nnope\n")
        assert err.value.line == 2

    def test_edge_list_negative_id(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 -1\n")

    def test_dimacs_is_one_based(self):
        g = parse_graph("c path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n", fmt="dimacs")
        assert g.n == 4 and list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_dimacs_errors(self):
        with pytest.raises(ParseError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(ValidationError):
            parse_dimacs("p edge 3 1\ne 1 4\n")
        with pytest.raises(ValidationError):
            parse_dimacs("p edge 3 1\ne 2 2\n")
        with pytest.raises(ParseError) as err:
            parse_dimacs("p edge 3 1\nx 1 2\n")
        assert err.value.line == 2

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        with pytest.raises(ParseError, match=r"not UTF-8 \(invalid start byte at byte 4\)"):
            load_graph(str(path))

    @pytest.mark.parametrize(
        "case",
        [
            ("edge-list", "0 1\n1 2 3\n", ParseError, "line 2: expected 1 or 2 integers, got 3"),
            ("edge-list", "0 1\n\n 4 x # y\n", ParseError, "line 3: expected integers, got '4 x'"),
            ("edge-list", "0 1\n2 2\n", ValidationError, "line 2: self-loop at vertex 2"),
            ("edge-list", "0 1\n1 50000\n", ValidationError, "line 2: vertex id out of range 0..49999"),
            ("edge-list", "0 -1\n3 3\n", ValidationError, "line 1: vertex id out of range 0..49999"),
            ("dimacs", "e 1 2\n", ParseError, "line 1: edge before problem line"),
            ("dimacs", "c x\np edge 3 1\np edge 3 1\n", ParseError, "line 3: duplicate problem line"),
            ("dimacs", "p edge x 1\n", ParseError, "line 1: malformed problem line 'p edge x 1'"),
            ("dimacs", "p cnf 3 1\n", ParseError, "line 1: malformed problem line 'p cnf 3 1'"),
            ("dimacs", "p edge 3 1\ne 1\n", ParseError, "line 2: malformed edge line 'e 1'"),
            ("dimacs", "p edge 3 1\n e 1 y \n", ParseError, "line 2: malformed edge line 'e 1 y'"),
            ("dimacs", "p edge 3 1\nx 1 2\n", ParseError, "line 2: unknown line type 'x'"),
            ("dimacs", "p edge 3 1\ne 1 4\n", ValidationError, "line 2: vertex id out of range 1..3"),
            ("dimacs", "p edge 3 1\ne 3 3\n", ValidationError, "line 2: self-loop at vertex 3"),
            ("dimacs", "p edge 3 x\n", ParseError, "line 1: malformed problem line 'p edge 3 x'"),
            ("dimacs", "p edge -2 1\n", ValidationError, "line 1: vertex count must be nonnegative"),
            ("dimacs", "p edge -2 1\ne 1 2\n", ValidationError, "line 1: vertex count must be nonnegative"),
            (
                "dimacs",
                "p edge 60000 0\n",
                ValidationError,
                "line 1: vertex count 60000 exceeds the limit of 50000",
            ),
            ("dimacs", "c only\n", ParseError, "missing problem line"),
            # int() reads each of these ids; the formats take ASCII decimal only
            ("edge-list", "0 1_0\n", ParseError, "line 1: expected integers, got '0 1_0'"),
            ("edge-list", "0 1\n0 \u0663\n", ParseError, "line 2: expected integers, got '0 \u0663'"),
            ("edge-list", "0 +1\n", ParseError, "line 1: expected integers, got '0 +1'"),
            ("dimacs", "p edge 3 1\ne 1 1_0\n", ParseError, "line 2: malformed edge line 'e 1 1_0'"),
            ("dimacs", "p edge 3 1\ne 1 \u0663\n", ParseError, "line 2: malformed edge line 'e 1 \u0663'"),
            ("dimacs", "p edge 3 1\ne +1 2\n", ParseError, "line 2: malformed edge line 'e +1 2'"),
            ("dimacs", "p edge 1_0 1\n", ParseError, "line 1: malformed problem line 'p edge 1_0 1'"),
            ("dimacs", "p edge \u0663 1\n", ParseError, "line 1: malformed problem line 'p edge \u0663 1'"),
            ("dimacs", "p edge +3 1\n", ParseError, "line 1: malformed problem line 'p edge +3 1'"),
            # int() refuses a number of more than 4300 digits, which both
            # routes report at its line
            ("edge-list", f"0 {LONG}\n", ParseError, f"line 1: expected integers, got '0 {LONG}'"),
            ("dimacs", f"p edge {LONG} 1\n", ParseError, f"line 1: malformed problem line 'p edge {LONG} 1'"),
            ("dimacs", f"p edge 2 {LONG}\ne 1 2\n", ParseError, f"line 1: malformed problem line 'p edge 2 {LONG}'"),
            ("dimacs", f"p edge 3 1\ne 1 {LONG}\n", ParseError, f"line 2: malformed edge line 'e 1 {LONG}'"),
            ("xml", "", ValidationError, "unknown graph format 'xml'"),
        ],
    )
    def test_errors_keep_their_messages(self, case):
        # the rows are set as lines are read, but each error is raised
        # where and as it was when the parsers held edges
        fmt, text, error, message = case
        with pytest.raises(error) as err:
            parse_graph(text, fmt)
        assert type(err.value) is error and str(err.value) == message

    def test_shuffled_flipped_and_repeated_lines_parse_as_the_edges(self):
        # each row is kept from the lowest id it has met and shifted into
        # place at the end, so lines come in every order: an edge's smaller
        # end first or last, a row's neighbours rising or falling, repeats,
        # isolated ids declared before, between and after their edges
        rng = random.Random(3)
        for n in (1, 2, 5, 40, 130):
            for density in (0.0, 0.1, 0.5):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
                g = Graph(n, edges)
                lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
                lines += rng.sample(lines, len(lines) // 3) + [str(n - 1), str(rng.randrange(n))]
                rng.shuffle(lines)
                assert parse_edge_list(lines) == g, (n, density)
                pairs = [line.split() for line in lines if " " in line]
                dimacs = [f"p edge {n} {len(pairs)}"]
                dimacs += [f"e {int(u) + 1} {int(v) + 1}" for u, v in pairs]
                assert parse_dimacs(dimacs) == g, (n, density)

    @pytest.mark.parametrize(
        "fmt, head, line", [("edge-list", [], "0 1"), ("dimacs", ["p edge 2 1"], "e 1 2")]
    )
    def test_repeated_edges_take_no_memory(self, fmt, head, line):
        # a million copies of one edge peaked at 64 MB while the parsers
        # held every edge read
        def lines():
            yield from head
            for _ in range(1_000_000):
                yield line

        tracemalloc.start()
        try:
            g = parse_graph(lines(), fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 2 and g.m == 1
        assert peak < 5_000_000, peak

    @pytest.mark.parametrize(
        "fmt, text",
        [("edge-list", "0 1\n" * 1_000_000), ("dimacs", "p edge 2 1\n" + "e 1 2\n" * 1_000_000)],
        ids=FORMATS,
    )
    def test_a_long_plain_text_is_read_in_blocks(self, fmt, text):
        # a fullmatch of the whole text and its ids split at once peaked at
        # 193 MB (edge list) and 296 MB (DIMACS); its lines, as the line
        # loop reads them, at 60 MB
        tracemalloc.start()
        try:
            g = parse_graph(text, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 2 and g.m == 1
        assert peak < 12_000_000, peak

    def test_a_plain_text_past_the_cap_leaves_its_ids_behind(self):
        # the one-pass route lets go of its ids before the line loop reads
        # the lines and fails at the cap, which on its own peaks at 16 MB;
        # while the ids were held, this peaked at 40 MB
        text = "".join(f"{i} {i + 1}\n" for i in range(200_000))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="^line 50000: vertex id out of range"):
                parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24_000_000, peak

    def test_non_ascii_whitespace_still_splits_fields(self):
        # only the ids must be ASCII: str.split() separates at any whitespace
        assert parse_edge_list(["0\u30001"]) == Graph(2, [(0, 1)])
        assert parse_dimacs(["p\u00a0edge 2 1", "e 1\u00a02"]) == Graph(2, [(0, 1)])

    @pytest.mark.parametrize("block", [graph._BLOCK, 24])
    def test_one_pass_and_line_loop_agree(self, monkeypatch, block):
        # a text in plain form is read in one pass, its lines by the line
        # loop: both give the same graph, or the same error at the same line;
        # blocks of 24 characters split most texts in several runs
        monkeypatch.setattr(graph, "_BLOCK", block)
        calls = collections.Counter()
        rows = graph._plain_rows

        def counted(ids, first, n):
            out = rows(ids, first, n)
            calls["graph" if out is not None else "loop"] += 1
            return out

        monkeypatch.setattr(graph, "_plain_rows", counted)
        texts = [parse_text(random.Random(seed)) for seed in range(2000)]
        texts += benchmark_texts(monkeypatch)
        for fmt, text in texts:
            assert parse_outcome(text, fmt) == parse_outcome(text.splitlines(), fmt), (fmt, text)
        # the one-pass route built a graph, and met a self-loop, many times
        assert calls["graph"] > 400 and calls["loop"] > 20, calls

    @given(graphs(max_n=8))
    def test_round_trip_both_formats(self, g):
        assert parse_edge_list(to_edge_list(g)) == g
        assert parse_dimacs(to_dimacs(g)) == g


def parse_outcome(text, fmt):
    """The graph ``parse_graph`` returns, or its error's type, message and line."""
    try:
        return parse_graph(text, fmt)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


CAP = graph.MAX_VERTICES

# Lines that keep a text out of the plain form, or are plain but go to the
# line loop all the same: self-loops, ids out of range, a vertex count past
# the cap. "{u}" and "{v}" stand for small ids, "{n}" for the vertex count.
ODD_EDGE_LIST = (
    "# note", "", "   ", "{u}", "{u} {v} # note", "{u}\t{v}", " {u} {v}", "{u}  {v}",
    "{u} {v} {u}", "{u} {u}", "0 {cap_last}", "{cap} 0", "-1 {u}", "{u} 1_0", "{u} +1",
    "{u} \u0663", "x {u}", "{u} {long}", "{u} 000000000{v}",
)
ODD_DIMACS = (
    "c note", "comment", "", "p edge {n} 1", "p col {n} 2", "p edge {n}", "e {u} {v}",
    "e {u}\t{v}", "e {u}", "e {u} {u}", "e 0 {v}", "e 1 {n}", "e {u} {over}", "x {u} {v}",
    "e {u} 1_0", "e +{u} {v}", "e {u} {long}", "e {u} 00000000{v}",
)


def parse_text(rng):
    """A seeded edge-list or DIMACS text: about a third in plain form, the
    rest with some of the odd lines above, CRLF line ends or no final
    newline."""
    fmt = rng.choice(FORMATS)
    n = rng.choice((1, 2, 5, 9, 12, CAP, CAP + 1) if rng.random() < 0.05 else (1, 2, 5, 9, 12))
    small = range(min(n, 12))
    odd = rng.random() < 0.65
    lines = []
    if fmt == "dimacs":
        # str.splitlines ends a line at "\x85" and "\u2028" too
        comments = ("a", "x y", "\u0663", "", "1_0", "a\x85b", "a\u2028e 1 2")
        lines += ["c " + rng.choice(comments)] * rng.randrange(3)
        header = f"p edge {n} {rng.randrange(20)}"
        if odd and rng.random() < 0.1:
            header = rng.choice((f"p edge {n:010d} 1", f"p edge {n} {LONG}", f"p edge {LONG} 1"))
        lines.append(header)
    for _ in range(rng.randrange(12)):
        u, v = rng.sample(small, 2) if n > 1 else (0, 0)
        if odd and rng.random() < 0.3:
            line = rng.choice(ODD_DIMACS if fmt == "dimacs" else ODD_EDGE_LIST)
            line = line.format(
                u=u + 1, v=v + 1, n=n, over=n + 1, cap=CAP, cap_last=CAP - 1, long=LONG
            )
        elif fmt == "dimacs":
            line = f"e {u + 1} {v + 1}" if rng.random() > 0.03 else f"e {u + 1} {u + 1}"
        else:
            line = f"{u} {v}" if rng.random() > 0.03 else f"{u} {u}"
        lines.append(line)
    if fmt == "edge-list" and rng.random() < 0.03:
        lines.append(rng.choice((f"0 {CAP - 1}", f"{CAP} 1")))
    if odd and fmt == "dimacs" and rng.random() < 0.3:
        lines.insert(rng.randrange(len(lines) + 1), "e 1 2")
    end = "\r\n" if odd and rng.random() < 0.2 else "\n"
    text = "".join(line + end for line in lines)
    return fmt, text[: -len(end)] if odd and rng.random() < 0.2 else text


def benchmark_texts(monkeypatch):
    """Both texts of every graph of the benchmark's workloads, seed 0 at
    full size and seeds 0-2 at the size its own tests run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    inputs = importlib.import_module("inputs")
    workloads = importlib.import_module("workloads")
    texts = []
    for scale, seeds in (("full", (0,)), ("tiny", (0, 1, 2))):
        for name, workload in workloads.SCALES[scale].items():
            for seed in seeds:
                for i, spec in enumerate(workload.graphs):
                    gi = inputs.build_graph(name, seed, i, spec)
                    texts += [("edge-list", gi.edge_list_text()), ("dimacs", gi.dimacs_text())]
    return texts


def components(g, removed=0):
    """(D, N(D)) of each component D of G - removed, by min vertex, as masks."""
    return _components_bits(g._adj, ((1 << g.n) - 1) & ~removed)


class TestComponents:
    def test_path_cut(self, p4):
        assert components(p4, 0b0010) == [(0b0001, 0b0010), (0b1100, 0b0010)]

    def test_whole_graph_when_nothing_removed(self, c5):
        assert components(c5) == [(0b11111, 0)]

    def test_cycle_cut(self, c5):
        assert components(c5, 0b00101) == [(0b00010, 0b00101), (0b11000, 0b00101)]

    @given(graphs_with_subsets(max_n=9))
    def test_partition_with_no_crossing_edges(self, case):
        g, removed = case
        comps = components(g, removed.bits)
        seen = 0
        for c, boundary in comps:
            assert c and c & removed.bits == 0
            assert c & seen == 0
            seen |= c
            reach = 0
            for v in bit_members(c):
                reach |= g._adj[v]
            assert boundary == reach & removed.bits
        assert seen == ((1 << g.n) - 1) & ~removed.bits
        assert [c & -c for c, _ in comps] == sorted(c & -c for c, _ in comps)
        for a, _ in comps:
            for b, _ in comps:
                if a != b:
                    assert not any(g._adj[v] & b for v in bit_members(a))


def reference_component(g, alive, seeds):
    """``_component_bits`` by a queue BFS over neighbour lists."""
    seen = set(bit_members(seeds))
    queue = collections.deque(seen)
    while queue:
        for w in g.neighbors(queue.popleft()):
            if (alive >> w) & 1 and w not in seen:
                seen.add(w)
                queue.append(w)
    return sum(1 << v for v in seen)


def count_byte_levels(monkeypatch):
    """The sizes of the masks ``_reach`` and ``_fold`` list by bytes from
    now on."""
    sizes = []

    def counted(bits):
        sizes.append(bits.bit_count())
        return byte_members(bits)

    monkeypatch.setattr(graph, "byte_members", counted)
    return sizes


def search_shapes():
    return (
        min_degree_gnp(600, 10 / 600, 3),
        path_graph(500),
        cycle_graph(500),
        star_graph(250),
        cubic_core_with_trees(40, 80, 6),
    )


class TestReach:
    def test_matches_a_plain_row_or(self, monkeypatch):
        # 0, 1 and 2 members take the low bit alone; 2 + _WIDE_LEVEL
        # members leave _WIDE_LEVEL after the two peels, still the low bit,
        # and one more goes by bytes
        wide = count_byte_levels(monkeypatch)
        rng = random.Random(5)
        for g in search_shapes():
            for size in (0, 1, 2, 3, graph._WIDE_LEVEL + 2, graph._WIDE_LEVEL + 3, g.n):
                bits = sum(1 << v for v in rng.sample(range(g.n), size))
                expected = 0
                for v in bit_members(bits):
                    expected |= g._adj[v]
                wide.clear()
                assert _reach(g._adj, bits) == expected, (g, size)
                assert wide == ([size - 2] if size > graph._WIDE_LEVEL + 2 else []), (g, size)


def low_bit_fold(adj, bits, once, twice):
    """``_fold`` by the low bit alone."""
    while bits:
        low = bits & -bits
        bits ^= low
        row = adj[low.bit_length() - 1]
        twice |= once & row
        once |= row
    return once, twice


class TestFold:
    def test_matches_a_low_bit_fold(self, monkeypatch):
        # a mask of more than _WIDE_LEVEL members is folded by bytes, a
        # narrower one by the low bit, and both fold into the masks passed in
        wide = count_byte_levels(monkeypatch)
        rng = random.Random(7)
        for adj, bits in wide_mask_cases(rng):
            n = len(adj)
            once = rng.getrandbits(n) | 1
            twice = once & (rng.getrandbits(n) | 1)
            size = bits.bit_count()
            wide.clear()
            assert _fold(adj, bits, once, twice) == low_bit_fold(adj, bits, once, twice), (n, size)
            assert wide == ([size] if size > graph._WIDE_LEVEL else []), (n, size)


class TestComponentSearch:
    def test_matches_a_queue_bfs(self, monkeypatch):
        # the dense graph's and the star's wide levels go by bytes, the
        # levels of paths and cycles by the low bit
        wide = count_byte_levels(monkeypatch)
        rng = random.Random(17)
        for g in search_shapes():
            for density in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                alive = sum(1 << v for v in range(g.n) if rng.random() < density)
                for seeds in (
                    1 << rng.randrange(g.n),
                    sum(1 << rng.randrange(g.n) for _ in range(3)),
                    alive & -alive,
                ):
                    if seeds:
                        expected = reference_component(g, alive, seeds)
                        assert _component_bits(g._adj, alive, seeds) == expected, (g, density)
        assert wide and max(wide) > 300

    @pytest.mark.parametrize("make", [path_graph, cycle_graph])
    def test_long_graphs_expand_no_level_by_bytes(self, monkeypatch, make):
        g = make(10_000)
        wide = count_byte_levels(monkeypatch)
        full = (1 << g.n) - 1
        assert _component_bits(g._adj, full, 1) == full
        assert wide == []

    def test_a_dense_mono_witness_expands_a_level_by_bytes(self, monkeypatch):
        g = min_degree_gnp(600, 10 / 600, 0)
        rng = random.Random(4)
        wide = count_byte_levels(monkeypatch)
        for _ in range(50):
            wide.clear()
            pair = VertexSet.from_iterable(g.n, rng.sample(range(g.n), 2))
            convex, witness = is_t_convex(g, pair)
            if not convex and witness.kind == "mono-violation":
                break
        else:
            pytest.fail("50 random pairs gave no mono witness")
        assert wide, "no level of the mono scan was listed by bytes"


class TestShortestPath:
    def test_unique_path(self, p4):
        path = shortest_path(p4, 0, 3)
        assert path.vertices == (0, 1, 2, 3)

    def test_single_vertex(self, c5):
        assert shortest_path(c5, 2, 2).vertices == (2,)

    def test_forced_route_around_cycle(self, c5):
        within = VertexSet.from_iterable(5, [0, 2, 3, 4])
        path = shortest_path(c5, 0, 2, within)
        assert path.vertices == (0, 4, 3, 2)

    def test_endpoint_outside_raises(self, c5):
        with pytest.raises(ValidationError):
            shortest_path(c5, 0, 2, VertexSet.from_iterable(5, [0, 1]))
        for u in (-1, 5):
            with pytest.raises(ValidationError):
                shortest_path(c5, u, 2)
        with pytest.raises(ValidationError):
            shortest_path(c5, 0, 2, VertexSet.full(6))

    def test_disconnected_returns_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_tie_breaks_to_smallest_next_vertex(self):
        # two shortest 0-3 routes: through 1 or through 2
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path(g, 0, 3).vertices == (0, 1, 3)

    @given(graphs_with_subsets(max_n=9))
    def test_result_is_induced_hence_triangle_path(self, case):
        g, within = case
        verts = list(within)
        if len(verts) < 2:
            return
        u, v = verts[0], verts[-1]
        path = shortest_path(g, u, v, within)
        if path is None:
            return
        assert set(path) <= set(verts)
        vs = path.vertices
        for i in range(len(vs)):
            for j in range(i + 2, len(vs)):
                assert not g.has_edge(vs[i], vs[j])  # shortest paths are induced
        assert is_triangle_path(g, vs)


def test_is_connected():
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert is_connected(Graph(2, [(0, 1)]))
