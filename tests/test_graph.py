import gc
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from citesim import fixtures
from citesim.errors import DataError
from citesim.graph import (
    CitationGraph,
    GraphStats,
    LoadReport,
    PaperMeta,
    classify_connector,
    load_graph,
    load_graph_files,
    read_edge_list,
    read_tab_lines,
    read_metadata,
)
from citesim.matrix import read_matrix_csv


def test_empty_stream():
    g, report = load_graph([])
    assert g.n == 0
    assert g.edges == frozenset()
    assert report.duplicate_edges == 0 and report.self_loops == 0
    s = g.stats()
    assert (s.n, s.edge_count, s.d1, s.d2, s.sources, s.sinks) == (0, 0, 0.0, 0.0, 0, 0)


def test_dedup_and_self_loops():
    g, report = load_graph([("A", "B"), ("A", "B"), ("C", "C")])
    assert g.n == 3  # C survives as an isolated node
    assert g.edges == frozenset({(g.id_of("A"), g.id_of("B"))})
    assert report.duplicate_edges == 1
    assert report.self_loops == 1
    assert g.neighbors(g.id_of("C"), "undirected") == frozenset()


def test_shared_graph_shape(shared_graph):
    assert shared_graph.n == 10
    assert len(shared_graph.edges) == 9


def test_ids_follow_first_appearance(shared_graph):
    order = [shared_graph.external_id(p) for p in range(shared_graph.n)]
    assert order == ["i", "e", "f", "b", "d", "a", "g", "c", "j", "h"]


def test_neighbor_views(shared_graph):
    g = shared_graph
    e = g.id_of("e")
    assert g.neighbors(e, "in") == {g.id_of("i")}
    assert g.neighbors(e, "out") == {g.id_of("b")}
    assert g.neighbors(e, "undirected") == {g.id_of("i"), g.id_of("b")}


def test_neighbors_rejects_bad_input(shared_graph):
    with pytest.raises(ValueError):
        shared_graph.neighbors(99, "in")
    with pytest.raises(ValueError):
        shared_graph.neighbors(0, "sideways")
    # a paper id is an integer: a float or a string is none, a bool reads as 0 or 1
    for paper in (1.0, 0.5, "1"):
        with pytest.raises(TypeError):
            shared_graph.neighbors(paper, "in")
    assert shared_graph.neighbors(True, "out") == shared_graph.neighbors(1, "out")
    assert shared_graph.neighbors(np.int64(1)) == shared_graph.neighbors(1)
    # external_id reads its id by the same rule: -1 is not the last paper
    n = shared_graph.n
    for paper in (-1, n):
        with pytest.raises(ValueError, match=rf"^paper id {paper} out of range \[0, {n}\)$"):
            shared_graph.external_id(paper)
    for paper in (1.0, "1"):
        with pytest.raises(TypeError):
            shared_graph.external_id(paper)
    assert shared_graph.external_id(True) == shared_graph.external_id(np.int64(1)) == "e"


def test_has_edge_reads_both_ids_as_integers():
    g = CitationGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(np.int64(1), np.int32(2)) and g.has_edge(True, 2)
    assert not g.has_edge(0, 2) and not g.has_edge(False, 0)
    for u, v in ((0, 1.0), (0, 1.5), (1.0, 0), (0, "1")):
        with pytest.raises(TypeError):
            g.has_edge(u, v)
    # an integer outside [0, n) cites, and is cited by, nothing
    for u, v in ((-1, 0), (0, -2), (0, 3), (3, 0), (0, 2**70), (-(2**70), 1)):
        assert not g.has_edge(u, v)


def test_mutual_citations_collapse_in_undirected_view():
    g, _ = load_graph([("A", "B"), ("B", "A")])
    assert len(g.edges) == 2
    assert g.neighbors(g.id_of("A"), "undirected") == {g.id_of("B")}


def test_csr_rows_are_the_sorted_neighbor_views(shared_graph):
    mutual, _ = load_graph([("A", "B"), ("B", "A"), ("A", "C")])
    for g in (shared_graph, mutual):
        for view in ("in", "out", "undirected"):
            indptr, indices = g.csr(view)
            assert len(indptr) == g.n + 1
            for p in range(g.n):
                row = indices[indptr[p]:indptr[p + 1]].tolist()
                assert row == sorted(g.neighbors(p, view))
    with pytest.raises(ValueError):
        shared_graph.csr("sideways")


def test_csr_arrays_are_read_only(shared_graph):
    for view in ("in", "out", "undirected"):
        for array in shared_graph.csr(view):
            with pytest.raises(ValueError):
                array[0] = 1


IDS = [f"p{i}" for i in range(12)]


@settings(max_examples=200, deadline=None)
@given(
    # eight ids for the edges: duplicates, self-loops and mutual citations
    # are common; metadata may name the other four, which stay isolated
    edges=st.lists(st.tuples(st.sampled_from(IDS[:8]), st.sampled_from(IDS[:8])), max_size=40),
    meta_ids=st.lists(st.sampled_from(IDS), unique=True, max_size=6),
)
@example(edges=[], meta_ids=[])
@example(edges=[("p0", "p1"), ("p1", "p0"), ("p0", "p1"), ("p2", "p2")], meta_ids=["p9"])
def test_loader_matches_a_set_reference(edges, meta_ids):
    meta = [PaperMeta(ext, title=f"title of {ext}") for ext in meta_ids]
    g, report = load_graph(edges, meta)
    order, (duplicates, loops), edge_set, views = oracles.reference_load(edges, meta)
    n = len(order)
    assert g.n == n
    assert [g.external_id(p) for p in range(n)] == order
    assert [m.title for m in g.meta] == [
        f"title of {ext}" if ext in meta_ids else "" for ext in order]
    assert report == LoadReport(duplicate_edges=duplicates, self_loops=loops)
    assert g.edges == edge_set
    for view, sets in views.items():
        indptr, indices = g.csr(view)
        assert indptr.tolist() == [0, *np.cumsum([len(s) for s in sets]).tolist()]
        assert indices.tolist() == [x for s in sets for x in sorted(s)]
        assert g.neighbor_sets(view) == tuple(frozenset(s) for s in sets)
        for p in range(n):
            assert g.neighbors(p, view) == sets[p]
    assert g.in_index == tuple(map(frozenset, views["in"]))
    assert g.out_index == tuple(map(frozenset, views["out"]))
    assert g.neighbor_sets("undirected") == tuple(map(frozenset, views["undirected"]))
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) == ((u, v) in edge_set)
    e = len(edge_set)
    expected = GraphStats(0, 0, 0.0, 0.0, 0, 0) if n == 0 else GraphStats(
        n, e, e / n, e / n, sum(not s for s in views["in"]), sum(not s for s in views["out"]))
    assert g.stats() == expected


def _edge_lists(endpoints):
    return st.lists(st.tuples(endpoints, endpoints), max_size=12)


# caller pairs as Python ints (some beyond int64), an int64 (k, 2) array,
# tuples of np.int64, and ints mixed with bools
_SMALL = st.integers(-2, 7)
_CALLER_EDGES = st.one_of(
    _edge_lists(_SMALL | st.sampled_from([2**63, 2**70, -(2**63) - 1])),
    _edge_lists(_SMALL).map(lambda edges: np.array(edges, dtype=np.int64).reshape(-1, 2)),
    _edge_lists(_SMALL.map(np.int64)),
    _edge_lists(_SMALL | st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 6), edges=_CALLER_EDGES)
@example(n=3, edges=[(0, 1), (1, 0), (2, 2**70)])  # beyond int64: out of range
@example(n=3, edges=[(0, 0), (-(2**70), 1)])
@example(n=3, edges=[(0, 1), (1, 2), (0, 1), (0, 0)])
@example(n=3, edges=np.array([[0, 1], [2, 2**62], [1, 2]]))
@example(n=3, edges=[(np.int64(1), np.int64(2)), (True, 2)])
def test_from_edges_rejects_the_first_bad_edge_as_a_set_loop_does(n, edges):
    message = oracles.reference_from_edges_error(n, edges)
    if message is None:
        assert CitationGraph.from_edges(n, edges).edges == set(map(tuple, edges))
    else:
        with pytest.raises(DataError) as exc:
            CitationGraph.from_edges(n, edges)
        assert str(exc.value) == message


def test_load_retains_little_beyond_meta(tmp_path):
    # about 20k papers and 100k edges.  The graph holds three CSR views
    # (about 32 bytes per edge) and the id map; the metadata holds the id
    # strings.  Per-edge tuples and sets, as once stored, took over 400
    # bytes per edge.
    rng = np.random.default_rng(5)
    n, e = 20_000, 100_000
    keys = rng.choice(n * (n - 1), size=e, replace=False)
    citing, step = np.divmod(keys, n - 1)
    cited = (citing + 1 + step) % n  # never citing itself
    path = tmp_path / "big.tsv"
    path.write_text("".join(f"p{u}\tp{v}\n" for u, v in zip(citing.tolist(), cited.tolist())))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g, report = load_graph_files(path)
        with_graph = tracemalloc.get_traced_memory()[0] - base
        meta, stats = g.meta, g.stats()
        del g
        gc.collect()
        meta_only = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert report == LoadReport() and stats.edge_count == e and stats.n == len(meta)
    assert (with_graph - meta_only) / e <= 64


def test_stats_on_fixtures(shared_graph):
    s = shared_graph.stats()
    assert s.edge_count == 9
    assert s.d1 == pytest.approx(0.9)
    assert s.d2 == pytest.approx(0.9)
    assert s.sources == 2  # h and j are uncited
    assert s.sinks == 3  # a, b, c cite nothing
    star = fixtures.star_graph(4).stats()
    assert star.sources == 4 and star.sinks == 2


def test_index_transpose_and_undirected_closure():
    for seed in range(8):
        g = fixtures.random_graph(12, 0.2, seed=seed)
        for p in range(g.n):
            for q in range(g.n):
                assert (q in g.neighbors(p, "in")) == (p in g.neighbors(q, "out"))
            assert g.neighbors(p, "undirected") == (
                g.neighbors(p, "in") | g.neighbors(p, "out")
            )
            for q in g.neighbors(p, "undirected"):
                assert p in g.neighbors(q, "undirected")


def test_load_is_idempotent():
    stream = [("x", "y"), ("y", "z"), ("w", "x"), ("x", "z")]
    g1, _ = load_graph(stream)
    g2, _ = load_graph(stream)
    assert g1.edges == g2.edges
    assert [m.external_id for m in g1.meta] == [m.external_id for m in g2.meta]


def test_connector_roles(shared_graph, gap_graph):
    g = shared_graph
    assert classify_connector(g, g.id_of("b"), g.id_of("e"), g.id_of("f")) == {"OP"}
    assert classify_connector(g, g.id_of("i"), g.id_of("e"), g.id_of("f")) == {"IP"}
    h = gap_graph
    assert classify_connector(h, h.id_of("f"), h.id_of("g"), h.id_of("h")) == {"OP"}
    assert classify_connector(h, h.id_of("h"), h.id_of("d"), h.id_of("f")) == {"IP"}
    assert classify_connector(h, h.id_of("j"), h.id_of("l"), h.id_of("e")) == {"BP"}
    # unrelated triple has no role
    assert classify_connector(g, g.id_of("b"), g.id_of("a"), g.id_of("c")) == frozenset()


def test_connector_multiple_roles():
    # p and q both cite x, and x cites q back: OP and BP at once
    g = CitationGraph.from_edges(3, [(0, 2), (1, 2), (2, 1)])
    assert classify_connector(g, 2, 0, 1) == {"OP", "BP"}


def test_connector_matches_edge_queries_brute_force():
    g = fixtures.random_graph(9, 0.25, seed=3)
    for x in range(g.n):
        for p in range(g.n):
            for q in range(p + 1, g.n):
                if x in (p, q):
                    continue
                roles = set()
                if g.has_edge(p, x) and g.has_edge(q, x):
                    roles.add("OP")
                if g.has_edge(x, p) and g.has_edge(x, q):
                    roles.add("IP")
                if (g.has_edge(p, x) and g.has_edge(x, q)) or (
                    g.has_edge(q, x) and g.has_edge(x, p)
                ):
                    roles.add("BP")
                assert classify_connector(g, x, p, q) == roles


def test_connector_rejects_bad_triples(shared_graph):
    with pytest.raises(ValueError):
        classify_connector(shared_graph, 1, 1, 2)
    with pytest.raises(ValueError):
        classify_connector(shared_graph, 0, 1, 99)
    for triple in ((0.5, 1, 2), (0, 1.0, 2), (0, 1, "2")):
        with pytest.raises(TypeError):
            classify_connector(shared_graph, *triple)


def test_from_edges_is_strict():
    with pytest.raises(DataError):
        CitationGraph.from_edges(3, [(0, 0)])
    with pytest.raises(DataError):
        CitationGraph.from_edges(3, [(0, 1), (0, 1)])
    with pytest.raises(DataError):
        CitationGraph.from_edges(3, [(0, 5)])
    with pytest.raises(DataError):
        CitationGraph.from_edges(2, [(0, 1)], meta=[PaperMeta("only-one")])
    with pytest.raises(DataError, match="external ids are not unique"):
        CitationGraph.from_edges(2, [(0, 1)], meta=[PaperMeta("a"), PaperMeta("a")])
    # every endpoint is an integer; a cast to int64 would make each of these an edge
    for edge in ((0.5, 2), (0, 1.9), ("0", "2")):
        for edges in ([edge], [(0, 1), edge], [(0, 2**70), edge]):
            with pytest.raises(TypeError):
                CitationGraph.from_edges(3, edges)
    assert CitationGraph.from_edges(3, [(True, 2)]).edges == {(1, 2)}
    assert CitationGraph.from_edges(3, [(True, False)]).edges == {(1, 0)}
    # an entry that is not two endpoints is named, never re-paired with the next
    for n, edges, first in ((6, [(0, 1, 2), (3, 4, 5)], "(0, 1, 2)"),
                            (4, [0, 1, 2, 3], "0"),
                            (6, [(0,), (1,)], "(0,)"),
                            (6, np.array([[0, 1, 2], [3, 4, 5]]), "array([0, 1, 2])"),
                            (6, [[0, 1], [2]], "[2]"),
                            # no citing end: a set or a mapping gives only an iteration order
                            (3, [{2, 1}], "{1, 2}"),
                            (3, [(0, 1), frozenset({2, 1})], "frozenset({1, 2})"),
                            (5, [{0: "a", 4: "b"}], "{0: 'a', 4: 'b'}")):
        with pytest.raises(DataError, match=f"^edge {re.escape(first)} is not a pair of endpoints$"):
            CitationGraph.from_edges(n, edges)


def test_star_graph_needs_a_referrer():
    with pytest.raises(ValueError, match="need at least one referrer"):
        fixtures.star_graph(0)


@pytest.mark.parametrize("build", [
    lambda: CitationGraph.from_edges(-1, []),
    lambda: fixtures.random_graph(-1, 0.5, 1),
    lambda: fixtures.clustered_citation_graph(-1, 15),
], ids=["from_edges", "random_graph", "clustered_citation_graph"])
def test_a_negative_node_count_is_named(build):
    with pytest.raises(ValueError, match="^node count must be non-negative$"):
        build()


def test_paper_meta_validation():
    with pytest.raises(DataError):
        PaperMeta("")
    with pytest.raises(DataError):
        PaperMeta("x", year=1800)
    assert PaperMeta("x", year=1900).year == 1900
    assert PaperMeta("x", year=2100).year == 2100
    assert PaperMeta("x").year is None
    # a year is an integer: a float or a string is none, and any integer type is stored as int
    for year in (1950.5, 1950.0, "1950"):
        with pytest.raises(TypeError):
            PaperMeta("x", year=year)
    year = PaperMeta("x", year=np.int64(1999)).year
    assert year == 1999 and type(year) is int


def test_load_graph_rejects_an_empty_id():
    for edge in (("", "B"), ("A", "")):
        with pytest.raises(DataError, match="empty paper id in edge stream"):
            load_graph([("A", "B"), edge])


def test_duplicate_meta_rejected():
    metas = [PaperMeta("A", title="one"), PaperMeta("A", title="two")]
    with pytest.raises(DataError):
        load_graph([("A", "B")], metas)


def test_meta_only_node_is_retained():
    g, _ = load_graph([("A", "B")], [PaperMeta("Z", title="isolated")])
    assert g.n == 3
    z = g.id_of("Z")
    assert g.neighbors(z, "undirected") == frozenset()
    assert g.meta[z].title == "isolated"
    # meta-only papers follow the endpoints in record order, and the index
    # the constructor builds from the records numbers them the same way
    g, _ = load_graph([("A", "B")], [PaperMeta("Z"), PaperMeta("B", title="b"), PaperMeta("Y")])
    assert [g.id_of(ext) for ext in "ABZY"] == [0, 1, 2, 3]
    assert [g.external_id(p) for p in range(g.n)] == list("ABZY")


def test_unknown_external_id_names_the_id(shared_graph):
    with pytest.raises(DataError, match="nope"):
        shared_graph.id_of("nope")


def test_read_edge_list(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# comment\nA\tB\n\nB\tC\n")
    assert list(read_edge_list(path)) == [("A", "B"), ("B", "C")]


def test_read_tab_lines_numbers_every_line_and_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"# head\nA\tB\r\n\n  \t \n  # indented\nC\t\tE\nF\n")
    assert list(read_tab_lines(path)) == [
        (2, "A\tB", ["A", "B"]),
        (6, "C\t\tE", ["C", "", "E"]),
        (7, "F", ["F"]),
    ]


def test_read_edge_list_reports_line_number(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("A\tB\nnot-tab-separated\n")
    with pytest.raises(DataError, match=r":2:"):
        list(read_edge_list(path))


def test_read_edge_list_rejects_empty_endpoint(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("A\t\n")
    with pytest.raises(DataError, match=r":1:"):
        list(read_edge_list(path))


def test_read_metadata(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("external_id,title,year\nA,Some title,1999\nB,,\n")
    records = read_metadata(path)
    assert records[0] == PaperMeta("A", "Some title", 1999)
    assert records[1] == PaperMeta("B", "", None)


def test_read_metadata_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,name\nA,x\n")
    with pytest.raises(DataError, match="header"):
        read_metadata(path)


def test_read_metadata_rejects_bad_year(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("external_id,title,year\nA,x,soon\n")
    with pytest.raises(DataError, match=r":2:"):
        read_metadata(path)
    path.write_text("external_id,title,year\nA,x,1492\n")
    with pytest.raises(DataError, match=r":2:"):
        read_metadata(path)
    # the quoted title of row 2 spans lines 2 and 3, so the bad year is on line 4
    path.write_text('external_id,title,year\nA,"two\nlines",1999\nB,x,soon\n')
    with pytest.raises(DataError, match=r"m\.csv:4:"):
        read_metadata(path)


@pytest.mark.parametrize("year", ["19_99", "\uff11\uff19\uff19\uff19"])
def test_read_metadata_rejects_digit_separators_and_non_ascii_digits(tmp_path, year):
    # int() reads both forms as 1999
    path = tmp_path / "m.csv"
    path.write_text(f"external_id,title,year\na,x,1999\nb,y,{year}\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_metadata(path)
    assert str(err.value) == f"{path}:3: year {year!r} is not an integer"


def test_read_metadata_rejects_a_repeated_id_at_its_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("external_id,title,year\na,x,1999\nb,,\n\na,y,2001\n")
    with pytest.raises(DataError) as err:
        read_metadata(path)
    assert str(err.value) == f"{path}:5: duplicate metadata for 'a'"


def test_file_round_trip(tmp_path, gap_graph):
    edge_path = tmp_path / "g.tsv"
    meta_path = tmp_path / "m.csv"
    fixtures.write_edge_file(gap_graph, edge_path)
    fixtures.write_meta_file(gap_graph, meta_path)
    g2, report = load_graph_files(edge_path, meta_path)
    assert g2.n == gap_graph.n
    assert report.duplicate_edges == 0 and report.self_loops == 0
    original = {
        (gap_graph.external_id(u), gap_graph.external_id(v)) for u, v in gap_graph.edges
    }
    reloaded = {(g2.external_id(u), g2.external_id(v)) for u, v in g2.edges}
    assert original == reloaded


def test_meta_file_round_trip_keeps_integer_years(tmp_path):
    years = [1900, np.int64(1999), None, np.int32(2001), 2100]
    meta = [PaperMeta(f"p{p}", title=f"t{p}, with a comma", year=y) for p, y in enumerate(years)]
    g = CitationGraph.from_edges(5, [(0, 1), (1, 2)], meta)
    fixtures.write_edge_file(g, tmp_path / "g.tsv")
    fixtures.write_meta_file(g, tmp_path / "m.csv")
    g2, _ = load_graph_files(tmp_path / "g.tsv", tmp_path / "m.csv")
    assert g2.meta == g.meta
    assert [type(m.year) for m in g2.meta] == [type(m.year) for m in g.meta] == [
        int, int, type(None), int, int]


# sha256 of write_edge_file's bytes, then write_meta_file's, for each seeded
# graph: the benchmark's inputs at seeds 1 and 2, and the edge cases.  The
# digests were taken from the per-pair and whole-square draws that the row
# draws replaced.
SEEDED_GRAPH_DIGESTS = [
    ("random", (600, 5 / 600, 1),
     "3a0669949bff6e7ca118d36a51c4d7a42aaf240d3ebd34411701b5d077b5a5db"),
    ("random", (600, 5 / 600, 2),
     "6ae5b283f331a6a3f9dce7541ba2bb5051764478292f7e50cfda6b76f4f771a6"),
    ("clustered", (10, 60, 0.13, 0.004, 1),
     "3d7724e67c4d0939688c792169bd673a970e6611c4209570c552a4b40b2bd068"),
    ("clustered", (10, 60, 0.13, 0.004, 2),
     "4963a49b555bbcc4aa285a24a85108515b83c4b250da396f99509dedd4c71259"),
    ("random", (97, 0.3, 5), "4520970424d8480ee4eec21567bca1d85c692e87a4be4367c62ff9494ba17789"),
    ("random", (6, 0.0, 0), "f92cd9ac2a470941074049482f7b4df39d22421c36263124ca912a4c9ba14613"),
    ("random", (1, 0.5, 2), "f6747577f12e3abdf2b293cc80fcec195af4db8fbef603a98dc10b4dc7e0343f"),
    ("random", (0, 0.5, 1), "9616108de3a9e00980ceef3cb0418a09f09d5866aba12ae4cca85c9e1d922239"),
    ("clustered", (), "e08bf9188973ed06422088da8ef839dbaa28c1301a85cbcbea2821b78ff5f2c2"),
    ("clustered", (4, 30, 0.2, 0.01, 3),
     "bb04e5d9cd70ea8877e2b1c20ca0dc16d91f1ccef427a7fb1916c3c293040b14"),
    ("clustered", (3, 0, 0.3, 0.02, 0),
     "9616108de3a9e00980ceef3cb0418a09f09d5866aba12ae4cca85c9e1d922239"),
]


@pytest.mark.parametrize("kind, args, digest", SEEDED_GRAPH_DIGESTS)
def test_seeded_graphs_keep_their_bytes(tmp_path, kind, args, digest):
    if kind == "random":
        g = fixtures.random_graph(*args)
    else:
        g, _ = fixtures.clustered_citation_graph(*args)
    fixtures.write_edge_file(g, tmp_path / "g.tsv")
    fixtures.write_meta_file(g, tmp_path / "m.csv")
    data = (tmp_path / "g.tsv").read_bytes() + (tmp_path / "m.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("build", [
    lambda: fixtures.random_graph(1200, 5 / 1200, 1),
    lambda: fixtures.clustered_citation_graph(20, 60, 0.13, 0.004, 1),
], ids=["random", "clustered"])
def test_seeded_graphs_draw_no_square(build):
    # tracemalloc peak in n x n float64 squares at n=1200: 0.11 and 0.12
    # drawn row by row; a whole square, or clustered's whole lower triangle
    # with its index arrays, would read at least 0.5
    build()
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * 1200 * 1200) < 0.25


def _assert_same_graph(g, h):
    assert g.n == h.n and g.meta == h.meta
    for view in ("in", "out", "undirected"):
        for a, b in zip(g.csr(view), h.csr(view)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


probabilities = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40), density=probabilities, seed=st.integers(0, 2**32 - 1))
@example(n=1, density=1.0, seed=0)  # the diagonal's draw is taken, never an edge
def test_random_graph_equals_from_edges_over_per_pair_draws(n, density, seed):
    # the constructor trusts the keys that _draw_graph hands it; from_edges
    # over one scalar draw per pair checks every edge they stand for
    _assert_same_graph(fixtures.random_graph(n, density, seed),
                       oracles.reference_random_graph(n, density, seed))


@settings(max_examples=60, deadline=None)
@given(communities=st.integers(0, 5), size=st.integers(0, 9), p_in=probabilities,
       p_out=probabilities, seed=st.integers(0, 2**32 - 1))
@example(communities=3, size=4, p_in=1.0, p_out=1.0, seed=0)  # every older paper cited
def test_clustered_graph_equals_from_edges_over_per_pair_draws(communities, size, p_in,
                                                               p_out, seed):
    g, _ = fixtures.clustered_citation_graph(communities, size, p_in, p_out, seed)
    _assert_same_graph(g, oracles.reference_clustered_citation_graph(
        communities, size, p_in, p_out, seed))


def test_missing_file_raises():
    with pytest.raises(OSError):
        load_graph_files("/no/such/file.tsv")


# every reader of an input file, with the header its format starts with
READERS = {
    "tab lines": (lambda path: list(read_tab_lines(path)), b""),
    "edge list": (lambda path: list(read_edge_list(path)), b""),
    "metadata": (read_metadata, b"external_id,title,year\n"),
    "matrix": (read_matrix_csv, b"p,q,score\n"),
}


@pytest.mark.parametrize("content, lineno, byte", [
    (b"A\tB\nC\t\xff\n", 2, "0xff"),
    (b"A\tB\rC\t\xe2\x82\n", 2, "0xe2"),  # a lone CR ends a line, as when read as text
    (b"A\tB\n" * 5000 + b"\xc0D\tE\n", 5001, "0xc0"),  # past the first decoded chunk
])
def test_undecodable_bytes_name_the_line_that_holds_them(tmp_path, content, lineno, byte):
    path = tmp_path / "g.tsv"
    path.write_bytes(content)
    for read in (read_tab_lines, read_edge_list):
        with pytest.raises(DataError) as err:
            list(read(path))
        assert str(err.value) == f"{path}:{lineno}: byte {byte} is not UTF-8"


def test_csv_readers_name_the_physical_line_of_a_bad_byte_or_an_oversized_field(tmp_path):
    path = tmp_path / "m.csv"
    # the quoted title spans lines 2 and 3; the bad byte is on line 3
    path.write_bytes(b'external_id,title,year\nA,"two\nlines \xe2\x82",1999\n')
    with pytest.raises(DataError, match=f"^{path}:3: byte 0xe2 is not UTF-8$"):
        read_metadata(path)
    path.write_bytes(b"p,q,score\n0,1,0.5\n0,2,\xc0\n")
    with pytest.raises(DataError, match=f"^{path}:3: byte 0xc0 is not UTF-8$"):
        read_matrix_csv(path)
    for read, header in (read_metadata, "external_id,title,year"), (read_matrix_csv, "p,q,score"):
        path.write_text(f"{header}\n{'1' * 140_000}\n")
        with pytest.raises(DataError, match=f"^{path}:2: field larger than field limit"):
            read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(with_header=st.booleans(), body=st.binary(max_size=300) | st.lists(
    st.sampled_from([b"\t", b"\n", b"\r", b",", b'"', b"#", b" ", b"0", b"7", b"-", b".",
                     b"e", b"a", b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x82"]),
    max_size=80).map(b"".join))
@example(with_header=True, body=b"1" * 140_000)  # over csv's field size limit
def test_readers_return_a_value_or_a_data_error_naming_the_file(
        tmp_path_factory, reader, with_header, body):
    read, header = READERS[reader]
    path = tmp_path_factory.mktemp("reader") / "input"
    path.write_bytes((header if with_header else b"") + body)
    try:
        read(path)
    except DataError as exc:
        assert str(exc).startswith(str(path))
