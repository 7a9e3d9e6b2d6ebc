"""Small hand-built and seeded graphs used by tests and demos.

The two letter-labeled graphs are constructions, not data: each one pins a
citation pattern the measures must get right, with the full edge list kept
tiny enough to verify by hand.
"""
from __future__ import annotations

import numpy as np

from .graph import CitationGraph, PaperMeta, csr_rows, load_graph
from .matrix import write_table

# One pair (e, f) shares both a citer (i) and a reference (b); (d, g) share
# the citer j but nothing else; (a, c) share nothing.
_SHARED_NEIGHBOR_EDGES = [
    ("i", "e"),
    ("i", "f"),
    ("e", "b"),
    ("f", "b"),
    ("d", "a"),
    ("g", "c"),
    ("j", "d"),
    ("j", "g"),
    ("h", "i"),
]

# Old papers a and b only receive citations; recent papers g, h, k, l only
# give them; chains f->c->a and l->j->e bridge the generations.
_GENERATION_GAP_EDGES = [
    ("g", "f"),
    ("h", "f"),
    ("h", "d"),
    ("f", "c"),
    ("c", "a"),
    ("k", "i"),
    ("l", "i"),
    ("i", "b"),
    ("d", "b"),
    ("e", "b"),
    ("l", "j"),
    ("j", "e"),
]


def shared_neighbor_graph() -> CitationGraph:
    """10 papers exercising shared-citer and shared-reference structure."""
    g, _ = load_graph(_SHARED_NEIGHBOR_EDGES)
    return g


def generation_gap_graph() -> CitationGraph:
    """12 papers mixing old, recent, and bridging papers.

    Old papers have no outgoing references inside the graph, recent ones
    have no incoming citations yet, so every directed recursion loses at
    least one hard pair here while the undirected one does not.
    """
    g, _ = load_graph(_GENERATION_GAP_EDGES)
    return g


def generation_gap_cases() -> list:
    """The three hard pairs of the generation-gap graph, tagged.

    P1: both papers old (share only incoming structure).
    P2: both papers recent (share only outgoing structure).
    P3: one old, one recent, connected through a bridge chain.
    """
    return [("a", "b", "P1"), ("k", "l", "P2"), ("e", "l", "P3")]


def star_graph(k: int) -> CitationGraph:
    """k referrer papers, each citing both members of the pair (p, q).

    The pair cites nothing and the referrers are uncited, which makes the
    pairwise-normalized one-step score collapse as 1/k while the shared-set
    ratio stays 1.
    """
    if k < 1:
        raise ValueError("need at least one referrer")
    meta = [PaperMeta("p"), PaperMeta("q")]
    meta += [PaperMeta(f"r{i}") for i in range(1, k + 1)]
    edges = [(r, 0) for r in range(2, k + 2)]
    edges += [(r, 1) for r in range(2, k + 2)]
    return CitationGraph.from_edges(k + 2, edges, meta)


def _draw_graph(n: int, seed: int, rows) -> CitationGraph:
    """The seeded graph over papers ``0..n-1`` in which u cites v when a
    uniform draw falls below ``p[v]``, where ``rows`` yields each paper's
    ``p`` in turn, u ascending; u never cites the papers past the end of
    its ``p``.

    Row u takes the next ``len(p)`` uniforms of one ``default_rng(seed)``
    stream in a single ``rng.random`` call.  Each draw therefore sits at the
    stream position that a row-major draw of every (u, v) in turn, one
    scalar or one whole square at a time, gives it: the graphs equal those
    of such per-pair draws, and no n×n array or per-pair loop is needed.

    Each row's cited ids ascend and its ``p`` is 0 at u or ends before u,
    so the keys ``u * n + v`` ascend row after row and are distinct, in
    range and loop-free by construction.  They go straight to the
    :class:`CitationGraph` constructor: no per-edge tuple, and no second
    check through :meth:`~CitationGraph.from_edges`.
    """
    rng = np.random.default_rng(seed)
    cited = [np.flatnonzero(rng.random(p.shape[0]) < p) for p in rows]
    offsets = np.repeat(np.arange(n) * n, [c.shape[0] for c in cited])  # u * n per edge
    # np.concatenate needs one array even when there are no rows (n = 0)
    return CitationGraph(n, np.concatenate([offsets[:0], *cited]) + offsets)


def random_graph(n: int, density: float, seed: int) -> CitationGraph:
    """Directed Bernoulli graph: each ordered non-self pair is an edge with
    probability ``density``.  Same seed, same graph.

    Row u draws n uniforms, one per column, against ``p[n - u:2n - u]``:
    ``p`` holds ``density`` everywhere but at index n, which holds 0 and
    which that window puts at column u.  The edges equal those of one
    ``rng.random((n, n))`` square with its diagonal cleared.
    """
    p = np.where(np.arange(-n, n) == 0, 0.0, density)
    return _draw_graph(n, seed, (p[n - u:2 * n - u] for u in range(n)))


def clustered_citation_graph(
    communities: int = 3,
    size: int = 15,
    p_in: float = 0.3,
    p_out: float = 0.02,
    seed: int = 0,
):
    """Seeded community-structured citation graph plus its field map.

    Papers cite only lower-numbered papers (citations point back in time),
    densely inside a community and sparsely across.  Returns the graph and
    a name -> member-id-set map suitable as retrieval ground truth.

    Paper v draws v uniforms, one per older paper u, and cites u when its
    draw is below ``p_in`` (same community) or ``p_out`` (another one); the
    edges equal those of one scalar ``rng.random()`` per pair, v ascending
    and then u ascending.
    """
    n = communities * size
    field = np.arange(n) // size
    g = _draw_graph(n, seed, (np.where(field[:v] == field[v], p_in, p_out) for v in range(n)))
    fields = {
        f"community-{c}": frozenset(range(c * size, (c + 1) * size))
        for c in range(communities)
    }
    return g, fields


def write_edge_file(g: CitationGraph, path):
    """Serialize edges in the loadable tab-separated format, sorted by id:
    the out view's CSR rows, which list them in (citing, cited) order.

    Papers with no edges do not appear here; write the metadata file too if
    isolated papers must survive a round trip.
    """
    out = g.csr("out")
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in zip(csr_rows(out).tolist(), out[1].tolist()):
            fh.write(f"{g.external_id(u)}\t{g.external_id(v)}\n")


def write_meta_file(g: CitationGraph, path):
    """Serialize per-paper metadata as CSV in the loadable format."""
    write_table(path, ["external_id", "title", "year"],
                ([m.external_id, m.title, "" if m.year is None else m.year] for m in g.meta))
