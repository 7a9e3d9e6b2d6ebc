"""Small hand-built and seeded graphs used by tests and demos.

The two letter-labeled graphs are constructions, not data: each one pins a
citation pattern the measures must get right, with the full edge list kept
tiny enough to verify by hand.
"""
from __future__ import annotations

import numpy as np

from .graph import CitationGraph, PaperMeta, load_graph
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


def random_graph(n: int, density: float, seed: int) -> CitationGraph:
    """Directed Bernoulli graph: each ordered non-self pair is an edge with
    probability ``density``.  Same seed, same graph."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mask))]
    return CitationGraph.from_edges(n, edges)


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
    """
    rng = np.random.default_rng(seed)
    n = communities * size
    edges = []
    for v in range(n):
        for u in range(v):
            p = p_in if u // size == v // size else p_out
            if rng.random() < p:
                edges.append((v, u))
    g = CitationGraph.from_edges(n, edges)
    fields = {
        f"community-{c}": frozenset(range(c * size, (c + 1) * size))
        for c in range(communities)
    }
    return g, fields


def write_edge_file(g: CitationGraph, path):
    """Serialize edges in the loadable tab-separated format, sorted by id.

    Papers with no edges do not appear here; write the metadata file too if
    isolated papers must survive a round trip.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in sorted(g.edges):
            fh.write(f"{g.external_id(u)}\t{g.external_id(v)}\n")


def write_meta_file(g: CitationGraph, path):
    """Serialize per-paper metadata as CSV in the loadable format."""
    write_table(path, ["external_id", "title", "year"],
                ([m.external_id, m.title, "" if m.year is None else m.year] for m in g.meta))
