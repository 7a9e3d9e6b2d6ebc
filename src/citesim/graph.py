"""Directed citation graph: loading, validation, and the three neighbor views.

Papers are identified by dense 0-based integer ids (``PaperId``), assigned in
order of first appearance while loading.  Every measure in :mod:`citesim.engine`
consumes one of three neighbor views of a paper ``p``:

* ``in``          -- I(p), the papers that cite p
* ``out``         -- O(p), the papers p cites
* ``undirected``  -- L(p) = I(p) | O(p), direction discarded

A graph stores each view once, as read-only CSR rows ``(indptr, indices)``
with every row in ascending order, built with numpy from the edges' ids:
about 32 bytes per edge for the three views.  No edge is ever held as a
Python object.  The set accessors (``neighbors``, ``neighbor_sets``,
``in_index``/``out_index``/``und_index``, ``edges``, ``has_edge``) are
computed from the rows on each call, in time proportional to the degrees
they read, and nothing caches them; the engine reads only :meth:`csr`.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DataError

PaperId = int

YEAR_MIN, YEAR_MAX = 1900, 2100


@dataclass(frozen=True)
class PaperMeta:
    """Source-side identity of a paper (key, optional title and year)."""

    external_id: str
    title: str = ""
    year: Optional[int] = None

    def __post_init__(self):
        if not self.external_id:
            raise DataError("external_id must be a non-empty string")
        if self.year is not None and not (YEAR_MIN <= self.year <= YEAR_MAX):
            raise DataError(
                f"year {self.year} for {self.external_id!r} outside "
                f"[{YEAR_MIN}, {YEAR_MAX}]"
            )


@dataclass(frozen=True)
class LoadReport:
    """Counts of rows discarded while loading an edge stream."""

    duplicate_edges: int = 0
    self_loops: int = 0


@dataclass(frozen=True)
class GraphStats:
    n: int
    edge_count: int
    d1: float  # mean in-degree
    d2: float  # mean out-degree
    sources: int  # nodes with no in-links
    sinks: int  # nodes with no out-links


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` in ascending order, each value once.  A stable argsort
    (``np.unique`` would import ``numpy.ma``, about 1.3 MB, on first use)."""
    keys = keys[np.argsort(keys, kind="stable")]
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR rows of the pairs ``row * n + col`` in ``keys``, which
    are ascending and distinct."""
    rows, indices = np.divmod(keys, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


class CitationGraph:
    """Immutable directed citation graph with its three CSR neighbor views.

    Construct through :func:`load_graph` (external-id streams) or
    :meth:`from_edges` (already-dense integer ids).  Instances never change
    after construction, so all read methods are safe for concurrent use.
    """

    def __init__(self, n: int, edge_keys: np.ndarray, meta: tuple, ext_to_id=None):
        """``edge_keys`` holds each edge (u, v) once, as ``u * n + v`` in
        ascending order; ``ext_to_id`` maps each external id to its paper
        id, and is built from ``meta`` when not given."""
        self.n = n
        self.meta = meta
        if ext_to_id is None:
            ext_to_id = {m.external_id: p for p, m in enumerate(meta)}
        self._ext_to_id = ext_to_id
        if len(ext_to_id) != n:
            raise DataError("external ids are not unique")
        citing, cited = np.divmod(edge_keys, max(n, 1))
        # the keys ascend by (citing, cited), so a stable sort by cited
        # alone orders the reversed pairs by (cited, citing)
        in_keys = (cited * n + citing)[np.argsort(cited, kind="stable")]
        self._views = {
            "out": _csr(n, edge_keys),
            "in": _csr(n, in_keys),
            # a mutual citation is one key in each direction, kept once
            "undirected": _csr(n, _sorted_distinct(np.concatenate((edge_keys, in_keys)))),
        }

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        meta: Optional[Sequence[PaperMeta]] = None,
    ) -> "CitationGraph":
        """Build a graph over nodes ``0..n-1`` from integer edge pairs.

        Rejects self-loops, duplicates, and out-of-range endpoints; use
        :func:`load_graph` for streams that still need cleaning.  The error
        names the first edge, in the given order, that breaks a rule.
        """
        pairs = list(edges)
        try:
            uv = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            # an endpoint beyond int64 is out of range: clamp it to -1 or n
            uv = np.array([(min(max(u, -1), n), min(max(v, -1), n)) for u, v in pairs],
                          dtype=np.int64).reshape(-1, 2)
        u, v = uv.T
        outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad = outside | (u == v)
        kept = np.flatnonzero(~bad)
        keys = u[kept] * n + v[kept]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # a stable sort puts each repeat after the edge it repeats
        repeats = keys[1:] == keys[:-1]
        bad[kept[order[1:][repeats]]] = True
        if bad.any():
            i = int(np.argmax(bad))
            a, b = pairs[i]
            if outside[i]:
                raise DataError(f"edge ({a}, {b}) outside node range [0, {n})")
            if a == b:
                raise DataError(f"self-loop at node {a}")
            raise DataError(f"duplicate edge ({a}, {b})")
        if meta is None:
            meta = tuple(PaperMeta(external_id=str(p)) for p in range(n))
        else:
            meta = tuple(meta)
            if len(meta) != n:
                raise DataError(f"expected {n} meta records, got {len(meta)}")
        return cls(n, keys, meta)

    # -- lookups -----------------------------------------------------------

    def id_of(self, external_id: str) -> PaperId:
        try:
            return self._ext_to_id[external_id]
        except KeyError:
            raise DataError(f"unknown paper id {external_id!r}") from None

    def external_id(self, p: PaperId) -> str:
        return self.meta[p].external_id

    def has_edge(self, u: PaperId, v: PaperId) -> bool:
        if not 0 <= u < self.n:
            return False
        indptr, indices = self._views["out"]
        row = indices[indptr[u]:indptr[u + 1]]
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and bool(row[i] == v)

    def neighbors(self, p: PaperId, view: str = "undirected") -> frozenset:
        """Return I(p), O(p), or L(p); mutual citations collapse to one
        undirected neighbor."""
        if not 0 <= p < self.n:
            raise ValueError(f"paper id {p} out of range [0, {self.n})")
        indptr, indices = self.csr(view)
        return frozenset(indices[indptr[p]:indptr[p + 1]].tolist())

    def neighbor_sets(self, view: str) -> tuple:
        """I(p), O(p) or L(p) for every paper p, one frozenset each."""
        indptr, indices = self.csr(view)
        ids, bounds = indices.tolist(), indptr.tolist()
        return tuple(frozenset(ids[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def in_index(self) -> tuple:
        return self.neighbor_sets("in")

    @property
    def out_index(self) -> tuple:
        return self.neighbor_sets("out")

    @property
    def und_index(self) -> tuple:
        return self.neighbor_sets("undirected")

    @property
    def edges(self) -> frozenset:
        """Every edge as a (citing, cited) pair."""
        indptr, indices = self._views["out"]
        citing = np.repeat(np.arange(self.n), np.diff(indptr))
        return frozenset(zip(citing.tolist(), indices.tolist()))

    def stats(self) -> GraphStats:
        if self.n == 0:
            return GraphStats(0, 0, 0.0, 0.0, 0, 0)
        e = len(self._views["out"][1])
        return GraphStats(
            n=self.n,
            edge_count=e,
            d1=e / self.n,
            d2=e / self.n,
            sources=int(np.count_nonzero(np.diff(self._views["in"][0]) == 0)),
            sinks=int(np.count_nonzero(np.diff(self._views["out"][0]) == 0)),
        )

    # -- sparse operators consumed by the engine ---------------------------

    def csr(self, view: str) -> tuple[np.ndarray, np.ndarray]:
        """The view as CSR rows ``(indptr, indices)``, the stored arrays.

        Row p, ``indices[indptr[p]:indptr[p + 1]]``, lists the ids in I(p),
        O(p) or L(p) in ascending order; mutual citations collapse to one
        undirected neighbor.  Both arrays are read-only.
        """
        try:
            return self._views[view]
        except KeyError:
            raise ValueError(f"unknown view {view!r}") from None


def classify_connector(
    g: CitationGraph, x: PaperId, p: PaperId, q: PaperId
) -> frozenset:
    """Classify the role(s) of ``x`` for the pair ``(p, q)``.

    Returns a subset of ``{"OP", "IP", "BP"}``: OP when both p and q cite x,
    IP when x cites both, BP when x lies on a citation chain between them
    (p cites x and x cites q, or the mirror).  Empty set means no role.
    """
    if len({x, p, q}) != 3:
        raise ValueError("x, p, q must be three distinct papers")
    for node in (x, p, q):
        if not 0 <= node < g.n:
            raise ValueError(f"paper id {node} out of range [0, {g.n})")
    roles = set()
    p_x = g.has_edge(p, x)
    q_x = g.has_edge(q, x)
    x_p = g.has_edge(x, p)
    x_q = g.has_edge(x, q)
    if p_x and q_x:
        roles.add("OP")
    if x_p and x_q:
        roles.add("IP")
    if (p_x and x_q) or (q_x and x_p):
        roles.add("BP")
    return frozenset(roles)


def load_graph(
    edge_stream: Iterable[tuple[str, str]],
    meta_stream: Optional[Iterable[PaperMeta]] = None,
) -> tuple[CitationGraph, LoadReport]:
    """Build a validated graph from a stream of (citing, cited) external ids.

    External ids map to dense 0-based ids in order of first appearance
    (citing endpoint before cited, then meta-only papers).  Duplicate edges
    are dropped, as are self-citations; both endpoints of a dropped edge
    still become nodes.  The report carries the drop counts.
    """
    ids: dict[str, int] = {}
    citing_ids: list[int] = []
    cited_ids: list[int] = []
    for citing, cited in edge_stream:
        if not citing or not cited:
            raise DataError("empty paper id in edge stream")
        citing_ids.append(ids.setdefault(citing, len(ids)))
        cited_ids.append(ids.setdefault(cited, len(ids)))

    meta_by_ext: dict[str, PaperMeta] = {}
    if meta_stream is not None:
        for rec in meta_stream:
            if rec.external_id in meta_by_ext:
                raise DataError(f"duplicate metadata for {rec.external_id!r}")
            meta_by_ext[rec.external_id] = rec
            ids.setdefault(rec.external_id, len(ids))  # isolated if not an endpoint

    n = len(ids)
    # ids iterates in insertion order, which is paper id order
    meta = tuple(meta_by_ext.get(ext) or PaperMeta(external_id=ext) for ext in ids)
    u = np.array(citing_ids, dtype=np.intp)
    v = np.array(cited_ids, dtype=np.intp)
    del citing_ids, cited_ids  # not held while the views are built
    loops = u == v
    self_loops = int(np.count_nonzero(loops))
    keep = ~loops
    keys = _sorted_distinct(u[keep] * n + v[keep])
    graph = CitationGraph(n, keys, meta, ids)
    report = LoadReport(duplicate_edges=len(u) - self_loops - len(keys),
                        self_loops=self_loops)
    return graph, report


# -- file formats ----------------------------------------------------------


@contextmanager
def open_text(path, newline=None):
    """Open the UTF-8 text file at ``path`` for reading, as ``open`` does
    with ``newline``.  A byte that is not UTF-8 raises :class:`DataError`
    naming ``path:lineno``, the line that holds it numbered from 1 as the
    file splits into lines."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # decoding fails a chunk at a time; find the line once it has.
        # surrogateescape turns each byte that is not UTF-8 into a lone
        # surrogate, the one thing that cannot be encoded back
        with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise DataError(
                        f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8"
                    ) from None
        raise


def csv_rows(path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, row)`` per record of a ``csv.reader`` with its
    defaults over ``open_text(path, newline="")``, ``lineno`` the physical
    line the row ends on.  The first row must be ``header``, blank rows are
    skipped, and every other row holds one field per header name.  A row
    that breaks a rule, or that the reader refuses (a field over its size
    limit), raises :class:`DataError` naming ``path:lineno``."""
    header, width = list(header), len(header)
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first != header:
                raise DataError(f"{path}: expected header '{','.join(header)}', got {first}")
            for row in reader:
                if len(row) == width:
                    yield reader.line_num, row
                elif row:
                    raise DataError(f"{path}:{reader.line_num}: expected "
                                    f"{width} fields, got {len(row)}")
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def read_tab_lines(path) -> Iterator[tuple[int, str, list[str]]]:
    """Yield ``(lineno, line, fields)`` per tab-separated line of an
    :func:`open_text` file, numbered from 1 and without its line ending;
    blank lines and ``#`` comments are skipped."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line, line.split("\t")


def read_edge_list(path) -> Iterator[tuple[str, str]]:
    """Yield (citing, cited) pairs from a tab-separated edge-list file.

    One edge per line, ``citing<TAB>cited``, walked by :func:`read_tab_lines`;
    any other line raises with its line number.
    """
    for lineno, line, parts in read_tab_lines(path):
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(
                f"{path}:{lineno}: expected 'citing<TAB>cited', got {line!r}"
            )
        yield parts[0], parts[1]


def read_metadata(path) -> list[PaperMeta]:
    """Read a metadata CSV with header ``external_id,title,year`` through
    :func:`csv_rows`; each external id may have one row."""
    records: dict[str, PaperMeta] = {}
    for lineno, (ext, title, year_text) in csv_rows(path, ("external_id", "title", "year")):
        if ext in records:
            raise DataError(f"{path}:{lineno}: duplicate metadata for {ext!r}")
        year = None
        if year_text.strip():
            try:
                year = int(year_text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: year {year_text!r} is not an integer") from None
        try:
            records[ext] = PaperMeta(external_id=ext, title=title, year=year)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return list(records.values())


def load_graph_files(graph_path, meta_path=None) -> tuple[CitationGraph, LoadReport]:
    """Load a graph from an edge-list file plus optional metadata CSV."""
    meta = read_metadata(meta_path) if meta_path else None
    return load_graph(read_edge_list(graph_path), meta)
