"""The benchmark's named workloads and the inputs each one generates from a seed.

Inputs come from ``citesim.fixtures`` and reach the program only as files:
an edge list, a metadata CSV (so every paper keeps its id even when it has
no edges) and, for the clustered graph, a corpus of its reference fields,
which the output checks use to compare precision@m with ``citesim eval``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 1
M_VALUES = (10, 20, 30, 40, 50)

# Sizes are chosen so one operation takes a few seconds on a 2-core host:
# enough repeats fit in one run to take medians over the host's CPU-speed
# swings, and the crank/prank products still dominate their runs.
N_RANDOM = 600  # fixtures.random_graph(600, 5/600, seed): about 3,000 edges
FIELDS, FIELD_SIZE = 10, 60  # clustered_citation_graph: 600 papers
P_IN, P_OUT = 0.13, 0.004  # about 5 references per paper, mostly in-field


@dataclass(frozen=True)
class Workload:
    name: str
    measure: str
    threads: int
    graph: str  # "random" or "clustered"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crank-dense", "crank", 1, "random",
            "The headline measure, single-threaded: dense einsum products "
            "dominate and every pair is written, so it shows operator, "
            "fusion and CSV-streaming work.",
        ),
        Workload(
            "prank-dag-t2", "prank", 2, "clustered",
            "Directed two-term recursion on a time-ordered DAG with 2 "
            "threads: 4 products per step, the row-partition pool and an "
            "N/A mask from sources and sinks.",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    graph: str
    meta: str
    corpus: Optional[str]  # reference fields; clustered graphs only


def make_inputs(workload: Workload, seed: int, directory: str):
    """Write the workload's input files for ``seed`` into ``directory``.

    Returns the file names and the generated graph.
    """
    from citesim import fixtures

    os.makedirs(directory, exist_ok=True)
    if workload.graph == "random":
        g = fixtures.random_graph(N_RANDOM, 5 / N_RANDOM, seed)
        fields = None
    else:
        g, fields = fixtures.clustered_citation_graph(FIELDS, FIELD_SIZE, P_IN, P_OUT, seed)
    inputs = Inputs(
        graph=os.path.join(directory, "graph.tsv"),
        meta=os.path.join(directory, "meta.csv"),
        corpus=os.path.join(directory, "fields.txt") if fields else None,
    )
    fixtures.write_edge_file(g, inputs.graph)
    fixtures.write_meta_file(g, inputs.meta)
    if inputs.corpus:
        with open(inputs.corpus, "w", encoding="utf-8") as fh:
            for name in sorted(fields):
                fh.write(f"[{name}]\n")
                fh.writelines(f"{g.external_id(p)}\n" for p in sorted(fields[name]))
    return inputs, g
