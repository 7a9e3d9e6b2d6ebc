"""Link-based similarity measures and retrieval evaluation for citation graphs.

Imported before numpy, citesim sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already sets it: no citesim product calls BLAS.  Child
processes inherit the setting.  Tested with numpy's OpenBLAS (pthreads)
wheels only, not with OpenMP or MKL builds.
"""

import os
import sys

# numpy's OpenBLAS starts a worker thread when numpy loads it, and the
# worker busy-waits for about 0.1 s on a core that --threads would use.
# Every citesim product is a gather-add in a fixed order, for its bits, so
# the worker never gets work.  OpenBLAS reads the variable only at load: a
# process that imported numpy first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ConfigError, DataError
from .graph import (
    CitationGraph,
    GraphStats,
    LoadReport,
    PaperId,
    PaperMeta,
    classify_connector,
    load_graph,
    load_graph_files,
    read_edge_list,
    read_metadata,
)
from .matrix import SimilarityMatrix, read_matrix_csv, write_matrix_csv
from .engine import (
    ITERATIVE_MEASURES,
    MEASURES,
    NORMALIZATIONS,
    IdentityCheck,
    IterationReport,
    MeasureConfig,
    ReductionReport,
    TopKEntry,
    cocitation,
    compute,
    converge,
    crank_jaccard,
    iterate_pairwise,
    iteration_scores,
    na_mask,
    reduction_check,
    top_k,
)
from .evaluate import (
    CASE_TAGS,
    CaseRow,
    CaseTable,
    CorpusReport,
    EvalCorpus,
    Histogram,
    PrecisionTable,
    TracePoint,
    case_analysis,
    convergence_trace,
    load_corpus,
    precision_at_m,
    run_benchmark,
    score_histogram,
    write_cases_csv,
    write_histogram_csv,
    write_precision_csv,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CASE_TAGS",
    "CaseRow",
    "CaseTable",
    "CitationGraph",
    "ConfigError",
    "CorpusReport",
    "DataError",
    "EvalCorpus",
    "GraphStats",
    "Histogram",
    "ITERATIVE_MEASURES",
    "IdentityCheck",
    "IterationReport",
    "LoadReport",
    "MEASURES",
    "MeasureConfig",
    "NORMALIZATIONS",
    "PaperId",
    "PaperMeta",
    "PrecisionTable",
    "ReductionReport",
    "SimilarityMatrix",
    "TopKEntry",
    "TracePoint",
    "case_analysis",
    "classify_connector",
    "cocitation",
    "compute",
    "converge",
    "convergence_trace",
    "crank_jaccard",
    "iterate_pairwise",
    "iteration_scores",
    "load_corpus",
    "load_graph",
    "load_graph_files",
    "na_mask",
    "precision_at_m",
    "read_edge_list",
    "read_matrix_csv",
    "read_metadata",
    "reduction_check",
    "run_benchmark",
    "score_histogram",
    "top_k",
    "write_cases_csv",
    "write_histogram_csv",
    "write_matrix_csv",
    "write_precision_csv",
    "write_trace_csv",
]
