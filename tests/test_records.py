"""The contract of every record type in ``citesim``.

Records are named tuples, built without per-class generated code.  Each
one is built by position or by keyword with the same defaults, refuses
assignment, compares and hashes by value, and reads back as
``Name(field=value, ...)``.  ``MeasureConfig`` and ``PaperMeta`` check and
convert their values in ``__new__``, and ``_replace`` runs the same checks.
"""
import pytest

from citesim import engine, evaluate, graph
from citesim.engine import (IdentityCheck, IterationReport, MeasureConfig, ReductionReport,
                            TopKEntry)
from citesim.errors import ConfigError, DataError
from citesim.evaluate import (CaseRow, CaseTable, CorpusReport, EvalCorpus, Histogram,
                              PrecisionTable, TracePoint)
from citesim.graph import GraphStats, LoadReport, PaperMeta

# each record: a value for every field, as stored, and its defaults
RECORDS = [
    (PaperMeta, ("p1", "A title", 1999), {"title": "", "year": None}),
    (LoadReport, (3, 1), {"duplicate_edges": 0, "self_loops": 0}),
    (GraphStats, (4, 6, 1.5, 1.5, 1, 2), {}),
    (MeasureConfig, ("prank", "pairwise", 0.6, 0.25, 5, 1e-6),
     {"normalization": None, "C": 0.8, "lam": 0.5, "k_max": 10, "epsilon": 1e-4}),
    (IterationReport, (3, True, (0.5, 0.25, 1e-5)), {}),
    (TopKEntry, (7, 0.5, True), {"zero_fill": False}),
    (IdentityCheck, ("an identity", 0.0, 1e-12, True), {}),
    (ReductionReport, ((IdentityCheck("x", 0.0, 1e-12, True),),), {}),
    (EvalCorpus, ("refs", {"f": frozenset({0, 1})}), {}),
    (CorpusReport, ({"f": ("x",)}, ("g",)), {}),
    (PrecisionTable, ({("crank:jaccard", 10): 0.5}, 4), {}),
    (Histogram, ((1,) * 10, 2, 12), {}),
    (TracePoint, (2, 0.75, 10), {}),
    (CaseRow, (0, 1, "P1", {"crank:jaccard": None}), {}),
    (CaseTable, (("crank:jaccard",), ()), {}),
]


def test_every_record_is_listed():
    defined = {obj for module in (graph, engine, evaluate) for name, obj in vars(module).items()
               if hasattr(obj, "_fields") and not name.startswith("_")
               and obj.__module__ == module.__name__}
    assert defined == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, values, defaults):
    fields = cls._fields
    rec = cls(*values)
    assert tuple(rec) == values
    assert cls(**dict(zip(fields, values))) == rec
    assert cls._field_defaults == defaults
    required = values[:len(fields) - len(defaults)]
    assert cls(*required) == cls(*required, **defaults)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    for field in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    same = cls(*values)
    assert same == rec and same is not rec
    if any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(same) == hash(rec)


def test_replace_runs_the_checks():
    cfg = MeasureConfig("crank")
    assert cfg._replace(C=0.5) == MeasureConfig("crank", C=0.5)
    with pytest.raises(ConfigError, match="C must be in"):
        cfg._replace(C=2.0)
    meta = PaperMeta("p1")
    assert meta._replace(year=2000).year == 2000
    with pytest.raises(DataError, match="outside"):
        meta._replace(year=1800)
