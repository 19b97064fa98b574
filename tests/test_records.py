"""Records are immutable named tuples; a checked record refuses a bad value however it is built."""

import datetime as dt

import pytest

from techflux.breakcheck import BreakTestResult, IndexSeries, OlsFit, SeriesPoint
from techflux.cograph import CoGraph, GraphNode
from techflux.community import ClusterLabel, Partition
from techflux.config import PipelineConfig
from techflux.corpus import Corpus, Document, TimeWindow
from techflux.errors import CommunityError, ConfigError, CorpusError, GraphError, LexiconError, StatsError
from techflux.lexicon import TermLexicon, TermPattern
from techflux.synth import GroundTruth, PlantCommunity, PlantedEvent, PlantEvent, PlantSpec
from techflux.transition import SimilarityMatrix, TransitionEvent, TransitionReport

JAN, FEB = dt.date(2021, 1, 1), dt.date(2021, 2, 1)
DOC = Document("d1", JAN, "text", ("ai",))
WINDOW = TimeWindow(JAN, FEB, "t")
NODE = GraphNode("a", "tag", 1)
GRAPH = CoGraph((NODE, GraphNode("b", "tag", 1)), ((0, 1, 1),))
PARTITION = Partition({"a": 0, "b": 0}, 0.0, 1)
POINT = SeriesPoint(WINDOW, 0.5, 0.5)
ENTRY = TermPattern("ai", ("ai",))
COMMUNITY = PlantCommunity("c", ("ai",), 0.5)
SIMILARITY = SimilarityMatrix(((1.0,),), ((2,),), (2,), (2,), "overlap_target")
EVENT = TransitionEvent("persist", (0,), (0,), (1.0,))

# per checked record: a valid one, a field, a value the record refuses there, and the refusal
CHECKED = [
    (DOC, "id", "", CorpusError("document id must be nonempty")),
    (DOC, "date", "2021-01-01", CorpusError("document 'd1': date must be a date, got str")),
    (WINDOW, "end", dt.date(2020, 12, 1), CorpusError("window t: start must precede end")),
    (Corpus((DOC,)), "documents", (DOC, DOC), CorpusError("duplicate document id: 'd1'")),
    (GRAPH, "edges", ((1, 0, 1),), GraphError("edge (1, 0, 1): endpoints must satisfy 0 <= u < v < 2 (no self-loops)")),
    (PARTITION, "cluster_count", 2, CommunityError("cluster 1 has no nodes (ids must be dense 0..1)")),
    (IndexSeries((POINT,)), "points", (SeriesPoint(WINDOW, 1.5, 0.5),), StatsError("mean indices out of [0, 1] at t")),
    (TermLexicon((ENTRY,)), "entries", (ENTRY, ENTRY), LexiconError("duplicate canonical term: 'ai'")),
    (PipelineConfig(), "tau", 5.0, ConfigError("tau must lie in (0, 1), got 5.0")),
]


@pytest.mark.parametrize("record, field, bad, error", CHECKED, ids=[f"{type(r).__name__}.{f}" for r, f, _, _ in CHECKED])
def test_a_checked_record_refuses_a_bad_value_however_it_is_built(record, field, bad, error):
    cls = type(record)
    values = record._asdict() | {field: bad}
    builds = {
        "positionally": lambda: cls(*values.values()),
        "by keyword": lambda: cls(**values),
        "through _replace": lambda: record._replace(**{field: bad}),
        "through _make": lambda: cls._make(values.values()),
    }
    for how, build in builds.items():
        with pytest.raises(type(error)) as refused:
            build()
        assert str(refused.value) == str(error), how
    assert cls(*record) == record
    assert record._replace(**{field: getattr(record, field)}) == record


RECORDS = [
    DOC,
    WINDOW,
    Corpus((DOC,)),
    NODE,
    GRAPH,
    PARTITION,
    ClusterLabel(0, "a", ("a", "b")),
    ENTRY,
    TermLexicon((ENTRY,)),
    PipelineConfig(),
    OlsFit(0.0, 1.0, 0.0),
    BreakTestResult(0.0, 1.0, 3, 2, 3, 3),
    POINT,
    IndexSeries((POINT,)),
    COMMUNITY,
    PlantEvent("persist", 0, ("c",), ("c",), 1.0, None, None),
    PlantSpec((WINDOW,), (COMMUNITY,), (), 10, 0.0, 1),
    PlantedEvent("persist", ("c",), ("c",)),
    GroundTruth(({"ai": "c"},), (), (), ()),
    SIMILARITY,
    EVENT,
    TransitionReport(SIMILARITY, {0: 1.0}, {0: 0.0}, (EVENT,), 0.1),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_assigning_to_a_field_raises_attribute_error(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
