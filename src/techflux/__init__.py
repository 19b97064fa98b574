"""Co-occurrence networks of technology terms, cluster evolution, and break tests.

Each public name is imported from its defining module on first use (PEP 562),
so ``import techflux`` alone loads none of the pipeline modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "breakcheck": "BreakTestResult IndexSeries OlsFit SeriesPoint chow_test f_survival index_series"
    " ols_fit pearson regularized_incomplete_beta term_trend",
    "cograph": "CoGraph GraphNode build_cooccurrence export_graph_json export_graphml top_n_filter",
    "community": "ClusterLabel Partition export_partition_json louvain modularity suggest_labels",
    "config": "PipelineConfig build_config read_config_file",
    "corpus": "Corpus Document TimeWindow load_corpus load_windows normalize_tag save_corpus window_filter",
    "errors": "CommunityError ConfigError CorpusError GraphError LexiconError StatsError SynthError"
    " TechfluxError TransitionError",
    "lexicon": "TermLexicon compile_lexicon extract_terms lexicon_from_records",
    "synth": "GroundTruth PlantSpec SplitMix64 generate_corpus load_plant_spec plant_spec_from_records",
    "transition": "SimilarityMatrix TransitionEvent TransitionReport alluvial_export classify_events"
    " inheritance_indices similarity_matrix transition_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"fileio"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
