"""Command-line pipeline: compare, series, trend, synth, cluster.

Each subcommand parses, calls the library, writes and prints; ``breakcheck``
computes every number it reports (mean indices, break tests, trend
correlations), so anything the CLI does can be reproduced programmatically.
Outputs land in the directory given by --out (default: current directory)
under fixed file names; all writes go through a temp-file rename so partial
files never appear. The output directory is created before any input is
read, so an unusable --out fails at once; a run that fails then removes the
directories that creation made, as far as they are still empty. Exit codes:
0 success, 1 internal error, 2 usage, input or I/O error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import breakcheck, synth
from .cograph import export_graph_json, export_graphml
from .community import export_partition_json, suggest_labels
from .config import SETTINGS, PipelineConfig, build_config, read_config_file, setting_type
from .corpus import TimeWindow, load_corpus, load_windows, normalize_tag, save_corpus
from .errors import ConfigError, TechfluxError
from .fileio import read_text, write_csv, write_json
from .lexicon import TermLexicon, compile_lexicon, lexicon_from_records
from .transition import alluvial_export, export_report_json, export_similarity_csv, transition_report


def _add_setting_flag(sub: argparse.ArgumentParser, name: str) -> None:
    """Register a setting's flag as its SETTINGS entry declares it.

    A flag left out is None, so it does not override the config file.
    """
    setting = SETTINGS[name]
    flag = "--" + name.replace("_", "-")
    text = setting.help
    if setting.default is False:
        sub.add_argument(flag, dest=name, action="store_true", default=None, help=text)
        return
    if setting.default is not None:
        text += f" (default {setting.default})"
    sub.add_argument(flag, dest=name, type=setting_type(setting), choices=setting.choices, help=text)


def _add_setting_flags(sub: argparse.ArgumentParser, *settings: str) -> None:
    """Register --config plus the flags of the settings this subcommand reads."""
    sub.add_argument("--config", help="flat JSON config file; flags override it")
    for name in settings:
        _add_setting_flag(sub, name)


def _read_settings(args: argparse.Namespace) -> tuple[PipelineConfig, Path, TermLexicon]:
    """Merge the config, create --out, then compile the lexicon, in that order."""
    file_values = read_config_file(args.config) if args.config else None
    config = build_config(file_values, {name: getattr(args, name, None) for name in SETTINGS})
    out = _out_dir(args, config.out)
    if not config.lexicon:
        raise ConfigError("a lexicon is required: pass --lexicon or set 'lexicon' in the config file")
    return config, out, compile_lexicon(config.lexicon)


def _out_dir(args: argparse.Namespace, path: str) -> Path:
    """Create the output directory; args.made lists the directories missing before, deepest first."""
    out = Path(path)
    args.made = [p for p in (out, *out.parents) if not os.path.exists(p)]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cluster_header(labels) -> list[str]:
    return [f"{lab.cluster_id}:{lab.suggested_label}" for lab in labels]


def run_compare(args: argparse.Namespace) -> int:
    config, out, lexicon = _read_settings(args)
    window_t = TimeWindow.parse(args.window_t, label="t")
    window_t1 = TimeWindow.parse(args.window_t1, label="t+1")
    corpus = load_corpus(args.corpus)
    # a node name that GraphML cannot hold is refused before any Louvain, and leaves --out untouched
    (graph_t, part_t), (graph_t1, part_t1) = breakcheck.cluster_windows(
        corpus, lexicon, [window_t, window_t1], config, graphml=True
    )
    report = transition_report(part_t, part_t1, tau=config.tau, measure=config.measure)
    labels_t = _cluster_header(suggest_labels(graph_t, part_t))
    labels_t1 = _cluster_header(suggest_labels(graph_t1, part_t1))
    export_graphml(graph_t, out / "graph_t.graphml", part_t.assignment)
    export_graphml(graph_t1, out / "graph_t1.graphml", part_t1.assignment)
    export_graph_json(graph_t, out / "graph_t.json")
    export_graph_json(graph_t1, out / "graph_t1.json")
    export_partition_json(part_t, out / "partition_t.json")
    export_partition_json(part_t1, out / "partition_t1.json")
    export_similarity_csv(report, out / "similarity.csv", labels_t, labels_t1)
    export_report_json(report, out / "report.json", labels_t, labels_t1)
    alluvial_export(report, out / "alluvial.csv", labels_t, labels_t1)
    for window, part in ((window_t, part_t), (window_t1, part_t1)):
        # the label names the window in errors; its line shows its dates
        print(f"window {window.label:<5}[{window.start},{window.end}): "
              f"{part.cluster_count} clusters, modularity {part.modularity:.4f}")
    print(f"events (tau = {config.tau:g}):")
    for event in report.events:
        sources = ",".join(str(c) for c in event.sources) or "-"
        targets = ",".join(str(c) for c in event.targets) or "-"
        supports = " ".join(f"{v:.3f}" for v in event.supports)
        line = f"  {event.kind:<8} {sources:>12} -> {targets:<12}"
        print(line + (f"  [{supports}]" if supports else ""))
    if report.convergence:
        mean_ci, mean_ni = breakcheck.mean_indices(report, weighted=False)
        print(f"mean convergence {mean_ci:.4f}, mean novelty {mean_ni:.4f}")
    print(f"wrote 9 files to {out}")
    return 0


def run_series(args: argparse.Namespace) -> int:
    config, out, lexicon = _read_settings(args)
    windows = load_windows(args.windows)
    breakpoint_index = args.breakpoint
    # W windows give W - 1 points; refused windows, or a breakpoint that leaves
    # a segment too short for the break test, fail before the corpus is read
    breakcheck.check_windows(windows)
    breakcheck.segment_sizes(len(windows) - 1, breakpoint_index)
    corpus = load_corpus(args.corpus)
    series = breakcheck.index_series(corpus, lexicon, windows, config)
    breakcheck.export_series_csv(series, out / "series.csv")
    for name, result in breakcheck.break_tests(series, breakpoint_index).items():
        breakcheck.export_break_json(result, out / f"break_{name}.json")
        print(
            f"{name.upper()} series: F = {result.f_statistic:.6g}, "
            f"p = {breakcheck.format_p_value(result.p_value)} "
            f"(break at {breakpoint_index}, segments {result.n1}/{result.n2})"
        )
    print(f"wrote series.csv, break_ci.json, break_ni.json to {out}")
    return 0


def _parse_source(raw: str) -> tuple[str, str]:
    label, sep, path = raw.partition("=")
    if not (label and sep and path):
        raise ConfigError(f"corpus source must be LABEL=PATH, got {raw!r}")
    return label, path


def _load_terms_file(path: str) -> list[str]:
    # a term is spelled as the lexicon's canonicals are, normalized like a tag
    lines = (normalize_tag(line) for line in read_text(path, ConfigError, "terms file").splitlines())
    # a term listed twice is run once
    terms = list(dict.fromkeys(t for t in lines if t and not t.startswith("#")))
    if not terms:
        raise ConfigError(f"terms file {path} lists no terms")
    owners: dict[str, str] = {}
    for term in terms:
        slug = _term_slug(term)
        owner = owners.setdefault(slug, term)
        if owner != term:
            raise ConfigError(
                f"terms file {path}: {owner!r} and {term!r} would both write trend_{slug}.csv"
            )
    return terms


def _term_slug(term: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", term.casefold()).strip("_") or "term"


def run_trend(args: argparse.Namespace) -> int:
    config, out, lexicon = _read_settings(args)
    if len(args.corpus) < 2:
        raise ConfigError(f"trend needs at least 2 corpus sources, got {len(args.corpus)}")
    sources = [_parse_source(raw) for raw in args.corpus]
    terms = _load_terms_file(args.terms)
    breakcheck.check_trend(sources, lexicon, terms, args.period, config.field)
    corpora = [(label, load_corpus(path)) for label, path in sources]
    trends = breakcheck.term_trend(corpora, lexicon, terms, args.period, config.field)
    for term, counts in trends.items():
        breakcheck.export_trend_csv(counts, out / f"trend_{_term_slug(term)}.csv")
    rows, skipped = breakcheck.trend_correlations(trends)
    for text in skipped:
        print(f"trend: {text}", file=sys.stderr)
    rows = [(term, a, b, f"{r:.6f}") for term, a, b, r in rows]
    write_csv(out / "correlations.csv", [("term", "source_a", "source_b", "pearson_r")] + rows, lineterminator="\n")
    print(f"wrote {len(terms)} trend files and correlations.csv to {out}")
    return 0


def run_synth(args: argparse.Namespace) -> int:
    out = _out_dir(args, args.out)
    spec = synth.load_plant_spec(args.plant_spec)
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    corpus, truth = synth.generate_corpus(spec, with_text=args.with_text)
    # the generated lexicon is checked before anything is written
    records = synth.lexicon_records(truth)
    lexicon_from_records(records, where="generated lexicon")
    save_corpus(corpus, out / "corpus.jsonl")
    synth.export_ground_truth(truth, out / "ground_truth.json")
    write_json(out / "lexicon.json", records)
    print(
        f"generated {len(corpus.documents)} documents over {len(spec.windows)} windows, "
        f"{len(truth.terms())} terms, seed {spec.seed}"
    )
    print(f"wrote corpus.jsonl, ground_truth.json, lexicon.json to {out}")
    return 0


def run_cluster(args: argparse.Namespace) -> int:
    config, out, lexicon = _read_settings(args)
    window = TimeWindow.parse(args.window) if args.window else None
    corpus = load_corpus(args.corpus)
    graph, partition = breakcheck.cluster_window(corpus, lexicon, window, config, graphml=True)
    export_graphml(graph, out / "graph.graphml", partition.assignment)
    export_graph_json(graph, out / "graph.json")
    export_partition_json(partition, out / "partition.json")
    print(f"{len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"{partition.cluster_count} clusters, modularity {partition.modularity:.4f}")
    for label, members in zip(suggest_labels(graph, partition), partition.clusters()):
        print(f"  cluster {label.cluster_id} ({len(members)} nodes): {', '.join(label.top_tags)}")
    print(f"wrote graph.graphml, graph.json, partition.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="techflux",
        description="Co-occurrence network pipeline for tracking technology cluster evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="cluster two windows and compare them")
    compare.add_argument("--corpus", required=True, help="corpus file (JSONL or CSV)")
    compare.add_argument("--window-t", required=True, dest="window_t", metavar="START:END")
    compare.add_argument("--window-t1", required=True, dest="window_t1", metavar="START:END")
    _add_setting_flags(compare, "lexicon", "field", "pairs", "top_n", "measure", "tau", "resolution", "out")
    compare.set_defaults(func=run_compare)

    series = sub.add_parser("series", help="index time series over windows plus break test")
    series.add_argument("--corpus", required=True, help="corpus file (JSONL or CSV)")
    series.add_argument("--windows", required=True, help="JSON file listing the windows")
    series.add_argument("--breakpoint", required=True, type=int, help="series index starting the second segment")
    _add_setting_flags(series, "lexicon", "field", "pairs", "top_n", "resolution", "weighted_mean", "out")
    series.set_defaults(func=run_series)

    trend = sub.add_parser("trend", help="per-term document counts across labeled corpora")
    trend.add_argument("--corpus", action="append", required=True, metavar="LABEL=PATH",
                       help="labeled corpus source; repeat for each source")
    trend.add_argument("--terms", required=True, help="text file, one term per line")
    trend.add_argument("--period", choices=breakcheck.TREND_PERIODS, default="year")
    _add_setting_flags(trend, "lexicon", "field", "out")
    trend.set_defaults(func=run_trend)

    synth_cmd = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    synth_cmd.add_argument("--plant-spec", required=True, dest="plant_spec", help="plant spec JSON file")
    synth_cmd.add_argument("--seed", type=int, help="override the plant spec's seed")
    synth_cmd.add_argument("--with-text", action="store_true", dest="with_text",
                           help="emit terms inside sentences instead of tags")
    _add_setting_flag(synth_cmd, "out")
    synth_cmd.set_defaults(func=run_synth, out=SETTINGS["out"].default)

    cluster = sub.add_parser("cluster", help="build and cluster a single window")
    cluster.add_argument("--corpus", required=True, help="corpus file (JSONL or CSV)")
    cluster.add_argument("--window", metavar="START:END", help="optional date filter")
    _add_setting_flags(cluster, "lexicon", "field", "pairs", "top_n", "resolution", "out")
    cluster.set_defaults(func=run_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.made = []
    try:
        return args.func(args)
    except TechfluxError as exc:
        message, code = f"techflux {exc.prefix}: {exc}", 2
    except OSError as exc:
        message, code = f"techflux io: {exc}", 2
    except Exception as exc:  # pragma: no cover - defensive
        message, code = f"techflux internal error: {type(exc).__name__}: {exc}", 1
    print(message, file=sys.stderr)
    # rmdir removes only an empty directory, so one that holds a file stays, and its parents with it
    for directory in args.made:
        try:
            directory.rmdir()
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
