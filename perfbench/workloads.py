"""The four benchmark workloads: how their inputs are made and run.

All four plant 40 communities of 12 terms (480 terms) at community rate 0.5
and noise 0.01; the plant specs, the windows file and the terms file live in
perfbench/specs. Inputs are generated from the workload seed with the
program's own ``techflux synth`` before any timing, so the program under
test only ever receives files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPECS = Path(__file__).resolve().parent / "specs"

# Seed offset of the second trend-text corpus, so both sources differ.
PATENTS_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    outputs: tuple[str, ...]
    # (inputs dir, seed, docs divisor, synth runner) -> inputs
    generate: Callable[[Path, int, int, Callable], dict]
    # (inputs, out dir) -> techflux CLI arguments
    argv: Callable[[dict, Path], list[str]]
    # inputs -> arguments of setup_probe.py
    setup_args: Callable[[dict], list[str]]


def read_terms(path: Path) -> list[str]:
    """Terms of a trend terms file: one per line, blank and '#' lines skipped."""
    lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def trend_file(term: str) -> str:
    """Name of the CSV that ``techflux trend`` writes for a term."""
    return "trend_" + (re.sub(r"[^a-z0-9]+", "_", term.casefold()).strip("_") or "term") + ".csv"


def scaled_spec(spec_name: str, dest: Path, divisor: int) -> tuple[Path, dict]:
    """Copy a plant spec, dividing docs_per_window by ``divisor`` (reduced-size runs)."""
    spec = json.loads((SPECS / spec_name).read_text(encoding="utf-8"))
    spec["docs_per_window"] = max(1, spec["docs_per_window"] // divisor)
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / spec_name
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return path, spec


def _synth_corpus(spec_name, with_text):
    def generate(dest: Path, seed: int, divisor: int, synth) -> dict:
        spec_path, spec = scaled_spec(spec_name, dest, divisor)
        synth(spec_path, seed, dest / "gen", with_text)
        return {"spec": spec, "corpus": dest / "gen" / "corpus.jsonl", "lexicon": dest / "gen" / "lexicon.json"}

    return generate


def _generate_trend(dest: Path, seed: int, divisor: int, synth) -> dict:
    spec_path, spec = scaled_spec("trend_text.plant.json", dest, divisor)
    synth(spec_path, seed, dest / "news", True)
    synth(spec_path, seed + PATENTS_SEED_OFFSET, dest / "patents", True)
    return {
        "spec": spec,
        "corpora": {"news": dest / "news" / "corpus.jsonl", "patents": dest / "patents" / "corpus.jsonl"},
        "lexicon": dest / "news" / "lexicon.json",
        "terms": SPECS / "trend_text.terms.txt",
    }


def _generate_synth(dest: Path, seed: int, divisor: int, synth) -> dict:
    spec_path, spec = scaled_spec("series_tags.plant.json", dest, divisor)
    return {"spec": spec, "spec_path": spec_path, "seed": seed}


SERIES_BREAKPOINT = 4


def _window_arg(window: dict) -> str:
    return f"{window['start']}:{window['end']}"


WORKLOADS = (
    Workload(
        name="series-tags",
        why="index series and Chow test over 8 tag-only windows; Louvain and edge counting carry the time",
        outputs=("break_ci.json", "break_ni.json", "series.csv"),
        generate=_synth_corpus("series_tags.plant.json", with_text=False),
        argv=lambda i, out: [
            "series", "--corpus", str(i["corpus"]), "--windows", str(SPECS / "series_tags.windows.json"),
            "--lexicon", str(i["lexicon"]), "--field", "tags", "--top-n", "120",
            "--breakpoint", str(SERIES_BREAKPOINT), "--out", str(out),
        ],
        setup_args=lambda i: ["--lexicon", str(i["lexicon"]), "--corpus", str(i["corpus"])],
    ),
    Workload(
        name="compare-text",
        why="two text windows: regex extraction runs once per doc and dominates; also the nine-file export",
        outputs=tuple(sorted([
            "graph_t.graphml", "graph_t1.graphml", "graph_t.json", "graph_t1.json", "partition_t.json",
            "partition_t1.json", "similarity.csv", "report.json", "alluvial.csv",
        ])),
        generate=_synth_corpus("compare_text.plant.json", with_text=True),
        argv=lambda i, out: [
            "compare", "--corpus", str(i["corpus"]), "--lexicon", str(i["lexicon"]), "--field", "text",
            "--top-n", "100", "--window-t", _window_arg(i["spec"]["windows"][0]),
            "--window-t1", _window_arg(i["spec"]["windows"][1]), "--out", str(out),
        ],
        setup_args=lambda i: ["--lexicon", str(i["lexicon"]), "--corpus", str(i["corpus"])],
    ),
    Workload(
        name="trend-text",
        why="quarterly counts of 3 terms over two text corpora: each doc is extracted once per term",
        outputs=tuple(sorted(
            ["correlations.csv"] + [trend_file(t) for t in read_terms(SPECS / "trend_text.terms.txt")]
        )),
        generate=_generate_trend,
        argv=lambda i, out: [
            "trend", *[a for label, path in i["corpora"].items() for a in ("--corpus", f"{label}={path}")],
            "--terms", str(i["terms"]), "--lexicon", str(i["lexicon"]), "--period", "quarter", "--out", str(out),
        ],
        setup_args=lambda i: ["--lexicon", str(i["lexicon"]), *[a for p in i["corpora"].values() for a in ("--corpus", str(p))]],
    ),
    Workload(
        name="synth",
        why="corpus generation and the write path on the series-tags spec; the only load on synth and save_corpus",
        outputs=("corpus.jsonl", "ground_truth.json", "lexicon.json"),
        generate=_generate_synth,
        argv=lambda i, out: ["synth", "--plant-spec", str(i["spec_path"]), "--seed", str(i["seed"]), "--out", str(out)],
        setup_args=lambda i: ["--plant-spec", str(i["spec_path"])],
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
