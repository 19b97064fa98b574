"""Digests of the CLI's outputs on the option paths the benchmark never runs.

Each case runs one ``techflux`` command line in process on small synth
inputs with fixed seeds, and records the sha256 of every file the command
writes to its --out directory and of its stdout and stderr, with the --out
path masked. ``tests/pinned_outputs.json`` holds the reference that
``test_pinned_outputs.py`` checks; it needs nothing but the standard library
and this package, so any interpreter can print the digests:

    PYTHONPATH=src python tests/pinned_runs.py

Redirecting that output into tests/pinned_outputs.json re-records the
reference. Re-recording is a deliberate act: do it only for an output
changed on purpose, and say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from techflux.cli import main
from techflux.corpus import load_corpus, save_corpus

# seven quarters: six window pairs, enough for a break at 3, and two calendar years
WINDOWS = [
    {"start": start, "end": end}
    for start, end in zip(
        ["2020-01-01", "2020-04-01", "2020-07-01", "2020-10-01", "2021-01-01", "2021-04-01", "2021-07-01"],
        ["2020-04-01", "2020-07-01", "2020-10-01", "2021-01-01", "2021-04-01", "2021-07-01", "2021-10-01"],
    )
]

# every event kind, with noise, so that the resolution moves the partitions
PLANT = {
    "seed": 11,
    "docs_per_window": 36,
    "noise_rate": 0.04,
    "windows": WINDOWS,
    "communities": [
        {"name": name, "size": 5, "rate": 0.6} for name in ("ka", "kb", "kc", "kd", "ke")
    ],
    "events": [
        {"kind": "merge", "pair": 0, "sources": ["ka", "kb"], "targets": ["kab"], "mixing": 0.8},
        {"kind": "split", "pair": 1, "sources": ["kc"], "targets": ["kc1", "kc2"]},
        {"kind": "birth", "pair": 2, "targets": ["kf"], "size": 4, "rate": 0.7},
        {"kind": "death", "pair": 3, "sources": ["kd"]},
        {"kind": "persist", "pair": 4, "sources": ["ke"], "targets": ["ke"], "mixing": 0.6},
    ],
}

# tag names no lexicon entry of PLANT matches: on a merged corpus they are plain tags
TAG_PLANT = {
    "seed": 12,
    "docs_per_window": 36,
    "noise_rate": 0.05,
    "windows": WINDOWS,
    "communities": [{"name": name, "size": 4, "rate": 0.6} for name in ("ta", "tb", "tc")],
    "events": [],
}

PAIR = ["--window-t", "2020-01-01:2020-04-01", "--window-t1", "2020-04-01:2020-07-01"]


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _merged_corpus(text_run: Path, tag_run: Path, dest: Path) -> None:
    """Each text document of text_run with the tags of the document of the same id in tag_run."""
    tags = {}
    for line in (tag_run / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        tags[record["id"]] = record["tags"]
    lines = []
    for line in (text_run / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record["tags"] = tags[record["id"]]
        lines.append(json.dumps(record))
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _synth_cases(work: Path) -> list[tuple[str, list[str]]]:
    """(case name, argv without --out) of the runs that make every other case's inputs."""
    plant = _write_json(work / "plant.json", PLANT)
    tag_plant = _write_json(work / "tag_plant.json", TAG_PLANT)
    return [
        ("synth-tags", ["synth", "--plant-spec", plant]),
        ("synth-text", ["synth", "--plant-spec", plant, "--with-text", "--seed", "21"]),
        ("synth-tag-plant", ["synth", "--plant-spec", tag_plant]),
    ]


def _pipeline_cases(work: Path) -> list[tuple[str, list[str]]]:
    """(case name, argv without --out) of the runs on the synth cases' outputs."""
    windows = _write_json(work / "windows.json", WINDOWS)
    terms = work / "terms.txt"
    terms.write_text("ka-000\nke-000\nfresh-00000\n", encoding="utf-8")
    tags, text = work / "synth-tags", work / "synth-text"
    lexicon = ["--lexicon", str(tags / "lexicon.json")]
    tag_corpus = ["--corpus", str(tags / "corpus.jsonl")]
    merged = ["--corpus", str(work / "merged.jsonl")]
    series = ["series", *tag_corpus, *lexicon, "--windows", windows, "--breakpoint", "3", "--field", "tags"]
    trend = [
        "trend", "--corpus", f"tags={tags / 'corpus.jsonl'}", "--corpus", f"text={text / 'corpus.jsonl'}",
        "--terms", str(terms), *lexicon,
    ]
    return [
        ("cluster", ["cluster", *tag_corpus, *lexicon, "--window", "2020-07-01:2020-10-01"]),
        ("compare-resolution-0.5", ["compare", *tag_corpus, *lexicon, *PAIR, "--resolution", "0.5"]),
        ("compare-resolution-2", ["compare", *tag_corpus, *lexicon, *PAIR, "--resolution", "2.0"]),
        ("compare-jaccard", ["compare", *tag_corpus, *lexicon, *PAIR, "--measure", "jaccard"]),
        ("compare-field-both", ["compare", *merged, *lexicon, *PAIR, "--field", "both"]),
        ("compare-tech-tag", ["compare", *merged, *lexicon, *PAIR, "--pairs", "tech-tag"]),
        ("compare-csv", ["compare", "--corpus", str(work / "text.csv"), *lexicon, *PAIR, "--field", "text"]),
        ("series-resolution-0.5", [*series, "--resolution", "0.5"]),
        ("series-resolution-2", [*series, "--resolution", "2.0"]),
        ("series-weighted-mean", [*series, "--weighted-mean"]),
        ("trend-year", [*trend, "--period", "year"]),
        ("trend-quarter", [*trend, "--period", "quarter"]),
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(work: Path, name: str, argv: list[str]) -> dict[str, str]:
    """{file name, "<stdout>" or "<stderr>": sha256} of one case, written to work / name."""
    out = work / name
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"case {name} exited {code}: {stderr.getvalue()}")
    digests = {path.name: _sha256(path.read_bytes()) for path in sorted(out.iterdir())}
    for stream, text in (("<stdout>", stdout.getvalue()), ("<stderr>", stderr.getvalue())):
        digests[stream] = _sha256(text.replace(str(out), "<out>").encode("utf-8"))
    return digests


def run_cases(work: Path) -> dict[str, dict[str, str]]:
    """{case: its digests} for every case, run in the empty directory work."""
    digests = {name: _run(work, name, argv) for name, argv in _synth_cases(work)}
    _merged_corpus(work / "synth-text", work / "synth-tag-plant", work / "merged.jsonl")
    save_corpus(load_corpus(work / "synth-text" / "corpus.jsonl"), work / "text.csv")
    digests.update((name, _run(work, name, argv)) for name, argv in _pipeline_cases(work))
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = run_cases(Path(tmp))
    sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
