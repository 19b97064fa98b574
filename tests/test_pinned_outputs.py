import json
from pathlib import Path

from pinned_runs import run_cases

REFERENCE = Path(__file__).resolve().parent / "pinned_outputs.json"


def test_option_paths_write_their_pinned_bytes(tmp_path):
    """cluster, resolutions, --weighted-mean, --field both, tech-tag, jaccard, trend periods and CSV input."""
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))
    digests = run_cases(tmp_path)
    assert sorted(digests) == sorted(expected)
    changed = [
        f"{case}/{name}"
        for case in expected
        for name in sorted(set(expected[case]) | set(digests[case]))
        if expected[case].get(name) != digests[case].get(name)
    ]
    assert not changed, f"outputs differ from tests/pinned_outputs.json: {changed}"
