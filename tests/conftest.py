import os
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci runs each property test that does not fix its own
# example count on 1,000 examples instead of the default 100
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, passed: bool | str, detail: str) -> None:
    label = passed if isinstance(passed, str) else ("PASS" if passed else "FAIL")
    _ACCEPTANCE_LINES.append(f"acceptance {number}: {label} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
