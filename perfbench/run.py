"""Benchmark of the techflux command line.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload series-tags --seed 7 --seconds 20 --trace 0

It generates INPUT_SETS input sets from the seed, runs the reference check
(reduced size, default seed, digests compared with reference_digests.json),
then runs the CLI as a child process again and again for ``--seconds``
seconds, the input sets taking turns: a closed loop with one client, each run
starting after the previous one exited, each followed by one timed
``setup_probe.py``. Every child's wall time is scaled to a reference host
speed that a probe measures on the child's core while it runs (see
PROBE_REFERENCE_S). Every output is checked (checks.py on the first run of
each input set, byte-identical digests on the others). ``--trace 1`` adds
one traced run (tracing.py) and reports the per-layer metrics instead of the
end-to-end ones. The last line of stdout is
the JSON result; a record of the run goes to .perfbench/records/.

Other modes, each over every workload, exiting nonzero if any check fails:

    python3 perfbench/run.py --report             # one line per metric: unit, value, median, quartiles, samples
    python3 perfbench/run.py --smoke              # the benchmark's own test: reduced size, checks only
    python3 perfbench/run.py --record-reference   # rewrite reference_digests.json at this commit
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"

DEFAULT_SEED = 1
# The reference check and the smoke mode run the workload with docs_per_window
# divided by this, so they cost a fraction of a timed run.
REFERENCE_DIVISOR = 10
SETUP_REPEATS = 7
# A timed run makes this many input sets from its seed and cycles through
# them, so that one run's figure does not hang on how one corpus happens to
# fall (Louvain's passes, the regex hits): that moves the CLI's time by up
# to 8% from seed to seed.
INPUT_SETS = 3
# The timed loop stops early rather than let one invocation pass this.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0

# The host-speed probe. This machine's cores run in fast and slow phases, up
# to 1.7x apart, that last from under a second to a minute; CPU time moves
# with wall time, so the slow phases are not scheduling, and the two cores do
# not always move together. A fixed chunk of pure-Python work, timed on the
# core the child runs on while it runs, slows with the child, and the child's
# wall time times the host speed (reference chunk time over measured chunk
# time) stays put. The probe takes about 5% of that core.
PROBE_ITERATIONS = 5_000
PROBE_GAP_S = 0.010
# CPU time of one chunk on an uncontended core of the 2.1 GHz Xeon the
# benchmark was tuned on, so that scaled times read as seconds at that speed.
PROBE_REFERENCE_S = 0.45e-3
ALL_CPUS = frozenset(os.sched_getaffinity(0))

# name -> unit; wall_norm_s and setup_s are wall times scaled to the
# reference host speed; passed_frac and output_match_frac are 1 - failed_frac
# and 1 - output_drift / files, so that no end-to-end metric reads 0.
END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
    "output_match_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot measure at all: no program to run, or no inputs."""


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    host_speed: float
    load_start: float
    load_end: float
    log: Path

    @property
    def norm_s(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.wall_s * self.host_speed


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # each child draws its own hash seed, so digests are compared across seeds
    env.pop("PYTHONHASHSEED", None)
    return env


def _probe_chunk() -> float:
    """CPU time of one fixed chunk of dict work.

    Thread time, not wall time: a probe that waits for a core, say while a
    parallel program holds both, does not read as a slow host.
    """
    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.thread_time() - start


def _last_cpu(pid: int) -> int | None:
    """The CPU a process last ran on (field 39 of /proc/<pid>/stat), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    # fields[0] is field 3, the state; a zombie has no CPU worth following
    return None if fields[0] == b"Z" else int(fields[36])


def run_child(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one child to exit: wall time from spawn to exit, resource use of this child alone.

    os.wait4 reports the child's own peak RSS; RUSAGE_CHILDREN would be the
    maximum over every child this process ever waited for. That peak also
    counts the pages the child had before exec, which are this process's, so
    this process keeps numpy and techflux out of its own imports.

    While the child runs, this process wakes every PROBE_GAP_S, moves to the
    core the child last ran on and times one probe chunk there; the host
    speed over the child's run is PROBE_REFERENCE_S over the harmonic mean of
    those chunk times. The affinity is restored before the next child starts,
    which would inherit it.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    chunks: list[float] = []
    with log.open("wb") as fh:
        load_start = os.getloadavg()[0]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(PROBE_GAP_S * 1000):
                    if time.perf_counter() - start > timeout:
                        proc.kill()
                    cpu = _last_cpu(proc.pid)
                    if cpu is not None and os.sched_getaffinity(0) != {cpu}:
                        os.sched_setaffinity(0, {cpu})
                    chunks.append(_probe_chunk())
            finally:
                os.close(pidfd)
                os.sched_setaffinity(0, ALL_CPUS)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not chunks:
        chunks.append(_probe_chunk())
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    PROBE_REFERENCE_S / statistics.harmonic_mean(chunks), load_start, os.getloadavg()[0], log)


def _log_tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def techflux_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "techflux", *args]


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}


@dataclass
class Outcome:
    run: ChildRun
    digests: dict[str, str]
    input_set: int = 0
    problems: list[str] = field(default_factory=list)


class Harness:
    """Work directory and counters of one benchmark invocation."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self._logs = 0

    def log(self, stem: str) -> Path:
        self._logs += 1
        return self.work / "logs" / f"{self._logs:04d}-{stem}.log"

    def synth(self, spec_path: Path, seed: int, out: Path, with_text: bool) -> None:
        args = ["synth", "--plant-spec", str(spec_path), "--seed", str(seed), "--out", str(out)]
        run = run_child(techflux_cmd(args + (["--with-text"] if with_text else [])), self.log("generate"))
        if run.code != 0:
            raise BenchError(f"input generation failed (exit {run.code}): {_log_tail(run.log)}")

    def generate(self, workload, name: str, seed: int, divisor: int) -> dict:
        """Make a workload's inputs; ``inputs["file"]`` is their JSON copy for checks.py."""
        inputs = workload.generate(self.work / name, seed, divisor, self.synth)
        inputs["file"] = self.work / name / "inputs.json"
        inputs["file"].write_text(json.dumps(inputs, default=str), encoding="utf-8")
        return inputs

    def run_program(self, workload, inputs: dict, out_name: str, check: bool, spans: Path | None = None) -> Outcome:
        out = self.work / out_name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        args = workload.argv(inputs, out)
        if spans is None:
            cmd = techflux_cmd(args)
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans), *args]
        run = run_child(cmd, self.log(out_name))
        outcome = Outcome(run, digests(out))
        if run.code != 0:
            outcome.problems.append(f"exit code {run.code}: {_log_tail(run.log)}")
        if sorted(outcome.digests) != sorted(workload.outputs):
            outcome.problems.append(f"output files {sorted(outcome.digests)}, expected {sorted(workload.outputs)}")
        if check and not outcome.problems:
            outcome.problems += self.check(workload, inputs, out)
        return outcome

    def check(self, workload, inputs: dict, out: Path) -> list[str]:
        run = run_child([sys.executable, str(BENCH_DIR / "checks.py"), workload.name, str(inputs["file"]), str(out)],
                        self.log("check"))
        lines = run.log.read_text(encoding="utf-8", errors="replace").splitlines()
        try:
            if run.code == 0 and lines:
                return list(json.loads(lines[-1]))
        except ValueError:
            pass
        return [f"output check crashed (exit {run.code}): {_log_tail(run.log)}"]

    def setup_time(self, inputs: dict, workload) -> float:
        run = run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"), *workload.setup_args(inputs)],
                        self.log("setup"))
        if run.code != 0:
            raise BenchError(f"setup probe failed (exit {run.code}): {_log_tail(run.log)}")
        return run.norm_s


def load_reference() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def reference_run(harness: Harness, workload) -> tuple[dict, Outcome]:
    """The workload at reduced size and the default seed, with every check on."""
    inputs = harness.generate(workload, "ref_inputs", DEFAULT_SEED, REFERENCE_DIVISOR)
    return inputs, harness.run_program(workload, inputs, "ref_out", check=True)


def drifted_files(workload, outcome: Outcome) -> tuple[int, int]:
    """Files of a reference run whose digest differs from reference_digests.json, and the files recorded."""
    reference = load_reference().get(workload.name, {})
    if not reference:
        outcome.problems.append(f"no reference digests for {workload.name} in {REFERENCE_FILE.name}")
    return sum(1 for name, digest in reference.items() if outcome.digests.get(name) != digest), len(reference)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def figure(name: str, values: list[float]) -> float:
    """The reported value of an end-to-end metric: the median of its samples,
    except wall_norm_s, the mean of its input sets' medians, which is the time
    of one CLI run on the average corpus of the seed."""
    return statistics.fmean(values) if name == "wall_norm_s" else _median(values)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Measurement:
    workload: str
    seed: int
    reference: Outcome
    drift: int
    reference_files: int
    setup_s: list[float]
    samples: list[Outcome]
    traced: Outcome | None = None
    spans: dict | None = None
    # seconds spent per phase of the run, for the record
    phases: dict[str, float] = field(default_factory=dict)

    def outcomes(self) -> list[Outcome]:
        return [self.reference, *self.samples] + ([self.traced] if self.traced else [])

    @property
    def attempted(self) -> int:
        return len(self.outcomes())

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes() if o.problems)

    def norm_s_by_set(self) -> list[float]:
        """Median scaled wall time of each input set."""
        by_set: dict[int, list[float]] = {}
        for o in self.samples:
            by_set.setdefault(o.input_set, []).append(o.run.norm_s)
        return [_median(values) for values in by_set.values()]

    def series(self) -> dict[str, tuple[list[float], str]]:
        """End-to-end metrics as (samples, unit); a single sample where there is one figure.

        The samples of wall_norm_s are the medians of the input sets; see figure().
        """
        samples = {
            "wall_norm_s": self.norm_s_by_set(),
            "setup_s": self.setup_s,
            "peak_rss_mb": [o.run.rss_mb for o in self.samples],
            "passed_frac": [(self.attempted - self.failed) / self.attempted],
            "output_match_frac": [1.0 - self.drift / max(self.reference_files, 1)],
        }
        return {name: (samples[name], unit) for name, unit in END_TO_END.items()}

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        import tracing

        if self.spans is None:
            return {}, [m.name for m in tracing.METRICS]
        # the traced run uses input set 0, so it is compared with that set's runs
        first_set = [o for o in self.samples if o.input_set == 0]
        return tracing.layer_metrics(self.spans, untraced_figures(first_set, self.traced))


def untraced_figures(samples: list[Outcome], traced: Outcome) -> dict[str, float]:
    """Medians of the untraced runs and the traced run's times, as tracing.layer_metrics reads them."""
    return {
        "wall_s": _median([o.run.wall_s for o in samples]),
        "norm_s": _median([o.run.norm_s for o in samples]),
        "cpu_s": _median([o.run.cpu_s for o in samples]),
        "host_speed": _median([o.run.host_speed for o in samples]),
        "traced_wall_s": traced.run.wall_s,
        "traced_norm_s": traced.run.norm_s,
    }


def input_seeds(seed: int) -> list[int]:
    """Seeds of a timed run's input sets; distinct seeds give disjoint sets."""
    return [seed * INPUT_SETS + i for i in range(INPUT_SETS)]


def measure(harness: Harness, workload, seed: int, seconds: float, trace: bool) -> Measurement:
    started = time.monotonic()
    input_sets = [harness.generate(workload, f"inputs{i}", s, 1) for i, s in enumerate(input_seeds(seed))]
    generated = time.monotonic()
    _, reference = reference_run(harness, workload)
    drift, reference_files = drifted_files(workload, reference)
    # The input sets take turns, and one setup probe follows each timed run,
    # so that every set and setup_s sample the same stretch of a shared machine.
    setup: list[float] = []
    samples: list[Outcome] = []
    first: list[Outcome] = []  # the first outcome of each input set
    loop_start = time.monotonic()
    while True:
        k = len(samples) % len(input_sets)
        outcome = harness.run_program(workload, input_sets[k], "out", check=len(first) <= k)
        outcome.input_set = k
        if len(first) <= k:
            first.append(outcome)
        elif outcome.digests != first[k].digests:
            outcome.problems.append("outputs differ from the first run of the same inputs")
        else:
            outcome.problems += first[k].problems  # the same bytes fail the same checks
        samples.append(outcome)
        setup.append(harness.setup_time(input_sets[k], workload))
        if k < len(input_sets) - 1:
            continue
        now = time.monotonic()
        # whole rounds only: stop where another round would end further past
        # --seconds than this point falls short of it
        round_s = (now - loop_start) / (len(samples) // len(input_sets))
        if now - loop_start + round_s / 2 >= seconds or now - started + 2 * round_s > BUDGET_S:
            break
    loop_end = time.monotonic()
    while len(setup) < SETUP_REPEATS:
        setup.append(harness.setup_time(input_sets[0], workload))
    m = Measurement(workload.name, seed, reference, drift, reference_files, setup, samples)
    if trace:
        m.traced, m.spans = traced_run(harness, workload, input_sets[0], "traced_out")
        if m.traced.digests != first[0].digests:
            m.traced.problems.append("traced outputs differ from the untraced ones")
    m.phases = {"generate": generated - started, "reference": loop_start - generated,
                "loop": loop_end - loop_start, "rest": time.monotonic() - loop_end}
    return m


def traced_run(harness: Harness, workload, inputs: dict, out_name: str) -> tuple[Outcome, dict | None]:
    spans_path = harness.work / "spans.json"
    outcome = harness.run_program(workload, inputs, out_name, check=True, spans=spans_path)
    if not spans_path.is_file():
        outcome.problems.append("the traced run wrote no spans")
        return outcome, None
    return outcome, json.loads(spans_path.read_text(encoding="utf-8"))


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment() -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _outcome_record(o: Outcome) -> dict:
    r = o.run
    return {"input_set": o.input_set, "wall_s": r.wall_s, "host_speed": r.host_speed, "norm_s": r.norm_s, "cpu_s": r.cpu_s,
            "rss_mb": r.rss_mb, "exit": r.code,
            "load1_start": r.load_start, "load1_end": r.load_end, "problems": o.problems}


def write_record(m: Measurement, args: dict, result: dict, missing: list[str]) -> Path:
    record = {
        **_environment(), **args,
        "input_seeds": input_seeds(m.seed),
        "phase_s": m.phases,
        "setup_s": m.setup_s,
        "reference": {**_outcome_record(m.reference), "drifted_files": m.drift},
        "samples": [_outcome_record(o) for o in m.samples],
        "traced": _outcome_record(m.traced) if m.traced else None,
        "missing_metrics": missing,
        "spans": m.spans,
        "result": result,
    }
    stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = WORK_ROOT / "records" / f"{stamp}-{m.workload}-seed{m.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def report_lines(m: Measurement) -> list[str]:
    lines = []
    rows = [(name, values, unit) for name, (values, unit) in m.series().items()]
    if m.traced is not None:
        metrics, missing = m.layer_metrics()
        rows += [(name, [value], unit) for name, (value, unit) in metrics.items()]
        rows += [(name, [], "missing") for name in missing]
    for name, values, unit in rows:
        if not values:
            lines.append(f"{m.workload:<13} {name:<34} MISSING: a traced function no longer exists")
            continue
        q1, q3 = _quartiles(values)
        lines.append(f"{m.workload:<13} {name:<34} {unit:<9} value {figure(name, values):<12.6g} "
                     f"median {_median(values):<12.6g} "
                     f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values)}")
    return lines


def _problems(m: Measurement) -> list[str]:
    return [p for o in m.outcomes() for p in o.problems]


def _require_program() -> None:
    if not (SRC / "techflux" / "__init__.py").is_file():
        raise BenchError(f"no techflux source at {SRC / 'techflux'}")
    sys.path.insert(0, str(SRC))


def _harness(tag: str) -> Harness:
    work = WORK_ROOT / f"work-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return Harness(work)


def run_one(args) -> int:
    import workloads

    harness = _harness(args.workload)
    try:
        m = measure(harness, workloads.BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(harness.work, ignore_errors=True)
    missing: list[str] = []
    if args.trace:
        layer, missing = m.layer_metrics()
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": figure(name, values), "unit": unit} for name, (values, unit) in m.series().items()}
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}
    record = write_record(m, {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                              "trace": args.trace}, result, missing)
    for problem in _problems(m):
        print(f"perfbench: FAILED {args.workload}: {problem}", file=sys.stderr)
    for name in missing:
        print(f"perfbench: missing metric {name}: a traced function no longer exists", file=sys.stderr)
    print(f"perfbench: record {record.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_report(args) -> int:
    import workloads

    env = _environment()
    print(f"commit {env['commit']}  python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"seed {args.seed}  seconds {args.seconds}")
    failed = False
    for workload in workloads.WORKLOADS:
        harness = _harness(workload.name)
        try:
            m = measure(harness, workload, args.seed, args.seconds, trace=True)
        finally:
            shutil.rmtree(harness.work, ignore_errors=True)
        for line in report_lines(m):
            print(line, flush=True)
        for problem in _problems(m):
            print(f"{workload.name:<13} FAILED: {problem}", flush=True)
            failed = True
    return 1 if failed else 0


def run_smoke(args) -> int:
    """Every workload once at reduced size, traced, with every output check on."""
    import tracing
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != list(END_TO_END.items()):
        problems.append("BENCHMARK.json end_to_end differs from run.py END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] != [
        (m.name, m.unit, m.better) for m in tracing.METRICS
    ]:
        problems.append("BENCHMARK.json per_layer differs from tracing.METRICS")
    if [w["name"] for w in declared["workloads"]] != [w.name for w in workloads.WORKLOADS]:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        harness = _harness(workload.name)
        try:
            inputs, reference = reference_run(harness, workload)
            drift, _ = drifted_files(workload, reference)
            traced, spans = traced_run(harness, workload, inputs, "traced_out")
        finally:
            shutil.rmtree(harness.work, ignore_errors=True)
        found = reference.problems + traced.problems
        if drift:
            found.append(f"{drift} output file(s) differ from {REFERENCE_FILE.name}")
        if traced.digests != reference.digests:
            found.append("traced outputs differ from the untraced ones")
        metrics, missing = {}, []
        if spans is not None:
            metrics, missing = tracing.layer_metrics(spans, untraced_figures([reference], traced))
        found += [f"missing metric {name}" for name in missing]
        print(f"{workload.name:<13} {'ok' if not found else 'FAILED'}  untraced {reference.run.wall_s:.2f} s  "
              f"traced {traced.run.wall_s:.2f} s  {len(metrics)} layer metrics", flush=True)
        problems += [f"{workload.name}: {p}" for p in found]
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


def run_record_reference(args) -> int:
    import workloads

    recorded = {}
    for workload in workloads.WORKLOADS:
        harness = _harness(workload.name)
        try:
            _, outcome = reference_run(harness, workload)
        finally:
            shutil.rmtree(harness.work, ignore_errors=True)
        if outcome.problems:
            print(f"{workload.name}: not recorded: {outcome.problems}", file=sys.stderr)
            return 1
        recorded[workload.name] = outcome.digests
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record-reference", action="store_true", dest="record_reference")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so that run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        _require_program()
        import workloads

        if args.workload is not None and args.workload not in workloads.BY_NAME:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.BY_NAME)}")
        if args.report:
            return run_report(args)
        if args.smoke:
            return run_smoke(args)
        if args.record_reference:
            return run_record_reference(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
