"""Synthetic tagged corpora with planted cluster evolution.

A plant spec lists time windows, the term communities alive in the first
window, and the evolution events to realize between consecutive windows
(birth, death, merge, split, persist; persist with mixing below 1 renews
part of a community's vocabulary). The generator evolves community
memberships through those events, samples documents window by window, and
returns the corpus together with exact ground truth: per-window term
assignments, the full event list including implicit persists, and the
inherited-node fraction each later community was planted with.

Randomness comes from a self-contained splitmix64 generator (add the odd
constant 0x9E3779B97F4A7C15 each step, then two xor-shift multiplications)
so the same seed yields the same bytes on every platform and Python
version. Documents sample their tags from one community at that
community's intra-document rate, plus uniform noise over the rest of the
window vocabulary. Each output of splitmix64 is a pure function of its
step count, so a document's per-term draws come from one vectorised numpy
call that returns exactly the values, and leaves exactly the state, of the
same number of scalar draws: the stream is the same splitmix64 sequence.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Corpus, Document, TimeWindow, normalize_tag, window_from_record
from .errors import SynthError
from .fileio import atomic_write_text, json_text, read_json

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

FRESH_PREFIX = "fresh-"

EVENT_KINDS = ("birth", "death", "merge", "split", "persist")

_DEFAULT_BIRTH_RATE = 0.9


class SplitMix64:
    """Deterministic 64-bit generator, stable across platforms."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53 random bits scaled into [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniforms(self, count: int) -> np.ndarray:
        """The next count values of uniform() as one float64 array.

        The k-th output mixes only state + k * gamma, so all of them are
        computed at once. uint64 arrays wrap like ``& _MASK64``; the state
        itself stays a Python int, because numpy scalars warn on overflow
        and numpy 1.x and 2.x promote Python ints mixed with uint64
        differently.
        """
        import numpy as np

        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        # below 2**53, so the conversion and the scaling are exact
        return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n)."""
        if n <= 0:
            raise SynthError(f"below() needs a positive bound, got {n}")
        # rejection on the tail that would bias the modulo
        limit = _MASK64 - (_MASK64 % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def chance(self, p: float) -> bool:
        return self.uniform() < p


@dataclass(frozen=True)
class PlantCommunity:
    name: str
    members: tuple[str, ...]
    rate: float


@dataclass(frozen=True)
class PlantEvent:
    kind: str
    pair: int
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    mixing: float
    size: int | None
    rate: float | None


@dataclass(frozen=True)
class PlantSpec:
    windows: tuple[TimeWindow, ...]
    communities: tuple[PlantCommunity, ...]
    events: tuple[PlantEvent, ...]
    docs_per_window: int
    noise_rate: float
    seed: int


@dataclass(frozen=True)
class PlantedEvent:
    kind: str
    sources: tuple[str, ...]
    targets: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact planted structure: assignments per window, events and indices per pair."""

    assignments: tuple[dict[str, str], ...]
    pair_events: tuple[tuple[PlantedEvent, ...], ...]
    convergence: tuple[dict[str, float], ...]
    novelty: tuple[dict[str, float], ...]

    def terms(self) -> set[str]:
        out: set[str] = set()
        for assignment in self.assignments:
            out.update(assignment)
        return out


def _check_term(term: str, where: str) -> str:
    if not isinstance(term, str) or not term:
        raise SynthError(f"{where}: member terms must be nonempty strings")
    if normalize_tag(term) != term:
        raise SynthError(f"{where}: term {term!r} is not in normalized form")
    if term.startswith(FRESH_PREFIX):
        raise SynthError(f"{where}: term {term!r} uses the reserved prefix {FRESH_PREFIX!r}")
    return term


def _community_from_record(raw: object, where: str) -> PlantCommunity:
    if not isinstance(raw, dict):
        raise SynthError(f"{where}: community record must be an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise SynthError(f"{where}: community needs a nonempty string name")
    rate = raw.get("rate")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 < float(rate) <= 1.0:
        raise SynthError(f"{where}: community {name!r} needs a rate in (0, 1]")
    members_raw = raw.get("members")
    size = raw.get("size")
    if members_raw is not None:
        if not isinstance(members_raw, list) or not members_raw:
            raise SynthError(f"{where}: community {name!r} members must be a nonempty list")
        members = tuple(sorted(_check_term(t, f"{where} community {name!r}") for t in members_raw))
        if len(set(members)) != len(members):
            raise SynthError(f"{where}: community {name!r} has duplicate members")
        if size is not None and size != len(members):
            raise SynthError(f"{where}: community {name!r} size {size} != {len(members)} members")
    else:
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise SynthError(f"{where}: community {name!r} needs members or a positive size")
        members = tuple(f"{name}-{i:03d}" for i in range(size))
        for term in members:
            _check_term(term, f"{where} community {name!r}")
    return PlantCommunity(name=name, members=members, rate=float(rate))


def _event_from_record(raw: object, where: str) -> PlantEvent:
    if not isinstance(raw, dict):
        raise SynthError(f"{where}: event record must be an object")
    kind = raw.get("kind")
    if kind not in EVENT_KINDS:
        raise SynthError(f"{where}: event kind must be one of {EVENT_KINDS}, got {kind!r}")
    pair = raw.get("pair", 0)
    if isinstance(pair, bool) or not isinstance(pair, int) or pair < 0:
        raise SynthError(f"{where}: event pair index must be a nonnegative integer")
    sources = tuple(raw.get("sources", ()))
    targets = tuple(raw.get("targets", ()))
    mixing = raw.get("mixing", 1.0)
    if isinstance(mixing, bool) or not isinstance(mixing, (int, float)) or not 0.0 <= float(mixing) <= 1.0:
        raise SynthError(f"{where}: mixing must lie in [0, 1], got {mixing!r}")
    mixing = float(mixing)
    size = raw.get("size")
    if size is not None and (isinstance(size, bool) or not isinstance(size, int) or size < 1):
        raise SynthError(f"{where}: event size must be a positive integer")
    rate = raw.get("rate")
    if rate is not None and (isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 < float(rate) <= 1.0):
        raise SynthError(f"{where}: event rate must lie in (0, 1]")
    if kind == "birth":
        if len(sources) != 0 or len(targets) != 1:
            raise SynthError(f"{where}: birth takes no sources and exactly one target")
        if size is None:
            raise SynthError(f"{where}: birth needs a size")
    elif kind == "death":
        if len(sources) != 1 or len(targets) != 0:
            raise SynthError(f"{where}: death takes exactly one source and no targets")
    elif kind == "merge":
        if len(sources) < 2 or len(targets) != 1:
            raise SynthError(f"{where}: merge takes >= 2 sources and exactly one target")
        if mixing == 0.0:
            raise SynthError(f"{where}: merge mixing must be positive")
    elif kind == "split":
        if len(sources) != 1 or len(targets) < 2:
            raise SynthError(f"{where}: split takes one source and >= 2 targets")
        if mixing == 0.0:
            raise SynthError(f"{where}: split mixing must be positive")
    else:
        if len(sources) != 1 or len(targets) > 1:
            raise SynthError(f"{where}: persist takes one source and at most one target")
        if not targets:
            targets = (sources[0],)
    for name in sources + targets:
        if not isinstance(name, str) or not name:
            raise SynthError(f"{where}: community names must be nonempty strings")
    return PlantEvent(
        kind=kind, pair=pair, sources=sources, targets=targets,
        mixing=mixing, size=size, rate=float(rate) if rate is not None else None,
    )


def plant_spec_from_records(raw: object, where: str = "plant spec") -> PlantSpec:
    if not isinstance(raw, dict):
        raise SynthError(f"{where}: top level must be an object")
    seed = raw.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SynthError(f"{where}: seed must be an integer")
    docs = raw.get("docs_per_window")
    if isinstance(docs, bool) or not isinstance(docs, int) or docs < 1:
        raise SynthError(f"{where}: docs_per_window must be a positive integer")
    noise = raw.get("noise_rate", 0.0)
    if isinstance(noise, bool) or not isinstance(noise, (int, float)) or not 0.0 <= float(noise) < 1.0:
        raise SynthError(f"{where}: noise_rate must lie in [0, 1)")
    windows_raw = raw.get("windows")
    if not isinstance(windows_raw, list) or not windows_raw:
        raise SynthError(f"{where}: windows must be a nonempty list")
    windows = [window_from_record(rec, f"{where}: window {i}", SynthError) for i, rec in enumerate(windows_raw)]
    for prev, cur in zip(windows, windows[1:]):
        if not cur.start > prev.start:
            raise SynthError(f"{where}: windows must be strictly increasing by start date")
    communities_raw = raw.get("communities")
    if not isinstance(communities_raw, list) or not communities_raw:
        raise SynthError(f"{where}: communities must be a nonempty list")
    communities = tuple(_community_from_record(rec, where) for rec in communities_raw)
    names = [c.name for c in communities]
    if len(set(names)) != len(names):
        raise SynthError(f"{where}: duplicate community names in the first window")
    seen: set[str] = set()
    for community in communities:
        overlap = seen.intersection(community.members)
        if overlap:
            raise SynthError(f"{where}: communities overlap on {sorted(overlap)}")
        seen.update(community.members)
    events_raw = raw.get("events", [])
    if not isinstance(events_raw, list):
        raise SynthError(f"{where}: events must be a list")
    events = tuple(_event_from_record(rec, f"{where} event {i}") for i, rec in enumerate(events_raw))
    for event in events:
        if event.pair >= len(windows) - 1:
            raise SynthError(
                f"{where}: event pair index {event.pair} out of range for {len(windows)} windows"
            )
    return PlantSpec(
        windows=tuple(windows),
        communities=communities,
        events=events,
        docs_per_window=docs,
        noise_rate=float(noise),
        seed=seed,
    )


def load_plant_spec(path: str | Path) -> PlantSpec:
    return plant_spec_from_records(read_json(path, SynthError, "plant spec"), where=str(path))


def _inherit_count(mixing: float, size: int) -> int:
    # round half up so mixing 1.0 always takes everything
    return int(mixing * size + 0.5)


class _FreshNames:
    def __init__(self) -> None:
        self._next = 0

    def take(self, count: int) -> list[str]:
        out = [f"{FRESH_PREFIX}{self._next + i:05d}" for i in range(count)]
        self._next += count
        return out


def _evolve_communities(spec: PlantSpec) -> list[list[PlantCommunity]]:
    """Community state for every window, realizing the planted events in order."""
    states = [list(spec.communities)]
    fresh = _FreshNames()
    for pair in range(len(spec.windows) - 1):
        current = states[-1]
        by_name = {c.name: c for c in current}
        consumed: set[str] = set()
        produced: list[PlantCommunity] = []
        for event in spec.events:
            if event.pair != pair:
                continue
            where = f"pair {pair} {event.kind}"
            for source in event.sources:
                if source not in by_name:
                    raise SynthError(f"{where}: unknown source community {source!r}")
                if source in consumed:
                    raise SynthError(f"{where}: source {source!r} already consumed by another event")
            consumed.update(event.sources)
            if event.kind == "death":
                continue
            if event.kind == "birth":
                rate = event.rate if event.rate is not None else _DEFAULT_BIRTH_RATE
                produced.append(PlantCommunity(
                    name=event.targets[0],
                    members=tuple(fresh.take(event.size)),
                    rate=rate,
                ))
            elif event.kind == "merge":
                inherited: list[str] = []
                total = 0
                for source in event.sources:
                    src = by_name[source]
                    total += len(src.members)
                    inherited.extend(src.members[: _inherit_count(event.mixing, len(src.members))])
                fill = fresh.take(total - len(inherited))
                rate = event.rate if event.rate is not None else by_name[event.sources[0]].rate
                produced.append(PlantCommunity(
                    name=event.targets[0],
                    members=tuple(sorted(inherited + fill)),
                    rate=rate,
                ))
            elif event.kind == "split":
                src = by_name[event.sources[0]]
                parts = len(event.targets)
                base, extra = divmod(len(src.members), parts)
                if base == 0:
                    raise SynthError(
                        f"{where}: source {src.name!r} has {len(src.members)} members, "
                        f"too few for {parts} parts"
                    )
                offset = 0
                for t_index, target in enumerate(event.targets):
                    part_size = base + (1 if t_index < extra else 0)
                    part = src.members[offset: offset + part_size]
                    offset += part_size
                    kept = list(part[: _inherit_count(event.mixing, part_size)])
                    fill = fresh.take(part_size - len(kept))
                    rate = event.rate if event.rate is not None else src.rate
                    produced.append(PlantCommunity(
                        name=target, members=tuple(sorted(kept + fill)), rate=rate,
                    ))
            else:
                src = by_name[event.sources[0]]
                kept = list(src.members[: _inherit_count(event.mixing, len(src.members))])
                fill = fresh.take(len(src.members) - len(kept))
                rate = event.rate if event.rate is not None else src.rate
                produced.append(PlantCommunity(
                    name=event.targets[0], members=tuple(sorted(kept + fill)), rate=rate,
                ))
        carried = [c for c in current if c.name not in consumed]
        next_state = carried + produced
        names = [c.name for c in next_state]
        if len(set(names)) != len(names):
            raise SynthError(f"pair {pair}: duplicate community names in the produced window")
        seen: set[str] = set()
        for community in next_state:
            overlap = seen.intersection(community.members)
            if overlap:
                raise SynthError(f"pair {pair}: produced communities overlap on {sorted(overlap)}")
            seen.update(community.members)
        if not next_state:
            raise SynthError(f"pair {pair}: events leave the next window with no communities")
        states.append(next_state)
    return states


def _ground_truth(spec: PlantSpec, states: list[list[PlantCommunity]]) -> GroundTruth:
    assignments = tuple(
        {term: c.name for c in state for term in c.members} for state in states
    )
    pair_events: list[tuple[PlantedEvent, ...]] = []
    convergence: list[dict[str, float]] = []
    novelty: list[dict[str, float]] = []
    for pair in range(len(spec.windows) - 1):
        explicit = [e for e in spec.events if e.pair == pair]
        consumed = {s for e in explicit for s in e.sources}
        events = [PlantedEvent(e.kind, e.sources, e.targets) for e in explicit]
        for community in states[pair]:
            if community.name not in consumed:
                events.append(PlantedEvent("persist", (community.name,), (community.name,)))
        vocab_prev = set(assignments[pair])
        ci: dict[str, float] = {}
        for community in states[pair + 1]:
            inherited = sum(1 for t in community.members if t in vocab_prev)
            ci[community.name] = inherited / len(community.members)
        pair_events.append(tuple(events))
        convergence.append(ci)
        novelty.append({name: 1.0 - v for name, v in ci.items()})
    return GroundTruth(
        assignments=assignments,
        pair_events=tuple(pair_events),
        convergence=tuple(convergence),
        novelty=tuple(novelty),
    )


def generate_corpus(spec: PlantSpec, with_text: bool = False) -> tuple[Corpus, GroundTruth]:
    """Sample the corpus and return it with its ground truth.

    By default documents carry tags only. With with_text the sampled terms
    are embedded in a sentence instead, to exercise text extraction.

    Each document draws its community, then one uniform per member in
    member order (kept below the community's rate), then, when noise is
    on, one per non-member in vocabulary order (kept below noise_rate),
    then its day. The per-term draws are one uniforms() call.
    """
    import numpy as np

    states = _evolve_communities(spec)
    truth = _ground_truth(spec, states)
    rng = SplitMix64(spec.seed)
    noise = spec.noise_rate
    documents: list[Document] = []
    for w_index, (window, state) in enumerate(zip(spec.windows, states)):
        vocabulary = sorted({term for c in state for term in c.members})
        members, others = [], []
        for community in state:
            in_community = set(community.members)
            members.append(np.array(community.members, dtype=object))
            others.append(np.array([t for t in vocabulary if t not in in_community], dtype=object))
        span_days = (window.end - window.start).days
        for d_index in range(spec.docs_per_window):
            ci = rng.below(len(state))
            m = len(members[ci])
            u = rng.uniforms(len(vocabulary) if noise > 0.0 else m)
            picked = members[ci][u[:m] < state[ci].rate].tolist()
            if noise > 0.0:
                picked += others[ci][u[m:] < noise].tolist()
            tags = tuple(sorted(picked))
            # the window is half-open, so the end day itself is excluded
            date = window.start + dt.timedelta(days=rng.below(span_days))
            doc_id = f"w{w_index}-d{d_index:05d}"
            if with_text:
                text = "This note covers " + ", ".join(tags) + "." if tags else "This note covers nothing."
                documents.append(Document(id=doc_id, date=date, text=text, tags=()))
            else:
                documents.append(Document(id=doc_id, date=date, text="", tags=tags))
    corpus = Corpus(documents=tuple(documents))
    return corpus, truth


def lexicon_records(truth: GroundTruth) -> list[dict]:
    """Lexicon entries covering every planted term, for the text path."""
    return [
        {"canonical": term, "patterns": [re.escape(term)]}
        for term in sorted(truth.terms())
    ]


def ground_truth_to_json(truth: GroundTruth) -> str:
    payload = {
        "assignments": [dict(sorted(a.items())) for a in truth.assignments],
        "pairs": [
            {
                "events": [
                    {"kind": e.kind, "sources": list(e.sources), "targets": list(e.targets)}
                    for e in truth.pair_events[i]
                ],
                "convergence": dict(sorted(truth.convergence[i].items())),
                "novelty": dict(sorted(truth.novelty[i].items())),
            }
            for i in range(len(truth.pair_events))
        ],
    }
    return json_text(payload)


def export_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    atomic_write_text(path, ground_truth_to_json(truth))
