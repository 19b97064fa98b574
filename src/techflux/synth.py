"""Synthetic tagged corpora with planted cluster evolution.

A plant spec lists time windows, the term communities alive in the first
window, and the evolution events to realize between consecutive windows
(birth, death, merge, split, persist; persist with mixing below 1 renews
part of a community's vocabulary). Every target with sources is planted by
one inheritance rule: keep the first mixing share (rounded half up) of each
source run, fill up to the runs' total size with fresh names, and take the
event's rate or else the first source's. Merge and persist read each source
as one run; split cuts its source into near-equal runs, one per target; a
birth is all fresh names. One pass over the window pairs builds the
memberships together with the exact ground truth: per-window term
assignments, the full event list including implicit persists, and the
inherited-node fraction each later community was planted with. Documents
are then sampled window by window.

Randomness comes from a self-contained splitmix64 generator (add the odd
constant 0x9E3779B97F4A7C15 each step, then two xor-shift multiplications)
so the same seed yields the same bytes on every platform and Python
version. Documents sample their tags from one community at that
community's intra-document rate, plus uniform noise over the rest of the
window vocabulary. Each output of splitmix64 is a pure function of its
step count, so a document's per-term draws run at once on 128-bit lanes of
one Python int. The block gives exactly the keep decisions, and leaves
exactly the state, of the same number of scalar draws, with no array
library: the stream is the same splitmix64 sequence.

The same property lets a second process start at any document. Above
_FORK_MIN_DRAWS expected per-term draws, a forked child (forked.beside)
draws the second half of the documents while this process draws the first.
The child walks the first half drawing only each document's community and
day through below(), whose rejections can take extra draws, and skips each
flag block; it sends back each document's day and sorted tags. The
documents are the same as in one process.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
import re
from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

from .corpus import Corpus, Document, normalize_tag, window_from_record
from .errors import SynthError
from .fileio import atomic_write_text, json_text, read_json
from .forked import beside

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
        self._lanes: dict[int, tuple[int, int, int, int]] = {}
        self._last = (-1, 0, 0)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53 random bits scaled into [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def flags_below(self, limits: int, count: int) -> bytes:
        """One byte per draw of the next count: 1 where uniform() is below its lane's rate in limits.

        Draw k mixes only state + k * gamma, so the block runs on 128-bit
        lanes of one int, masked to 64 bits around each multiply so that no
        product spills into the next lane. Lane constants are built per count
        on first use. A block, then one below() call on each side, moves every
        lane by (count + 2) * gamma, so the next block of that count adds a
        constant instead of multiplying out the state.
        """
        if count not in self._lanes:
            ones = int.from_bytes(b"\1".ljust(16, b"\0") * count, "little")
            gammas = b"".join((k * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(1, count + 1))
            step = ((count + 2) * _GAMMA & _MASK64) * ones
            self._lanes[count] = (ones * _MASK64, ones, int.from_bytes(gammas, "little"), step)
        mask, ones, gammas, step = self._lanes[count]
        state, (last_count, last_state, z) = self._state, self._last
        if count == last_count and state == (last_state + (count + 2) * _GAMMA) & _MASK64:
            z = (z + step) & mask
        else:
            z = (state * ones + gammas) & mask
        self._last = (count, state, z)
        self._state = (state + count * _GAMMA) & _MASK64
        z ^= z >> 30
        z = ((z & mask) * _MIX1) & mask
        z ^= z >> 27
        z = ((z & mask) * _MIX2) & mask
        z ^= z >> 31
        # bound + 2**64 - 1 - z reaches bit 64, the lane's byte 8, exactly where z < bound
        return (limits - (z & mask)).to_bytes(16 * count, "little")[8::16]

    def skip(self, count: int) -> None:
        """Move past the next count draws without mixing them, as flags_below() of count does."""
        self._state = (self._state + count * _GAMMA) & _MASK64

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n)."""
        if n <= 0:
            raise SynthError(f"below() needs a positive bound, got {n}")
        if n > _MASK64:
            # the rejection limit below would be 0 or negative, and every draw rejected
            raise SynthError(f"below() needs a bound of at most 2**64 - 1, got {n}")
        # rejection on the tail that would bias the modulo
        limit = _MASK64 - (_MASK64 % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def lane_limits(runs: Sequence[tuple[float, int]]) -> int:
    """The limits of flags_below(): for each (p, count) in order, count lanes at rate p.

    uniform() < p exactly when the draw is below ceil(p * 2**53) << 11, and
    the lane holds that bound plus 2**64 - 1.
    """
    lanes = (((math.ceil(p * 2.0**53) << 11) + _MASK64).to_bytes(16, "little") * n for p, n in runs)
    return int.from_bytes(b"".join(lanes), "little")


# a community (name) of member terms, each drawn into its documents at rate
PlantCommunity = namedtuple("PlantCommunity", "name members rate")

# an event between windows pair and pair + 1: kind (one of EVENT_KINDS), the
# source and target community names, the mixing share each target inherits,
# a birth's size, and a rate for the targets or None for the default
PlantEvent = namedtuple("PlantEvent", "kind pair sources targets mixing size rate")

# windows (TimeWindows), the first window's communities (PlantCommunity),
# events (PlantEvent), docs_per_window, noise_rate and seed
PlantSpec = namedtuple("PlantSpec", "windows communities events docs_per_window noise_rate seed")

# an event as planted, between community names
PlantedEvent = namedtuple("PlantedEvent", "kind sources targets")


class GroundTruth(namedtuple("GroundTruth", "assignments pair_events convergence novelty")):
    """Exact planted structure: assignments per window, events and indices per pair.

    assignments holds a {term: community} dict per window; pair_events (of
    PlantedEvent), convergence and novelty ({community: index}) one entry
    per window pair.
    """

    __slots__ = ()

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


def _check_disjoint(communities: Sequence[PlantCommunity], where: str, window: str, noun: str) -> None:
    """Reject repeated community names, then members shared between communities."""
    names = [c.name for c in communities]
    if len(set(names)) != len(names):
        raise SynthError(f"{where}: duplicate community names in {window}")
    seen: set[str] = set()
    for community in communities:
        overlap = seen.intersection(community.members)
        if overlap:
            raise SynthError(f"{where}: {noun} overlap on {sorted(overlap)}")
        seen.update(community.members)


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


def _event_names(raw: dict, key: str, where: str) -> tuple[str, ...]:
    names = raw.get(key, [])
    if not isinstance(names, list) or not all(isinstance(name, str) and name for name in names):
        raise SynthError(f"{where}: {key} must be an array of nonempty strings, got {names!r}")
    return tuple(names)


def _event_from_record(raw: object, where: str) -> PlantEvent:
    if not isinstance(raw, dict):
        raise SynthError(f"{where}: event record must be an object")
    kind = raw.get("kind")
    if kind not in EVENT_KINDS:
        raise SynthError(f"{where}: event kind must be one of {EVENT_KINDS}, got {kind!r}")
    pair = raw.get("pair", 0)
    if isinstance(pair, bool) or not isinstance(pair, int) or pair < 0:
        raise SynthError(f"{where}: event pair index must be a nonnegative integer")
    sources = _event_names(raw, "sources", where)
    targets = _event_names(raw, "targets", where)
    if len(set(sources)) != len(sources):
        raise SynthError(f"{where}: sources must be distinct, got {list(sources)!r}")
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
    _check_disjoint(communities, where, "the first window", "communities")
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


def _plant(spec: PlantSpec) -> tuple[list[list[PlantCommunity]], GroundTruth]:
    """Community state for every window and the exact ground truth, in one pass.

    Each target gets a group of source runs and the inheritance rule of the
    module docstring. A death has no targets, so it only consumes its source.
    """
    fresh = itertools.count()

    def take(count: int) -> list[str]:
        return [f"{FRESH_PREFIX}{next(fresh):05d}" for _ in range(count)]

    states = [list(spec.communities)]
    pair_events: list[tuple[PlantedEvent, ...]] = []
    convergence: list[dict[str, float]] = []
    for pair in range(len(spec.windows) - 1):
        by_name = {c.name: c for c in states[-1]}
        consumed: set[str] = set()
        events: list[PlantedEvent] = []
        produced: list[PlantCommunity] = []
        inherited_share: dict[str, float] = {}
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
            events.append(PlantedEvent(event.kind, event.sources, event.targets))
            if event.kind == "birth":
                rate = event.rate if event.rate is not None else _DEFAULT_BIRTH_RATE
                produced.append(PlantCommunity(event.targets[0], tuple(take(event.size)), rate))
                inherited_share[event.targets[0]] = 0.0
                continue
            runs = [by_name[s].members for s in event.sources]
            if event.kind == "split":
                groups = [[run] for run in _split_runs(runs[0], len(event.targets), where, event.sources[0])]
            else:
                groups = [runs]
            rate = event.rate if event.rate is not None else by_name[event.sources[0]].rate
            for target, group in zip(event.targets, groups):
                kept = [t for run in group for t in run[: _inherit_count(event.mixing, len(run))]]
                size = sum(len(run) for run in group)
                produced.append(PlantCommunity(target, tuple(sorted(kept + take(size - len(kept)))), rate))
                inherited_share[target] = len(kept) / size
        carried = [c for c in states[-1] if c.name not in consumed]
        next_state = carried + produced
        _check_disjoint(next_state, f"pair {pair}", "the produced window", "produced communities")
        if not next_state:
            raise SynthError(f"pair {pair}: events leave the next window with no communities")
        events += [PlantedEvent("persist", (c.name,), (c.name,)) for c in carried]
        pair_events.append(tuple(events))
        convergence.append({c.name: 1.0 for c in carried} | inherited_share)
        states.append(next_state)
    truth = GroundTruth(
        assignments=tuple({term: c.name for c in state for term in c.members} for state in states),
        pair_events=tuple(pair_events),
        convergence=tuple(convergence),
        novelty=tuple({name: 1.0 - v for name, v in ci.items()} for ci in convergence),
    )
    return states, truth


def _split_runs(members: tuple[str, ...], parts: int, where: str, source: str) -> list[tuple[str, ...]]:
    """Cut members into parts near-equal runs, the first len % parts one longer."""
    base, extra = divmod(len(members), parts)
    if base == 0:
        raise SynthError(f"{where}: source {source!r} has {len(members)} members, too few for {parts} parts")
    runs, offset = [], 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        runs.append(members[offset: offset + size])
        offset += size
    return runs


# Below this many expected per-term draws the corpus is drawn in-process.
# Per generate_corpus call on the benchmark's series spec cut to 7,680-30,720
# expected draws (2-core 2.1 GHz Xeon VM, median of 30 alternating calls per
# cell, three sessions): with noise 0 the fork lost at 7,680 draws and won
# from 23,040 on in every session (24.5-26.7 against 26.7-30.1 ms), with the
# sessions split in between; with noise 0.01 two sessions had it win at every
# size and one had it lose at 15,360, 19,200 and 30,720 (17.4 against 16.7 ms
# there). The in-process median of one cell moved by up to 7.5 ms between
# sessions, more than the fork's margin where the sessions disagree.
_FORK_MIN_DRAWS = 24_000


def _expected_draws(spec: PlantSpec, states: list[list[PlantCommunity]]) -> float:
    """The per-term draws of the whole corpus on average; a document picks its community uniformly."""
    sizes = [[len(c.members) for c in state] for state in states]
    if spec.noise_rate > 0.0:
        return spec.docs_per_window * sum(sum(size) for size in sizes)
    return spec.docs_per_window * sum(sum(size) / len(size) for size in sizes)


def _draws(spec: PlantSpec, states: list[list[PlantCommunity]], first: int, stop: int):
    """(day, sorted tags) for documents first to stop - 1, numbered across windows.

    The stream runs from the corpus's first document on. A document before
    first still draws its community and its day through below(), since a
    rejection there takes one more draw, and skips its flag block.
    """
    rng = SplitMix64(spec.seed)
    noise = spec.noise_rate
    docs = spec.docs_per_window
    for w_index, (window, state) in enumerate(zip(spec.windows, states)):
        lo = min(max(first - w_index * docs, 0), docs)
        hi = min(stop - w_index * docs, docs)
        if hi <= 0:
            return
        vocabulary = sorted({term for c in state for term in c.members})
        span_days = (window.end - window.start).days
        if lo:
            counts = [len(vocabulary) if noise > 0.0 else len(c.members) for c in state]
            for _ in range(lo):
                rng.skip(counts[rng.below(len(state))])
                rng.below(span_days)
        if lo >= hi:
            continue
        # positions in the sorted vocabulary sort as their terms do
        positions = list(range(len(vocabulary)))
        position = dict(zip(vocabulary, positions))
        terms, limits = [], []
        for community in state:
            members = tuple(position[t] for t in community.members)
            in_community = set(members)
            others = [i for i in positions if i not in in_community] if noise > 0.0 else []
            terms.append(members + tuple(others))
            limits.append(lane_limits([(community.rate, len(members)), (noise, len(others))]))
        for _ in range(lo, hi):
            ci = rng.below(len(state))
            flags = rng.flags_below(limits[ci], len(terms[ci]))
            yield rng.below(span_days), tuple([vocabulary[p] for p in sorted(itertools.compress(terms[ci], flags))])


def _documents(spec: PlantSpec, first: int, draws, with_text: bool):
    """The documents first on, numbered across windows, from their (day, sorted tags) draws."""
    for n, (day, tags) in enumerate(draws, first):
        w_index, d_index = divmod(n, spec.docs_per_window)
        # the window is half-open, so the end day itself is excluded
        date = spec.windows[w_index].start + dt.timedelta(days=day)
        doc_id = f"w{w_index}-d{d_index:05d}"
        if with_text:
            text = "This note covers " + ", ".join(tags) + "." if tags else "This note covers nothing."
            yield Document(id=doc_id, date=date, text=text, tags=())
        else:
            yield Document(id=doc_id, date=date, text="", tags=tags)


def generate_corpus(spec: PlantSpec, with_text: bool = False) -> tuple[Corpus, GroundTruth]:
    """Sample the corpus and return it with its ground truth.

    By default documents carry tags only. With with_text the sampled terms
    are embedded in a sentence instead, to exercise text extraction.

    Each document draws its community, then one uniform per member in
    member order (kept below the community's rate), then, when noise is
    on, one per non-member in vocabulary order (kept below noise_rate),
    then its day. The per-term draws are one flags_below() call. From
    _FORK_MIN_DRAWS expected draws on, a forked child draws the second half
    of the documents (forked.beside) while this process draws the first.
    """
    states, truth = _plant(spec)
    total = len(spec.windows) * spec.docs_per_window
    if _expected_draws(spec, states) < _FORK_MIN_DRAWS:
        documents = list(_documents(spec, 0, _draws(spec, states, 0, total), with_text))
    else:
        half = total // 2
        documents, reply = beside(
            lambda: list(_documents(spec, 0, _draws(spec, states, 0, half), with_text)),
            lambda: list(_draws(spec, states, half, total)),
        )
        documents += _documents(spec, half, reply, with_text)
    return Corpus(documents=tuple(documents)), truth


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
