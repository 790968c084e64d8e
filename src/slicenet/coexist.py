"""Listen-before-talk coexistence simulator on the unlicensed band.

Every contender (operator link or plain Wi-Fi access point) repeats
the same cycle on the shared channel: sense idle for a DIFS, count
down a backoff drawn uniformly from its contention window in whole
idle slots, then hold the channel for one occupancy period.  Sensing
a neighbor freezes the countdown; after the channel frees, a full
DIFS must elapse before the frozen remainder continues.  A station
whose counter expires less than one slot after a neighbor started
transmitting cannot have sensed the preamble yet and transmits too;
overlapping transmissions between mutual sensers are collisions, the
air they burn counts for nobody, and everyone involved redraws.

Channel occupancy defaults to an exponentially distributed duration
with the configured mean.  Fixed-length occupancy is available, but
at high duty cycles it makes the contention process nearly periodic:
small dense graphs then stick in whichever independent set grabbed
the channel first for many seconds at a time, and short measurements
stop being reproducible across seeds.

All randomness flows from one seeded generator, so identical inputs
give bit-identical statistics.

The simulator is event driven.  Three heaps of ``(time, index)`` hold
the next events: transmission ends, counter expiries ("fires") and,
under Poisson traffic, each contender's next arrival.  An event costs
O(log n) plus the work on the neighbours it touches, not a scan of all
n contenders.  Events that share a time are handled in index order
(finishers, then arrivals, then the batch that fires within one slot),
so the draws come in the same order as in a scan of every contender.

Access probability of a contender is its fraction of wall time spent
in successful transmissions, reported raw and normalized against the
closed-form share of an isolated station with identical parameters
(an unopposed contender therefore scores 1.0).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import random
import zlib
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .contention import (
    CANONICAL_MAX_VERTICES,
    FORM_COUNTS,
    TECH_OF_CHAR,
    CanonicalForm,
    ContentionGraph,
    Vertex,
    degrees_from_bits,
    masks_from_bits,
    skeleton_forms,
    skeletons,
)
from .scenario import NODE_DEFAULTS, WIFI, Scenario

DEFAULT_SLOT_TIME_S = 9e-6

#: Version of the simulator's random stream.  Bump it with any change
#: that alters the draws ``run_lbt`` makes for a given seed: cached
#: access tables are keyed on it.
SIM_STREAM_VERSION = 1

#: Distinct table rows whose parse ``_parse_entry`` remembers: two
#: tables of every graph up to six vertices (4302 rows each).
TABLE_ROW_MEMO_SIZE = 8192

#: Distinct masks whose set bits one ``run_lbt`` run remembers before it
#: starts over; a small graph has far fewer, a dense deployment more.
SET_BITS_MEMO_SIZE = 4096

TABLE_FORMAT = "slicenet access table v1"

SATURATED = "saturated"
POISSON = "poisson"

EXPONENTIAL = "exponential"
FIXED = "fixed"


class SimConfigError(ValueError):
    """Simulation parameters are unusable as given."""


class TableFormatError(ValueError):
    """An access-table file is malformed; the message names the file
    and line."""


@dataclass(frozen=True)
class SimConfig:
    duration_s: float = 10.0
    seed: int = 0
    slot_time_s: float = DEFAULT_SLOT_TIME_S
    arrivals: str = SATURATED
    arrival_rate_hz: float = 1000.0
    occupancy: str = EXPONENTIAL
    doubling_backoff: bool = False
    record_timeline: bool = False

    def validate(self) -> None:
        # NaN fails every comparison, so the sign checks below let it
        # through; a NaN or infinite setting never ends the event loop
        for name, value in (
            ("duration", self.duration_s),
            ("slot time", self.slot_time_s),
            ("arrival rate", self.arrival_rate_hz),
        ):
            if not math.isfinite(value):
                raise SimConfigError(f"{name} must be finite, got {value}")
        if self.duration_s <= 0:
            raise SimConfigError(f"duration must be positive, got {self.duration_s}")
        if self.slot_time_s <= 0:
            raise SimConfigError(f"slot time must be positive, got {self.slot_time_s}")
        if self.arrivals not in (SATURATED, POISSON):
            raise SimConfigError(f"unknown arrival model {self.arrivals!r}")
        if self.arrivals == POISSON and self.arrival_rate_hz <= 0:
            raise SimConfigError(
                f"poisson arrivals need a positive rate, got {self.arrival_rate_hz}"
            )
        if self.occupancy not in (EXPONENTIAL, FIXED):
            raise SimConfigError(f"unknown occupancy model {self.occupancy!r}")


@dataclass(frozen=True)
class ContenderSpec:
    id: str
    tech: str
    difs_s: float
    txop_s: float
    cw_min: int
    cw_max: int


@dataclass(frozen=True)
class LinkStats:
    id: str
    tech: str
    duration_s: float
    airtime_s: float
    access_share: float
    normalized_access: float
    tx_count: int
    collision_count: int
    contention_s: float
    queue_wait_s: float


@dataclass(frozen=True)
class SimOutcome:
    stats: dict[str, LinkStats]
    # (contender id, start time, end time, collided); populated on request
    timeline: tuple[tuple[str, float, float, bool], ...] = ()


def isolated_access_share(
    difs_s: float,
    txop_s: float,
    cw_min: int,
    cw_max: int,
    slot_time_s: float = DEFAULT_SLOT_TIME_S,
) -> float:
    """Long-run busy fraction of a station that never senses anyone.

    One renewal cycle is DIFS + mean backoff + mean occupancy; the
    occupancy distribution does not matter, only its mean.
    """
    mean_backoff_s = (cw_min + cw_max) / 2.0 * slot_time_s
    return txop_s / (txop_s + difs_s + mean_backoff_s)


def run_lbt(
    specs: list[ContenderSpec],
    neighbor_masks: list[int],
    config: SimConfig,
) -> SimOutcome:
    """Simulate listen-before-talk contention among ``specs``.

    ``neighbor_masks[i]`` holds one bit per contender that contender
    ``i`` senses.  Masks must be symmetric and irreflexive.

    The next events sit in three heaps of ``(time, index)``.  An end
    entry is pushed when its transmission goes on air and never goes
    stale.  A fire entry is pushed whenever a DIFS restarts and is live
    only while ``fire_at[i]`` still equals its time, so a freeze just
    resets ``fire_at`` and the stale entry is dropped when it surfaces.
    Arrivals keep one entry per contender.  Ties pop in index order
    (the heap compares the index after the time), and a fire batch is
    collected into a bitmask and walked from the lowest bit, which also
    merges the two live entries a freeze and a restart at the same time
    can leave.  The draws therefore come in the order of a scan over
    every contender.

    Each heap ends in a sentinel ``(inf, n)`` that never pops (slot
    ``n`` of ``fire_at`` stays infinite, so the sentinel fire is always
    live): the loop reads every head without an emptiness test, and
    stops when the earliest head, the one whose branch it takes, reaches
    the horizon.  The batch, restart and freeze walks iterate the set
    bits of their mask, lowest first, from a per-run memo of each
    mask's bit list (cleared after ``SET_BITS_MEMO_SIZE`` distinct
    masks); small graphs meet only a few dozen masks.
    """
    config.validate()
    n = len(specs)
    slot = config.slot_time_s
    for s in specs:
        if slot >= s.difs_s:
            raise SimConfigError(
                f"slot time {slot} s must be shorter than DIFS {s.difs_s} s of {s.id}"
            )
        if not (0 <= s.cw_min <= s.cw_max):
            raise SimConfigError(f"bad contention window on {s.id}")
    for i, m in enumerate(neighbor_masks):
        if m >> i & 1:
            raise SimConfigError(f"contender {specs[i].id} senses itself")
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            if j >= n or not neighbor_masks[j] >> i & 1:
                raise SimConfigError("sense masks are not symmetric")

    if n == 0:
        return SimOutcome(stats={})

    horizon = config.duration_s
    # counters expiring within this window of the first cannot sense the
    # new transmission in time
    window = slot * (1.0 - 1e-9)
    rng = random.Random(config.seed)
    # the draws below are Random.randint and Random.expovariate spelled
    # out (the getrandbits rejection loop and -log(1 - U) / lambda), so
    # the stream and every value match the library calls exactly
    getrandbits = rng.getrandbits
    uniform = rng.random
    log = math.log

    D = [s.difs_s for s in specs]
    HOLD = [s.txop_s for s in specs]
    LAM = [1.0 / s.txop_s for s in specs]
    LO = [s.cw_min for s in specs]
    HI = [s.cw_max for s in specs]
    masks = neighbor_masks

    saturated = config.arrivals == SATURATED
    rate = config.arrival_rate_hz
    exponential = config.occupancy == EXPONENTIAL
    doubling = config.doubling_backoff
    record = config.record_timeline

    INF = math.inf
    busy = 0
    counting = [False] * n
    anchor = [0.0] * n  # where the current uninterrupted sensing run began
    rem = [0] * n  # whole backoff slots still to complete
    # finite iff counting with a clear channel; slot n is the sentinel's
    fire_at = [INF] * (n + 1)
    cwhi = list(HI)
    tx_start = [0.0] * n
    tx_end = [0.0] * n  # read only while transmitting
    tx_bad = [False] * n
    ready = [0.0] * n  # when the head frame last began contending
    arrivals: list[deque[float]] = [deque() for _ in range(n)]
    airtime = [0.0] * n
    ok_count = [0] * n
    bad_count = [0] * n
    contention = [0.0] * n
    queue_wait = [0.0] * n
    timeline: list[tuple[str, float, float, bool]] = []
    # the event queues, heaps of (time, index) that each end in the
    # sentinel (inf, n), so the head is always there to read: an entry
    # in ``fires`` is live only while fire_at still holds its time
    ends: list[tuple[float, int]] = [(INF, n)]
    fires: list[tuple[float, int]] = [(INF, n)]
    arrs: list[tuple[float, int]] = [(INF, n)]
    # the set bits of each mask walked this run, lowest first
    bits_of: dict[int, tuple[int, ...]] = {}

    def set_bits(mask: int) -> tuple[int, ...]:
        if len(bits_of) >= SET_BITS_MEMO_SIZE:
            bits_of.clear()
        out = []
        m = mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        bits = bits_of[mask] = tuple(out)
        return bits

    for i in range(n):
        if saturated:
            counting[i] = True
            w = cwhi[i] - LO[i] + 1
            k = w.bit_length()
            r = getrandbits(k)
            while r >= w:
                r = getrandbits(k)
            rem[i] = LO[i] + r
            fire_at[i] = D[i] + rem[i] * slot
            fires.append((fire_at[i], i))
        else:
            arrs.append((-log(1.0 - uniform()) / rate, i))
    heapify(fires)
    heapify(arrs)

    while True:
        while fire_at[fires[0][1]] != fires[0][0]:
            heappop(fires)
        t_end = ends[0][0]
        t_fire = fires[0][0]
        t_arr = arrs[0][0]

        # each branch is taken for the earliest head, so the run ends
        # once that head reaches the horizon
        if t_end <= t_arr and t_end <= t_fire:
            if t_end >= horizon:
                break
            t = t_end
            # ties pop in index order, so the draws keep their order
            near = 0
            while ends[0][0] == t:
                i = heappop(ends)[1]
                busy ^= 1 << i
                near |= 1 << i | masks[i]
                if tx_bad[i]:
                    bad_count[i] += 1
                    if doubling:
                        cwhi[i] = min(2 * cwhi[i] + 1, 1023)
                else:
                    ok_count[i] += 1
                    airtime[i] += t - tx_start[i]
                    if doubling:
                        cwhi[i] = HI[i]
                if record:
                    timeline.append((specs[i].id, tx_start[i], t, tx_bad[i]))
                if not saturated:
                    queue_wait[i] += tx_start[i] - arrivals[i].popleft()
                if saturated or arrivals[i]:
                    counting[i] = True
                    w = cwhi[i] - LO[i] + 1
                    k = w.bit_length()
                    r = getrandbits(k)
                    while r >= w:
                        r = getrandbits(k)
                    rem[i] = LO[i] + r
                    ready[i] = t
            # the channel just quieted down for the finishers and their
            # neighbours, the only contenders it can unblock: restart
            # their DIFS
            for j in bits_of.get(near) or set_bits(near):
                if counting[j] and fire_at[j] == INF and not busy & masks[j]:
                    anchor[j] = t
                    fire_at[j] = t + D[j] + rem[j] * slot
                    heappush(fires, (fire_at[j], j))
        elif t_arr <= t_fire:
            if t_arr >= horizon:
                break
            t = t_arr
            # pop all that are due before drawing: a zero gap puts the
            # next arrival at t again, and it must wait for the next event
            due = []
            while arrs[0][0] == t:
                due.append(heappop(arrs)[1])
            for i in due:
                arrivals[i].append(t)
                heappush(arrs, (t + -log(1.0 - uniform()) / rate, i))
                if len(arrivals[i]) == 1 and not busy >> i & 1 and not counting[i]:
                    counting[i] = True
                    w = cwhi[i] - LO[i] + 1
                    k = w.bit_length()
                    r = getrandbits(k)
                    while r >= w:
                        r = getrandbits(k)
                    rem[i] = LO[i] + r
                    ready[i] = t
                    if not busy & masks[i]:
                        anchor[i] = t
                        fire_at[i] = t + D[i] + rem[i] * slot
                        heappush(fires, (fire_at[i], i))
        else:
            if t_fire >= horizon:
                break
            # everyone expiring within one window goes on air together;
            # the mask merges twin live entries and orders the batch
            limit = t_fire + window
            batch_mask = 0
            while fires[0][0] < limit:
                start, i = heappop(fires)
                if fire_at[i] == start:
                    batch_mask |= 1 << i
            busy |= batch_mask
            batch = bits_of.get(batch_mask) or set_bits(batch_mask)
            near = 0
            for i in batch:
                start = fire_at[i]
                counting[i] = False
                tx_start[i] = start
                if exponential:
                    tx_end[i] = start + -log(1.0 - uniform()) / LAM[i]
                else:
                    tx_end[i] = start + HOLD[i]
                heappush(ends, (tx_end[i], i))
                tx_bad[i] = bool(batch_mask & masks[i])
                contention[i] += start - ready[i]
                fire_at[i] = INF
                near |= masks[i]
            # bystanders freeze: completed idle slots are banked, the
            # partial slot and all DIFS progress are lost.  Only the
            # batch's neighbours can be counting next to a busy contender;
            # each freezes at the first start among the batch it senses,
            # which for a batch of one is the start the loop left in
            # ``start``.
            single = len(batch) == 1
            for j in bits_of.get(near) or set_bits(near):
                if fire_at[j] != INF:
                    if single:
                        beta = start
                    else:
                        beta = min(tx_start[i] for i in batch if masks[j] >> i & 1)
                    elapsed = beta - anchor[j] - D[j]
                    if elapsed > 0:
                        done = int(elapsed / slot + 1e-7)
                        rem[j] = max(0, rem[j] - done)
                    fire_at[j] = INF

    for i in range(n):
        if busy >> i & 1:
            end = min(tx_end[i], horizon)
            if not tx_bad[i]:
                airtime[i] += max(0.0, end - tx_start[i])
            if record:
                timeline.append((specs[i].id, tx_start[i], end, tx_bad[i]))

    stats = {}
    for i, s in enumerate(specs):
        share = airtime[i] / horizon
        iso = isolated_access_share(s.difs_s, s.txop_s, s.cw_min, s.cw_max, slot)
        stats[s.id] = LinkStats(
            id=s.id,
            tech=s.tech,
            duration_s=horizon,
            airtime_s=airtime[i],
            access_share=share,
            normalized_access=share / iso,
            tx_count=ok_count[i],
            collision_count=bad_count[i],
            contention_s=contention[i],
            queue_wait_s=queue_wait[i],
        )
    return SimOutcome(stats=stats, timeline=tuple(timeline))


# -- scenario wiring -------------------------------------------------------


def _spec(cid: str, tech: str, lbt) -> ContenderSpec:
    """A contender whose LBT parameters are read from the mapping
    ``lbt``: a node's fields or a technology's defaults."""
    return ContenderSpec(cid, tech, lbt["difs_s"], lbt["txop_s"], lbt["cw_min"], lbt["cw_max"])


def unlicensed_contenders(scenario: Scenario) -> list[tuple[ContenderSpec, str, int | None]]:
    """Contenders on the shared band: one per operator link plus one per
    Wi-Fi access point that serves no link.  Returns (spec, serving
    node id, owner)."""
    out = []
    for l in scenario.links:
        node = scenario.node(l.node)
        out.append((_spec(l.id, node.kind, vars(node)), node.id, l.owner))
    serving = {l.node for l in scenario.links}
    out += [
        (_spec(node.id, WIFI, vars(node)), node.id, None)
        for node in scenario.nodes
        if node.kind == WIFI and node.id not in serving
    ]
    return out


def build_contention_graph(scenario: Scenario) -> ContentionGraph:
    """Vertices are unlicensed contenders; edges mean detection in at
    least one direction.

    Node a hears node b when b's transmit power, less the path loss
    between them (``path_loss_db``), reaches a's clear-channel
    threshold; co-located radios always hear each other.  Two
    contenders served by the same physical node share one radio and
    are always adjacent.
    """
    return _contention_graph(scenario, unlicensed_contenders(scenario))


def _contention_graph(scenario: Scenario, contenders) -> ContentionGraph:
    """``build_contention_graph`` over ``unlicensed_contenders(scenario)``
    already at hand: each contender's neighbor mask is its row of the
    symmetric adjacency matrix with its diagonal cleared, packed into
    bits.  Nothing is checked: the contender ids of a scenario, which
    is valid once built, are distinct (``contender-ids-unique``)."""
    vertices = tuple(Vertex(spec.id, spec.tech, owner) for spec, _, owner in contenders)
    nodes = scenario.nodes
    row = {n.id: i for i, n in enumerate(nodes)}
    pos = np.array([n.position_m for n in nodes], dtype=float).reshape(-1, 2)
    tx = np.array([n.tx_power_dbm for n in nodes], dtype=float)
    cca = np.array([n.cca_threshold_dbm for n in nodes], dtype=float)
    dist = np.hypot(
        pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1]
    )
    carrier_db = 20.0 * math.log10(scenario.band.carrier_frequency_ghz)
    with np.errstate(divide="ignore"):
        # same expression and evaluation order as path_loss_db
        loss = 43.3 * np.log10(dist) + 11.5 + carrier_db
    hears = (tx[None, :] - loss >= cca[:, None]) | (dist <= 0.0)
    at = np.array([row[node_id] for _, node_id, _ in contenders], dtype=np.intp)
    adjacent = (hears | hears.T)[np.ix_(at, at)]
    np.fill_diagonal(adjacent, False)
    packed = np.packbits(adjacent, axis=1, bitorder="little")
    masks = tuple(int.from_bytes(bits.tobytes(), "little") for bits in packed)
    return ContentionGraph._derived(vertices, masks)


def run_coexistence(scenario: Scenario, config: SimConfig) -> SimOutcome:
    """Simulate the scenario's unlicensed band and report per-link stats."""
    contenders = unlicensed_contenders(scenario)
    graph = _contention_graph(scenario, contenders)
    return run_lbt([spec for spec, _, _ in contenders], graph.masks, config)


def simulate_graph(graph: ContentionGraph, config: SimConfig) -> SimOutcome:
    """Simulate an abstract contention graph with per-technology LBT
    defaults."""
    specs = [_spec(v.id, v.tech, NODE_DEFAULTS[v.tech]) for v in graph.vertices]
    return run_lbt(specs, graph.masks, config)


# -- measured access-probability tables ------------------------------------


class TableEntry(NamedTuple):
    key: str
    size: int
    access: tuple[float, ...]
    raw_share: tuple[float, ...]


@dataclass
class AccessTable:
    """Measured per-vertex access probabilities for small connected
    contention graphs, keyed by canonical form.  ``access`` values sit
    in canonical vertex order and are averaged over automorphism
    orbits, so symmetric positions score identically."""

    max_size: int
    duration_s: float
    slot_time_s: float
    seed: int
    occupancy: str = EXPONENTIAL
    doubling_backoff: bool = False
    entries: dict[str, TableEntry] = field(default_factory=dict)

    def lookup(self, form: CanonicalForm) -> TableEntry | None:
        return self.entries.get(form.key)

    def params_line(self) -> str:
        return (
            f"max_size={self.max_size} duration_s={self.duration_s!r} "
            f"slot_time_s={self.slot_time_s!r} seed={self.seed} "
            f"occupancy={self.occupancy} "
            f"doubling_backoff={int(self.doubling_backoff)}"
        )

    def content_key(self) -> str:
        """Cache key over everything a measured table depends on: its
        parameters, the per-technology LBT defaults, the file format and
        the simulator's random stream."""
        text = "\n".join(
            (
                self.params_line(),
                json.dumps(NODE_DEFAULTS, sort_keys=True),
                TABLE_FORMAT,
                f"stream={SIM_STREAM_VERSION}",
            )
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        lines = [f"# {TABLE_FORMAT}", f"# {self.params_line()}"]
        for key in sorted(self.entries):
            e = self.entries[key]
            acc = ",".join(repr(x) for x in e.access)
            raw = ",".join(repr(x) for x in e.raw_share)
            lines.append(f"{key}\t{acc}\t{raw}")
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def load(path: str | Path) -> "AccessTable":
        text = Path(path).read_text()
        params: dict[str, str] = {}
        entries: dict[str, TableEntry] = {}
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            if line.startswith("#"):
                note = line[1:].strip()
                if note.startswith("slicenet access table") and note != TABLE_FORMAT:
                    raise TableFormatError(
                        f"{path}:{lineno}: unsupported format {note!r}, expected {TABLE_FORMAT!r}"
                    )
                for tokens in note.split():
                    if "=" in tokens:
                        k, v = tokens.split("=", 1)
                        params[k] = v
                continue
            try:
                entry = _parse_entry(line)
            except ValueError as exc:
                raise TableFormatError(f"{path}:{lineno}: {exc}") from None
            if entry.key in entries:
                raise TableFormatError(
                    f"{path}:{lineno}: duplicate key {entry.key!r}, "
                    f"first on line {first_line[entry.key]}"
                )
            entries[entry.key] = entry
            first_line[entry.key] = lineno
        try:
            return AccessTable(
                max_size=int(params.get("max_size", 0)),
                duration_s=float(params.get("duration_s", 0.0)),
                slot_time_s=float(params.get("slot_time_s", DEFAULT_SLOT_TIME_S)),
                seed=int(params.get("seed", 0)),
                occupancy=params.get("occupancy", EXPONENTIAL),
                doubling_backoff=bool(int(params.get("doubling_backoff", 0))),
                entries=entries,
            )
        except ValueError as exc:
            raise TableFormatError(f"{path}: bad header value ({exc})") from None


@lru_cache(maxsize=TABLE_ROW_MEMO_SIZE)
def _parse_entry(line: str) -> TableEntry:
    """One table row ``key<TAB>access,...<TAB>raw_share,...``; raises
    ``ValueError`` saying what is wrong with it.

    The entry is immutable and depends on the row's text alone, so the
    last ``TABLE_ROW_MEMO_SIZE`` rows parsed are remembered by their
    text: loading a table again reads each unchanged row back from the
    memo, a changed row is parsed afresh, and a malformed row is never
    remembered and is refused every time.
    """
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
    key, acc, raw = fields
    parts = key.split(";")
    try:
        size_s, colors, degs, bits_hex = parts
        size = int(size_s)
        bits = int(bits_hex, 16)
    except ValueError:
        raise ValueError(f"bad key {key!r}") from None
    # one technology per vertex, edge bits in plain hex within the pairs
    # of the vertices, and the degrees those edges give, or no canonical
    # form could ever carry this key
    if (
        not 1 <= size <= CANONICAL_MAX_VERTICES
        or bits_hex != f"{bits:x}"
        or len(colors) != size
        or not set(colors) <= {"L", "W"}
        or bits >> (size * (size - 1) // 2)
        or degs != "".join(map(str, degrees_from_bits(size, bits)))
    ):
        raise ValueError(f"bad key {key!r}")
    access = tuple(map(float, acc.split(",")))
    raw_share = tuple(map(float, raw.split(",")))
    if len(access) != size or len(raw_share) != size:
        raise ValueError(f"entry {key!r} needs {size} values in each column")
    return TableEntry(key, size, access, raw_share)


def entry_seed(base_seed: int, key: str) -> int:
    """Stable per-entry stream; crc avoids Python's salted hash."""
    return (base_seed * 2654435761 + zlib.crc32(key.encode())) & 0x7FFFFFFF


def measure_entry(form: CanonicalForm, config: SimConfig) -> TableEntry:
    """The table entry of ``form``: its graph simulated on the entry's
    own seed, per-vertex shares averaged over automorphism orbits.

    The contenders and sense masks come straight from the form's colors
    and edge bits, vertex ``p`` at canonical position ``p``, with the
    per-technology LBT defaults: the same run ``simulate_graph`` makes
    on ``graph_from_canonical(form.size, form.colors, form.edge_bits)``.
    """
    specs = [
        _spec(f"v{p}", TECH_OF_CHAR[c], NODE_DEFAULTS[TECH_OF_CHAR[c]])
        for p, c in enumerate(form.colors)
    ]
    cfg = replace(
        config, seed=entry_seed(config.seed, form.key), record_timeline=False
    )
    outcome = run_lbt(specs, masks_from_bits(form.size, form.edge_bits), cfg)
    stats = list(outcome.stats.values())
    access = [st.normalized_access for st in stats]
    raw = [st.access_share for st in stats]
    # vertices in one automorphism orbit are statistically identical;
    # report the orbit mean so symmetry is exact in the table
    for orbit in set(form.orbits):
        members = [p for p in range(form.size) if form.orbits[p] == orbit]
        a = sum(access[p] for p in members) / len(members)
        r = sum(raw[p] for p in members) / len(members)
        for p in members:
            access[p] = a
            raw[p] = r
    return TableEntry(form.key, form.size, tuple(access), tuple(raw))


def measure_table(
    max_size: int,
    config: SimConfig,
    cache_dir: str | Path | None = None,
    progress=None,
) -> AccessTable:
    """Measure access probabilities for every connected colored graph
    up to ``max_size`` vertices.

    One task per skeleton (``_measure_entries``) labels and simulates
    that skeleton's forms, and the tasks run on every usable CPU,
    largest skeletons first.  ``progress(done, total, key)``, if given,
    is called once per entry as the entries arrive, with ``total``
    known up front from ``FORM_COUNTS``; the table then holds them in
    (size, key) order.  Each entry runs on its own seed derived from
    ``config.seed`` and the canonical key, so the table is independent
    of the order of arrival and of how the entries are spread over
    processes.  With ``cache_dir`` set, a previously measured table
    with identical parameters is reused from disk.  A ``max_size``
    below 1 raises ``ValueError``.  A table holds saturated access, and
    its file records no arrival model, so a config with other arrivals
    raises :class:`SimConfigError` before any cache lookup.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    config.validate()
    if config.arrivals != SATURATED:
        raise SimConfigError(f"tables measure saturated access, not {config.arrivals} arrivals")
    table = AccessTable(
        max_size=max_size,
        duration_s=config.duration_s,
        slot_time_s=config.slot_time_s,
        seed=config.seed,
        occupancy=config.occupancy,
        doubling_backoff=config.doubling_backoff,
    )
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"table_{max_size}_{table.content_key()}.tsv"
        if cache_path.exists():
            return AccessTable.load(cache_path)
    # the largest skeletons first, so that no long task starts last
    tasks = sorted(skeletons(max_size), key=lambda skeleton: -skeleton[0])
    total = sum(FORM_COUNTS[n] for n in range(1, max_size + 1))
    entries = []
    for batch in fork_map(partial(_measure_entries, config=config), tasks):
        for entry in batch:
            entries.append(entry)
            if progress is not None:
                progress(len(entries), total, entry.key)
    entries.sort(key=lambda e: (e.size, e.key))
    table.entries = {e.key: e for e in entries}
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # a concurrent reader sees either no file or a whole one
        tmp = cache_path.with_name(f".{cache_path.name}.{os.getpid()}.tmp")
        try:
            table.save(tmp)
            os.replace(tmp, cache_path)
        finally:
            tmp.unlink(missing_ok=True)
    return table


def _measure_entries(skeleton: tuple[int, int], config: SimConfig) -> list[TableEntry]:
    """One task of a table build: ``measure_entry`` over the forms of
    one skeleton (``skeleton_forms``), labeled and simulated where the
    task runs, so the process that builds the table labels nothing.
    A task sends back only its entries."""
    return [measure_entry(form, config) for form in skeleton_forms(*skeleton)]


def fork_map(fn, items: list):
    """``map(fn, items)``, yielded in order, with one task per item
    spread over a pool of forked workers: one per usable CPU and no
    more than there are items, or in-process when that leaves one.

    Forked workers inherit the loaded modules (numpy), where spawned
    ones would import numpy again.  ``fn`` must be picklable by
    reference, and forking is safe only for an ``fn`` that takes no
    lock a thread of the parent could hold: the pure-Python simulator
    and labeling take none.
    """
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        yield from pool.map(fn, items)
