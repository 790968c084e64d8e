"""Scenario data model: operators, services, radio nodes, links.

All quantities are stored in SI units (Hz, bits/s, seconds, meters).
Monetary prices are per bit.  Scenario files carry explicit units in
field names; convenience fields ``min_throughput_mbps`` and
``price_per_mbit`` are converted on load.  Scenario files are JSON:
``save_scenario`` writes it and ``load_scenario`` reads nothing else,
whatever the file name.  Every number must be finite; JSON has no
``NaN`` or ``Infinity`` (RFC 8259), and a file holding one is refused
as malformed.

A scenario ties together:

* service types (QoS floor and unit price per slice),
* mobile operators (licensed bandwidth, optional per-service
  overrides of floor/price),
* radio nodes (LAA base stations and plain Wi-Fi access points,
  with listen-before-talk parameters),
* links (one serving node, one user position, owned by exactly one
  operator),
* a band plan (shared unlicensed bandwidth, carrier frequency, and
  the per-service group of operators pooling licensed spectrum).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

LAA = "laa"
WIFI = "wifi"
NODE_KINDS = (LAA, WIFI)

# Listen-before-talk defaults per node kind.  Wi-Fi idles longer before
# the backoff (DIFS) and holds the channel for a shorter burst.
NODE_DEFAULTS = {
    LAA: {
        "tx_power_dbm": 23.0,
        "cca_threshold_dbm": -62.0,
        "noise_floor_dbm": -100.0,
        "difs_s": 25e-6,
        "cw_min": 3,
        "cw_max": 7,
        "txop_s": 2.0e-3,
    },
    WIFI: {
        "tx_power_dbm": 23.0,
        "cca_threshold_dbm": -62.0,
        "noise_floor_dbm": -90.0,
        "difs_s": 34e-6,
        "cw_min": 3,
        "cw_max": 7,
        "txop_s": 1.504e-3,
    },
}


class ScenarioError(ValueError):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """The file is not JSON, lacks required structure, or holds a
    non-finite number."""


class ScenarioValidationError(ScenarioError):
    """A structural invariant is violated.

    ``invariant`` carries a short machine-readable name of the failed
    check; the message adds the offending entity.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


def path_loss_db(distance_m: float, carrier_ghz: float) -> float:
    """Urban propagation loss in dB at ``distance_m`` meters.

    ``43.3 log10(d) + 11.5 + 20 log10(f_c)`` with the carrier in GHz.
    Raises ``ValueError`` outside the model's domain (non-positive
    distance or frequency).
    """
    if distance_m <= 0.0:
        raise ValueError(f"path loss undefined for distance {distance_m} m")
    if carrier_ghz <= 0.0:
        raise ValueError(f"path loss undefined for carrier {carrier_ghz} GHz")
    return 43.3 * math.log10(distance_m) + 11.5 + 20.0 * math.log10(carrier_ghz)


def rate_per_hz(snr_db: float) -> float:
    """Spectral efficiency bits/s/Hz for a given SNR in dB."""
    return math.log2(1.0 + 10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class ServiceType:
    """A slice class: identifier, QoS floor, and unit price."""

    id: int
    min_throughput_bps: float
    price_per_bit: float

    def validate(self) -> None:
        if self.min_throughput_bps < 0:
            raise ScenarioValidationError(
                "service-throughput-nonnegative",
                f"service {self.id} has min throughput {self.min_throughput_bps}",
            )
        if self.price_per_bit < 0:
            raise ScenarioValidationError(
                "service-price-nonnegative",
                f"service {self.id} has price {self.price_per_bit}",
            )


@dataclass(frozen=True)
class Mno:
    """A mobile operator with licensed spectrum to contribute.

    ``min_throughput_overrides_bps`` and ``price_overrides_per_bit``
    replace the service-type defaults for this operator only.
    """

    id: int
    licensed_bandwidth_hz: float
    min_throughput_overrides_bps: dict[int, float] = field(default_factory=dict)
    price_overrides_per_bit: dict[int, float] = field(default_factory=dict)

    def validate(self) -> None:
        if self.licensed_bandwidth_hz < 0:
            raise ScenarioValidationError(
                "mno-bandwidth-nonnegative",
                f"operator {self.id} has licensed bandwidth {self.licensed_bandwidth_hz}",
            )
        for sid, floor in self.min_throughput_overrides_bps.items():
            if floor < 0:
                raise ScenarioValidationError(
                    "mno-override-throughput-nonnegative",
                    f"operator {self.id} has min throughput {floor} for service {sid}",
                )
        for sid, price in self.price_overrides_per_bit.items():
            if price < 0:
                raise ScenarioValidationError(
                    "mno-override-price-nonnegative",
                    f"operator {self.id} has price {price} for service {sid}",
                )


@dataclass(frozen=True)
class Node:
    """A transmitter on the unlicensed band (LAA eNB or Wi-Fi AP)."""

    id: str
    kind: str
    position_m: tuple[float, float]
    owner: int | None = None
    tx_power_dbm: float = 23.0
    cca_threshold_dbm: float = -62.0
    noise_floor_dbm: float = -100.0
    difs_s: float = 25e-6
    cw_min: int = 3
    cw_max: int = 7
    txop_s: float = 2.0e-3

    def validate(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ScenarioValidationError(
                "node-kind", f"node {self.id} has unknown kind {self.kind!r}"
            )
        if self.kind == WIFI and self.owner is not None:
            raise ScenarioValidationError(
                "wifi-node-unowned", f"wifi node {self.id} must not declare an owner"
            )
        if self.kind == LAA and self.owner is None:
            raise ScenarioValidationError(
                "laa-node-owned", f"laa node {self.id} must declare an owner"
            )
        if not (0 <= self.cw_min <= self.cw_max):
            raise ScenarioValidationError(
                "contention-window-ordered",
                f"node {self.id} has cw_min {self.cw_min}, cw_max {self.cw_max}",
            )
        if self.difs_s <= 0 or self.txop_s <= 0:
            raise ScenarioValidationError(
                "node-timing-positive",
                f"node {self.id} has difs {self.difs_s} s, txop {self.txop_s} s",
            )
        for coord in self.position_m:
            if not math.isfinite(coord):
                raise ScenarioValidationError(
                    "position-finite", f"node {self.id} at {self.position_m}"
                )


@dataclass(frozen=True)
class Link:
    """A downlink from a serving node to one user, owned by one operator.

    ``snr_db`` overrides the geometry-derived SNR when set; scenarios
    pin it for reproducible rate assumptions.
    """

    id: str
    owner: int
    node: str
    ue_position_m: tuple[float, float]
    snr_db: float | None = None


@dataclass(frozen=True)
class BandPlan:
    """Shared-spectrum parameters and per-service sharing groups.

    ``ssg`` maps a service id to the frozenset of operator ids pooling
    licensed spectrum for that slice.  Services absent from the map
    default to the full operator set.
    """

    unlicensed_bandwidth_hz: float
    carrier_frequency_ghz: float = 5.5
    ssg: dict[int, frozenset[int]] = field(default_factory=dict)

    def validate(self) -> None:
        if self.unlicensed_bandwidth_hz < 0:
            raise ScenarioValidationError(
                "band-unlicensed-nonnegative",
                f"unlicensed bandwidth {self.unlicensed_bandwidth_hz}",
            )
        if self.carrier_frequency_ghz <= 0:
            raise ScenarioValidationError(
                "band-carrier-positive",
                f"carrier frequency {self.carrier_frequency_ghz}",
            )


@dataclass(frozen=True)
class Scenario:
    services: tuple[ServiceType, ...]
    mnos: tuple[Mno, ...]
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    band: BandPlan

    def __post_init__(self):
        validate_scenario(self)

    # -- indexed access -------------------------------------------------

    def service(self, service_id: int) -> ServiceType:
        for s in self.services:
            if s.id == service_id:
                return s
        raise KeyError(service_id)

    def mno(self, mno_id: int) -> Mno:
        for m in self.mnos:
            if m.id == mno_id:
                return m
        raise KeyError(mno_id)

    @cached_property
    def _node_by_id(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    def node(self, node_id: str) -> Node:
        return self._node_by_id[node_id]

    def links_of(self, mno_id: int) -> tuple[Link, ...]:
        return tuple(l for l in self.links if l.owner == mno_id)

    def sharing_group(self, service_id: int) -> frozenset[int]:
        default = frozenset(m.id for m in self.mnos)
        return self.band.ssg.get(service_id, default)

    # -- per-(operator, service) parameters -----------------------------

    def min_throughput_bps(self, mno_id: int, service_id: int) -> float:
        mno = self.mno(mno_id)
        if service_id in mno.min_throughput_overrides_bps:
            return mno.min_throughput_overrides_bps[service_id]
        return self.service(service_id).min_throughput_bps

    def price_per_bit(self, mno_id: int, service_id: int) -> float:
        mno = self.mno(mno_id)
        if service_id in mno.price_overrides_per_bit:
            return mno.price_overrides_per_bit[service_id]
        return self.service(service_id).price_per_bit

    # -- radio geometry --------------------------------------------------

    def link_distance_m(self, link: Link) -> float:
        node = self.node(link.node)
        dx = node.position_m[0] - link.ue_position_m[0]
        dy = node.position_m[1] - link.ue_position_m[1]
        return math.hypot(dx, dy)

    def link_snr_db(self, link: Link) -> float:
        if link.snr_db is not None:
            return link.snr_db
        node = self.node(link.node)
        loss = path_loss_db(self.link_distance_m(link), self.band.carrier_frequency_ghz)
        return node.tx_power_dbm - loss - node.noise_floor_dbm

    def link_rate_per_hz(self, link: Link) -> float:
        """Spectral efficiency of a link under its serving node's radio."""
        return rate_per_hz(self.link_snr_db(link))


def validate_scenario(sc: Scenario) -> None:
    """Check referential and numeric invariants, raising on the first failure."""
    for group, name in ((sc.services, "service"), (sc.mnos, "mno")):
        ids = [x.id for x in group]
        if len(ids) != len(set(ids)):
            raise ScenarioValidationError(f"{name}-ids-unique", f"duplicate ids in {ids}")
    for group, name in ((sc.nodes, "node"), (sc.links, "link")):
        ids = [x.id for x in group]
        if len(ids) != len(set(ids)):
            raise ScenarioValidationError(f"{name}-ids-unique", f"duplicate ids in {ids}")

    for s in sc.services:
        s.validate()
    for m in sc.mnos:
        m.validate()
    sc.band.validate()

    mno_ids = {m.id for m in sc.mnos}
    service_ids = {s.id for s in sc.services}
    node_ids = {n.id for n in sc.nodes}

    for n in sc.nodes:
        n.validate()
        if n.owner is not None and n.owner not in mno_ids:
            raise ScenarioValidationError(
                "node-owner-exists", f"node {n.id} owned by unknown operator {n.owner}"
            )
    for l in sc.links:
        if l.owner not in mno_ids:
            raise ScenarioValidationError(
                "link-owner-exists", f"link {l.id} owned by unknown operator {l.owner}"
            )
        if l.node not in node_ids:
            raise ScenarioValidationError(
                "link-node-exists", f"link {l.id} served by unknown node {l.node}"
            )
    # the shared band's contenders are the links and the Wi-Fi access
    # points that serve none, so those ids must not meet
    serving = {l.node for l in sc.links}
    link_ids = {l.id for l in sc.links}
    for n in sc.nodes:
        if n.kind == WIFI and n.id not in serving and n.id in link_ids:
            raise ScenarioValidationError(
                "contender-ids-unique",
                f"link {n.id} shares its id with Wi-Fi access point {n.id}, which serves no link",
            )
    for m in sc.mnos:
        for sid in (*m.min_throughput_overrides_bps, *m.price_overrides_per_bit):
            if sid not in service_ids:
                raise ScenarioValidationError(
                    "override-service-exists",
                    f"operator {m.id} overrides unknown service {sid}",
                )
    for sid, group in sc.band.ssg.items():
        if sid not in service_ids:
            raise ScenarioValidationError(
                "ssg-service-exists", f"sharing group for unknown service {sid}"
            )
        for mid in group:
            if mid not in mno_ids:
                raise ScenarioValidationError(
                    "ssg-member-exists",
                    f"sharing group of service {sid} names unknown operator {mid}",
                )


# -- serialization -------------------------------------------------------

MBPS = 1e6
PER_MBIT = 1e-6


def _num(raw: dict, key: str, entity: str, default: float | None = None) -> float:
    """``raw[key]`` as a finite number; ``default`` stands in for an
    absent key, and without one the key is required.  Booleans are not
    numbers."""
    if key not in raw and default is not None:
        return float(default)
    if isinstance(raw.get(key), bool):
        raise ScenarioParseError(f"{entity}: field {key!r} is not a number")
    try:
        number = float(raw[key])
    except KeyError:
        raise ScenarioParseError(f"{entity}: missing field {key!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise ScenarioParseError(f"{entity}: field {key!r} is not a number") from None
    if not math.isfinite(number):
        raise ScenarioParseError(f"{entity}: field {key!r} is not finite, got {number!r}")
    return number


def _int(raw: dict, key: str, entity: str, default: int | None = None) -> int:
    """``raw[key]`` as an integer: an int, or a finite number with a
    whole value such as ``1.0``."""
    value = raw.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _num(raw, key, entity, default)
    if not number.is_integer():
        raise ScenarioParseError(f"{entity}: field {key!r} is not an integer, got {number!r}")
    return int(number)


def _position(raw: dict, key: str, entity: str) -> tuple[float, float]:
    pos = raw.get(key)
    if (
        isinstance(pos, (list, tuple))
        and len(pos) == 2
        and not any(isinstance(x, bool) for x in pos)
    ):
        try:
            x, y = float(pos[0]), float(pos[1])
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(x) and math.isfinite(y):
                return (x, y)
    raise ScenarioParseError(f"{entity}: {key} must be [x, y] of finite numbers")


def _mapping(raw, entity: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{entity} must be a mapping")
    return raw


def _entries(raw, entity: str) -> list[dict]:
    """A list of mappings, the shape of every section and override list."""
    if not isinstance(raw, list):
        raise ScenarioParseError(f"{entity} must be a list")
    return [_mapping(entry, f"{entity} entry") for entry in raw]


def _group_id(value, sid) -> int:
    """An id in the ``ssg`` mapping: an integer, or (as JSON writes keys)
    a string holding one."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ScenarioParseError(f"band ssg {sid}: {value!r} is not an integer id")


def _sharing_groups(raw) -> dict[int, frozenset[int]]:
    """The band's ``ssg`` mapping: service id to a list of operator ids."""
    groups = {}
    for sid, members in _mapping(raw, "band ssg").items():
        if not isinstance(members, list):
            raise ScenarioParseError(f"band ssg {sid}: members must be a list")
        groups[_group_id(sid, sid)] = frozenset(_group_id(m, sid) for m in members)
    return groups


def _service_from_dict(raw: dict) -> ServiceType:
    sid = _int(raw, "id", "service")
    if "min_throughput_bps" in raw:
        floor = _num(raw, "min_throughput_bps", f"service {sid}")
    else:
        floor = _num(raw, "min_throughput_mbps", f"service {sid}") * MBPS
    if "price_per_bit" in raw:
        price = _num(raw, "price_per_bit", f"service {sid}")
    else:
        price = _num(raw, "price_per_mbit", f"service {sid}") * PER_MBIT
    return ServiceType(id=sid, min_throughput_bps=floor, price_per_bit=price)


def _mno_from_dict(raw: dict) -> Mno:
    mid = _int(raw, "id", "mno")
    floors: dict[int, float] = {}
    prices: dict[int, float] = {}
    for ov in _entries(raw.get("overrides") or [], f"mno {mid} overrides"):
        entity = f"mno {mid} override"
        sid = _int(ov, "service", entity)
        if "min_throughput_bps" in ov:
            floors[sid] = _num(ov, "min_throughput_bps", entity)
        elif "min_throughput_mbps" in ov:
            floors[sid] = _num(ov, "min_throughput_mbps", entity) * MBPS
        if "price_per_bit" in ov:
            prices[sid] = _num(ov, "price_per_bit", entity)
        elif "price_per_mbit" in ov:
            prices[sid] = _num(ov, "price_per_mbit", entity) * PER_MBIT
    return Mno(
        id=mid,
        licensed_bandwidth_hz=_num(raw, "licensed_bandwidth_hz", f"mno {mid}"),
        min_throughput_overrides_bps=floors,
        price_overrides_per_bit=prices,
    )


def _node_from_dict(raw: dict) -> Node:
    try:
        nid = str(raw["id"])
        kind = str(raw["kind"])
    except KeyError as exc:
        raise ScenarioParseError(f"node: missing field {exc.args[0]!r}") from None
    defaults = NODE_DEFAULTS.get(kind, NODE_DEFAULTS[LAA])
    entity = f"node {nid}"
    return Node(
        id=nid,
        kind=kind,
        position_m=_position(raw, "position_m", entity),
        owner=None if raw.get("owner") in (None, WIFI) else _int(raw, "owner", entity),
        tx_power_dbm=_num(raw, "tx_power_dbm", entity, defaults["tx_power_dbm"]),
        cca_threshold_dbm=_num(raw, "cca_threshold_dbm", entity, defaults["cca_threshold_dbm"]),
        noise_floor_dbm=_num(raw, "noise_floor_dbm", entity, defaults["noise_floor_dbm"]),
        difs_s=_num(raw, "difs_s", entity, defaults["difs_s"]),
        cw_min=_int(raw, "cw_min", entity, defaults["cw_min"]),
        cw_max=_int(raw, "cw_max", entity, defaults["cw_max"]),
        txop_s=_num(raw, "txop_s", entity, defaults["txop_s"]),
    )


def _link_from_dict(raw: dict) -> Link:
    try:
        lid = str(raw["id"])
        node = str(raw["node"])
    except KeyError as exc:
        raise ScenarioParseError(f"link: missing field {exc.args[0]!r}") from None
    entity = f"link {lid}"
    return Link(
        id=lid,
        owner=_int(raw, "owner", entity),
        node=node,
        ue_position_m=_position(raw, "ue_position_m", entity),
        snr_db=None if raw.get("snr_db") is None else _num(raw, "snr_db", entity),
    )


def scenario_from_dict(doc: dict) -> Scenario:
    _mapping(doc, "scenario document")
    for section in ("services", "mnos", "nodes", "links", "band"):
        if section not in doc:
            raise ScenarioParseError(f"missing section {section!r}")
    band_raw = _mapping(doc["band"], "band")
    band = BandPlan(
        unlicensed_bandwidth_hz=_num(band_raw, "unlicensed_bandwidth_hz", "band"),
        carrier_frequency_ghz=_num(band_raw, "carrier_frequency_ghz", "band", 5.5),
        ssg=_sharing_groups(band_raw.get("ssg") or {}),
    )
    return Scenario(
        services=tuple(_service_from_dict(s) for s in _entries(doc["services"], "services")),
        mnos=tuple(_mno_from_dict(m) for m in _entries(doc["mnos"], "mnos")),
        nodes=tuple(_node_from_dict(n) for n in _entries(doc["nodes"], "nodes")),
        links=tuple(_link_from_dict(l) for l in _entries(doc["links"], "links")),
        band=band,
    )


def scenario_to_dict(sc: Scenario) -> dict:
    """Inverse of ``scenario_from_dict`` up to unit normalization."""
    doc: dict = {
        "services": [
            {
                "id": s.id,
                "min_throughput_bps": s.min_throughput_bps,
                "price_per_bit": s.price_per_bit,
            }
            for s in sc.services
        ],
        "mnos": [],
        "nodes": [],
        "links": [],
        "band": {
            "unlicensed_bandwidth_hz": sc.band.unlicensed_bandwidth_hz,
            "carrier_frequency_ghz": sc.band.carrier_frequency_ghz,
        },
    }
    if sc.band.ssg:
        doc["band"]["ssg"] = {sid: sorted(members) for sid, members in sc.band.ssg.items()}
    for m in sc.mnos:
        entry: dict = {"id": m.id, "licensed_bandwidth_hz": m.licensed_bandwidth_hz}
        sids = sorted(set(m.min_throughput_overrides_bps) | set(m.price_overrides_per_bit))
        if sids:
            entry["overrides"] = []
            for sid in sids:
                ov: dict = {"service": sid}
                if sid in m.min_throughput_overrides_bps:
                    ov["min_throughput_bps"] = m.min_throughput_overrides_bps[sid]
                if sid in m.price_overrides_per_bit:
                    ov["price_per_bit"] = m.price_overrides_per_bit[sid]
                entry["overrides"].append(ov)
        doc["mnos"].append(entry)
    for n in sc.nodes:
        entry = {
            "id": n.id,
            "kind": n.kind,
            "position_m": list(n.position_m),
            "tx_power_dbm": n.tx_power_dbm,
            "cca_threshold_dbm": n.cca_threshold_dbm,
            "noise_floor_dbm": n.noise_floor_dbm,
            "difs_s": n.difs_s,
            "cw_min": n.cw_min,
            "cw_max": n.cw_max,
            "txop_s": n.txop_s,
        }
        if n.owner is not None:
            entry["owner"] = n.owner
        doc["nodes"].append(entry)
    for l in sc.links:
        entry = {
            "id": l.id,
            "owner": l.owner,
            "node": l.node,
            "ue_position_m": list(l.ue_position_m),
        }
        if l.snr_db is not None:
            entry["snr_db"] = l.snr_db
        doc["links"].append(entry)
    return doc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a JSON scenario file.

    Raises ``ScenarioParseError`` for malformed files and
    ``ScenarioValidationError`` (naming the invariant) for
    structurally invalid ones.
    """
    try:
        # from bytes, so json picks the encoding as JSON text does, not by locale
        doc = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"{path}: not a JSON document: {exc}") from exc
    return scenario_from_dict(doc)


def save_scenario(sc: Scenario, path: str | Path) -> None:
    """Write ``sc`` as the JSON that ``load_scenario`` reads."""
    Path(path).write_text(json.dumps(scenario_to_dict(sc), indent=2) + "\n")
