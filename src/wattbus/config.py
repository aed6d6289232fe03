"""Configuration parsing for all daemons.

The format is classic INI: ``[section]`` headers, ``key = value`` lines,
and ``#`` or ``;`` comments on lines of their own (a ``#`` after a value
is part of the value).  One file describes a whole deployment; each
daemon picks out the sections it needs.

Sections::

    [bus]                     bind/connect endpoints
    [signing]                 optional shared secret (enables signing)
    [probe:<site>/<name>]     one metered probe (driver, interval, ...)
    [api]                     REST API consumer
    [viz]                     chart/archive consumer
    [forwarder]               relay daemon

Unknown sections and keys are ignored but recorded as warnings; structural
problems (bad syntax, duplicate probes, missing driver keys) raise
ConfigError.  This module only converts text, and every number must be
finite; each range rule is checked by the type that holds the value.
"""

from __future__ import annotations

import configparser
import logging
import math
import os
from dataclasses import dataclass, field

from wattbus.bus import Endpoint
from wattbus.devices import PROFILES, DeviceProfile, DriverSpec, load_trace, seed_for_topic
from wattbus.forwarder import ForwarderConfig
from wattbus.model import ProbeId
from wattbus.rra import AVERAGE, check_archive
from wattbus.signing import _check_secret

log = logging.getLogger(__name__)

DEFAULT_BIND = "tcp://127.0.0.1:5577"
DEFAULT_ARCHIVES = ((1.0, 3600), (60.0, 1440), (3600.0, 720))


class ConfigError(ValueError):
    """Raised for any configuration problem; message says where and why."""


@dataclass(frozen=True)
class ArchiveDef:
    """One round-robin archive: bucket width and how many buckets to keep."""

    step_s: float
    capacity: int
    consolidation: str = AVERAGE

    def __post_init__(self):
        check_archive(self.step_s, self.capacity, self.consolidation)


@dataclass(frozen=True)
class ApiConfig:
    listen: tuple[str, int] = ("127.0.0.1", 8417)
    tokens: tuple[str, ...] = ()
    stale_timeout_s: float = 300.0
    gap_limit_s: float = 60.0

    def __post_init__(self):
        if self.stale_timeout_s <= 0:
            raise ValueError("stale_timeout_s must be positive")
        if self.gap_limit_s <= 0:
            raise ValueError("gap_limit_s must be positive")


@dataclass(frozen=True)
class VizConfig:
    listen: tuple[str, int] = ("127.0.0.1", 8418)
    data_dir: str = "wattbus-data"
    price_eur_per_kwh: float = 0.0
    archives: tuple[ArchiveDef, ...] = tuple(
        ArchiveDef(step, cap) for step, cap in DEFAULT_ARCHIVES
    )

    def __post_init__(self):
        if self.price_eur_per_kwh < 0:
            raise ValueError("price_eur_per_kwh must not be negative")
        if not self.archives:
            raise ValueError("archives must define at least one archive")


@dataclass
class FrameworkConfig:
    """Validated deployment description shared by every daemon."""

    bind: Endpoint
    connect: Endpoint
    probes: list[DriverSpec]
    signing_secret: bytes | None = None
    api: ApiConfig = ApiConfig()
    viz: VizConfig = VizConfig()
    forwarder: ForwarderConfig | None = None
    warnings: list[str] = field(default_factory=list)


_KNOWN_KEYS = {
    "bus": {"bind", "connect"},
    "signing": {"secret"},
    "probe:": {
        "driver", "interval", "outlets", "seed", "watts_min", "watts_max",
        "trace", "refresh", "precision", "mode",
    },
    "api": {"listen", "tokens", "stale_timeout", "gap_limit"},
    "viz": {"listen", "data_dir", "price_eur_per_kwh", "archives", "consolidation"},
    "forwarder": {"upstreams", "bind"},
}
_CUSTOM_KEYS = ("refresh", "precision", "mode")


class _Section:
    """The keys of one section, each converted on read; errors name the section."""

    def __init__(self, name: str, opts: dict[str, str], known: set[str],
                 warnings: list[str]):
        self.name = name
        self._opts = opts
        self._warnings = warnings
        for key in opts:
            if key not in known:
                self.warn(f"ignoring unknown key {key!r}")

    def __contains__(self, key: str) -> bool:
        return key in self._opts

    def warn(self, message: str) -> None:
        self._warnings.append(f"[{self.name}] {message}")

    def require(self, *keys: str, why: str = "missing mandatory key") -> None:
        for key in keys:
            if key not in self._opts:
                raise ConfigError(f"[{self.name}] {why} {key!r}")

    def get(self, key: str, convert=str, default=None):
        """``convert`` applied to the key's text, or ``default`` if it is absent."""
        if key not in self._opts:
            return default
        try:
            return convert(self._opts[key])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[{self.name}] {key}: {exc}") from None

    def build(self, make, *args, **fields):
        """``make(*args, **fields)``, its ``ValueError`` reported against this section.

        Fields that are None are left out, so an absent key keeps the default
        of the type being built.
        """
        try:
            return make(*args, **{k: v for k, v in fields.items() if v is not None})
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {exc}") from None


def _number(text: str) -> float:
    """A finite float: NaN and infinities would only fail later, in a daemon."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _items(text: str) -> tuple[str, ...]:
    """The non-empty entries of a comma-separated list, stripped."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _listen(text: str) -> tuple[str, int]:
    """``host:port``, in the grammar of a ``tcp://`` bus endpoint."""
    endpoint = Endpoint.parse(f"tcp://{text}")
    return endpoint.host, endpoint.port


def _upstreams(text: str) -> tuple[tuple[Endpoint, str], ...]:
    """``url|prefix`` entries; an entry without ``|`` subscribes to every topic."""
    pairs = (item.partition("|") for item in _items(text))
    return tuple((Endpoint.parse(url.strip()), prefix.strip()) for url, _, prefix in pairs)


def _archives(text: str, consolidation: str) -> tuple[ArchiveDef, ...]:
    """``step:capacity[:consolidation]`` entries; ``consolidation`` is the default."""
    archives = []
    for item in _items(text):
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"entries must be step:capacity[:consolidation], got {item!r}")
        cons = parts[2].strip().lower() if len(parts) == 3 else consolidation
        archives.append(ArchiveDef(_number(parts[0]), int(parts[1]), cons))
    return tuple(archives)


def _parse_probe(probe: _Section, base_dir: str) -> DriverSpec:
    topic = probe.name[len("probe:"):]
    probe_id = probe.build(ProbeId.parse, topic)
    probe.require("driver")
    driver = probe.get("driver", str.lower)

    if driver == "custom":
        probe.require(*_CUSTOM_KEYS, why="driver 'custom' requires key")
        profile = probe.build(
            DeviceProfile, model=f"custom:{topic}", interface="custom",
            refresh_period_s=probe.get("refresh", _number),
            precision_w=probe.get("precision", _number), mode=probe.get("mode", str.lower))
    elif driver in PROFILES:
        profile = PROFILES[driver]
        for key in _CUSTOM_KEYS:
            if key in probe:
                probe.warn(f"key {key!r} only applies to driver 'custom', ignored")
    else:
        known = ", ".join(sorted(PROFILES)) + ", custom"
        raise ConfigError(f"[{probe.name}] unknown driver {driver!r} (known: {known})")

    return probe.build(
        DriverSpec, probe=probe_id, profile=profile,
        interval_s=probe.get("interval", _number, profile.refresh_period_s),
        seed=probe.get("seed", int, seed_for_topic(topic)),
        watts_min=probe.get("watts_min", _number), watts_max=probe.get("watts_max", _number),
        trace=probe.get("trace", lambda path: load_trace(os.path.join(base_dir, path))),
        outlets=probe.get("outlets", int))


def _parse_api(api: _Section) -> ApiConfig:
    tokens = api.get("tokens", _items, ())
    if not tokens:
        api.warn("no tokens configured; every request will be rejected")
    return api.build(
        ApiConfig, listen=api.get("listen", _listen), tokens=tokens,
        stale_timeout_s=api.get("stale_timeout", _number),
        gap_limit_s=api.get("gap_limit", _number))


def _parse_viz(viz: _Section) -> VizConfig:
    consolidation = viz.get("consolidation", str.lower, AVERAGE)
    # built even when every configured archive names its own consolidation,
    # so that a bad default is refused all the same
    archives = viz.build(lambda: tuple(
        ArchiveDef(step, cap, consolidation) for step, cap in DEFAULT_ARCHIVES))
    return viz.build(
        VizConfig, listen=viz.get("listen", _listen), data_dir=viz.get("data_dir"),
        price_eur_per_kwh=viz.get("price_eur_per_kwh", _number),
        archives=viz.get("archives", lambda text: _archives(text, consolidation), archives))


def _parse_forwarder(forwarder: _Section) -> ForwarderConfig:
    forwarder.require("upstreams", "bind")
    return forwarder.build(ForwarderConfig, upstreams=forwarder.get("upstreams", _upstreams),
                           downstream_bind=forwarder.get("bind", Endpoint.parse))


def parse_config(text: str, base_dir: str = ".") -> FrameworkConfig:
    """Parse and validate a deployment configuration.

    Total over all inputs: every string yields either a FrameworkConfig or
    a ConfigError, never an unstructured crash.  ``base_dir`` anchors
    relative trace-file paths.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"line {exc.lineno}: content before any [section] header") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"line {exc.lineno}: duplicate section [{exc.section}]") from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"line {exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]") from None
    except configparser.ParsingError as exc:
        lineno, line = exc.errors[0]
        raise ConfigError(f"line {lineno}: malformed line {line}") from None

    warnings: list[str] = []
    probes: list[DriverSpec] = []
    bind = Endpoint.parse(DEFAULT_BIND)
    connect: Endpoint | None = None
    given: dict = {}  # FrameworkConfig fields that a section sets

    for name in parser.sections():
        kind = "probe:" if name.startswith("probe:") else name
        if kind not in _KNOWN_KEYS:
            warnings.append(f"ignoring unknown section [{name}]")
            continue
        section = _Section(name, dict(parser.items(name)), _KNOWN_KEYS[kind], warnings)
        if kind == "probe:":
            probes.append(_parse_probe(section, base_dir))
        elif kind == "bus":
            bind = section.get("bind", Endpoint.parse, bind)
            connect = section.get("connect", Endpoint.parse)
        elif kind == "signing":
            given["signing_secret"] = section.get("secret", _check_secret)
        elif kind == "api":
            given["api"] = _parse_api(section)
        elif kind == "viz":
            given["viz"] = _parse_viz(section)
        else:
            given["forwarder"] = _parse_forwarder(section)

    if not probes:
        raise ConfigError("no probes defined (need at least one [probe:<site>/<name>] section)")

    seen: dict[str, str] = {}
    for spec in probes:
        for topic in spec.all_topics():
            if topic in seen:
                raise ConfigError(
                    f"duplicate probe topic {topic!r} "
                    f"(from [probe:{seen[topic]}] and [probe:{spec.topic}])")
            seen[topic] = spec.topic

    if connect is None:
        if bind.scheme == "tcp" and bind.host in ("0.0.0.0", "::"):
            connect = Endpoint("tcp", host="127.0.0.1", port=bind.port)
        else:
            connect = bind

    for message in warnings:
        log.warning("%s", message)

    return FrameworkConfig(bind=bind, connect=connect, probes=probes, warnings=warnings,
                           **given)


def load_config(path: str) -> FrameworkConfig:
    """Read and parse a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
