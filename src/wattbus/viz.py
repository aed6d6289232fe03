"""Visualization data consumer.

Maintains a set of round-robin archives per probe (multiple granularities),
serves summary statistics including energy cost, and renders SVG line
charts.  Charts are cached on disk and regenerated only when the backing
archive has accepted new samples since the cached file was drawn, so idle
dashboards cost nothing.

HTTP surface (no auth; this is the human-facing display side)::

    GET /charts/<site>/<name>.svg?from=&to=&step=
    GET /stats/<site>/<name>?from=&to=&step=      JSON statistics
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from dataclasses import asdict, dataclass
from urllib.parse import parse_qs, urlparse

from wattbus.config import ArchiveDef, VizConfig
from wattbus.consumer import ConsumerHandler, ConsumerServer
from wattbus.energy import WS_PER_KWH
from wattbus.model import Measurement, ProbeId, decode_measurement
from wattbus.rra import RoundRobinArchive
from wattbus.signing import verify

log = logging.getLogger(__name__)


class StatsError(ValueError):
    """Raised when statistics are requested over an empty range."""


class UnknownProbeError(LookupError):
    """Raised when no archive exists for the requested probe."""


@dataclass(frozen=True)
class ChartStats:
    """Summary line shown under every chart."""

    avg_w: float
    min_w: float
    max_w: float
    last_w: float
    total_kwh: float
    cost_eur: float


def compute_stats(buckets: list[tuple[float, float | None]], step_s: float,
                  price_eur_per_kwh: float) -> ChartStats:
    """Statistics over fetched buckets; absent buckets contribute nothing."""
    present = [v for _, v in buckets if v is not None]
    if not present:
        raise StatsError("no data in the requested range")
    total_kwh = sum(v * step_s for v in present) / WS_PER_KWH
    return ChartStats(
        avg_w=sum(present) / len(present),
        min_w=min(present),
        max_w=max(present),
        last_w=present[-1],
        total_kwh=total_kwh,
        cost_eur=total_kwh * price_eur_per_kwh,
    )


def _archive_filename(d: ArchiveDef) -> str:
    return f"{d.step_s:g}s_{d.capacity}_{d.consolidation}.rra"


class _ProbeArchives:
    """All granularities for one probe, plus its chart cache bookkeeping."""

    def __init__(self, probe: ProbeId, defs: tuple[ArchiveDef, ...],
                 data_dir: str | None):
        self.probe = probe
        self.defs = defs
        self.dir = None
        if data_dir is not None:
            self.dir = os.path.join(data_dir, probe.site, probe.name)
            os.makedirs(self.dir, exist_ok=True)
        self.archives: list[RoundRobinArchive] = []
        for d in defs:
            archive = None
            if self.dir is not None:
                path = os.path.join(self.dir, _archive_filename(d))
                if os.path.exists(path):
                    try:
                        archive = RoundRobinArchive.load(path)
                    except (OSError, ValueError) as exc:
                        log.warning("discarding unreadable archive %s: %s", path, exc)
            if archive is None:
                archive = RoundRobinArchive(d.step_s, d.capacity, d.consolidation)
            self.archives.append(archive)

    def update(self, t: float, w: float) -> None:
        for archive in self.archives:
            archive.update(t, w)

    def flush(self, lock: threading.Lock) -> None:
        """Save copies of the archives taken under ``lock``, writing outside it."""
        if self.dir is None:
            return
        with lock:
            copies = [archive.copy() for archive in self.archives]
        for d, archive in zip(self.defs, copies):
            archive.save(os.path.join(self.dir, _archive_filename(d)))

    def select(self, step_s: float | None, t_from: float | None) -> RoundRobinArchive:
        """Pick the archive to serve a query from.

        An explicit step wins; otherwise the finest archive whose retention
        still covers ``t_from``, falling back to the coarsest.
        """
        by_step = sorted(self.archives, key=lambda a: a.step_s)
        if step_s is not None:
            for archive in by_step:
                if archive.step_s == step_s:
                    return archive
            raise StatsError(f"no archive with step {step_s}")
        if t_from is not None:
            for archive in by_step:
                newest = archive.newest_bucket_start
                if newest is None:
                    continue
                oldest = newest - (archive.capacity - 1) * archive.step_s
                if oldest <= t_from:
                    return archive
        return by_step[0] if t_from is None else by_step[-1]


class VizState:
    """Archive table plus chart rendering with an out-of-date cache."""

    def __init__(self, cfg: VizConfig, secret: bytes | None = None,
                 data_dir: str | None = None, cache_dir: str | None = None):
        self.cfg = cfg
        self._secret = secret
        self._data_dir = data_dir if data_dir is not None else cfg.data_dir
        self._cache_dir = cache_dir or os.path.join(self._data_dir, "charts")
        os.makedirs(self._cache_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()  # one flush at a time writes the files
        self._probes: dict[str, _ProbeArchives] = {}
        self.ingested = 0
        self.rejected = 0
        self.malformed = 0
        self.render_count = 0  # actual regenerations, not cache hits

    # -- ingest side ------------------------------------------------------

    def ingest(self, m: Measurement) -> None:
        if self._secret is not None and not verify(m, self._secret):
            with self._lock:
                self.rejected += 1
            return
        with self._lock:
            arch = self._probes.get(m.probe.topic)
            if arch is None:
                arch = _ProbeArchives(m.probe, self.cfg.archives, self._data_dir)
                self._probes[m.probe.topic] = arch
            arch.update(m.timestamp, m.watts)
            self.ingested += 1

    def count_malformed(self) -> None:
        with self._lock:
            self.malformed += 1

    def flush(self) -> None:
        """Write every archive to disk; ingest only waits while one probe is copied."""
        with self._flush_lock:
            with self._lock:
                probes = list(self._probes.values())
            for arch in probes:
                arch.flush(self._lock)

    def probes(self) -> list[str]:
        with self._lock:
            return sorted(self._probes)

    # -- query side -------------------------------------------------------

    def _archives_for(self, topic: str) -> _ProbeArchives:
        arch = self._probes.get(topic)
        if arch is None:
            raise UnknownProbeError(topic)
        return arch

    def stats(self, topic: str, t_from: float | None = None,
              t_to: float | None = None, step_s: float | None = None) -> ChartStats:
        with self._lock:
            arch = self._archives_for(topic)
            archive, t_from, t_to = _resolve_range(arch, step_s, t_from, t_to)
            buckets = archive.fetch(t_from, t_to)
            return compute_stats(buckets, archive.step_s, self.cfg.price_eur_per_kwh)

    def render_chart(self, topic: str, t_from: float | None = None,
                     t_to: float | None = None, step_s: float | None = None) -> str:
        """Return the path of an up-to-date chart for the range.

        The cached file is reused untouched unless the serving archive has
        accepted samples since the file was generated.
        """
        with self._lock:
            arch = self._archives_for(topic)
            archive, t_from, t_to = _resolve_range(arch, step_s, t_from, t_to)
            probe = arch.probe
            name = (f"{probe.site}__{probe.name}__{archive.step_s:g}s"
                    f"__{t_from:.3f}_{t_to:.3f}.svg")
            path = os.path.join(self._cache_dir, name)
            meta_path = path + ".meta"
            if os.path.exists(path) and os.path.exists(meta_path):
                try:
                    with open(meta_path, "r", encoding="utf-8") as fh:
                        meta = json.load(fh)
                    if meta.get("generation") == archive.generation:
                        return path
                except (OSError, ValueError):
                    pass  # unreadable meta: just regenerate
            buckets = archive.fetch(t_from, t_to)
            stats = compute_stats(buckets, archive.step_s, self.cfg.price_eur_per_kwh)
            svg = _render_svg(topic, buckets, archive.step_s, t_from, t_to, stats)
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.write(svg)
            os.replace(path + ".tmp", path)
            with open(meta_path + ".tmp", "w", encoding="utf-8") as fh:
                json.dump({"generation": archive.generation,
                           "stats": asdict(stats)}, fh)
            os.replace(meta_path + ".tmp", meta_path)
            self.render_count += 1
            return path


def _resolve_range(arch: _ProbeArchives, step_s: float | None,
                   t_from: float | None, t_to: float | None):
    archive = arch.select(step_s, t_from)
    newest = archive.newest_bucket_start
    if newest is None:
        raise StatsError("archive is empty")
    if t_to is None:
        t_to = newest + archive.step_s
    if t_from is None:
        t_from = max(t_to - archive.capacity * archive.step_s, 0.0)
    if t_from > t_to:
        raise StatsError("from must not exceed to")
    return archive, t_from, t_to


# -- SVG rendering ---------------------------------------------------------

_W, _H = 800, 320
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 20, 70


def _render_svg(topic: str, buckets, step_s: float,
                t_from: float, t_to: float, stats: ChartStats) -> str:
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B
    y_top = stats.max_w * 1.05 if stats.max_w > 0 else 1.0
    span = max(t_to - t_from, step_s)

    def x(t: float) -> float:
        return _MARGIN_L + (t - t_from) / span * plot_w

    def y(w: float) -> float:
        return _MARGIN_T + plot_h - (w / y_top) * plot_h

    # one polyline per contiguous run of present buckets: gaps stay gaps
    segments: list[list[str]] = []
    current: list[str] = []
    for start, value in buckets:
        if value is None:
            if current:
                segments.append(current)
                current = []
            continue
        current.append(f"{x(start + step_s / 2):.2f},{y(value):.2f}")
    if current:
        segments.append(current)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="#f8f8f8" stroke="#cccccc"/>',
        f'<text x="{_MARGIN_L}" y="14" font-family="monospace" font-size="12">'
        f'{_esc(topic)} ({step_s:g}s buckets)</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 10}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y_top:.6g}W</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + plot_h}" text-anchor="end" '
        'font-family="monospace" font-size="10">0W</text>',
        f'<text x="{_MARGIN_L}" y="{_MARGIN_T + plot_h + 14}" '
        f'font-family="monospace" font-size="10">{t_from:.3f}</text>',
        f'<text x="{_W - _MARGIN_R}" y="{_MARGIN_T + plot_h + 14}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{t_to:.3f}</text>',
    ]
    for seg in segments:
        if len(seg) == 1:
            cx, cy = seg[0].split(",")
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="#2266bb"/>')
        else:
            lines.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                         'stroke="#2266bb" stroke-width="1.5"/>')
    legend = (f"avg {stats.avg_w:.6g} W   min {stats.min_w:.6g} W   "
              f"max {stats.max_w:.6g} W   last {stats.last_w:.6g} W")
    legend2 = f"energy {stats.total_kwh:.6g} kWh   cost {stats.cost_eur:.6g} EUR"
    lines.append(f'<text x="{_MARGIN_L}" y="{_H - 34}" font-family="monospace" '
                 f'font-size="12">{_esc(legend)}</text>')
    lines.append(f'<text x="{_MARGIN_L}" y="{_H - 16}" font-family="monospace" '
                 f'font-size="12">{_esc(legend2)}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


# -- HTTP -------------------------------------------------------------------

_CHART_PATH = re.compile(r"^/charts/([^/]+)/([^/]+)\.svg$")
_STATS_PATH = re.compile(r"^/stats/([^/]+)/([^/]+)/?$")


class _VizHandler(ConsumerHandler):
    server_version = "wattbus-viz"

    def do_GET(self):
        state: VizState = self.server.consumer.state  # type: ignore[attr-defined]
        url = urlparse(self.path)
        query = parse_qs(url.query)

        def qfloat(key: str) -> float | None:
            if key not in query:
                return None
            try:
                return float(query[key][0])
            except ValueError:
                raise StatsError(f"query parameter {key} must be a number")

        try:
            t_from, t_to, step = qfloat("from"), qfloat("to"), qfloat("step")
            match = _CHART_PATH.match(url.path)
            if match:
                path = state.render_chart(f"{match.group(1)}/{match.group(2)}",
                                          t_from, t_to, step)
                with open(path, "rb") as fh:
                    self._reply(200, fh.read(), "image/svg+xml")
                return
            match = _STATS_PATH.match(url.path)
            if match:
                stats = state.stats(f"{match.group(1)}/{match.group(2)}",
                                    t_from, t_to, step)
                self._reply_json(200, asdict(stats))
                return
        except UnknownProbeError:
            self._reply_json(404, {"error": "unknown probe"})
            return
        except StatsError as exc:
            self._reply_json(400, {"error": str(exc)})
            return
        self._reply_json(400, {"error": "malformed path"})


class VizServer(ConsumerServer):
    """Chart front over a VizState; the periodic task, and close, flush the archives."""

    handler = _VizHandler
    name = "viz"

    def __init__(self, state: VizState, listen: tuple[str, int],
                 flush_period_s: float = 30.0):
        super().__init__(state, listen, flush_period_s)

    def decode(self, payload: bytes) -> Measurement:
        return decode_measurement(payload)  # looked up per call: a wrapper set on the module applies

    def periodic(self) -> None:
        self.state.flush()

    def close(self) -> None:
        super().close()
        self.state.flush()


def start_viz(cfg) -> tuple:
    """Start the visualization consumer (CLI entry); return what to close."""
    state = VizState(cfg.viz, secret=cfg.signing_secret)
    server = VizServer(state, cfg.viz.listen)
    server.start(subscribe=cfg.connect)
    return (server.close,)
