"""Chart statistics, cost, the render cache, and the viz HTTP surface."""

import errno
import json
import os
import threading
import urllib.error
import urllib.request

import pytest

import wattbus.rra
from wattbus.config import ArchiveDef, VizConfig
from wattbus.consumer import ConsumerHandler
from wattbus.model import Measurement, ProbeId
from wattbus.rra import RoundRobinArchive
from wattbus.signing import sign
from wattbus.viz import (
    MAX_CACHED_CHARTS,
    StatsError,
    UnknownProbeError,
    VizServer,
    VizState,
    compute_stats,
)

from test_consumer import served_headers


def m(topic, t, w):
    return Measurement(ProbeId.parse(topic), t, w)


class TestComputeStats:
    def test_single_bucket_unit_arithmetic(self):
        stats = compute_stats([(0.0, 1000.0)], step_s=3600.0, price_eur_per_kwh=0.1)
        assert stats.total_kwh == pytest.approx(1.0)
        assert stats.cost_eur == pytest.approx(0.10)
        assert stats.last_w == 1000.0

    def test_min_max_avg(self):
        stats = compute_stats([(0.0, 100.0), (60.0, 300.0)], 60.0, 0.0)
        assert (stats.min_w, stats.max_w, stats.avg_w) == (100.0, 300.0, 200.0)

    def test_cost_multiplication(self):
        buckets = [(i * 3600.0, 2000.0) for i in range(6)]  # 12 kWh total
        stats = compute_stats(buckets, 3600.0, 0.10)
        assert stats.total_kwh == pytest.approx(12.0)
        assert stats.cost_eur == pytest.approx(1.20)

    def test_absent_buckets_skipped(self):
        stats = compute_stats([(0.0, None), (60.0, 50.0), (120.0, None)], 60.0, 0.0)
        assert stats.avg_w == 50.0
        assert stats.min_w == stats.max_w == 50.0

    def test_all_absent_raises(self):
        with pytest.raises(StatsError):
            compute_stats([(0.0, None)], 60.0, 0.0)
        with pytest.raises(StatsError):
            compute_stats([], 60.0, 0.0)

    def test_bounds_invariant(self):
        stats = compute_stats([(0.0, 5.0), (1.0, 9.0), (2.0, 7.0)], 1.0, 0.2)
        assert stats.min_w <= stats.avg_w <= stats.max_w
        assert stats.total_kwh >= 0


def small_viz_config(data_dir):
    return VizConfig(
        data_dir=str(data_dir),
        price_eur_per_kwh=0.25,
        archives=(ArchiveDef(10.0, 16), ArchiveDef(60.0, 8)),
    )


@pytest.fixture()
def state(tmp_path):
    return VizState(small_viz_config(tmp_path / "data"), cache_dir=str(tmp_path / "charts"))


class TestVizState:
    def test_unknown_probe(self, state):
        with pytest.raises(UnknownProbeError):
            state.stats("no/body")
        with pytest.raises(UnknownProbeError):
            state.render_chart("no/body")

    def test_stats_over_archive(self, state):
        for i in range(10):
            state.ingest(m("a/p", 100.0 + 10 * i, 100.0 + i))
        stats = state.stats("a/p")
        assert stats.min_w == 100.0
        assert stats.max_w == 109.0
        assert stats.cost_eur == pytest.approx(stats.total_kwh * 0.25)

    def test_signature_gate(self, tmp_path):
        secret = b"viz-secret-0123456"
        state = VizState(small_viz_config(tmp_path / "d"), secret=secret,
                         cache_dir=str(tmp_path / "c"))
        state.ingest(m("a/p", 100.0, 50.0))  # unsigned: rejected
        assert state.rejected == 1
        state.ingest(sign(m("a/p", 101.0, 50.0), secret))
        assert state.ingested == 1

    def test_render_cache_contract(self, state):
        for i in range(5):
            state.ingest(m("a/p", 100.0 + 10 * i, 200.0))
        path1 = state.render_chart("a/p", 100.0, 160.0)
        content1 = open(path1, "rb").read()
        assert state.render_count == 1

        # no new data: same file, no regeneration
        path2 = state.render_chart("a/p", 100.0, 160.0)
        assert path2 == path1
        assert state.render_count == 1
        assert open(path2, "rb").read() == content1

        # new bucket: regeneration
        state.ingest(m("a/p", 100.0 + 10 * 5, 300.0))
        path3 = state.render_chart("a/p", 100.0, 160.0)
        assert state.render_count == 2
        assert open(path3, "rb").read() != content1

    def test_moving_window_refreshes_keep_one_cached_chart(self, state, tmp_path):
        # a dashboard polling the default window once a second, for ten minutes
        for i in range(600):
            state.ingest(m("a/p", 100.0 + i, 200.0 + i % 7))
            path = state.render_chart("a/p")
        assert state.render_count == 600  # each refresh saw a new sample
        assert os.listdir(tmp_path / "charts") == [os.path.basename(path)]
        assert f"avg {state.stats('a/p').avg_w:.6g} W" in open(path).read()

    def test_cache_holds_at_most_max_cached_charts_files(self, state, tmp_path):
        for i in range(5):
            state.ingest(m("a/p", 100.0 + 10 * i, 200.0))
        for i in range(3000):  # distinct explicit ranges: one file each
            path = state.render_chart("a/p", 100.0, 160.0 + i / 100)
        assert len(os.listdir(tmp_path / "charts")) <= MAX_CACHED_CHARTS
        assert state.render_chart("a/p", 100.0, 160.0 + 2999 / 100) == path
        assert state.render_count == 3000
        # the least recently served chart was dropped: asking again redraws it
        state.render_chart("a/p", 100.0, 160.0)
        assert state.render_count == 3001

    def test_restart_clears_the_cache_and_redraws_each_chart_once(self, state, tmp_path):
        state.ingest(m("a/p", 100.0, 200.0))
        path = state.render_chart("a/p")
        charts = tmp_path / "charts"
        for leftover in ("x.svg.meta", "x.svg.tmp", "x.svg.meta.tmp"):
            (charts / leftover).write_text("{}")
        (charts / "notes.txt").write_text("kept")
        fresh = VizState(small_viz_config(tmp_path / "data"), cache_dir=str(charts))
        assert os.listdir(charts) == ["notes.txt"]
        fresh.ingest(m("a/p", 100.0, 200.0))
        assert fresh.render_chart("a/p") == path
        assert fresh.render_chart("a/p") == path
        assert fresh.render_count == 1

    def test_restart_keeps_a_probe_whose_directory_is_in_the_chart_cache(self, tmp_path):
        # the default cache is <data_dir>/charts, where probe charts/p.svg keeps its archives
        cfg = small_viz_config(tmp_path / "data")
        state = VizState(cfg)
        state.ingest(m("charts/p.svg", 100.0, 200.0))
        state.flush()
        restarted = VizState(cfg)
        restarted.ingest(m("charts/p.svg", 110.0, 400.0))
        stats = restarted.stats("charts/p.svg")
        assert (stats.min_w, stats.max_w) == (200.0, 400.0)  # the first sample came from disk

    def test_charts_of_other_probes_or_ranges_get_their_own_file(self, state):
        # the topics differ only in where the '/' is; the bounds differ by
        # under a millisecond but fall on either side of a bucket start
        for i in range(5):
            state.ingest(m("a__b/c", 100.0 + 10 * i, 100.0))
            state.ingest(m("a/b__c", 100.0 + 10 * i, 900.0))
        first, second = state.render_chart("a__b/c"), state.render_chart("a/b__c")
        assert first != second and state.render_count == 2
        assert "avg 900 W" in open(second).read()

        for t, w in ((985.0, 100.0), (995.0, 100.0), (1005.0, 900.0), (1015.0, 900.0)):
            state.ingest(m("s/p", t, w))
        paths = [state.render_chart("s/p", t_from, 1020.0) for t_from in (999.9996, 1000.0004)]
        assert paths[0] != paths[1] and state.render_count == 4
        for path, t_from in zip(paths, (999.9996, 1000.0004)):
            avg = state.stats("s/p", t_from, 1020.0).avg_w
            assert f"avg {avg:.6g} W" in open(path).read()

    def test_chart_legend_matches_compute_stats(self, state):
        for i in range(8):
            state.ingest(m("a/p", 200.0 + 10 * i, 120.0 + 5 * i))
        t_from, t_to = 200.0, 280.0
        path = state.render_chart("a/p", t_from, t_to)
        with state._lock:
            archive = state._probes["a/p"].archives[0]
            buckets = archive.fetch(t_from, t_to)
        expected = compute_stats(buckets, archive.step_s, 0.25)
        svg = open(path).read()
        assert f"avg {expected.avg_w:.6g} W" in svg
        assert f"cost {expected.cost_eur:.6g} EUR" in svg

    def test_svg_is_wellformed_and_gaps_split_lines(self, state):
        state.ingest(m("a/p", 105.0, 100.0))
        state.ingest(m("a/p", 145.0, 200.0))  # gap buckets between them
        path = state.render_chart("a/p")
        svg = open(path).read()
        import xml.etree.ElementTree as ET
        ET.fromstring(svg)  # parses as XML
        assert svg.count("<circle") == 2  # two isolated points, no line

    def test_step_selection(self, state):
        for i in range(20):
            state.ingest(m("a/p", 50.0 + 10 * i, 100.0))
        fine = state.stats("a/p", step_s=10.0)
        coarse = state.stats("a/p", step_s=60.0)
        assert fine.avg_w == coarse.avg_w == 100.0
        with pytest.raises(StatsError):
            state.stats("a/p", step_s=999.0)

    def test_ingest_runs_while_flush_writes(self, state, tmp_path, monkeypatch):
        state.ingest(m("a/p", 100.0, 150.0))
        saving, release = threading.Event(), threading.Event()
        save = RoundRobinArchive.save

        def held_save(archive, path):
            saving.set()
            release.wait(10.0)
            save(archive, path)

        monkeypatch.setattr(RoundRobinArchive, "save", held_save)
        flusher = threading.Thread(target=state.flush)
        flusher.start()
        try:
            assert saving.wait(5.0)
            ingester = threading.Thread(target=state.ingest, args=(m("a/p", 110.0, 250.0),))
            ingester.start()
            ingester.join(timeout=5.0)
            assert not ingester.is_alive(), "ingest waited for the flush to write its files"
        finally:
            release.set()
            flusher.join(timeout=10.0)
        assert not flusher.is_alive()
        assert state.ingested == 2
        # the files hold the archives as they were when the flush copied them
        fresh = VizState(small_viz_config(tmp_path / "data"))
        fresh.ingest(m("a/p", 105.0, 150.0))
        assert fresh.stats("a/p").max_w == 150.0

    def test_failed_write_keeps_old_file_and_saves_other_probes(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        state = VizState(small_viz_config(data_dir), cache_dir=str(tmp_path / "c"))
        for topic in ("a/p", "a/q"):
            state.ingest(m(topic, 100.0, 50.0))
        state.flush()
        before = {path: path.read_bytes() for path in data_dir.rglob("*.rra")}
        assert len(before) == 4
        for topic in ("a/p", "a/q"):
            state.ingest(m(topic, 110.0, 70.0))

        def open_full_for_p(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if os.path.join("a", "p", "") in path:
                fh.close()  # the file exists, as after a write that ran out of space
                raise OSError(errno.ENOSPC, "No space left on device")
            return fh

        monkeypatch.setattr(wattbus.rra, "open", open_full_for_p, raising=False)
        with pytest.raises(OSError) as failure:
            state.flush()
        monkeypatch.undo()
        assert failure.value.errno == errno.ENOSPC
        assert list(data_dir.rglob("*.tmp")) == []
        for path, old in before.items():
            if path.parent.name == "p":
                assert path.read_bytes() == old
                kept = RoundRobinArchive.load(str(path)).fetch_all()
                assert [w for _, w in kept if w is not None] == [50.0]
            else:
                assert path.read_bytes() != old
        fresh = VizState(small_viz_config(data_dir), cache_dir=str(tmp_path / "c2"))
        fresh.ingest(m("a/q", 111.0, 70.0))
        assert fresh.stats("a/q", step_s=10.0).max_w == 70.0

    def test_persistence_flush_and_reload(self, tmp_path):
        cfg = small_viz_config(tmp_path / "data")
        state = VizState(cfg, cache_dir=str(tmp_path / "c1"))
        for i in range(6):
            state.ingest(m("a/p", 100.0 + 10 * i, 150.0))
        before = state.stats("a/p")
        state.flush()

        fresh = VizState(cfg, cache_dir=str(tmp_path / "c2"))
        # archives reload lazily at first sample for the probe
        fresh.ingest(m("a/p", 100.0 + 10 * 6, 150.0))
        after = fresh.stats("a/p")
        assert after.min_w == before.min_w == 150.0
        assert after.total_kwh > before.total_kwh


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.headers.get_content_type(), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get_content_type(), exc.read()


class TestVizHttp:
    @pytest.fixture()
    def server(self, state):
        srv = VizServer(state, ("127.0.0.1", 0))
        srv.start()
        yield srv
        srv.close()

    def test_stats_endpoint(self, server, state):
        for i in range(5):
            state.ingest(m("a/p", 100.0 + 10 * i, 80.0))
        status, ctype, body = http_get(f"{server.url}/stats/a/p")
        assert status == 200 and ctype == "application/json"
        payload = json.loads(body)
        assert payload["avg_w"] == 80.0
        assert payload["cost_eur"] == pytest.approx(payload["total_kwh"] * 0.25)

    def test_stats_with_range(self, server, state):
        for i in range(10):
            state.ingest(m("a/p", 100.0 + 10 * i, float(i)))
        status, _, body = http_get(f"{server.url}/stats/a/p?from=150&to=170")
        assert status == 200
        payload = json.loads(body)
        assert payload["min_w"] == 5.0
        assert payload["max_w"] == 6.0

    def test_chart_endpoint(self, server, state):
        state.ingest(m("a/p", 100.0, 80.0))
        status, ctype, body = http_get(f"{server.url}/charts/a/p.svg")
        assert status == 200 and ctype == "image/svg+xml"
        assert body.startswith(b"<svg")
        viz = f"wattbus-viz {ConsumerHandler.sys_version}"
        assert [served_headers(server, path) for path in (
            "/charts/a/p.svg", "/stats/a/p", "/charts/no/body.svg", "/stats/a/p?from=x",
            "/nonsense")] == [(viz, "image/svg+xml")] + [(viz, "application/json")] * 4

    def test_unknown_probe_404(self, server):
        status, _, _ = http_get(f"{server.url}/charts/no/body.svg")
        assert status == 404
        status, _, _ = http_get(f"{server.url}/stats/no/body")
        assert status == 404

    def test_huge_range_is_answered_and_ingest_goes_on(self, state):
        state.ingest(m("a/p", 100.0, 80.0))
        result = {}

        def scenario():  # a thread: at worst the request never returns
            server = VizServer(state, ("127.0.0.1", 0))
            server.start()
            try:
                for query in ("/stats/a/p?from=1e300&to=1e301",
                              "/charts/a/p.svg?from=-1e301&to=-1e300"):
                    result[query] = http_get(f"{server.url}{query}")[0]
                state.ingest(m("a/p", 110.0, 90.0))
                result["ingested"] = state.ingested
            finally:
                server.close()

        worker = threading.Thread(target=scenario, daemon=True)
        worker.start()
        worker.join(10.0)
        assert not worker.is_alive(), "viz stopped answering or ingesting"
        assert result == {"/stats/a/p?from=1e300&to=1e301": 400,
                          "/charts/a/p.svg?from=-1e301&to=-1e300": 400, "ingested": 2}

    def test_malformed_400(self, server, state):
        state.ingest(m("a/p", 100.0, 80.0))
        status, _, _ = http_get(f"{server.url}/nonsense")
        assert status == 400
        status, _, _ = http_get(f"{server.url}/stats/a/p?from=x")
        assert status == 400
        for query in ("/stats/a/p?from=nan", "/stats/a/p?to=inf", "/stats/a/p?from=-inf",
                      "/charts/a/p.svg?from=nan"):
            status, _, body = http_get(f"{server.url}{query}")
            assert status == 400, query
            assert "finite" in json.loads(body)["error"]
