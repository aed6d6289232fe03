"""Promises that must hold under hostile conditions: a crash in the middle of a flush.

A viz process killed at any moment, flushing or not, leaves every archive
file whole: each one loads, and holds what the archive held after some
prefix of the samples it was fed.  Run as a script, this module is that
process: it feeds a fixed series into a ``VizState`` and flushes in a loop.
"""

import itertools
import logging
import random
import signal
import subprocess
import sys
import time

from wattbus.config import ArchiveDef, VizConfig
from wattbus.model import Measurement, ProbeId
from wattbus.rra import MAX, MIN, RoundRobinArchive
from wattbus.viz import VizState, _ProbeArchives

ARCHIVES = (ArchiveDef(1.0, 512), ArchiveDef(4.0, 256, MAX), ArchiveDef(16.0, 64, MIN))
PROBES = tuple(ProbeId("site", f"p{k}") for k in range(3))
FLUSH_EVERY = 20  # samples per probe between flushes
ROUNDS = 5


def sample(probe: ProbeId, i: int) -> tuple[float, float]:
    """The ``i``-th (timestamp, watts) of ``probe``'s series, four per second."""
    return 1e6 + i * 0.25, float((i * 37 + int(probe.name[1:]) * 11) % 101) * 2.5


def ingest_and_flush_until_killed(data_dir: str) -> None:
    state = VizState(VizConfig(data_dir=data_dir, archives=ARCHIVES))
    for i in itertools.count():
        for probe in PROBES:
            state.ingest(Measurement(probe, *sample(probe, i)))
        if i % FLUSH_EVERY == FLUSH_EVERY - 1:
            state.flush()
            if i == FLUSH_EVERY - 1:
                print("flushed", flush=True)  # every archive file now exists


def test_a_kill_during_flushes_leaves_every_archive_a_prefix_of_its_samples(tmp_path, caplog):
    for round_ in range(ROUNDS):
        data_dir = tmp_path / f"round{round_}"
        child = subprocess.Popen([sys.executable, __file__, str(data_dir)],
                                 stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "flushed\n", "the child died before its first flush"
            time.sleep(random.uniform(0.0, 0.3))
            assert child.poll() is None, "the child exited on its own"
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
            child.stdout.close()

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wattbus.viz"):
            loaded = [_ProbeArchives(probe, ARCHIVES, str(data_dir)) for probe in PROBES]
        assert not caplog.records, [r.getMessage() for r in caplog.records]  # "discarding ..."
        assert len(list(data_dir.rglob("*.rra"))) == len(PROBES) * len(ARCHIVES)
        for probes_archives in loaded:
            probe = probes_archives.probe
            for d, archive in zip(ARCHIVES, probes_archives.archives):
                fed = archive.generation  # the series only moves forward: every sample counts
                assert fed >= FLUSH_EVERY and archive.late_drops == 0
                oracle = RoundRobinArchive(d.step_s, d.capacity, d.consolidation)
                for i in range(fed):
                    oracle.update(*sample(probe, i))
                assert archive.fetch_all() == oracle.fetch_all(), (round_, probe, d)


if __name__ == "__main__":
    ingest_and_flush_until_killed(sys.argv[1])
