"""Ring semantics, oracle equivalence, and the on-disk format."""

import gc
import hashlib
import json
import math
import random
import struct
import threading

import pytest

from wattbus.rra import (
    AVERAGE,
    MAGIC,
    MAX,
    MIN,
    ArchiveFormatError,
    RoundRobinArchive,
    bucket_index,
)


def naive_retained(samples, step, capacity, consolidation):
    """Bucket the full history, then keep the newest `capacity` buckets.

    Completely independent of the ring implementation: a dict of bucket ->
    sample list, consolidated at the end.  Samples must be time-ordered
    (the late-sample rule is tested separately).
    """
    groups = {}
    for t, w in samples:
        groups.setdefault(math.floor(t / step), []).append(w)
    if not groups:
        return []
    buckets = range(min(groups), max(groups) + 1)
    retained = list(buckets)[-capacity:]
    out = []
    for b in retained:
        if b in groups:
            values = groups[b]
            if consolidation == AVERAGE:
                v = sum(values) / len(values)
            elif consolidation == MIN:
                v = min(values)
            else:
                v = max(values)
        else:
            v = None
        out.append((b * step, v))
    return out


class TestRingBasics:
    def test_two_samples_average_in_one_bucket(self):
        a = RoundRobinArchive(60.0, 10, AVERAGE)
        a.update(30.0, 100.0)
        a.update(45.0, 200.0)
        assert a.fetch_all() == [(0.0, 150.0)]

    def test_capacity_four_keeps_last_four(self):
        a = RoundRobinArchive(10.0, 4, AVERAGE)
        for b in range(10):
            a.update(b * 10.0 + 5.0, float(b))
        assert a.fetch_all() == [
            (60.0, 6.0), (70.0, 7.0), (80.0, 8.0), (90.0, 9.0)]
        assert len(a) == 4

    def test_skipped_buckets_absent_not_zero(self):
        a = RoundRobinArchive(10.0, 8, AVERAGE)
        a.update(5.0, 100.0)
        a.update(45.0, 200.0)  # buckets 1,2,3 skipped
        assert a.fetch_all() == [
            (0.0, 100.0), (10.0, None), (20.0, None), (30.0, None), (40.0, 200.0)]

    def test_late_sample_dropped_and_counted(self):
        a = RoundRobinArchive(10.0, 8, AVERAGE)
        a.update(25.0, 1.0)
        assert not a.update(5.0, 99.0)
        assert a.late_drops == 1
        assert a.fetch_all() == [(20.0, 1.0)]

    def test_same_bucket_allows_time_going_backwards(self):
        a = RoundRobinArchive(10.0, 8, MIN)
        a.update(25.0, 5.0)
        assert a.update(21.0, 3.0)  # same bucket, still consolidated
        assert a.fetch_all() == [(20.0, 3.0)]

    def test_generation_counts_accepted_samples(self):
        a = RoundRobinArchive(10.0, 4)
        a.update(5.0, 1.0)
        a.update(25.0, 1.0)
        a.update(1.0, 1.0)  # late: rejected
        assert a.generation == 2

    def test_jump_beyond_capacity(self):
        a = RoundRobinArchive(1.0, 5, MAX)
        a.update(0.5, 1.0)
        a.update(1000.5, 2.0)
        assert a.fetch_all() == [
            (996.0, None), (997.0, None), (998.0, None), (999.0, None),
            (1000.0, 2.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRobinArchive(0, 10)
        with pytest.raises(ValueError):
            RoundRobinArchive(1, 0)
        with pytest.raises(ValueError):
            RoundRobinArchive(1, 1, "median")


class TestFetch:
    def test_range_before_retention_is_empty(self):
        a = RoundRobinArchive(10.0, 4)
        for b in range(10):
            a.update(b * 10.0, 1.0)
        assert a.fetch(0.0, 30.0) == []

    def test_empty_archive_fetches_empty(self):
        assert RoundRobinArchive(10.0, 4).fetch(0.0, 1e9) == []

    def test_partial_window(self):
        a = RoundRobinArchive(10.0, 10)
        for b in range(5):
            a.update(b * 10.0 + 1.0, float(b))
        assert a.fetch(15.0, 35.0) == [(10.0, 1.0), (20.0, 2.0), (30.0, 3.0)]

    def test_fetch_bound_by_capacity(self):
        a = RoundRobinArchive(1.0, 16)
        for b in range(100):
            a.update(b + 0.5, 1.0)
        assert len(a.fetch(0.0, 1e9)) == 16

    def test_bad_range(self):
        with pytest.raises(ValueError):
            RoundRobinArchive(1.0, 4).fetch(10.0, 5.0)

    def test_huge_ranges_return(self):
        a = RoundRobinArchive(10.0, 4)
        a.update(25.0, 1.0)
        results = []

        def fetch_huge():
            results.append(a.fetch(1e300, 1e301))
            results.append(a.fetch(-1e301, -1e300))
            results.append(a.fetch(-1e301, 1e301))

        worker = threading.Thread(target=fetch_huge, daemon=True)
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive(), "fetch did not return for a huge range"
        assert results == [[], [], a.fetch_all()]


def random_trace(rng, max_jump_buckets, step):
    t = rng.uniform(0.1, 50.0)
    samples = []
    for _ in range(rng.randrange(1, 120)):
        t += rng.uniform(0.0, max_jump_buckets * step)
        samples.append((t, rng.uniform(0.0, 500.0)))
    return samples


class TestOracleEquivalence:
    @pytest.mark.parametrize("consolidation", [AVERAGE, MIN, MAX])
    def test_randomized_traces_match_naive_oracle(self, consolidation):
        rng = random.Random(hash(consolidation) & 0xFFFF)
        for case in range(30):
            step = rng.choice([1.0, 10.0, 60.0])
            capacity = rng.randrange(2, 30)
            samples = random_trace(rng, max_jump_buckets=capacity * 2, step=step)
            archive = RoundRobinArchive(step, capacity, consolidation)
            for t, w in samples:
                archive.update(t, w)
            expected = naive_retained(samples, step, capacity, consolidation)
            got = archive.fetch_all()
            assert json.dumps(got) == json.dumps(expected), \
                f"case {case}: step={step} capacity={capacity}"
            twin = RoundRobinArchive.from_bytes(archive.dump_bytes())
            assert json.dumps(twin.fetch_all()) == json.dumps(got), f"case {case}"
            assert twin.dump_bytes() == archive.dump_bytes(), f"case {case}"


class TestPersistence:
    def test_round_trip_preserves_everything(self, tmp_path):
        a = RoundRobinArchive(10.0, 6, MIN)
        for b in range(9):
            a.update(b * 10.0 + 2.0, 100.0 - b)
        a.update(5.0, 1.0)  # one late drop for the counter
        path = tmp_path / "probe.rra"
        a.save(str(path))
        b = RoundRobinArchive.load(str(path))
        assert b.step_s == a.step_s
        assert b.capacity == a.capacity
        assert b.consolidation == a.consolidation
        assert b.late_drops == a.late_drops
        assert b.generation == a.generation
        assert b.fetch_all() == a.fetch_all()
        assert b.dump_bytes() == a.dump_bytes()

    def test_loaded_archive_keeps_accepting(self, tmp_path):
        a = RoundRobinArchive(10.0, 4, AVERAGE)
        a.update(5.0, 10.0)
        path = tmp_path / "x.rra"
        a.save(str(path))
        b = RoundRobinArchive.load(str(path))
        b.update(15.0, 20.0)
        assert b.fetch_all() == [(0.0, 10.0), (10.0, 20.0)]

    def test_copy_is_independent(self):
        a = RoundRobinArchive(10.0, 4, AVERAGE)
        a.update(5.0, 10.0)
        twin = a.copy()
        a.update(15.0, 20.0)
        a.update(2.0, 1.0)  # late
        assert twin.fetch_all() == [(0.0, 10.0)]
        assert (twin.generation, twin.late_drops) == (1, 0)
        twin.update(25.0, 30.0)
        assert a.fetch_all() == [(0.0, 10.0), (10.0, 20.0)]

    def test_documented_header_layout(self, tmp_path):
        a = RoundRobinArchive(60.0, 3, MAX)
        a.update(61.0, 5.0)
        data = a.dump_bytes()
        assert data[:8] == MAGIC
        step, = struct.unpack_from("<d", data, 8)
        capacity, = struct.unpack_from("<I", data, 16)
        cons, = struct.unpack_from("<B", data, 20)
        newest, = struct.unpack_from("<q", data, 21)
        assert (step, capacity, cons, newest) == (60.0, 3, 2, 1)
        assert len(data) == 45 + 3 * 24  # header + slots

    def test_dump_bytes_golden_hash(self):
        # every state of three archives fed samples that consolidate in one
        # bucket, skip a bucket, arrive late and jump past capacity
        samples = [(12.5, 100.0), (17.0, 150.25), (31.0, 80.5), (29.0, 999.0),
                   (35.0, 120.0), (52.0, 60.75), (200.5, 42.0), (203.0, 43.5)]
        digest = hashlib.sha256()
        for consolidation in (AVERAGE, MIN, MAX):
            a = RoundRobinArchive(10.0, 6, consolidation)
            for t, w in samples:
                a.update(t, w)
                digest.update(a.dump_bytes())
            assert (a.late_drops, a.generation) == (1, 7)
        assert digest.hexdigest() == \
            "40d1ee77d4f7716944c9f3bcb41b8553fc2dafef725bb34126eb98b1d30071f0"

    def test_archive_gives_the_collector_nothing_to_walk(self):
        a = RoundRobinArchive(1.0, 3600)
        a.update(5.0, 1.0)
        assert [name for name, value in vars(a).items() if gc.is_tracked(value)] == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rra"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ArchiveFormatError):
            RoundRobinArchive.load(str(path))

    def test_truncated_rejected(self, tmp_path):
        a = RoundRobinArchive(1.0, 4)
        a.update(1.5, 1.0)
        path = tmp_path / "t.rra"
        path.write_bytes(a.dump_bytes()[:-8])
        with pytest.raises(ArchiveFormatError):
            RoundRobinArchive.load(str(path))


def test_bucket_index():
    assert bucket_index(0.0, 10.0) == 0
    assert bucket_index(9.999, 10.0) == 0
    assert bucket_index(10.0, 10.0) == 1
    assert bucket_index(3600.0, 60.0) == 60
