"""Fixed-size round-robin time-series archives.

An archive consolidates raw samples into buckets ``step_s`` wide and keeps
the newest ``capacity`` buckets in a ring, so storage stays constant no
matter how long ingestion runs.  Buckets that received no samples are
retained as explicitly absent (never coerced to zero), and samples older
than the newest bucket are dropped and counted rather than rewriting
history.

On-disk layout (little-endian, one file per probe per archive)::

    offset  size  field
    0       8     magic "WBRA0001"
    8       8     step_s          float64
    16      4     capacity        uint32
    20      1     consolidation   0=average 1=min 2=max
    21      8     newest bucket   int64 (-1 when empty)
    29      8     late_drops      uint64
    37      8     generation      uint64
    45      ...   capacity slots of (bucket int64, acc float64, count uint64)

For average archives ``acc`` is the running sum (value = acc / count); for
min/max it is the consolidated value itself.
"""

from __future__ import annotations

import copy
import math
import os
import struct

MAGIC = b"WBRA0001"
AVERAGE, MIN, MAX = "average", "min", "max"
CONSOLIDATIONS = (AVERAGE, MIN, MAX)  # a name's index is its on-disk code

_HEADER = struct.Struct("<8sdIBqQQ")
_SLOT = struct.Struct("<qdQ")


class ArchiveFormatError(ValueError):
    """Raised when an archive file is not in the documented format."""


def check_archive(step_s: float, capacity: int, consolidation: str) -> None:
    """Raise ValueError unless the three describe a valid archive."""
    if not 0 < step_s < math.inf:  # a NaN step would fail in bucket_index, on ingest
        raise ValueError("archive step must be positive and finite")
    if capacity <= 0:
        raise ValueError("archive capacity must be positive")
    if consolidation not in CONSOLIDATIONS:
        raise ValueError(f"unknown consolidation {consolidation!r}")


def bucket_index(t: float, step_s: float) -> int:
    """Index of the bucket containing time t (bucket start = index * step)."""
    return math.floor(t / step_s)


class RoundRobinArchive:
    """One granularity of consolidated history for one probe."""

    def __init__(self, step_s: float, capacity: int, consolidation: str = AVERAGE):
        check_archive(step_s, capacity, consolidation)
        self.step_s = float(step_s)
        self.capacity = int(capacity)
        self.consolidation = consolidation
        self._bucket = [-1] * capacity  # bucket number held by each slot
        self._acc = [0.0] * capacity
        self._count = [0] * capacity
        self._newest = -1  # newest bucket number, -1 = empty archive
        self.late_drops = 0
        self.generation = 0  # bumps on every accepted sample (cache staleness)

    # -- write side -------------------------------------------------------

    def update(self, t: float, w: float) -> bool:
        """Consolidate one sample; False if it was late and dropped."""
        b = bucket_index(t, self.step_s)
        if self._newest == -1:
            self._clear(b)
        elif b < self._newest:
            self.late_drops += 1
            return False
        elif b > self._newest:
            # materialize every skipped bucket as absent, bounded by capacity
            for n in range(max(self._newest + 1, b - self.capacity + 1), b + 1):
                self._clear(n)
        self._newest = max(self._newest, b)
        self._accumulate(b, w)
        self.generation += 1
        return True

    def _clear(self, n: int) -> None:
        i = n % self.capacity
        self._bucket[i] = n
        self._acc[i] = 0.0
        self._count[i] = 0

    def _accumulate(self, n: int, w: float) -> None:
        i = n % self.capacity
        if self._count[i] == 0:
            self._acc[i] = w
        elif self.consolidation == AVERAGE:
            self._acc[i] += w
        elif self.consolidation == MIN:
            self._acc[i] = min(self._acc[i], w)
        else:
            self._acc[i] = max(self._acc[i], w)
        self._count[i] += 1

    # -- read side --------------------------------------------------------

    def _slot_value(self, n: int) -> float | None:
        i = n % self.capacity
        if self._bucket[i] != n or self._count[i] == 0:
            return None
        if self.consolidation == AVERAGE:
            return self._acc[i] / self._count[i]
        return self._acc[i]

    def fetch(self, t_from: float, t_to: float) -> list[tuple[float, float | None]]:
        """Retained buckets intersecting [t_from, t_to), oldest first.

        Absent buckets appear as (start, None).  A range entirely outside
        retention yields an empty list.
        """
        if t_from > t_to:
            raise ValueError("t_from must not exceed t_to")
        if self._newest == -1:
            return []
        lo = bucket_index(t_from, self.step_s)
        hi = math.ceil(t_to / self.step_s) - 1
        while hi >= lo and hi * self.step_s >= t_to:  # float-division guard
            hi -= 1
        # bucket numbers are never negative (timestamps are > 0), and the
        # empty-slot sentinel is -1, so clamp to zero as well
        lo = max(lo, self._newest - self.capacity + 1, 0)
        hi = min(hi, self._newest)
        out: list[tuple[float, float | None]] = []
        for n in range(lo, hi + 1):
            if self._bucket[n % self.capacity] == n:  # skip pre-history slots
                out.append((n * self.step_s, self._slot_value(n)))
        return out

    def fetch_all(self) -> list[tuple[float, float | None]]:
        """Every retained bucket."""
        if self._newest == -1:
            return []
        start = (self._newest - self.capacity + 1) * self.step_s
        end = (self._newest + 1) * self.step_s
        return self.fetch(max(start, 0.0), end)

    @property
    def newest_bucket_start(self) -> float | None:
        return None if self._newest == -1 else self._newest * self.step_s

    def __len__(self) -> int:
        return sum(1 for i in range(self.capacity) if self._bucket[i] != -1)

    def copy(self) -> "RoundRobinArchive":
        """An independent copy, to save while this archive keeps updating."""
        twin = copy.copy(self)
        twin._bucket = self._bucket.copy()
        twin._acc = self._acc.copy()
        twin._count = self._count.copy()
        return twin

    # -- persistence ------------------------------------------------------

    def dump_bytes(self) -> bytes:
        parts = [_HEADER.pack(
            MAGIC, self.step_s, self.capacity, CONSOLIDATIONS.index(self.consolidation),
            self._newest, self.late_drops, self.generation)]
        for i in range(self.capacity):
            parts.append(_SLOT.pack(self._bucket[i], self._acc[i], self._count[i]))
        return b"".join(parts)

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.dump_bytes())
        os.replace(tmp, path)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RoundRobinArchive":
        if len(data) < _HEADER.size:
            raise ArchiveFormatError("archive file truncated (header)")
        magic, step_s, capacity, cons_code, newest, late, generation = \
            _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise ArchiveFormatError(f"bad magic {magic!r}")
        if cons_code >= len(CONSOLIDATIONS):
            raise ArchiveFormatError(f"unknown consolidation code {cons_code}")
        expected = _HEADER.size + capacity * _SLOT.size
        if len(data) != expected:
            raise ArchiveFormatError(
                f"archive file is {len(data)} bytes, expected {expected}")
        archive = cls(step_s, capacity, CONSOLIDATIONS[cons_code])
        archive._newest = newest
        archive.late_drops = late
        archive.generation = generation
        offset = _HEADER.size
        for i in range(capacity):
            b, acc, count = _SLOT.unpack_from(data, offset)
            archive._bucket[i] = b
            archive._acc[i] = acc
            archive._count[i] = count
            offset += _SLOT.size
        return archive

    @classmethod
    def load(cls, path: str) -> "RoundRobinArchive":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
