"""Fixed-size round-robin time-series archives.

An archive consolidates raw samples into buckets ``step_s`` wide and keeps
the newest ``capacity`` buckets in a ring, so storage stays constant no
matter how long ingestion runs.  Buckets that received no samples are
retained as explicitly absent (never coerced to zero), and samples older
than the newest bucket are dropped and counted rather than rewriting
history.

Memory and file share one layout: an archive's slots live in one
``bytearray`` that is byte for byte the slot area of its file, so saving
writes the packed header and that buffer, and loading adopts the file's
slot bytes as they are.

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

import contextlib
import copy
import math
import os
import struct

MAGIC = b"WBRA0001"
AVERAGE, MIN, MAX = "average", "min", "max"
CONSOLIDATIONS = (AVERAGE, MIN, MAX)  # a name's index is its on-disk code

_HEADER = struct.Struct("<8sdIBqQQ")
MAX_CAPACITY = 2**32 - 1  # the header stores the capacity as a uint32
_SLOT = struct.Struct("<qdQ")
_EMPTY_SLOT = _SLOT.pack(-1, 0.0, 0)
_pack_slot, _unpack_slot = _SLOT.pack_into, _SLOT.unpack_from


class ArchiveFormatError(ValueError):
    """Raised when an archive file is not in the documented format."""


def check_archive(step_s: float, capacity: int, consolidation: str) -> None:
    """Raise ValueError unless the three describe a valid archive."""
    if not 0 < step_s < math.inf:  # a NaN step would fail in bucket_index, on ingest
        raise ValueError("archive step must be positive and finite")
    if not 0 < capacity <= MAX_CAPACITY:
        raise ValueError(f"archive capacity must be between 1 and {MAX_CAPACITY}")
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
        self._slots = bytearray(_EMPTY_SLOT) * self.capacity  # the file's slot area
        self._newest = -1  # newest bucket number, -1 = empty archive
        self.late_drops = 0
        self.generation = 0  # bumps on every accepted sample (cache staleness)

    # -- write side -------------------------------------------------------

    def update(self, t: float, w: float) -> bool:
        """Consolidate one sample; False if it was late and dropped."""
        b = bucket_index(t, self.step_s)
        newest = self._newest
        offset = (b % self.capacity) * _SLOT.size
        if b > newest:
            if newest != -1 and b > newest + 1:
                # materialize every skipped bucket as absent, bounded by capacity
                for n in range(max(newest + 1, b - self.capacity + 1), b):
                    _pack_slot(self._slots, (n % self.capacity) * _SLOT.size, n, 0.0, 0)
            _pack_slot(self._slots, offset, b, w, 1)
            self._newest = b
        elif b == newest:
            bucket, acc, count = _unpack_slot(self._slots, offset)
            if self.consolidation == AVERAGE:
                acc += w
            elif self.consolidation == MIN:
                acc = min(acc, w)
            else:
                acc = max(acc, w)
            _pack_slot(self._slots, offset, bucket, acc, count + 1)
        else:
            self.late_drops += 1
            return False
        self.generation += 1
        return True

    # -- read side --------------------------------------------------------

    def _slot_value(self, acc: float, count: int) -> float | None:
        if count == 0:
            return None
        return acc / count if self.consolidation == AVERAGE else acc

    def fetch(self, t_from: float, t_to: float) -> list[tuple[float, float | None]]:
        """Retained buckets intersecting [t_from, t_to), oldest first.

        Absent buckets appear as (start, None).  A range entirely outside
        retention yields an empty list.
        """
        if t_from > t_to:
            raise ValueError("t_from must not exceed t_to")
        if self._newest == -1:
            return []
        oldest = self._newest - self.capacity + 1
        # clamp to the retained window first: the bucket arithmetic below
        # then only meets times the ring holds, however huge the range
        t_from = max(t_from, oldest * self.step_s)
        t_to = min(t_to, (self._newest + 1) * self.step_s)
        if t_from > t_to:
            return []
        lo = bucket_index(t_from, self.step_s)
        hi = math.ceil(t_to / self.step_s) - 1
        while hi >= lo and hi * self.step_s >= t_to:  # float-division guard
            hi -= 1
        # bucket numbers are never negative (timestamps are > 0), and the
        # empty-slot sentinel is -1, so clamp to zero as well
        lo = max(lo, oldest, 0)
        hi = min(hi, self._newest)
        out: list[tuple[float, float | None]] = []
        for n in range(lo, hi + 1):
            bucket, acc, count = _unpack_slot(self._slots, (n % self.capacity) * _SLOT.size)
            if bucket == n:  # skip pre-history slots
                out.append((n * self.step_s, self._slot_value(acc, count)))
        return out

    def fetch_all(self) -> list[tuple[float, float | None]]:
        """Every retained bucket."""
        return self.fetch(0.0, math.inf)

    @property
    def newest_bucket_start(self) -> float | None:
        return None if self._newest == -1 else self._newest * self.step_s

    def __len__(self) -> int:
        return sum(1 for bucket, _, _ in _SLOT.iter_unpack(self._slots) if bucket != -1)

    def copy(self) -> "RoundRobinArchive":
        """An independent copy, to save while this archive keeps updating."""
        twin = copy.copy(self)
        twin._slots = self._slots.copy()
        return twin

    # -- persistence ------------------------------------------------------

    def dump_bytes(self) -> bytes:
        return _HEADER.pack(
            MAGIC, self.step_s, self.capacity, CONSOLIDATIONS.index(self.consolidation),
            self._newest, self.late_drops, self.generation) + self._slots

    def save(self, path: str) -> None:
        """Write the file whole or not at all: a failed write leaves no ``.tmp``."""
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(self.dump_bytes())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

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
        archive._slots[:] = memoryview(data)[_HEADER.size:]
        return archive

    @classmethod
    def load(cls, path: str) -> "RoundRobinArchive":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
