import threading
from collections import deque

import hypothesis.strategies as st

from wattbus.model import Measurement, ProbeId

# probe parts that are safe everywhere (topics, file paths, JSON)
_PART_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"

probe_parts = st.text(alphabet=_PART_ALPHABET, min_size=1, max_size=15)
probe_ids = st.builds(ProbeId, site=probe_parts, name=probe_parts)

positive_times = st.one_of(
    st.floats(min_value=1e-9, allow_nan=False, allow_infinity=False,
              exclude_min=False),
    st.integers(min_value=1, max_value=2**40),
)
watt_values = st.one_of(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=2**40),
)
optional_watts = st.one_of(st.none(), watt_values)

measurements = st.builds(
    Measurement,
    probe=probe_ids,
    timestamp=positive_times,
    watts=watt_values,
    volts=optional_watts,
    amps=optional_watts,
)


class Inbox:
    """A ``Subscriber``'s ``on_frames`` that tests read back with ``get``."""

    def __init__(self):
        self._frames = deque()
        self._cond = threading.Condition()

    def __call__(self, frames):
        with self._cond:
            self._frames.extend(frames)
            self._cond.notify_all()

    def get(self, timeout):
        """The next frame, or None if none arrives within ``timeout`` seconds."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._frames, timeout):
                return None
            return self._frames.popleft()
