"""wattbus: power monitoring daemons on a broker-less pub/sub bus.

Drivers poll (or receive pushes from) wattmeters and publish JSON power
measurements onto a prefix-filtered publish/subscribe bus.  Consumers
subscribe to turn the measurement stream into a REST API (watts, accumulated
kWh) or into fixed-size round-robin archives with chart output.  Optional
forwarders relay frames across network segments, and a benchmark harness
drives emulated device fleets through the whole pipeline.
"""

from wattbus.model import (
    DecodeError,
    Measurement,
    ProbeId,
    decode_measurement,
    encode_measurement,
)
from wattbus.signing import SigningKeyError, sign, verify
from wattbus.bus import (
    Endpoint,
    Frame,
    FrameError,
    Publisher,
    Subscriber,
    frame_decode,
    frame_encode,
)
from wattbus.config import ConfigError, FrameworkConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DecodeError",
    "Endpoint",
    "Frame",
    "FrameError",
    "FrameworkConfig",
    "Measurement",
    "ProbeId",
    "Publisher",
    "SigningKeyError",
    "Subscriber",
    "decode_measurement",
    "encode_measurement",
    "frame_decode",
    "frame_encode",
    "parse_config",
    "sign",
    "verify",
]
