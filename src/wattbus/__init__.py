"""wattbus: power monitoring daemons on a broker-less pub/sub bus.

Drivers poll (or receive pushes from) wattmeters and publish JSON power
measurements onto a prefix-filtered publish/subscribe bus.  Consumers
subscribe to turn the measurement stream into a REST API (watts, accumulated
kWh) or into fixed-size round-robin archives with chart output.  Optional
forwarders relay frames across network segments, and a benchmark harness
drives emulated device fleets through the whole pipeline.
"""
