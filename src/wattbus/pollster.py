"""Metering pollster: turns the REST API into counter samples.

Each period the pollster fetches every probe and appends two JSON lines
per probe to the sink file, shaped like the samples a cloud metering
pipeline ingests: a gauge (instantaneous W) and a cumulative counter
(running kWh), neither tied to a tenant.

Sink line::

    {"probe": "site/name", "type": "gauge", "unit": "W",
     "value": 213.0, "timestamp": 1500000000.0}

An unreachable API is retried with backoff (the resulting gap is logged);
an authentication failure is fatal since no amount of retrying fixes a bad
token.
"""

from __future__ import annotations

import json
import logging
import time
import urllib.error
import urllib.request

log = logging.getLogger(__name__)

MAX_BACKOFF_S = 30.0  # the retry delay doubles per failed poll up to this


class PollsterAuthError(Exception):
    """The API rejected our token; retrying cannot help."""


def fetch_probes(api_url: str, token: str, timeout: float = 10.0) -> dict[str, dict]:
    """GET /v1/probes/ and return the probe table."""
    request = urllib.request.Request(
        api_url.rstrip("/") + "/v1/probes/",
        headers={"X-Auth-Token": token},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        if exc.code == 401:
            raise PollsterAuthError("API returned 401: check the token") from exc
        raise
    return body["probes"]


def samples_for(probes: dict[str, dict]) -> list[dict]:
    """Two counter samples per probe, ready for the sink."""
    out = []
    for topic in sorted(probes):
        record = probes[topic]
        out.append({
            "probe": topic,
            "type": "gauge",
            "unit": "W",
            "value": record["w"],
            "timestamp": record["timestamp"],
        })
        out.append({
            "probe": topic,
            "type": "cumulative",
            "unit": "kWh",
            "value": record["kwh"],
            "timestamp": record["timestamp"],
        })
    return out


def poll_once(api_url: str, token: str, sink_path: str) -> int:
    """One fetch-and-append cycle; returns the number of lines written."""
    probes = fetch_probes(api_url, token)
    samples = samples_for(probes)
    with open(sink_path, "a", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample, sort_keys=True) + "\n")
    return len(samples)


def run_pollster(api_url: str, token: str, period_s: float, sink_path: str,
                 max_polls: int | None = None) -> None:
    """Poll forever (or for max_polls cycles, for tests/CLI one-shots)."""
    polls = 0
    backoff = period_s
    while max_polls is None or polls < max_polls:
        started = time.monotonic()
        try:
            written = poll_once(api_url, token, sink_path)
        except PollsterAuthError:
            raise
        except (OSError, urllib.error.URLError, KeyError, ValueError) as exc:
            log.warning("poll failed (%s); gap in the sink, retrying in %.1fs",
                        exc, backoff)
            time.sleep(backoff)
            backoff = min(backoff * 2, MAX_BACKOFF_S)
            continue
        backoff = period_s
        polls += 1
        log.debug("poll %d: wrote %d samples", polls, written)
        if max_polls is not None and polls >= max_polls:
            return
        elapsed = time.monotonic() - started
        time.sleep(max(0.0, period_s - elapsed))


def read_sink(sink_path: str) -> list[dict]:
    """Parse a sink file back into sample dicts (replay/verification aid)."""
    samples = []
    with open(sink_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                samples.append(json.loads(line))
    return samples
