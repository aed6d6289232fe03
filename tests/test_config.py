"""Config grammar: the documented sample, validation errors, totality."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wattbus.config import ArchiveDef, ConfigError, load_config, parse_config
from wattbus.devices import PROFILES

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "docs" / "sample.conf"

MINIMAL = "[probe:siteA/ipmi1]\ndriver = ipmi\ninterval = 5\n"


def test_minimal_probe():
    cfg = parse_config(MINIMAL)
    assert len(cfg.probes) == 1
    spec = cfg.probes[0]
    assert spec.topic == "siteA/ipmi1"
    assert spec.interval_s == 5.0
    assert spec.profile is PROFILES["dell_idrac6"]
    assert cfg.signing_secret is None


def test_empty_input_is_an_error():
    with pytest.raises(ConfigError, match="no probes"):
        parse_config("")


def test_sample_config_hand_checked():
    # expectations below were derived by hand from the documented grammar
    cfg = load_config(str(SAMPLE))

    assert len(cfg.probes) == 2
    node, pdu = cfg.probes
    assert node.topic == "lyon/node1"
    assert node.profile.model == "dell_idrac6"
    assert node.interval_s == 5.0
    assert node.outlet_count == 1

    assert pdu.topic == "lyon/pdu1"
    assert pdu.profile.model == "schleifenbauer"
    assert pdu.interval_s == 3.0
    assert pdu.outlet_count == 8
    assert pdu.all_topics()[0] == "lyon/pdu1-out1"
    assert pdu.all_topics()[-1] == "lyon/pdu1-out8"

    assert cfg.signing_secret == b"change-me-please-16b"
    assert str(cfg.bind) == "tcp://127.0.0.1:5577"
    assert cfg.connect == cfg.bind

    assert cfg.api.listen == ("127.0.0.1", 8417)
    assert cfg.api.tokens == ("admin-token",)
    assert cfg.api.stale_timeout_s == 300.0

    assert cfg.viz.listen == ("127.0.0.1", 8418)
    assert cfg.viz.price_eur_per_kwh == 0.11
    assert cfg.viz.data_dir == "/var/lib/wattbus"
    assert [(a.step_s, a.capacity) for a in cfg.viz.archives] == [
        (1.0, 3600), (60.0, 1440), (3600.0, 720)]

    assert cfg.warnings == []


def test_duplicate_probe_section():
    text = MINIMAL + MINIMAL
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_duplicate_topic_via_outlet_expansion():
    text = (
        "[probe:a/p1]\ndriver = emulated-pdu\noutlets = 3\ninterval = 1\n"
        "[probe:a/p1-out2]\ndriver = ipmi\n"
    )
    with pytest.raises(ConfigError, match="duplicate probe topic"):
        parse_config(text)


def test_malformed_line_reports_line_number():
    text = "[probe:a/b]\ndriver = ipmi\nthis line has no equals sign\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)


def test_content_before_header_reports_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("driver = ipmi\n")


def test_missing_driver_key():
    with pytest.raises(ConfigError, match="driver"):
        parse_config("[probe:a/b]\ninterval = 5\n")


def test_unknown_driver():
    with pytest.raises(ConfigError, match="unknown driver"):
        parse_config("[probe:a/b]\ndriver = nosuchmeter\n")


def test_custom_driver_requires_refresh_precision_mode():
    base = "[probe:a/b]\ndriver = custom\n"
    with pytest.raises(ConfigError, match="refresh"):
        parse_config(base)
    ok = base + "refresh = 1\nprecision = 0.5\nmode = pull\n"
    cfg = parse_config(ok)
    assert cfg.probes[0].profile.precision_w == 0.5


def test_interval_shorter_than_refresh_rejected():
    text = "[probe:a/b]\ndriver = ipmi\ninterval = 1\n"  # iDrac6 refreshes every 5s
    with pytest.raises(ConfigError, match="refresh"):
        parse_config(text)


def test_interval_defaults_to_refresh_period():
    cfg = parse_config("[probe:a/b]\ndriver = omegawatt\n")
    assert cfg.probes[0].interval_s == 1.0


def test_unknown_keys_warn_but_parse(caplog):
    text = MINIMAL + "color = blue\n[mystery]\nx = 1\n"
    cfg = parse_config(text)
    assert any("color" in w for w in cfg.warnings)
    assert any("mystery" in w for w in cfg.warnings)


def test_short_signing_secret_rejected():
    text = MINIMAL + "[signing]\nsecret = short\n"
    with pytest.raises(ConfigError, match="16"):
        parse_config(text)


def test_stale_timeout_must_be_positive():
    text = MINIMAL + "[api]\ntokens = t\nstale_timeout = 0\n"
    with pytest.raises(ConfigError, match="stale_timeout"):
        parse_config(text)


def test_archive_capacity_must_be_positive():
    text = MINIMAL + "[viz]\narchives = 60:0\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_default_archive_set():
    cfg = parse_config(MINIMAL)
    assert [(a.step_s, a.capacity, a.consolidation) for a in cfg.viz.archives] == [
        (1.0, 3600, "average"), (60.0, 1440, "average"), (3600.0, 720, "average")]


def test_archive_consolidation_override():
    text = MINIMAL + "[viz]\narchives = 1:10:min, 60:20\nconsolidation = max\n"
    cfg = parse_config(text)
    assert cfg.viz.archives == (ArchiveDef(1.0, 10, "min"), ArchiveDef(60.0, 20, "max"))


def test_forwarder_section():
    text = MINIMAL + (
        "[forwarder]\n"
        "upstreams = tcp://10.0.0.1:5577|siteA/, tcp://10.0.0.2:5577\n"
        "bind = tcp://0.0.0.0:5578\n"
    )
    cfg = parse_config(text)
    assert cfg.forwarder is not None
    assert len(cfg.forwarder.upstreams) == 2
    assert cfg.forwarder.upstreams[0][1] == "siteA/"
    assert cfg.forwarder.upstreams[1][1] == ""


def test_forwarder_self_loop_rejected():
    text = MINIMAL + (
        "[forwarder]\nupstreams = tcp://127.0.0.1:5578\nbind = tcp://127.0.0.1:5578\n"
    )
    with pytest.raises(ConfigError, match="loop"):
        parse_config(text)


def test_connect_defaults_to_loopback_for_wildcard_bind():
    text = MINIMAL + "[bus]\nbind = tcp://0.0.0.0:7000\n"
    cfg = parse_config(text)
    assert str(cfg.connect) == "tcp://127.0.0.1:7000"


def test_trace_probe(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("# watts\n100\n150.5\n")
    text = f"[probe:a/b]\ndriver = emulated-ipmi\ninterval = 1\ntrace = {trace}\n"
    cfg = parse_config(text)
    assert cfg.probes[0].trace == (100.0, 150.5)


def test_missing_trace_file():
    text = "[probe:a/b]\ndriver = emulated-ipmi\ntrace = /no/such/file\n"
    with pytest.raises(ConfigError, match="trace"):
        parse_config(text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=300))
def test_parse_config_is_total(text):
    # any input yields a config or a ConfigError, never another exception
    try:
        parse_config(text)
    except ConfigError:
        pass


def test_readme_example_parses_without_warnings():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Configuration format"):]
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    assert parse_config(block).warnings == []


def _probe(**keys) -> str:
    opts = {"driver": "custom", "refresh": "1", "precision": "0.5", "mode": "pull", **keys}
    return "[probe:a/b]\n" + "".join(f"{k} = {v}\n" for k, v in opts.items())


# (section, key named in the error, config for a value, an out-of-range value);
# every config parses with the value "2"
NUMERIC_KEYS = [
    pytest.param("probe:a/b", "interval", lambda v: _probe(interval=v), "0", id="interval"),
    pytest.param("probe:a/b", "refresh", lambda v: _probe(refresh=v), "0", id="refresh"),
    pytest.param("probe:a/b", "precision", lambda v: _probe(precision=v), "-0.5",
                 id="precision"),
    pytest.param("probe:a/b", "watts_min", lambda v: _probe(watts_min=v), "300",
                 id="watts_min"),
    pytest.param("probe:a/b", "watts_max", lambda v: _probe(watts_min=1, watts_max=v), "0.5",
                 id="watts_max"),
    pytest.param("probe:a/b", "outlets", lambda v: _probe(outlets=v), "0", id="outlets"),
    pytest.param("probe:a/b", "outlets", lambda v: _probe(outlets=v),
                 "99999999999999999999999", id="outlets-huge"),
    pytest.param("probe:a/b", "seed", lambda v: _probe(seed=v), str(2 ** 63), id="seed"),
    pytest.param("api", "stale_timeout",
                 lambda v: MINIMAL + f"[api]\ntokens = t\nstale_timeout = {v}\n", "0",
                 id="stale_timeout"),
    pytest.param("api", "gap_limit",
                 lambda v: MINIMAL + f"[api]\ntokens = t\ngap_limit = {v}\n", "-1",
                 id="gap_limit"),
    pytest.param("viz", "price_eur_per_kwh",
                 lambda v: MINIMAL + f"[viz]\nprice_eur_per_kwh = {v}\n", "-0.1",
                 id="price_eur_per_kwh"),
    pytest.param("viz", "archives", lambda v: MINIMAL + f"[viz]\narchives = {v}:10\n", "0",
                 id="archive-step"),
    pytest.param("viz", "archives", lambda v: MINIMAL + f"[viz]\narchives = 60:{v}\n", "0",
                 id="archive-capacity"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "out-of-range"])
@pytest.mark.parametrize("section, key, config, out_of_range", NUMERIC_KEYS)
def test_numeric_key_refuses_non_finite_and_out_of_range(section, key, config, out_of_range, value):
    parse_config(config("2"))
    text = config(out_of_range if value == "out-of-range" else value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"[{section}]" in str(err.value)
    assert key in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_interval_never_reaches_the_driver_manager(value):
    # DriverManager.start() finds each driver's first tick with
    # math.ceil(elapsed / interval), which raises on NaN once the daemon runs
    with pytest.raises(ConfigError, match=r"\[probe:a/b\] interval: must be a finite number"):
        parse_config(f"[probe:a/b]\ndriver = ipmi\ninterval = {value}\n")


def test_non_finite_archive_step_never_reaches_viz():
    # VizState would floor(t / nan) on the first sample, in its ingest thread
    with pytest.raises(ConfigError, match=r"\[viz\] archives: must be a finite number"):
        parse_config(MINIMAL + "[viz]\narchives = nan:10\n")
    with pytest.raises(ValueError, match="archive step"):
        ArchiveDef(float("nan"), 10)
