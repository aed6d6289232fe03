"""Single entry point with one subcommand per daemon.

    wattbus drivers   --config FILE [--status-file PATH]
    wattbus api       --config FILE
    wattbus viz       --config FILE
    wattbus forwarder --config FILE
    wattbus bench     --scenario NAME|FILE --out results.json
    wattbus bench     --sweep 0.2,0.4,0.6,0.8,1.0 --out results.json
    wattbus pollster  --api URL --token TOKEN --sink FILE [--period S]

The four daemons (drivers, api, viz, forwarder) run until SIGINT or
SIGTERM, then close what they started, in order.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading
from dataclasses import replace


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="deployment config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wattbus",
                                     description="power monitoring daemons")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    drivers = sub.add_parser("drivers", help="run the driver fleet")
    _add_config_arg(drivers)
    drivers.add_argument("--status-file", default=None,
                         help="write driver status as JSON lines here")
    drivers.add_argument("--watchdog-period", type=float, default=None,
                         help="seconds between driver restart sweeps")

    api = sub.add_parser("api", help="run the REST API consumer")
    _add_config_arg(api)

    viz = sub.add_parser("viz", help="run the chart/archive consumer")
    _add_config_arg(viz)

    fwd = sub.add_parser("forwarder", help="run a relay")
    _add_config_arg(fwd)

    bench_p = sub.add_parser("bench", help="run throughput scenarios")
    group = bench_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario",
                       help="standard scenario name or a scenario JSON file")
    group.add_argument("--sweep",
                       help="comma-separated measurement intervals in seconds")
    bench_p.add_argument("--out", required=True, help="results JSON path")
    bench_p.add_argument("--duration", type=float, default=None,
                         help="override scenario duration (seconds)")
    bench_p.add_argument("--drivers", type=int, default=None,
                         help="override fleet size (smoke testing)")
    bench_p.add_argument("--fleet", default="ipmi", help="fleet for --sweep runs")
    bench_p.add_argument("--signing", action="store_true",
                         help="sign messages in --sweep runs")
    bench_p.add_argument("--transport", default="tcp", choices=["tcp", "ipc"])

    pollster = sub.add_parser("pollster", help="poll the API into a sample sink")
    pollster.add_argument("--api", required=True, help="API base URL")
    pollster.add_argument("--token", required=True)
    pollster.add_argument("--sink", required=True, help="JSON-lines output file")
    pollster.add_argument("--period", type=float, default=10.0)
    pollster.add_argument("--max-polls", type=int, default=None)

    return parser


def _run_bench(args) -> int:
    from wattbus import bench

    if args.sweep:
        try:
            scenarios = bench.sweep_scenarios(
                [float(v) for v in args.sweep.split(",") if v.strip()],
                fleet=args.fleet,
                duration_s=args.duration if args.duration else 60.0,
                signing=args.signing,
                drivers=args.drivers,
            )
        except ValueError as exc:
            print(f"bad --sweep value: {args.sweep}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            if os.path.exists(args.scenario):
                scenario = bench.load_scenario(args.scenario)
            else:
                scenario = bench.scenario_from_name(args.scenario)
            if args.duration is not None or args.drivers is not None:
                overrides = {}
                if args.duration is not None:
                    overrides["duration_s"] = args.duration
                if args.drivers is not None:
                    overrides["drivers"] = args.drivers
                scenario = replace(scenario, **overrides)
        except (OSError, ValueError) as exc:
            print(f"bad --scenario: {exc}", file=sys.stderr)
            return 2
        scenarios = [scenario]
    results = [bench.run_scenario(s, transport=args.transport) for s in scenarios]
    bench.write_results(results, args.out)
    for r in results:
        status = "ok" if r.valid and r.drops == 0 else f"drops={r.drops} valid={r.valid}"
        print(f"{r.name}: published={r.frames_published} received={r.frames_received} "
              f"p95_jitter={r.jitter_p95_s:.4f}s max_burst={r.max_burst} [{status}]")
    return 0


def _serve(*closers) -> None:
    """Run a started daemon until SIGINT or SIGTERM, then call ``closers`` in order.

    Both signals are handled even when the process inherited SIGINT as
    ignored, as a job started with ``&`` from a non-interactive shell does.
    """
    stop = threading.Event()
    previous = {sig: signal.signal(sig, lambda signum, frame: stop.set())
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        stop.wait()
    finally:
        for close in closers:
            close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "pollster":
        from wattbus.pollster import run_pollster
        run_pollster(args.api, args.token, args.period, args.sink, max_polls=args.max_polls)
        return 0
    # each daemon imports only its own modules: a driver host has no use for http.server
    from wattbus.config import ConfigError, load_config
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "drivers":
        from wattbus.manager import DEFAULT_WATCHDOG_PERIOD_S, start_manager
        period = args.watchdog_period
        _serve(*start_manager(cfg, status_path=args.status_file, watchdog_period_s=(
            DEFAULT_WATCHDOG_PERIOD_S if period is None else period)))
    elif args.command == "api":
        from wattbus.api import start_api
        _serve(*start_api(cfg))
    elif args.command == "viz":
        from wattbus.viz import start_viz
        _serve(*start_viz(cfg))
    elif cfg.forwarder is None:  # the forwarder, from a config without its section
        print("config has no [forwarder] section", file=sys.stderr)
        return 2
    else:
        from wattbus.forwarder import start_forwarder
        _serve(*start_forwarder(cfg.forwarder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
