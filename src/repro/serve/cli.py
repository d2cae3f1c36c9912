"""``repro-serve`` — run and talk to the evaluation service.

Three subcommands::

    repro-serve serve  --port 8651 --workers 4        # run the daemon
                 [--data-dir PATH]                # keep a job journal
    repro-serve submit --url http://127.0.0.1:8651 \\
                 --arch spam2 --workload sum:40 --wait
    repro-serve status --url http://127.0.0.1:8651 [JOB_ID]

``serve`` blocks until SIGINT/SIGTERM, then drains gracefully:
in-flight evaluations finish, queued jobs are reported as cancelled.
With ``--data-dir`` it journals every accepted job to
``PATH/journal.jsonl`` and replays the journal on start, so a restart on
the same directory still answers for finished jobs and re-runs the
unfinished ones under their original ids.

``submit`` exit codes: 0 job succeeded (or accepted with ``--no-wait``),
1 failed/cancelled, 2 rejected by the admission gate (the ISDLxxx
diagnostics are printed), 3 backpressure retries exhausted.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import List, Optional

from .service import DEFAULT_BACKEND, DEFAULT_MAX_STEPS, KNOWN_BACKENDS

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-running ISDL evaluation service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the evaluation daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8651)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="backpressure bound on queued jobs")
    serve.add_argument("--cache-entries", type=int, default=2048)
    serve.add_argument("--cache-disk", metavar="PATH", default=None,
                       help="persistent disk layer for the artifact cache")
    serve.add_argument("--data-dir", metavar="PATH", default=None,
                       help="keep a job journal here and replay it on"
                            " start, so accepted jobs survive a crash")
    serve.add_argument("--max-attempts", type=int, default=3)
    serve.add_argument("--default-timeout", type=float, default=60.0,
                       metavar="SECONDS")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="disable in-flight request coalescing")
    serve.add_argument("--no-static-check", action="store_true",
                       help="disable the repro.analyze admission gate")
    serve.add_argument("--obs", action="store_true",
                       help="also mirror metrics into the global"
                            " repro.obs registry")

    submit = sub.add_parser("submit", help="submit one evaluation job")
    submit.add_argument("--url", default="http://127.0.0.1:8651")
    target = submit.add_mutually_exclusive_group(required=True)
    target.add_argument("--arch", help="built-in architecture name")
    target.add_argument("--isdl", metavar="FILE",
                        help="ISDL description file to submit")
    submit.add_argument("--workload", action="append", default=[],
                        metavar="SPEC",
                        help="workload kernel spec 'name[:size]'"
                             " (repeatable; default sum)")
    submit.add_argument("--weights", default="1.0,0.35,0.25",
                        metavar="RT,AREA,POWER")
    submit.add_argument("--backend", default=DEFAULT_BACKEND,
                        choices=KNOWN_BACKENDS)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--timeout", type=float, default=60.0,
                        help="per-job evaluation timeout (seconds)")
    submit.add_argument("--max-steps", type=int,
                        default=DEFAULT_MAX_STEPS)
    submit.add_argument("--label", default=None)
    submit.add_argument("--strategy", default=None, metavar="NAME",
                        help="run an exploration from the description"
                             " instead of one measurement (greedy,"
                             " multistart, population, pareto)")
    submit.add_argument("--strategy-param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="strategy parameter, repeatable (e.g."
                             " max_iterations=4, restarts=3,"
                             " frontier_cap=6)")
    submit.add_argument("--tech-node", type=int, default=None,
                        metavar="NM",
                        help="pin the measurement to a scaled technology"
                             " node (45/32/22/16/10)")
    submit.add_argument("--tech-flavor", default="HP",
                        metavar="FLAVOR",
                        help="technology flavor at --tech-node"
                             " (HP or LP; default HP)")
    submit.add_argument("--power-budget", type=float, default=None,
                        metavar="MW",
                        help="total power budget in mW; the service"
                             " solves the max-frequency operating point"
                             " under it (needs --tech-node)")
    submit.add_argument("--wait", dest="wait", action="store_true",
                        default=True,
                        help="poll until the job finishes (default)")
    submit.add_argument("--no-wait", dest="wait", action="store_false")
    submit.add_argument("--json", action="store_true",
                        help="print the raw job record as JSON")

    status = sub.add_parser("status",
                            help="service health or one job's record")
    status.add_argument("--url", default="http://127.0.0.1:8651")
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--json", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from .. import obs
    from .http import make_server
    from .service import EvaluationService, ServiceConfig

    if args.obs:
        obs.enable()
    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        cache_entries=args.cache_entries,
        disk_path=args.cache_disk,
        max_attempts=args.max_attempts,
        default_timeout_s=args.default_timeout,
        coalesce=not args.no_coalesce,
        static_check=not args.no_static_check,
        data_dir=args.data_dir,
    )
    service = EvaluationService(config)
    server = make_server(service, args.host, args.port)
    stop = threading.Event()

    def _on_signal(signum, frame):  # unused args: signal signature
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    print(f"repro-serve listening on {server.url} "
          f"({config.workers} workers, queue depth"
          f" {config.max_queue_depth})", flush=True)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    stop.wait()
    print("repro-serve: draining (in-flight jobs finish, queued jobs"
          " are cancelled)...", flush=True)
    server.shutdown_service(drain=True)
    serving.join(timeout=10.0)
    health = service.health()
    print(f"repro-serve: stopped; jobs by state: {health['jobs']}",
          flush=True)
    return 0


# ---------------------------------------------------------------------------
# submit / status
# ---------------------------------------------------------------------------


def _parse_weights(text: str) -> dict:
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit(
            f"--weights must be RT,AREA,POWER; got {text!r}"
        )
    try:
        runtime, area, power = (float(p) for p in parts)
    except ValueError:
        raise SystemExit(f"--weights values must be numbers: {text!r}") \
            from None
    return {"runtime": runtime, "area": area, "power": power}


def _parse_strategy_params(pairs: List[str]) -> dict:
    params: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"--strategy-param must be KEY=VALUE; got {pair!r}"
            )
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _print_job(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return
    state = record["state"]
    line = f"job {record['id']}: {state}"
    if record.get("coalesced_with"):
        line += f" (coalesced with {record['coalesced_with']})"
    print(line)
    result = record.get("result")
    if result is not None:
        if result.get("feasible"):
            print(f"  {record.get('label', '?')}:"
                  f" {result['cycles']} cycles,"
                  f" {result['runtime_us']:.2f} µs,"
                  f" die {result['die_size']:,.0f} cells,"
                  f" {result['power_mw']:.1f} mW,"
                  f" cost {result['cost']:,.1f}")
            tech = result.get("tech")
            if tech:
                line = (f"  tech: {tech['node']} nm {tech['flavor']},"
                        f" {tech['vdd']:.2f} V")
                if tech.get("budget_mw") is not None:
                    line += f", budget {tech['budget_mw']:g} mW"
                if tech.get("capped"):
                    line += " (capped)"
                print(line)
        else:
            print(f"  infeasible: {result.get('reason')}")
    exploration = record.get("exploration")
    if exploration is not None:
        print(f"  exploration [{exploration['strategy']}]:"
              f" {exploration['iterations']} iteration(s),"
              f" {exploration['evaluations']} evaluation(s)"
              f" ({exploration['cache_hits']} cached),"
              f" {exploration['improvement']:.2f}x improvement")
        best = exploration.get("best") or {}
        if best:
            print(f"  best: [{best.get('derived_by')}]"
                  f" cost {best.get('cost', 0):,.1f}")
        frontier = exploration.get("frontier") or []
        if len(frontier) > 1:
            print(f"  frontier ({len(frontier)} point(s)):")
            for point in frontier:
                print(f"    [{point['derived_by']}]"
                      f" cost {point['cost']:,.1f}")
    if record.get("error"):
        print(f"  error: {record['error']}")
    for diagnostic in record.get("diagnostics", ()):
        print(f"  {diagnostic['severity']} {diagnostic['code']}:"
              f" {diagnostic['message']}")


def _cmd_submit(args: argparse.Namespace) -> int:
    from .client import BackpressureError, ServeClient, ServeClientError

    payload = {
        "workloads": args.workload or ["sum"],
        "weights": _parse_weights(args.weights),
        "backend": args.backend,
        "priority": args.priority,
        "timeout_s": args.timeout,
        "max_steps": args.max_steps,
    }
    if args.label:
        payload["label"] = args.label
    if args.strategy:
        payload["strategy"] = {
            "name": args.strategy,
            "params": _parse_strategy_params(args.strategy_param),
        }
    elif args.strategy_param:
        raise SystemExit("--strategy-param needs --strategy")
    if args.tech_node is not None:
        tech = {"node": args.tech_node, "flavor": args.tech_flavor}
        if args.power_budget is not None:
            tech["budget_mw"] = args.power_budget
        payload["tech"] = tech
    elif args.power_budget is not None:
        raise SystemExit("--power-budget needs --tech-node")
    elif args.tech_flavor != "HP":
        raise SystemExit("--tech-flavor needs --tech-node")
    if args.arch:
        payload["arch"] = args.arch
    else:
        try:
            with open(args.isdl, "r", encoding="utf-8") as handle:
                payload["isdl"] = handle.read()
        except OSError as exc:
            print(f"cannot read {args.isdl}: {exc}", file=sys.stderr)
            return 1
    client = ServeClient(args.url)
    try:
        if args.wait:
            record = client.submit_and_wait(payload)
        else:
            record = client.submit(payload)
    except BackpressureError as exc:
        print(f"backpressure: {exc}", file=sys.stderr)
        return 3
    except (ServeClientError, TimeoutError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _print_job(record, args.json)
    state = record["state"]
    if state == "rejected":
        return 2
    if state in ("failed", "cancelled"):
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .client import ServeClient, ServeClientError

    client = ServeClient(args.url)
    try:
        if args.job_id:
            record = client.job(args.job_id)
            _print_job(record, args.json)
            return 0
        health = client.health()
    except ServeClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0
    print(f"status: {health['status']}, uptime {health['uptime_s']:.0f}s,"
          f" {health['workers']} workers,"
          f" queue depth {health['queue_depth']}")
    if health.get("jobs"):
        jobs = ", ".join(f"{state}={count}" for state, count
                         in sorted(health["jobs"].items()))
        print(f"jobs: {jobs}")
    for name, value in health.get("counters", {}).items():
        print(f"  {name:<28} {value:g}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    return _cmd_status(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
