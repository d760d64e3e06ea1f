"""Command-line interface.

Usage::

    python -m repro bounds --family wheel --n 4 [--symmetric] [--rounds 2]
    python -m repro search --family cycle --n 4 --k 1 [--full]
                           [--backend bitset|reference|sat|check]
    python -m repro verify --family cycle --n 4 --k 2 [--rounds 3]
    python -m repro experiments [E1 E6 ...] [--jobs 4 | --distributed :7071]
                                [--trace FILE]
    python -m repro cache-stats [--n 5] [--passes 3] [--json]
    python -m repro sweep --n 4 [--jobs 4 | --distributed :7071] [--limit K]
                          [--budget 4096] [--backend bitset|reference|sat|check]
                          [--trace FILE]
                          [--checkpoint FILE] [--resume-from FILE]
    python -m repro worker --connect HOST:7071 [--jobs 2] [--retry 30]
                           [--spawn auto|N [--max-respawns 3]]
    python -m repro dist status HOST:7071 [--json] [--watch N [--interval S]]
    python -m repro trace summary FILE [--json] [--top 8]
    python -m repro store stats [--json]
    python -m repro store probe [--n 5] [--passes 2] [--json]
    python -m repro store vacuum | clear | integrity
    python -m repro store prune --max-age-days 30 --max-size-mb 256
    python -m repro store export --out backup.sqlite

``--family`` names any zero/one-argument constructor from
:mod:`repro.graphs.families` (star, cycle, wheel, path, out_tree,
tournament, ...); ``union_of_stars`` additionally takes ``--centers``.

Compute backends: the solvability CSP kernels run on a pluggable backend
(``--backend`` on ``search`` and ``sweep``, or ``REPRO_CSP_BACKEND``):
``bitset`` (the default under ``auto``), the ``reference`` pure-Python
search, the optional ``sat`` CNF encoding (requires ``python-sat``), or
``check`` which runs every available backend and asserts identical
verdicts.  Results are backend-independent; store rows are not shared
across backends (each backend persists under its own kernel version).

Persistence: set ``REPRO_STORE=rw`` (and optionally
``REPRO_STORE_PATH=...``) to warm-start every command from a persistent
result store; the ``store`` subcommands manage that file (``--path``
overrides the environment for one invocation).

Distributed execution: ``--distributed HOST:PORT`` (on ``experiments``
and ``sweep``) binds a TCP coordinator and serves the same jobs to every
``python -m repro worker --connect HOST:PORT`` on any machine, instead of
forking a local pool; results are identical to serial/pool runs and only
the coordinator writes the result store.  With ``--seed-store on`` (the
default) the coordinator also streams its store's relevant rows to every
connecting remote worker and answers their store misses over the wire,
so hosts without a shared filesystem start warm; ``python -m repro dist
status HOST:PORT`` probes a live coordinator for queue depth, leases,
per-worker throughput, and rows seeded/served (``--watch N`` polls).

Tracing: ``--trace FILE`` (on ``experiments`` and ``sweep``, or
``REPRO_TRACE=FILE`` for any command) records spans across every layer —
kernel calls with cache-tier attribution, store flushes, job lifecycle,
coordinator events — into a Chrome ``trace_event`` JSON file loadable in
Perfetto (``ui.perfetto.dev``) or ``chrome://tracing``, with one lane per
worker process, cluster-wide.  ``python -m repro trace summary FILE``
aggregates a recorded trace without leaving the terminal.  Tracing never
changes results; the equivalence tests pin traced == untraced rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from . import graphs as graph_families
from .agreement import FloodMin, KSetAgreement
from .bounds import bound_report
from .graphs import Digraph, symmetric_closure
from .models import simple_closed_above, symmetric_closed_above
from .verification import decide_one_round_solvability, verify_algorithm

_FAMILIES = graph_families.FAMILY_NAMES


def _usage_error(message: str) -> NoReturn:
    """Print one line on stderr and exit 2.

    Exit 2 keeps errors apart from verdicts: ``search`` and ``verify``
    exit 1 for "not solvable" / "failed".
    """
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _build_graph(args: argparse.Namespace) -> Digraph:
    from .errors import GraphError

    centers = None
    if args.family == "union_of_stars":
        try:
            centers = tuple(int(c) for c in (args.centers or "0").split(","))
        except ValueError:
            _usage_error(
                "--centers must be comma-separated process ids, "
                f"got {args.centers!r}"
            )
    try:
        return graph_families.build_family(args.family, args.n, centers)
    except GraphError as exc:
        _usage_error(str(exc))


def _generators(args: argparse.Namespace) -> list[Digraph]:
    g = _build_graph(args)
    if args.symmetric:
        return sorted(symmetric_closure([g]))
    return [g]


def cmd_bounds(args: argparse.Namespace) -> int:
    from .errors import ReproError

    try:
        report = bound_report(_generators(args), rounds=args.rounds)
    except ReproError as exc:
        _usage_error(f"bounds: {exc}")
    print(report.describe())
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from .errors import ReproError

    generators = _generators(args)
    try:
        if args.full:
            model = (
                symmetric_closed_above(generators)
                if args.symmetric
                else simple_closed_above(generators[0])
            )
            pool = sorted(model.iter_graphs(max_graphs=args.budget))
            scope = f"full model ({len(pool)} graphs)"
        else:
            pool = generators
            scope = f"generators ({len(pool)} graphs)"
        result = decide_one_round_solvability(
            pool, args.k, backend=args.backend
        )
    except ReproError as exc:
        _usage_error(f"search: {exc}")
    print(f"[{scope}] {result.describe()}")
    if not args.full and result.solvable:
        print(
            "note: SAT over generators only means 'not disproved here'; "
            "rerun with --full for a definitive answer on small models"
        )
    return 0 if result.solvable else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from .errors import ReproError

    generators = _generators(args)
    try:
        model = (
            symmetric_closed_above(generators)
            if args.symmetric
            else simple_closed_above(generators[0])
        )
        task = KSetAgreement(args.k, range(args.k + 1))
        report = verify_algorithm(
            FloodMin(args.rounds), model, task, superset_samples=args.samples
        )
    except ReproError as exc:
        _usage_error(f"verify: {exc}")
    status = "OK" if report.ok else "FAILED"
    print(
        f"FloodMin({args.rounds}) @ k={args.k}: {status} over "
        f"{report.executions} executions"
    )
    for failure in report.failures[:3]:
        print(f"  counterexample: inputs={failure.inputs} "
              f"decisions={failure.decisions}")
    return 0 if report.ok else 1


def _executor_for(args: argparse.Namespace):
    """Executor from ``--jobs`` / ``--distributed`` (None = plain jobs).

    One chokepoint: the namespace is lifted onto an
    :class:`repro.config.ExecutorConfig` and the executor built from it,
    so the CLI and programmatic surfaces cannot drift.
    """
    if getattr(args, "distributed", None) is None:
        return None
    from .config import ExecutorConfig
    from .errors import ConfigError, DistError

    try:
        config = ExecutorConfig.from_args(args)
        return config.make(
            log=lambda message: print(f"[dist] {message}", file=sys.stderr),
        )
    except (ConfigError, DistError) as exc:
        raise SystemExit(f"--distributed: {exc}") from exc


def _start_trace(args: argparse.Namespace) -> str | None:
    """Enable span recording for this invocation when ``--trace`` was given.

    Returns the target path (or ``None``), for :func:`_finish_trace`.
    ``REPRO_TRACE=FILE`` reaches the same switch at import time, so the
    flag only needs to handle the explicit opt-in.
    """
    path = getattr(args, "trace", None)
    if not path:
        return None
    from .obs import configure_trace

    configure_trace(path)
    return path


def _finish_trace(path: str | None) -> None:
    """Drain the tracer into the Chrome trace file, if tracing was on."""
    if not path:
        return
    from .obs import write_trace

    count = write_trace(path)
    print(f"[trace] wrote {count} event(s) to {path}", file=sys.stderr)


def cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis.experiments import run

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be a positive integer, got {args.jobs}")
    trace_path = _start_trace(args)
    run(args.ids or None, jobs=args.jobs, executor=_executor_for(args))
    _finish_trace(trace_path)
    return 0


def _check_probe_args(command: str, args: argparse.Namespace) -> None:
    """Exit 1 with one line on stderr if the probe workload cannot run.

    The workload (``engine.diagnostics``) builds a wheel on ``--n``
    processes, and it compares a cold pass with warm ones.
    """
    if args.n < 3:
        raise SystemExit(
            f"{command}: --n must be at least 3 (a wheel needs 3 "
            f"processes), got {args.n}"
        )
    if args.passes < 2:
        raise SystemExit(
            f"{command}: --passes must be at least 2 (one cold, one warm), "
            f"got {args.passes}"
        )


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from .engine.diagnostics import cache_probe

    _check_probe_args("cache-stats", args)
    report = cache_probe(n=args.n, passes=args.passes)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.render import render_table
    from .analysis.sweeps import solvability_sweep
    from .config import SweepConfig
    from .errors import ConfigError, DistError

    try:
        config = SweepConfig.from_args(args)
    except ConfigError as exc:
        raise SystemExit(f"sweep: {exc}") from exc
    trace_path = _start_trace(args)
    try:
        report = solvability_sweep(
            config=config,
            executor=_executor_for(args),
            checkpoint_path=args.checkpoint,
            resume_from=args.resume_from,
        )
    except DistError as exc:
        # A missing/mismatched checkpoint must fail loudly, not silently
        # become a fresh run.
        raise SystemExit(f"sweep: {exc}") from exc
    if args.json:
        payload = {
            "n": report.n,
            "config": report.config_fingerprint,
            "total_classes": report.total_classes,
            "sharded": report.sharded,
            "resumed": report.resumed,
            "replayed": report.replayed,
            "checkpoint_dropped": report.checkpoint_dropped,
            "backend": report.backend,
            "classes": [cls.to_dict() for cls in report.classes],
            "headers": report.headers,
            "rows": [[repr(cell) for cell in row] for row in report.rows],
            "cache": report.batch.stats.to_dict(),
        }
        if report.batch.store_stats is not None:
            payload["store"] = report.batch.store_stats.to_dict()
        if report.batch.dist_metrics is not None:
            payload["dist"] = report.batch.dist_metrics
        print(json.dumps(payload, indent=2))
    else:
        print(render_table(report.headers, report.rows))
        print(report.describe())
        if report.batch.dist_metrics is not None:
            from .engine.batch import describe_dist_metrics

            print(describe_dist_metrics(report.batch.dist_metrics))
    _finish_trace(trace_path)
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .dist import Supervisor, parse_address, resolve_spawn, run_workers
    from .errors import DistError

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be a positive integer, got {args.jobs}")
    log = lambda message: print(message, file=sys.stderr)  # noqa: E731
    try:
        host, port = parse_address(args.connect)
        if args.spawn is not None:
            # Supervised fleet: keep N workers alive across crashes.
            workers = resolve_spawn(args.spawn)
            report = Supervisor(
                host,
                port,
                workers=workers,
                retry=args.retry,
                max_respawns=args.max_respawns,
                log=log,
            ).run()
            print(report.describe())
            return 0 if report.clean else 1
        reports = run_workers(
            host,
            port,
            jobs=args.jobs,
            retry=args.retry,
            log=log,
        )
    except DistError as exc:
        raise SystemExit(f"worker: {exc}") from exc
    for report in reports:
        print(report.describe())
    return 0


def _render_dist_status(address: str, status: dict) -> str:
    """The human rendering of one coordinator status snapshot."""
    lines = [
        f"coordinator {address}: "
        f"{status['completed']}/{status['jobs']} jobs done, "
        f"queue depth {status['queue_depth']}, "
        f"{status['leases']} lease(s), {status['requeues']} requeue(s), "
        f"{status.get('respawns', 0)} respawn(s), "
        f"{status.get('replayed', 0)} replayed"
        + (
            " [cost-scaled leases]"
            if status.get("lease_scaling")
            else ""
        ),
        f"  store seeding {'on' if status['seed_store'] else 'off'}, "
        f"remote loads {'on' if status['remote_loads'] else 'off'}: "
        f"{status['rows_seeded']} row(s) seeded, "
        f"{status['loads_served']} load(s) served",
    ]
    if status.get("reductions_total"):
        lines.append(
            f"  reductions: {status['reductions_done']}"
            f"/{status['reductions_total']} fired"
        )
    for worker in status["workers"]:
        lines.append(
            f"  worker {worker['worker']}: {worker['completed']} done, "
            f"{worker['failed']} failed, "
            f"{worker['jobs_per_minute']:.1f} jobs/min, "
            f"{worker['seeded_rows']} seeded, "
            f"{worker['loads_served']} served, "
            f"idle {worker['idle']:.1f}s"
        )
    return "\n".join(lines)


def cmd_dist(args: argparse.Namespace) -> int:
    from .dist import probe_status, render_status_json, watch_status
    from .errors import DistError

    # argparse restricts action to "status" already.
    try:
        if args.watch is not None:
            render = (
                None
                if args.json
                else lambda status: _render_dist_status(args.address, status)
            )
            watch_status(
                args.address,
                interval=args.watch,
                count=args.count,
                render=render,
                timeout=args.timeout,
            )
            return 0
        status = probe_status(args.address, timeout=args.timeout)
    except DistError as exc:
        raise SystemExit(f"dist status: {exc}") from exc
    if args.json:
        print(render_status_json(status, indent=2))
        return 0
    print(_render_dist_status(args.address, status))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import describe_summary, load_trace, summarize_trace

    # argparse restricts action to "summary" already.
    try:
        events = load_trace(args.file)
    except OSError as exc:
        raise SystemExit(f"trace summary: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"trace summary: {args.file}: not a trace file "
                         f"({exc})") from exc
    summary = summarize_trace(events)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(describe_summary(summary, top=args.top))
    return 0


def _store_for_cli(args: argparse.Namespace, mode: str):
    """The global store, reconfigured for this invocation when needed.

    ``store`` subcommands should work on an explicit ``--path`` (or the
    ``REPRO_STORE_PATH`` default) even when ``REPRO_STORE`` is unset, so
    the management CLI never depends on the tiering switch.
    """
    from . import store as store_pkg

    path = args.path or store_pkg.RESULT_STORE.path
    return store_pkg.configure(path=path, mode=mode)


#: ``store`` actions that operate on an *existing* file.  Opening them in
#: rw mode would otherwise create an empty schema-initialised database as
#: a side effect, making a typo'd ``--path`` report a vacuously healthy
#: store.  (``stats`` reports a missing file explicitly; ``probe`` is
#: expected to create/populate the store.)
_STORE_ACTIONS_NEED_FILE = ("vacuum", "clear", "export", "integrity", "prune")


def cmd_store(args: argparse.Namespace) -> int:
    import os

    from . import store as store_pkg
    from .errors import StoreError

    action = args.action
    target = args.path or store_pkg.RESULT_STORE.path
    if action in _STORE_ACTIONS_NEED_FILE and not os.path.exists(target):
        raise SystemExit(f"store {action}: no store file at {target}")
    try:
        if action == "stats":
            store = _store_for_cli(args, "ro")
            info = store.db_stats()
            session = store.stats()
            if args.json:
                print(
                    json.dumps(
                        {"db": info, "session": session.to_dict()}, indent=2
                    )
                )
            else:
                print(
                    f"store {info['path']} (mode {info['mode']}): "
                    f"{info['entries']} entries, {info['file_bytes']} bytes, "
                    f"{info['stale_entries']} stale"
                )
                for row in info["kernels"]:
                    marker = " [stale]" if row["stale"] else ""
                    print(
                        f"  {row['kernel']} @ {row['version']}: "
                        f"{row['entries']} entries, "
                        f"{row['value_bytes']} bytes{marker}"
                    )
        elif action == "probe":
            from .engine.diagnostics import store_probe

            _check_probe_args("store probe", args)
            _store_for_cli(args, "rw")
            report = store_probe(n=args.n, passes=args.passes)
            if args.json:
                print(json.dumps(report.to_dict(), indent=2))
            else:
                print(report.describe())
        elif action == "vacuum":
            # Import the kernel-bearing packages so every kernel version
            # is registered before staleness is judged.
            from . import analysis  # noqa: F401

            store = _store_for_cli(args, "rw")
            result = store.vacuum()
            print(
                f"vacuum: deleted {result['deleted']} stale entries, "
                f"{result['remaining']} remain"
            )
        elif action == "prune":
            if args.max_age_days is None and args.max_size_mb is None:
                raise SystemExit(
                    "store prune requires --max-age-days and/or --max-size-mb"
                )
            store = _store_for_cli(args, "rw")
            result = store.prune(
                max_age_days=args.max_age_days,
                max_size_mb=args.max_size_mb,
            )
            print(
                f"prune: evicted {result['deleted_age']} by age, "
                f"{result['deleted_size']} by size; "
                f"{result['remaining']} remain "
                f"({result['file_bytes']} bytes)"
            )
        elif action == "clear":
            store = _store_for_cli(args, "rw")
            removed = store.clear()
            print(f"clear: removed {removed} entries")
        elif action == "export":
            if not args.out:
                raise SystemExit("store export requires --out PATH")
            store = _store_for_cli(args, "ro")
            copied = store.export(args.out)
            print(f"export: copied {copied} entries to {args.out}")
        elif action == "integrity":
            store = _store_for_cli(args, "rw")
            report = store.integrity_report()
            if args.json:
                print(json.dumps(report, indent=2))
            else:
                status = "OK" if report["ok"] else "CORRUPT"
                print(
                    f"integrity: {status} — {report['entries']} entries, "
                    f"{report['corrupt']} corrupt, "
                    f"quick_check={report['quick_check']}"
                )
            return 0 if report["ok"] else 1
        else:  # pragma: no cover - argparse restricts choices
            raise SystemExit(f"unknown store action {action!r}")
    except StoreError as exc:
        raise SystemExit(f"store {action}: {exc}") from exc
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="K-set agreement bounds in round-based models "
        "(Shimi & Castañeda, PODC 2020) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, help="graph family name")
        p.add_argument("--n", type=int, required=True, help="process count")
        p.add_argument("--centers", help="for union_of_stars: e.g. 0,1")
        p.add_argument(
            "--symmetric", action="store_true",
            help="use the symmetric closure of the generator",
        )

    def add_backend_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=("auto", "reference", "bitset", "sat", "check"),
            default=None,
            help="CSP compute backend (default: REPRO_CSP_BACKEND, else "
            "auto = bitset).  'reference' is the original pure-Python "
            "search, 'bitset' the bitmask re-encoding, 'sat' a CNF "
            "encoding via python-sat (optional dependency), 'check' runs "
            "every available backend and asserts identical verdicts",
        )

    p_bounds = sub.add_parser("bounds", help="print the paper's bound report")
    add_model_args(p_bounds)
    p_bounds.add_argument("--rounds", type=int, default=1)
    p_bounds.set_defaults(func=cmd_bounds)

    p_search = sub.add_parser(
        "search", help="exact one-round solvability (CSP search)"
    )
    add_model_args(p_search)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument(
        "--full", action="store_true",
        help="search over the fully enumerated model (small n only)",
    )
    p_search.add_argument(
        "--budget", type=int, default=1 << 12,
        help="with --full: cap on the enumerated model's graph count",
    )
    add_backend_arg(p_search)
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser(
        "verify", help="exhaustively verify FloodMin at a given k"
    )
    add_model_args(p_verify)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--rounds", type=int, default=1)
    p_verify.add_argument("--samples", type=int, default=5)
    p_verify.set_defaults(func=cmd_verify)

    def add_distributed_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--distributed", metavar="HOST:PORT",
            help="serve the jobs from a TCP coordinator bound here instead "
            "of a local pool; run 'python -m repro worker --connect "
            "HOST:PORT' (any machine) to execute them.  ':PORT' binds "
            "127.0.0.1; bind 0.0.0.0:PORT explicitly for remote workers "
            "(trusted networks only — the job protocol is pickled frames)",
        )
        p.add_argument(
            "--seed-store", choices=("on", "off"), default="on",
            help="with --distributed and an active result store: stream "
            "the store's relevant rows to each connecting worker at "
            "handshake and answer worker store misses over the wire, so "
            "remote hosts start warm without a shared filesystem "
            "(default: on)",
        )

    def add_trace_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", metavar="FILE",
            help="record spans from every layer (kernel calls with cache-"
            "tier attribution, store flushes, job lifecycle, coordinator "
            "events — including remote workers' spans, shipped home with "
            "their results) into a Chrome trace_event JSON file; open it "
            "in Perfetto, or run 'python -m repro trace summary FILE'.  "
            "REPRO_TRACE=FILE does the same for any command",
        )

    p_exp = sub.add_parser("experiments", help="run experiment tables")
    p_exp.add_argument("ids", nargs="*", help="e.g. E1 E6 (default: all)")
    p_exp.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment batch (default: 1)",
    )
    add_distributed_arg(p_exp)
    add_trace_arg(p_exp)
    p_exp.set_defaults(func=cmd_experiments)

    p_worker = sub.add_parser(
        "worker",
        help="work for a distributed coordinator: pull jobs, execute them "
        "through the local cache/store tiers, stream results back",
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (the --distributed value of the "
        "sweep/experiments run being served)",
    )
    p_worker.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes to run against the coordinator (default: 1)",
    )
    p_worker.add_argument(
        "--retry", type=float, default=10.0,
        help="seconds to keep retrying the initial connection, so workers "
        "may be started before the coordinator (default: 10)",
    )
    p_worker.add_argument(
        "--spawn", metavar="auto|N", default=None,
        help="supervised mode: keep N worker processes ('auto' sizes to "
        "this machine's cores) alive against the coordinator, respawning "
        "any that die without reporting (SIGKILL, OOM) after a jittered "
        "backoff; respawned workers reconnect warm via the incremental "
        "store seed digest.  Supersedes --jobs",
    )
    p_worker.add_argument(
        "--max-respawns", type=int, default=3,
        help="with --spawn: restart budget per worker slot before the "
        "slot is abandoned with an error (default: 3)",
    )
    p_worker.set_defaults(func=cmd_worker)

    p_dist = sub.add_parser(
        "dist",
        help="inspect distributed runs: 'status HOST:PORT' probes a live "
        "coordinator for queue depth, leases, per-worker throughput and "
        "store seeding counters",
    )
    p_dist.add_argument("action", choices=("status",))
    p_dist.add_argument(
        "address", metavar="HOST:PORT",
        help="the coordinator's --distributed address",
    )
    p_dist.add_argument(
        "--timeout", type=float, default=5.0,
        help="seconds to wait for the probe reply (default: 5)",
    )
    p_dist.add_argument(
        "--watch", type=float, default=None, metavar="N",
        help="poll every N seconds instead of probing once, clearing and "
        "reprinting the panel, until the coordinator goes away (the run "
        "finished); with --json, emits one JSON object per poll line",
    )
    p_dist.add_argument(
        "--count", type=int, default=None, metavar="K",
        help="with --watch: stop after K polls (default: until the "
        "coordinator goes away)",
    )
    p_dist.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    p_dist.set_defaults(func=cmd_dist)

    p_trace = sub.add_parser(
        "trace",
        help="inspect recorded traces: 'summary FILE' aggregates a Chrome "
        "trace written by --trace / REPRO_TRACE (top kernels by self-time, "
        "cache-tier hit rates, per-worker utilization, stragglers)",
    )
    p_trace.add_argument("action", choices=("summary",))
    p_trace.add_argument(
        "file", help="trace file written by --trace FILE / REPRO_TRACE=FILE"
    )
    p_trace.add_argument(
        "--top", type=int, default=8,
        help="kernels to list in the self-time table (default: 8)",
    )
    p_trace.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_cache = sub.add_parser(
        "cache-stats",
        help="probe the kernel cache: cold vs warm pass timings and hit rates",
    )
    p_cache.add_argument(
        "--n", type=int, default=5, help="process count of the probe families"
    )
    p_cache.add_argument(
        "--passes", type=int, default=3, help="workload passes (first is cold)"
    )
    p_cache.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    p_cache.set_defaults(func=cmd_cache_stats)

    p_sweep = sub.add_parser(
        "sweep",
        help="exhaustive solvability sweep, sharded by isomorphism class "
        "(resumable against a persistent store)",
    )
    p_sweep.add_argument(
        "--n", type=int, default=4, help="process count (default: 4)"
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the shards"
    )
    p_sweep.add_argument(
        "--limit", type=int, default=None,
        help="only run the first K isomorphism classes (incremental runs)",
    )
    p_sweep.add_argument(
        "--budget", type=int, default=1 << 12,
        help="cap on each class's fully enumerated model",
    )
    p_sweep.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="snapshot queue progress (completed job names, requeues) "
        "atomically to FILE as shards land, alongside the store; a "
        "killed sweep resumes from it with --resume-from",
    )
    p_sweep.add_argument(
        "--resume-from", metavar="FILE", default=None, dest="resume_from",
        help="rehydrate the remaining plan from a checkpoint written by "
        "an earlier --checkpoint run: completed jobs replay as warm "
        "store hits (zero kernel recompute), only the remainder is "
        "scheduled.  Pass the same FILE to both flags for a "
        "crash-restart loop",
    )
    p_sweep.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    add_backend_arg(p_sweep)
    add_distributed_arg(p_sweep)
    add_trace_arg(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_store = sub.add_parser(
        "store",
        help="manage the persistent result store (REPRO_STORE / "
        "REPRO_STORE_PATH)",
    )
    p_store.add_argument(
        "action",
        choices=(
            "stats", "probe", "vacuum", "clear", "export", "integrity",
            "prune",
        ),
    )
    p_store.add_argument(
        "--path", help="store file (default: REPRO_STORE_PATH or "
        ".repro-store.sqlite)",
    )
    p_store.add_argument(
        "--out", help="destination file for 'export'",
    )
    p_store.add_argument(
        "--max-age-days", type=float, default=None,
        help="prune: evict rows not used (read or written) in this many days",
    )
    p_store.add_argument(
        "--max-size-mb", type=float, default=None,
        help="prune: evict least-recently-used rows until the file fits",
    )
    p_store.add_argument(
        "--n", type=int, default=6,
        help="probe: process count (6 makes the cold pass heavy enough "
        "that the warm-start speedup is unambiguous)",
    )
    p_store.add_argument(
        "--passes", type=int, default=2, help="probe: workload passes"
    )
    p_store.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    p_store.set_defaults(func=cmd_store)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
