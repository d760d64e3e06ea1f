"""Command-line interface.

Usage::

    python -m repro bounds --family wheel --n 4 [--symmetric] [--rounds 2]
    python -m repro search --family cycle --n 4 --k 1 [--full]
    python -m repro verify --family cycle --n 4 --k 2 [--rounds 3]
    python -m repro experiments [E1 E6 ...] [--jobs 4 | --distributed :7071]
                                [--trace FILE]
    python -m repro cache-stats [--n 5] [--passes 3] [--json]
    python -m repro sweep --n 4 [--jobs 4 | --distributed :7071] [--limit K]
                          [--budget 4096]
                          [--trace FILE]
                          [--checkpoint FILE] [--resume-from FILE]
    python -m repro worker --connect HOST:7071 [--jobs 2] [--retry 30]
    python -m repro dist status HOST:7071 [--json] [--watch N [--count K]] [--timeout S]
    python -m repro trace summary FILE [--json] [--top 8]
    python -m repro store stats [--json]
    python -m repro store probe [--n 5] [--passes 2] [--json]
    python -m repro store vacuum | integrity

``--family`` names any zero/one-argument constructor from
:mod:`repro.graphs.families` (star, cycle, wheel, path, out_tree,
tournament, ...); ``union_of_stars`` additionally takes ``--centers``.

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
connecting remote worker at handshake, so hosts without a shared
filesystem start warm; ``python -m repro dist status HOST:PORT`` probes
a live coordinator for queue depth, leases, per-worker throughput, and
rows seeded (``--watch N`` polls).

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
        result = decide_one_round_solvability(pool, args.k)
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
    """The :class:`~repro.dist.DistExecutor` that ``--distributed`` asks
    for, or ``None`` to run on this host with ``--jobs``.

    A bad address exits with one line; ``run_batch`` checks ``--jobs``
    either way.
    """
    if getattr(args, "distributed", None) is None:
        return None
    from .dist import DistExecutor
    from .errors import DistError

    try:
        return DistExecutor(
            args.distributed,
            seed_store=args.seed_store == "on",
            log=lambda message: print(f"[dist] {message}", file=sys.stderr),
        )
    except DistError as exc:
        raise SystemExit(f"{args.command}: {exc}") from exc


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
    from .errors import ConfigError

    trace_path = _start_trace(args)
    try:
        run(args.ids or None, jobs=args.jobs, executor=_executor_for(args))
    except ConfigError as exc:
        raise SystemExit(f"experiments: {exc}") from exc
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
    from .analysis.sweeps import check_sweep_values, solvability_sweep
    from .engine.batch import JobError
    from .errors import ConfigError, DistError

    # Before the executor and the tracer: a bad value is one line, with
    # or without --distributed.
    try:
        check_sweep_values(
            args.n, jobs=args.jobs, limit=args.limit, budget=args.budget
        )
    except ConfigError as exc:
        raise SystemExit(f"sweep: {exc}") from exc
    trace_path = _start_trace(args)
    try:
        report = solvability_sweep(
            args.n,
            jobs=args.jobs,
            limit=args.limit,
            budget=args.budget,
            executor=_executor_for(args),
            checkpoint_path=args.checkpoint,
            resume_from=args.resume_from,
        )
    except (DistError, JobError) as exc:
        # One line naming what failed: a missing or mismatched checkpoint
        # (which must not silently become a fresh run), or every failed
        # job, after the others were banked.
        raise SystemExit(f"sweep: {exc}") from exc
    if args.json:
        payload = {
            "n": report.n,
            "total_classes": report.total_classes,
            "sharded": report.sharded,
            "resumed": report.resumed,
            "replayed": report.replayed,
            "checkpoint_dropped": report.checkpoint_dropped,
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
    from .dist import parse_address, run_workers
    from .errors import ConfigError, DistError

    try:
        host, port = parse_address(args.connect)
        reports = run_workers(
            host,
            port,
            jobs=args.jobs,
            retry=args.retry,
            log=lambda message: print(message, file=sys.stderr),
        )
    except (ConfigError, DistError) as exc:
        raise SystemExit(f"worker: {exc}") from exc
    for report in reports:
        print(report.describe())
    return 0


def _render_dist_status(address: str, status: dict) -> str:
    """The human rendering of one coordinator status snapshot.

    The queue lines are status-only; the counters and per-worker rows
    are :func:`~repro.engine.batch.describe_dist_metrics`, the same
    formatter as the sweep and experiment footers.
    """
    from .engine.batch import describe_dist_metrics

    return "\n".join([
        f"coordinator {address}: "
        f"{status['completed']}/{status['jobs']} jobs done, "
        f"queue depth {status['queue_depth']}, "
        f"{status['leases']} lease(s)",
        f"  store seeding {'on' if status['seed_store'] else 'off'}",
        describe_dist_metrics(status),
    ])


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
    if args.top < 0:
        raise SystemExit(
            f"trace summary: --top must be at least 0, got {args.top}"
        )
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
_STORE_ACTIONS_NEED_FILE = ("vacuum", "integrity")


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
            # A store that cannot be opened counts every write and keeps
            # none, so refuse it (StoreError) before the first pass.
            _store_for_cli(args, "rw").db_stats()
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
            "handshake, so remote hosts start warm without a shared "
            "filesystem (default: on)",
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
        choices=("stats", "probe", "vacuum", "integrity"),
    )
    p_store.add_argument(
        "--path", help="store file (default: REPRO_STORE_PATH or "
        ".repro-store.sqlite)",
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
