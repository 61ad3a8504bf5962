"""Command-line interface: ``python -m repro <command>`` / ``repro-sched``.

Commands
--------
``generate``   write a synthetic instance (JSON) from one of the families
``solve``      solve an instance file (or a generated family) with any solver
``compare``    run several solvers on one instance and print a comparison table
``experiments``run the DESIGN.md experiments (E1…E10) and print their tables
``constants``  print the paper's derived constants / Lemma-6 sizes for an eps
``orch``       persistent parallel experiment orchestration
               (run/plan/status/priors/reset/export), plus the distributed
               fleet commands: ``serve`` (own a store, serve it over TCP)
               and ``worker --connect`` (drain a served store remotely)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .bounds import best_lower_bound
from .core import Instance, SolverResult
from .eptas import theory_constants_report
from .experiments import EXPERIMENTS, run_experiment
from .experiments.tables import ExperimentTable
from .generators import FAMILIES, generate
from .solvers import SOLVER_ROSTER

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Machine scheduling with bag-constraints: EPTAS reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic instance")
    gen.add_argument("family", choices=sorted(FAMILIES), help="instance family")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--machines", type=int, default=None)
    gen.add_argument("--jobs", type=int, default=None)
    gen.add_argument("--output", "-o", type=Path, default=None, help="output JSON path")

    solve = sub.add_parser("solve", help="solve an instance with one solver")
    solve.add_argument("instance", type=Path, help="instance JSON file")
    solve.add_argument("--solver", choices=sorted(SOLVER_ROSTER), default="eptas")
    solve.add_argument("--eps", type=float, default=0.25)
    solve.add_argument("--output", "-o", type=Path, default=None, help="schedule JSON path")

    compare = sub.add_parser("compare", help="run several solvers on one instance")
    compare.add_argument("instance", type=Path)
    compare.add_argument(
        "--solvers", nargs="+", choices=sorted(SOLVER_ROSTER), default=["greedy", "lpt", "eptas"]
    )
    compare.add_argument("--eps", type=float, default=0.25)

    experiments = sub.add_parser("experiments", help="run DESIGN.md experiments")
    experiments.add_argument(
        "ids", nargs="*", default=sorted(EXPERIMENTS), help="experiment ids (default: all)"
    )
    experiments.add_argument("--full", action="store_true", help="full (slow) variant")
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument("--markdown", action="store_true", help="emit markdown tables")
    experiments.add_argument("--csv-dir", type=Path, default=None, help="also write CSVs here")

    constants = sub.add_parser("constants", help="print derived constants for an eps")
    constants.add_argument("--eps", type=float, default=0.25)

    lint = sub.add_parser(
        "lint",
        help="check the repo-specific invariants of the distributed stack "
        "(op-id threading, store-layer SQLite, framed sockets, ...)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: this installation's "
        "src/repro tree)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit findings as a JSON array"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )

    racecheck_dump = sub.add_parser(
        "racecheck-dump",
        help="render the race checker's observed lock-order graph "
        "(live, or from a $REPRO_RACECHECK_DUMP JSON file) as DOT or JSON",
    )
    racecheck_dump.add_argument(
        "input",
        nargs="?",
        type=Path,
        default=None,
        help="edges JSON written by a REPRO_RACECHECK_DUMP=path process "
        "(default: this process's live graph)",
    )
    racecheck_dump.add_argument(
        "--format",
        choices=("dot", "json"),
        default="dot",
        help="output format (default: dot, for Graphviz/CI artifacts)",
    )
    racecheck_dump.add_argument(
        "--output", "-o", type=Path, default=None, help="write here instead of stdout"
    )

    orch = sub.add_parser(
        "orch", help="persistent parallel experiment orchestration (SQLite-backed)"
    )
    orch_sub = orch.add_subparsers(dest="orch_command", required=True)

    def _add_db(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--db",
            type=Path,
            default=None,
            help="store path (default: $REPRO_ORCH_DB or ./orchestration.db)",
        )

    orch_run = orch_sub.add_parser(
        "run", help="expand grids into the store and drain them with workers"
    )
    orch_run.add_argument(
        "experiments", nargs="+", help="experiment names (e1…e10, smoke)"
    )
    _add_db(orch_run)
    orch_run.add_argument("--workers", type=int, default=2, help="worker processes")
    orch_run.add_argument("--seed", type=int, default=0)
    mode = orch_run.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="quick grids (default)")
    mode.add_argument("--full", action="store_true", help="full (slow) grids")
    orch_run.add_argument(
        "--stale-after",
        type=float,
        default=600.0,
        help="reclaim 'running' rows older than this many seconds (0 = all)",
    )
    orch_run.add_argument(
        "--no-cache", action="store_true", help="disable the persistent result cache"
    )
    orch_run.add_argument(
        "--no-populate",
        action="store_true",
        help="only drain rows already in the store (skip grid expansion)",
    )
    orch_run.add_argument(
        "--no-plan",
        action="store_true",
        help="skip the scheduler: no prerequisite hoisting, FIFO claiming "
        "(priorities already in the store still apply); implies --no-replan",
    )
    replan_mode = orch_run.add_mutually_exclusive_group()
    replan_mode.add_argument(
        "--replan-every",
        type=int,
        default=None,
        metavar="N",
        help="online re-planning cadence: refit the cost model and re-rank "
        "pending rows every N landed completions (default: 5)",
    )
    replan_mode.add_argument(
        "--no-replan",
        action="store_true",
        help="freeze priorities at the initial plan (no mid-drain refit)",
    )
    orch_run.add_argument(
        "--fifo-every",
        type=int,
        default=None,
        metavar="N",
        help="bounded-wait interleave: every N-th claim takes the oldest "
        "pending row (default: store default of 4; 0 = pure priority order)",
    )
    orch_run.add_argument(
        "--save-priors",
        type=Path,
        default=None,
        metavar="FILE",
        help="after the run, fit the cost model from this store's measured "
        "history and write it as a priors JSON (ready for "
        "`repro orch priors import` into another store)",
    )

    orch_serve = orch_sub.add_parser(
        "serve",
        help="own a local store and serve it to remote workers over TCP "
        "(SQLite is unsafe on network filesystems; this is the "
        "multi-machine path)",
    )
    orch_serve.add_argument("db", type=Path, help="store path to own and serve")
    orch_serve.add_argument(
        "--create",
        action="store_true",
        help="create the store file if it does not exist (without this, a "
        "missing path is an error — a typo must not serve an empty store "
        "the whole fleet then drains as a no-op)",
    )
    orch_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: loopback only; pass 0.0.0.0 to "
        "accept remote workers — set a --token when you do)",
    )
    orch_serve.add_argument(
        "--port",
        type=int,
        # Mirrors repro.distributed.protocol.DEFAULT_PORT; literal here so
        # building the parser never imports the orchestration stack.
        default=7479,
        help="TCP port (default: 7479; 0 = ephemeral, printed on startup)",
    )
    orch_serve.add_argument(
        "--token",
        default=None,
        help="shared secret required on every request "
        "(default: $REPRO_ORCH_TOKEN; unset = no auth)",
    )
    orch_serve.add_argument(
        "--fifo-every",
        type=int,
        default=None,
        metavar="N",
        help="bounded-wait interleave of the served store (global across "
        "all remote workers)",
    )

    orch_schedule_serve = orch_sub.add_parser(
        "schedule-serve",
        help="long-running scheduling service: accept ad-hoc instances from "
        "many concurrent clients, cache-probe, cost-model admission, "
        "journaled execution (crash-safe resume)",
    )
    _add_db(orch_schedule_serve)
    orch_schedule_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: loopback only; pass 0.0.0.0 to "
        "accept remote clients — set a --token when you do)",
    )
    orch_schedule_serve.add_argument(
        "--port",
        type=int,
        # Mirrors repro.service.DEFAULT_SCHEDULE_PORT; literal here so
        # building the parser never imports the service stack.
        default=7481,
        help="TCP port (default: 7481; 0 = ephemeral, printed on startup)",
    )
    orch_schedule_serve.add_argument(
        "--token",
        default=None,
        help="shared secret required on every request "
        "(default: $REPRO_ORCH_TOKEN; unset = no auth)",
    )
    orch_schedule_serve.add_argument(
        "--executors",
        type=int,
        default=2,
        help="executor threads draining the request journal (default: 2)",
    )
    orch_schedule_serve.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="admission budget: reject requests whose cost-model expected "
        "duration exceeds this many seconds (default: admit everything)",
    )
    orch_schedule_serve.add_argument(
        "--retry-errors",
        type=int,
        default=0,
        metavar="N",
        help="re-open an errored journal row for up to N fresh submissions "
        "of the same request (default: 0 = failures stay terminal; op-id "
        "replays never consume the budget)",
    )
    orch_submit = orch_sub.add_parser(
        "submit",
        help="submit instance JSON files to a `repro orch schedule-serve` "
        "service and print the solved results",
    )
    orch_submit.add_argument(
        "instances",
        nargs="+",
        type=Path,
        help="instance JSON paths (Instance.save format, e.g. from "
        "`repro generate`)",
    )
    orch_submit.add_argument(
        "--connect",
        required=True,
        metavar="HOST[:PORT]",
        help="schedule service address (port defaults to 7481; "
        "tcp:// prefix optional)",
    )
    orch_submit.add_argument(
        "--token",
        default=None,
        help="shared secret of the service (default: $REPRO_ORCH_TOKEN)",
    )
    orch_submit.add_argument(
        "--solver",
        choices=sorted(SOLVER_ROSTER),
        default="lpt",
        help="solver to request (default: lpt)",
    )
    orch_submit.add_argument(
        "--eps",
        type=float,
        default=0.25,
        help="accuracy for eps-aware solvers (default: 0.25)",
    )
    orch_submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-request round-trip timeout in seconds — must cover a "
        "whole queued solve (default: 300)",
    )
    orch_submit.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per instance instead of a summary line",
    )

    orch_worker = orch_sub.add_parser(
        "worker",
        help="attach to a `repro orch serve` store and drain pending rows "
        "(claim/complete/re-plan loop over TCP; no populate, no planning)",
    )
    orch_worker.add_argument(
        "experiments",
        nargs="*",
        help="restrict claims to these experiments (default: everything pending)",
    )
    orch_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="store server address (tcp:// prefix optional)",
    )
    orch_worker.add_argument(
        "--token",
        default=None,
        help="shared secret of the server (default: $REPRO_ORCH_TOKEN)",
    )
    orch_worker.add_argument(
        "--workers", type=int, default=2, help="worker processes on this machine"
    )
    orch_worker.add_argument(
        "--stale-after",
        type=float,
        default=600.0,
        help="reclaim 'running' rows older than this many seconds (0 = all)",
    )
    orch_worker.add_argument(
        "--no-cache", action="store_true", help="disable the persistent result cache"
    )
    worker_replan = orch_worker.add_mutually_exclusive_group()
    worker_replan.add_argument(
        "--replan-every",
        type=int,
        default=None,
        metavar="N",
        help="online re-planning cadence (default: 5)",
    )
    worker_replan.add_argument(
        "--no-replan",
        action="store_true",
        help="never win re-plan rounds from this fleet",
    )
    orch_worker.add_argument(
        "--fifo-every",
        type=int,
        default=None,
        metavar="N",
        help="override the served store's bounded-wait interleave "
        "(global across the fleet; last writer wins)",
    )

    orch_plan = orch_sub.add_parser(
        "plan",
        help="populate grids, hoist shared prerequisites and assign "
        "cost-model claim priorities — without running anything",
    )
    orch_plan.add_argument(
        "experiments", nargs="+", help="experiment names (e1…e10, smoke)"
    )
    _add_db(orch_plan)
    orch_plan.add_argument("--seed", type=int, default=0)
    plan_mode = orch_plan.add_mutually_exclusive_group()
    plan_mode.add_argument("--quick", action="store_true", help="quick grids (default)")
    plan_mode.add_argument("--full", action="store_true", help="full (slow) grids")
    orch_plan.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker count for the projected-makespan simulation",
    )

    def _add_connect(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--connect",
            default=None,
            metavar="HOST:PORT",
            help="read from a `repro orch serve` server instead of a local file",
        )
        p.add_argument(
            "--token",
            default=None,
            help="shared secret of the server (default: $REPRO_ORCH_TOKEN)",
        )

    orch_status = orch_sub.add_parser("status", help="per-experiment status counts")
    _add_db(orch_status)
    _add_connect(orch_status)
    orch_status.add_argument(
        "--json",
        action="store_true",
        help="print the dashboard snapshot JSON (the /snapshot.json shape) "
        "instead of the table",
    )

    orch_dashboard = orch_sub.add_parser(
        "dashboard",
        help="live HTML dashboard (+ JSON snapshot and Prometheus /metrics) "
        "over a store file or a running `repro orch serve` server",
    )
    orch_dashboard.add_argument(
        "experiments",
        nargs="*",
        help="restrict the grid sections to these store experiment names "
        "(default: everything in the store)",
    )
    _add_db(orch_dashboard)
    _add_connect(orch_dashboard)
    orch_dashboard.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="interface the dashboard binds (default: loopback only)",
    )
    orch_dashboard.add_argument(
        "--http-port",
        type=int,
        # Mirrors repro.observability.dashboard.DEFAULT_DASHBOARD_PORT;
        # literal so building the parser never imports the stack.
        default=7482,
        help="HTTP port (default: 7482; 0 = ephemeral, printed on startup)",
    )
    orch_dashboard.add_argument(
        "--refresh",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="snapshot cache lifetime and page poll interval (default: 0.5)",
    )
    orch_dashboard.add_argument(
        "--spans",
        type=int,
        default=50,
        metavar="N",
        help="journaled trace spans per snapshot (default: 50)",
    )

    orch_priors = orch_sub.add_parser(
        "priors",
        help="ship fitted per-experiment cost scales between stores, so a "
        "fresh store schedules well before its first duration lands",
    )
    priors_sub = orch_priors.add_subparsers(dest="priors_command", required=True)
    priors_export = priors_sub.add_parser(
        "export", help="fit the cost model from this store and write priors JSON"
    )
    _add_db(priors_export)
    priors_export.add_argument(
        "--output",
        "-o",
        type=Path,
        default=Path("priors.json"),
        help="priors JSON path (default: priors.json)",
    )
    priors_import = priors_sub.add_parser(
        "import",
        help="load a priors JSON into this store and re-rank its pending rows",
    )
    _add_db(priors_import)
    priors_import.add_argument("path", type=Path, help="priors JSON file")

    orch_reset = orch_sub.add_parser(
        "reset", help="move rows back to 'pending' (results cleared, cache kept)"
    )
    orch_reset.add_argument("experiments", nargs="*", help="restrict to these experiments")
    _add_db(orch_reset)
    orch_reset.add_argument(
        "--status",
        nargs="+",
        choices=["pending", "running", "done", "error"],
        default=None,
        help="which statuses to touch (reset default: running error; "
        "--delete default: all)",
    )
    orch_reset.add_argument(
        "--clear-cache", action="store_true", help="also drop cached solver results"
    )
    orch_reset.add_argument(
        "--delete", action="store_true", help="delete the grid rows entirely instead"
    )

    orch_export = orch_sub.add_parser(
        "export", help="render completed rows as tables"
    )
    orch_export.add_argument(
        "experiments", nargs="*", help="experiment names (default: all in store)"
    )
    _add_db(orch_export)
    _add_connect(orch_export)
    orch_export.add_argument(
        "--format",
        choices=["text", "markdown", "csv", "latex"],
        default="text",
        dest="fmt",
    )
    orch_export.add_argument(
        "--full",
        action="store_true",
        help="export the full-variant grid (must match the run invocation)",
    )
    orch_export.add_argument(
        "--seed", type=int, default=0, help="grid seed (must match the run invocation)"
    )
    orch_export.add_argument(
        "--output-dir", "-o", type=Path, default=None, help="also write files here"
    )

    return parser


def _load_instance(path: Path) -> Instance:
    if not path.exists():
        raise SystemExit(f"instance file not found: {path}")
    return Instance.load(path)


def _print_result(result: SolverResult) -> None:
    print(f"solver     : {result.solver}")
    print(f"instance   : {result.instance_name}")
    print(f"makespan   : {result.makespan:.6g}")
    print(f"wall time  : {result.wall_time:.3f}s")
    bounds = best_lower_bound(result.schedule.instance)
    print(f"lower bound: {bounds.best:.6g}  (ratio <= {result.ratio_to(bounds.best):.4f})")
    if result.diagnostics:
        trimmed = {
            key: value
            for key, value in result.diagnostics.items()
            if key not in ("attempts",)
        }
        print(f"diagnostics: {json.dumps(trimmed, default=str)}")


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs: dict[str, object] = {"seed": args.seed}
    if args.machines is not None:
        kwargs["num_machines"] = args.machines
    if args.jobs is not None:
        kwargs["num_jobs"] = args.jobs
    try:
        generated = generate(args.family, **kwargs)
    except TypeError:
        # Some families do not take num_jobs; retry without it.
        kwargs.pop("num_jobs", None)
        generated = generate(args.family, **kwargs)
    instance = generated.instance
    output = args.output or Path(f"{instance.name}.json")
    instance.save(output)
    print(f"wrote {instance.num_jobs} jobs / {instance.num_bags} bags / "
          f"{instance.num_machines} machines to {output}")
    if generated.known_optimum is not None:
        print(f"known optimum: {generated.known_optimum:.6g}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    result = SOLVER_ROSTER[args.solver].run(instance, args.eps)
    _print_result(result)
    if args.output is not None:
        result.schedule.save(args.output)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    table = ExperimentTable("compare", f"solver comparison on {instance.name}")
    bounds = best_lower_bound(instance)
    for name in args.solvers:
        result = SOLVER_ROSTER[name].run(instance, args.eps)
        table.add_row(
            {
                "solver": name,
                "makespan": result.makespan,
                "ratio_to_lb": result.ratio_to(bounds.best),
                "time_s": result.wall_time,
            }
        )
    print(table.to_text())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    for experiment_id in args.ids:
        table = run_experiment(experiment_id, quick=not args.full, seed=args.seed)
        print(table.to_markdown() if args.markdown else table.to_text())
        print()
        if args.csv_dir is not None:
            args.csv_dir.mkdir(parents=True, exist_ok=True)
            table.save_csv(args.csv_dir / f"{experiment_id.lower()}.csv")
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    print(json.dumps(theory_constants_report(args.eps), indent=2))
    return 0


# ----------------------------------------------------------------------
# Orchestration subcommands
# ----------------------------------------------------------------------
def _orch_db_path(args: argparse.Namespace) -> Path:
    import os

    if args.db is not None:
        return args.db
    return Path(os.environ.get("REPRO_ORCH_DB", "orchestration.db"))


def _orch_token(args: argparse.Namespace) -> str | None:
    import os

    return getattr(args, "token", None) or os.environ.get("REPRO_ORCH_TOKEN") or None


def _connect_target(connect: str) -> str:
    return connect if connect.startswith("tcp://") else f"tcp://{connect}"


def _open_cli_store(args: argparse.Namespace):
    """The store a read-only orch command should talk to: remote or local."""
    if getattr(args, "connect", None):
        from .distributed import RemoteStore

        return RemoteStore(_connect_target(args.connect), token=_orch_token(args))
    from .orchestration import ExperimentStore

    return ExperimentStore(_orch_db_path(args))


def _store_label(args: argparse.Namespace) -> str:
    if getattr(args, "connect", None):
        return _connect_target(args.connect)
    return str(_orch_db_path(args))


def _resolve_spec_names(experiments: list[str]) -> list[str]:
    """Map user-typed names to registry names, exiting cleanly on unknowns."""
    from .orchestration import registry

    try:
        return [registry.get_spec(name).name for name in experiments]
    except KeyError as exc:
        # The KeyError message lists the available experiment names.
        raise SystemExit(f"error: {exc.args[0]}") from exc


def _resolve_replan_every(args: argparse.Namespace) -> int:
    if args.no_replan:
        return 0
    if args.replan_every is not None:
        if args.replan_every < 1:
            raise SystemExit("error: --replan-every must be >= 1 (or use --no-replan)")
        return args.replan_every
    from .orchestration.runner import DEFAULT_REPLAN_EVERY

    return DEFAULT_REPLAN_EVERY


def _cmd_orch_run(args: argparse.Namespace) -> int:
    from .orchestration import registry, run_pool

    names = _resolve_spec_names(args.experiments)
    if args.workers > 1:
        timed = [name for name in names if registry.get_spec(name).timing_sensitive]
        if timed:
            print(
                f"warning: {', '.join(sorted(timed))} measure wall-clock time inside "
                "cells; concurrent workers inflate those columns — use --workers 1 "
                "for clean timings",
                file=sys.stderr,
            )
    if args.fifo_every is not None and args.fifo_every < 0:
        raise SystemExit("error: --fifo-every must be >= 0 (0 = pure priority order)")
    replan_every = _resolve_replan_every(args)
    report = run_pool(
        _orch_db_path(args),
        names,
        workers=args.workers,
        quick=not args.full,
        seed=args.seed,
        do_populate=not args.no_populate,
        stale_after=args.stale_after,
        use_cache=not args.no_cache,
        plan=not args.no_plan,
        replan_every=replan_every,
        fifo_every=args.fifo_every,
    )
    print(
        f"populated {report.populated} new rows, reclaimed {report.reclaimed} stale rows"
    )
    if report.hoisted or report.dependency_edges:
        print(
            f"planner: hoisted {report.hoisted} shared prerequisites, "
            f"gated {report.dependency_edges} cells"
        )
    print(
        f"workers={report.workers} claimed={report.claimed} done={report.done} "
        f"errors={report.errors} replans={report.replans}"
    )
    print(f"wall_time_s={report.wall_time:.3f}")
    if args.save_priors is not None:
        from .orchestration import ExperimentStore
        from .orchestration.scheduling import CostModel, save_priors

        # Own measured history only (no re-blend of imported priors), for
        # the same reason `orch priors export` does it: re-exporting a
        # blend would re-count the same samples on every round-trip.
        with ExperimentStore(_orch_db_path(args)) as store:
            model = CostModel.fit(store, use_priors=False)
        try:
            count = save_priors(model, args.save_priors)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {args.save_priors}: {exc}") from exc
        print(f"saved priors for {count} experiments to {args.save_priors}")
    return 1 if report.errors else 0


def _cmd_orch_serve(args: argparse.Namespace) -> int:
    import signal

    from .distributed import StoreServer

    if not args.db.exists() and not args.create:
        raise SystemExit(
            f"error: store {args.db} does not exist "
            "(pass --create to serve a brand-new empty store)"
        )
    token = _orch_token(args)
    if token is None and args.host not in ("127.0.0.1", "localhost", "::1"):
        print(
            "warning: serving a non-loopback interface without --token — "
            "any network peer can mutate this store",
            file=sys.stderr,
        )
    server = StoreServer(
        args.db,
        host=args.host,
        port=args.port,
        token=token,
        fifo_every=args.fifo_every,
    )
    print(
        f"serving {args.db} on {server.url}"
        + (" (token auth)" if token else " (no auth)"),
        flush=True,
    )

    def _stop(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        print("store server stopped", flush=True)
    return 0


def _cmd_orch_dashboard(args: argparse.Namespace) -> int:
    import signal

    from .observability.dashboard import DashboardServer

    if getattr(args, "connect", None):
        target: "Path | str" = _connect_target(args.connect)
    else:
        target = _orch_db_path(args)
        if not target.exists():
            raise SystemExit(
                f"error: store {target} does not exist "
                "(point --db at a populated store or --connect at a server)"
            )
    server = DashboardServer(
        target,
        token=_orch_token(args),
        host=args.http_host,
        port=args.http_port,
        experiments=args.experiments or None,
        refresh_s=args.refresh,
        span_limit=args.spans,
    )
    print(f"dashboard for {_store_label(args)} on {server.url}", flush=True)

    def _stop(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        print("dashboard stopped", flush=True)
    return 0


def _cmd_racecheck_dump(args: argparse.Namespace) -> int:
    from .analysis import racecheck

    if args.input is not None:
        try:
            payload = json.loads(args.input.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read {args.input}: {exc}") from exc
        edges = [
            (str(edge[0]), str(edge[1]))
            for edge in payload.get("edges", [])
            if isinstance(edge, (list, tuple)) and len(edge) == 2
        ]
        violations = [str(v) for v in payload.get("violations", [])]
    else:
        edges = sorted(racecheck.iter_edges())
        violations = [str(v) for v in racecheck.violations()]
    if args.format == "json":
        text = (
            json.dumps(
                {"edges": [list(edge) for edge in edges], "violations": violations},
                indent=2,
            )
            + "\n"
        )
    else:
        text = racecheck.edges_to_dot(edges)
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {len(edges)} edge(s) to {args.output}")
    else:
        print(text, end="")
    if violations:
        print(
            f"warning: {len(violations)} recorded violation(s)", file=sys.stderr
        )
    return 0


def _cmd_orch_schedule_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import ScheduleServer

    token = _orch_token(args)
    if token is None and args.host not in ("127.0.0.1", "localhost", "::1"):
        print(
            "warning: serving a non-loopback interface without --token — "
            "any network peer can submit solves to this machine",
            file=sys.stderr,
        )
    if args.executors < 1:
        raise SystemExit("error: --executors must be >= 1")
    if args.retry_errors < 0:
        raise SystemExit("error: --retry-errors must be >= 0")

    def _stop(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _stop)
    server = ScheduleServer(
        _orch_db_path(args),
        host=args.host,
        port=args.port,
        token=token,
        executors=args.executors,
        budget=args.budget,
        retry_errors=args.retry_errors,
    )
    print(
        f"scheduling service on {server.url} "
        f"(journal {_orch_db_path(args)}, {args.executors} executors"
        + (f", budget {args.budget:g}s" if args.budget is not None else "")
        + (", token auth)" if token else ", no auth)")
        + (
            f"; resumed {server.resumed} in-flight requests"
            if server.resumed
            else ""
        ),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        print("scheduling service stopped", flush=True)
    return 0


def _cmd_orch_submit(args: argparse.Namespace) -> int:
    from .core.errors import ReproError
    from .service import AdmissionError, ScheduleClient

    code = 0
    with ScheduleClient(
        args.connect, token=_orch_token(args), timeout=args.timeout
    ) as client:
        for path in args.instances:
            try:
                instance = Instance.load(path)
            except (OSError, ValueError, KeyError, TypeError, ReproError) as exc:
                print(f"error: cannot load {path}: {exc}", file=sys.stderr)
                code = 1
                continue
            try:
                payload = client.submit(instance, args.solver, eps=args.eps)
            except AdmissionError as exc:
                print(f"{path}: rejected at admission: {exc}", file=sys.stderr)
                code = 1
                continue
            if args.json:
                print(json.dumps({"instance": str(path), **payload}))
            else:
                hit = " (cache hit)" if payload.get("cache_hit") else ""
                print(
                    f"{path}: makespan={payload['makespan']:.6g} "
                    f"solver={payload['solver']} "
                    f"wall_time={payload['wall_time']:.3g}s{hit}"
                )
    return code


def _cmd_orch_worker(args: argparse.Namespace) -> int:
    from .orchestration import run_workers

    names = _resolve_spec_names(args.experiments) if args.experiments else None
    if args.fifo_every is not None and args.fifo_every < 0:
        raise SystemExit("error: --fifo-every must be >= 0 (0 = pure priority order)")
    report = run_workers(
        _connect_target(args.connect),
        names,
        workers=args.workers,
        stale_after=args.stale_after,
        use_cache=not args.no_cache,
        replan_every=_resolve_replan_every(args),
        fifo_every=args.fifo_every,
        token=_orch_token(args),
    )
    print(f"reclaimed {report.reclaimed} stale rows")
    print(
        f"workers={report.workers} claimed={report.claimed} done={report.done} "
        f"errors={report.errors} replans={report.replans}"
    )
    print(f"wall_time_s={report.wall_time:.3f}")
    return 1 if report.errors else 0


def _cmd_orch_plan(args: argparse.Namespace) -> int:
    from .orchestration import ExperimentStore, plan
    from .orchestration.planner import PREREQ_EXPERIMENT

    names = _resolve_spec_names(args.experiments)
    with ExperimentStore(_orch_db_path(args)) as store:
        report = plan(
            store,
            names,
            quick=not args.full,
            seed=args.seed,
            workers=max(1, args.workers),
        )
        table = ExperimentTable("plan", f"schedule plan ({_orch_db_path(args)})")
        for experiment in report.experiments:
            pending = store.fetch_rows(experiment, status="pending")
            gated = sum(1 for row in pending if row.depends_on)
            table.add_row(
                {
                    "experiment": experiment,
                    "pending": len(pending),
                    "est_cost_total": report.estimate_totals.get(experiment, 0.0),
                    "gated_on_prereqs": gated,
                }
            )
        if report.hoisted:
            table.add_row(
                {
                    "experiment": PREREQ_EXPERIMENT,
                    "pending": len(
                        store.fetch_rows(PREREQ_EXPERIMENT, status="pending")
                    ),
                    "est_cost_total": report.estimate_totals.get(PREREQ_EXPERIMENT, 0.0),
                    "gated_on_prereqs": 0,
                }
            )
    table.add_note(
        f"hoisted {len(report.hoisted)} shared prerequisites gating "
        f"{report.dependent_cells} cells"
        + (
            f" ({report.skipped_cached} already satisfied by the cache)"
            if report.skipped_cached
            else ""
        )
    )
    if report.projected_fifo:
        table.add_note(
            f"projected makespan on {max(1, args.workers)} workers "
            f"(cost-model units): fifo={report.projected_fifo:.3g}, "
            f"priority={report.projected_priority:.3g}"
        )
    print(table.to_text())
    return 0


def _cmd_orch_status(args: argparse.Namespace) -> int:
    from .orchestration.export import (
        aggregate_service_telemetry,
        aggregate_solver_telemetry,
        format_service_telemetry,
        format_solver_telemetry,
    )

    if args.json:
        # The same payload the dashboard serves at /snapshot.json, so
        # scripts scrape one contract regardless of transport.
        from .observability.dashboard import build_snapshot

        with _open_cli_store(args) as store:
            print(json.dumps(build_snapshot(store), indent=2, sort_keys=True))
        return 0

    with _open_cli_store(args) as store:
        counts = store.status_counts()
        cache = store.cache_stats()
        completions = store.completion_count()
        epoch = store.replan_epoch()
        priors = len(store.load_cost_priors())
        done_rows = [
            row
            for experiment in sorted(counts)
            if counts[experiment].get("done", 0)
            for row in store.fetch_rows(experiment, status="done")
        ]
        service_tail = store.service_telemetry_tail()
    solver_totals = aggregate_solver_telemetry(done_rows)
    service_totals = aggregate_service_telemetry(done_rows, service_tail)
    table = ExperimentTable("orch", f"store status ({_store_label(args)})")
    for experiment in sorted(counts):
        per_status = counts[experiment]
        table.add_row(
            {
                "experiment": experiment,
                "pending": per_status.get("pending", 0),
                "running": per_status.get("running", 0),
                "done": per_status.get("done", 0),
                "error": per_status.get("error", 0),
            }
        )
    table.add_note(f"cache: {cache['entries']} entries, {cache['hits']} hits")
    table.add_note(
        f"scheduler: {completions} completions, re-plan epoch {epoch}, "
        f"priors for {priors} experiments"
    )
    if solver_totals:
        table.add_note(format_solver_telemetry(solver_totals))
    # "service" is the scheduling service's request journal namespace
    # (repro.service.SERVICE_EXPERIMENT); literal so status never imports
    # the solver stack just to print counts.
    service_counts = counts.get("service")
    if service_counts:
        table.add_note(
            "service queue: "
            f"{service_counts.get('pending', 0)} pending, "
            f"{service_counts.get('running', 0)} running"
        )
    if service_totals:
        table.add_note(format_service_telemetry(service_totals))
    print(table.to_text())
    return 0


def _cmd_orch_priors(args: argparse.Namespace) -> int:
    from .orchestration import ExperimentStore
    from .orchestration.planner import replan
    from .orchestration.scheduling import CostModel, load_priors, save_priors

    with ExperimentStore(_orch_db_path(args)) as store:
        if args.priors_command == "export":
            # Export only this store's own measured history (no blending of
            # previously imported priors): re-exporting a blend would count
            # the same samples again on every export->import round-trip,
            # inflating the weights until stale priors never fade.
            model = CostModel.fit(store, use_priors=False)
            try:
                count = save_priors(model, args.output)
            except OSError as exc:
                raise SystemExit(f"error: cannot write {args.output}: {exc}") from exc
            if not count:
                print(
                    "warning: store has no duration history; "
                    "wrote an empty priors file",
                    file=sys.stderr,
                )
            print(f"wrote priors for {count} experiments to {args.output}")
            return 0
        try:
            imported = load_priors(args.path)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        store.save_cost_priors(imported.to_priors())
        # Re-rank pending rows under history + the just-imported priors so
        # the very next claim benefits (gate boosts recomputed, not wiped).
        summary = replan(store, model=CostModel.fit(store))
        print(
            f"imported priors for {len(imported.per_experiment)} experiments; "
            f"re-ranked {summary['updated']} pending rows"
        )
    return 0


def _cmd_orch_reset(args: argparse.Namespace) -> int:
    from .orchestration import ExperimentStore

    with ExperimentStore(_orch_db_path(args)) as store:
        # Best-effort lowercase so `reset E1` matches stored spec names; rows
        # for experiments no longer in the registry stay addressable too.
        experiments = [name.lower() for name in args.experiments] or None
        if args.delete:
            count = store.delete_rows(experiments, statuses=args.status)
            print(f"deleted {count} rows")
        else:
            count = store.reset(experiments, statuses=args.status or ["running", "error"])
            print(f"reset {count} rows to pending")
        if args.clear_cache:
            print(f"cleared {store.clear_cache()} cache entries")
    return 0


def _cmd_orch_export(args: argparse.Namespace) -> int:
    from .orchestration import registry
    from .orchestration.export import export_experiment

    with _open_cli_store(args) as store:
        in_store = store.experiments()
        # prereq rows are scheduling infrastructure, and "service" rows are
        # the scheduling service's ad-hoc request journal — neither is an
        # experiment table; export them only when named explicitly.
        from .orchestration.planner import PREREQ_EXPERIMENT

        names = args.experiments or [
            name for name in in_store if name not in (PREREQ_EXPERIMENT, "service")
        ]
        if not names:
            print("store is empty; run `repro orch run` first", file=sys.stderr)
            return 1
        code = 0
        for name in names:
            if name == "service":
                from .orchestration.export import render_table, service_table

                print(render_table(service_table(store), args.fmt))
                print()
                continue
            try:
                spec_name = registry.get_spec(name).name
            except KeyError:
                # e.g. rows written by an older code version whose spec is
                # gone from the registry: skip, but keep exporting the rest.
                print(
                    f"warning: {name!r} is not a registered experiment; skipping",
                    file=sys.stderr,
                )
                code = 1
                continue
            if spec_name not in in_store:
                print(
                    f"warning: no rows for {name!r} in this store; skipping",
                    file=sys.stderr,
                )
                code = 1
                continue
            print(
                export_experiment(
                    store,
                    spec_name,
                    args.fmt,
                    quick=not args.full,
                    seed=args.seed,
                    output_dir=args.output_dir,
                )
            )
            print()
    return code


_ORCH_HANDLERS = {
    "run": _cmd_orch_run,
    "serve": _cmd_orch_serve,
    "schedule-serve": _cmd_orch_schedule_serve,
    "submit": _cmd_orch_submit,
    "worker": _cmd_orch_worker,
    "plan": _cmd_orch_plan,
    "status": _cmd_orch_status,
    "dashboard": _cmd_orch_dashboard,
    "priors": _cmd_orch_priors,
    "reset": _cmd_orch_reset,
    "export": _cmd_orch_export,
}


def _cmd_orch(args: argparse.Namespace) -> int:
    from .distributed.protocol import ProtocolError

    try:
        return _ORCH_HANDLERS[args.orch_command](args)
    except ProtocolError as exc:
        # Connection refused, auth rejected, server-side store errors: a
        # one-line diagnosis, not a traceback.
        raise SystemExit(f"error: {exc}") from exc


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import RULES, findings_to_json, lint_paths

    if args.list_rules:
        width = max(len(rule.id) for rule in RULES)
        for rule in RULES:
            print(f"{rule.id:<{width}}  {rule.summary}")
        return 0
    package_root = Path(__file__).resolve().parent
    if args.paths:
        paths = [Path(p) for p in args.paths]
        root = Path.cwd()
    else:
        # Default: lint this installation's own source tree, with findings
        # reported relative to the repo root (src/repro/cli.py -> repo).
        paths = [package_root]
        root = package_root.parent.parent
    findings = lint_paths(paths, root=root)
    if args.json:
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(finding.format())
        print(f"{len(findings)} finding(s)" if findings else "clean: 0 findings")
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "compare": _cmd_compare,
        "experiments": _cmd_experiments,
        "constants": _cmd_constants,
        "lint": _cmd_lint,
        "racecheck-dump": _cmd_racecheck_dump,
        "orch": _cmd_orch,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
