"""Command-line interface.

Subcommands::

    repro analyze     <taskset> [--protocol ...]  per-task WCRT bounds
    repro simulate    <taskset> [--protocol ...]  run a simulation + Gantt
    repro figure      <fig2a..fig2f> [--sets N] [--cache db.sqlite]
                                                  regenerate a Fig. 2 inset
    repro serve       [--workers N] [--cache db]  run a sweep-service
                                                  coordinator + local workers
    repro submit      <fig2a..fig2f> --port P     submit a sweep to a running
                                                  service (warm repeats are
                                                  served from the store)
    repro cache       stats|gc|clear <db.sqlite>  unit-store upkeep
    repro demo                                    the Fig. 1 motivating example
    repro sensitivity <taskset> [--knob ...]      critical scaling factor
    repro metrics     <taskset> [--protocol ...]  simulate + trace metrics
    repro witness     <taskset> <task>            decode the worst-case window
    repro audit       <taskset> [--task ...]      static MILP soundness audit
    repro lint        [--rule ...]                project invariant linter
    repro profile     <trace.jsonl>               aggregate a --trace event log

Task sets load from CSV (``name,C,l,u,T,D``) or lossless JSON
(see :mod:`repro.io`).

Task-set CSV format (header required)::

    name,C,l,u,T,D
    t0,2.0,0.4,0.4,12.0,10.0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis.interface import AnalysisOptions, RegulationConfig
from repro.analysis.registry import simulable_protocols, simulator_class
from repro.analysis.schedulability import PROTOCOLS, analyze_taskset
from repro.errors import ObservabilityError, ReproError
from repro.io import load_taskset
from repro.experiments.config import FIGURE2_INSETS, figure2_config
from repro.experiments.report import (
    ascii_plot,
    render_failure_ledger,
    render_sweep_table,
    sweep_to_csv,
)
from repro.experiments.runner import FailurePolicy, run_experiment
from repro.model.taskset import TaskSet
from repro.sim.gantt import render_gantt, summarize_responses
from repro.sim.releases import sporadic_plan, synchronous_plan

#: Protocols with a simulator (the carry NPS variant is analysis-only).
SIM_PROTOCOLS = simulable_protocols()


def _parse_protocols(value: str) -> tuple[str, ...] | None:
    """``--protocols a,b,c`` -> tuple (``None`` keeps the default).

    Names are validated against the protocol registry downstream
    (:func:`repro.experiments.config.figure2_config`), which turns an
    unknown name into a one-line ``error:`` message instead of a crash
    deep in the runner.
    """
    if not value:
        return None
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _parse_regulation(value: str) -> RegulationConfig | None:
    """``--regulation BUDGET:PERIOD`` -> config (``None`` when unset)."""
    if not value:
        return None
    try:
        budget, _, period = value.partition(":")
        return RegulationConfig(budget=float(budget), period=float(period))
    except ValueError as exc:
        raise ReproError(
            f"bad --regulation {value!r} (expected BUDGET:PERIOD with "
            f"0 < budget <= period): {exc}"
        ) from None


def _parse_thresholds(value: str) -> tuple[tuple[str, int], ...] | None:
    """``--thresholds name=theta,...`` -> pairs (``None`` when unset)."""
    if not value:
        return None
    pairs: list[tuple[str, int]] = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, theta = item.partition("=")
        if not sep:
            raise ReproError(
                f"bad --thresholds entry {item!r} (expected NAME=THETA)"
            )
        try:
            pairs.append((name.strip(), int(theta)))
        except ValueError:
            raise ReproError(
                f"bad --thresholds entry {item!r}: {theta!r} is not an "
                "integer threshold"
            ) from None
    return tuple(pairs) or None


def load_taskset_csv(path: str | Path) -> TaskSet:
    """Read a task set file (CSV by default, JSON by suffix)."""
    return load_taskset(path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    taskset = load_taskset_csv(args.taskset)
    options = AnalysisOptions(
        stop_at_deadline=not args.exact,
        time_limit=args.time_limit,
    )
    result = analyze_taskset(
        taskset,
        args.protocol,
        options=options,
        method=args.method,
        ls_policy=args.ls_policy,
    )
    print(f"protocol: {args.protocol} (method={args.method})")
    print(f"{'task':<12}{'prio':>5}{'WCRT':>12}{'D':>10}  verdict")
    for name, wcrt, deadline, ok in result.summary_rows():
        prio = taskset.by_name(name).priority
        verdict = "schedulable" if ok else "MISS"
        print(f"{name:<12}{prio:>5}{wcrt:>12.3f}{deadline:>10.3f}  {verdict}")
    print(f"task set schedulable: {result.schedulable}")
    return 0 if result.schedulable else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    taskset = load_taskset_csv(args.taskset)
    if args.ls:
        taskset = taskset.with_ls_marks(args.ls.split(","))
    sim = simulator_class(args.protocol)(taskset)
    if args.pattern == "synchronous":
        plan = synchronous_plan(taskset, args.horizon)
    else:
        plan = sporadic_plan(
            taskset, args.horizon, np.random.default_rng(args.seed)
        )
    trace = sim.run(plan)
    print(render_gantt(trace, width=args.width, until=args.until))
    print()
    print(summarize_responses(trace))
    if args.svg:
        from repro.sim.svg import save_trace_svg

        save_trace_svg(trace, args.svg, until=args.until)
        print(f"SVG written to {args.svg}")
    misses = trace.deadline_misses()
    print(f"deadline misses: {len(misses)}")
    return 0 if not misses else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    config = figure2_config(
        args.inset,
        sets_per_point=args.sets,
        seed=args.seed,
        method=args.method,
        protocols=_parse_protocols(args.protocols),
    )
    options = AnalysisOptions(
        time_limit=args.time_limit,
        preemption_thresholds=_parse_thresholds(args.thresholds),
        regulation=_parse_regulation(args.regulation),
    )

    def progress(point) -> None:
        ratios = "  ".join(
            f"{p}={point.ratios[p]:.2f}" for p in config.protocols
        )
        print(
            f"  {config.x_label}={point.x:g}: {ratios} "
            f"({point.elapsed_seconds:.1f}s)",
            flush=True,
        )

    fault_plan = None
    if args.inject:
        from repro.faults import load_plan

        fault_plan = load_plan(args.inject)
        print(
            f"injecting faults from {args.inject} "
            f"(plan {fault_plan.name or '(unnamed)'}, "
            f"{len(fault_plan.specs)} spec(s))"
        )
    workers = f", {args.jobs} workers" if args.jobs > 1 else ""
    print(
        f"running {args.inset} with {args.sets} task sets per point{workers}"
    )
    result = run_experiment(
        config,
        options=options,
        progress=progress,
        failure_policy=args.failure_policy,
        jobs=args.jobs,
        trace_path=args.trace or None,
        fault_plan=fault_plan,
        cache_path=args.cache or None,
    )
    if args.trace:
        print(f"trace written to {args.trace}")
    print()
    print(render_sweep_table(result))
    print()
    print(ascii_plot(result))
    if result.failures:
        print()
        print(render_failure_ledger(result))
    if args.csv:
        Path(args.csv).write_text(sweep_to_csv(result))
        print(f"CSV written to {args.csv}")
    if args.svg:
        from repro.experiments.figures import save_sweep_svg

        save_sweep_svg(result, args.svg)
        print(f"SVG written to {args.svg}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    fault_plan = None
    if args.inject:
        from repro.faults import load_plan

        fault_plan = load_plan(args.inject)
        print(
            f"injecting faults from {args.inject} "
            f"(plan {fault_plan.name or '(unnamed)'}, "
            f"{len(fault_plan.specs)} spec(s))"
        )

    def ready(port: int) -> None:
        print(
            f"sweep service listening on {args.host}:{port} "
            f"({args.workers} local worker(s))",
            flush=True,
        )

    serve(
        args.host,
        args.port,
        workers=args.workers,
        cache_path=args.cache or None,
        trace_dir=args.trace_dir or None,
        fault_plan=fault_plan,
        max_sweeps=args.sweeps,
        ready=ready,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import submit_sweep

    config = figure2_config(
        args.inset, sets_per_point=args.sets, seed=args.seed,
        method=args.method,
        protocols=_parse_protocols(args.protocols),
    )
    options = AnalysisOptions(
        time_limit=args.time_limit,
        preemption_thresholds=_parse_thresholds(args.thresholds),
        regulation=_parse_regulation(args.regulation),
    )
    print(
        f"submitting {args.inset} ({args.sets} task sets per point) "
        f"to {args.host}:{args.port}"
    )

    def unit_progress(done: int, total: int, served: int) -> None:
        print(
            f"\r  units {done}/{total} ({served} served from store)",
            end="",
            flush=True,
        )

    def progress(point: dict) -> None:
        ratios = "  ".join(
            f"{p}={point['ratios'][p]:.2f}" for p in config.protocols
        )
        print(f"\r  {config.x_label}={point['x']:g}: {ratios}")

    result = submit_sweep(
        args.host,
        args.port,
        config,
        options=options,
        failure_policy=args.failure_policy,
        progress=progress,
        unit_progress=unit_progress,
    )
    print()
    print(render_sweep_table(result))
    if result.failures:
        print()
        print(render_failure_ledger(result))
    if args.csv:
        Path(args.csv).write_text(sweep_to_csv(result))
        print(f"CSV written to {args.csv}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis.store import PersistentStore

    store = PersistentStore(args.database)
    if not store.path.exists():
        # gc/clear would otherwise create an empty store just to
        # maintain it; a typo'd path should fail loudly instead.
        raise ReproError(f"no cache database at {store.path}")
    if args.action == "stats":
        stats = store.stats()
        width = max(map(len, stats)) + 2
        for name, value in stats.items():
            print(f"{name:<{width}}{value}")
        return 0
    if args.action == "gc":
        removed = store.gc(args.keep)
        print(f"gc: removed {removed} entr(ies), kept {len(store)}")
        return 0
    removed = store.clear()
    print(f"clear: removed {removed} entr(ies)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        aggregate_events,
        read_trace_lenient,
        reconcile,
        render_profile,
    )

    events, corruption = read_trace_lenient(args.trace)
    if not events:
        detail = (
            f"{corruption.total} corrupt line(s) skipped"
            if corruption.total
            else "the file is empty or not a JSONL trace"
        )
        raise ObservabilityError(
            f"trace {args.trace} contains no valid events ({detail})"
        )
    report = aggregate_events(events)
    report.corruption = corruption.as_dict()
    print(render_profile(report, timings=not args.no_timings))
    problems = reconcile(report)
    print()
    if problems and not corruption.total:
        for problem in problems:
            print(f"reconciliation MISMATCH: {problem}")
        return 1
    if corruption.total:
        # A corrupt trace legitimately under-reports: say exactly how
        # much was lost instead of failing the reconciliation.
        print(
            f"note: {corruption.total} corrupt trace line(s) "
            f"skipped; counters may under-report"
        )
        for problem in problems:
            print(f"reconciliation gap (corrupt trace): {problem}")
        return 0
    print(
        "trace reconciles with its point.end records: "
        "cache counters and failure ledger match exactly"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    # Defer to the packaged example so CLI and docs stay in sync.
    from repro.examples_support.figure1 import run_figure1_demo

    print(run_figure1_demo())
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import critical_scaling_factor

    taskset = load_taskset(args.taskset)
    result = critical_scaling_factor(
        taskset,
        knob=args.knob,
        protocol=args.protocol,
        method=args.method,
        tolerance=args.tolerance,
    )
    print(
        f"knob={result.knob} protocol={args.protocol}: "
        f"critical factor {result.critical_factor:.3f} "
        f"({result.evaluations} schedulability tests; "
        f"schedulable at 1.0: {result.schedulable_at_one})"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.sim.metrics import compute_metrics, render_metrics

    taskset = load_taskset(args.taskset)
    if args.ls:
        taskset = taskset.with_ls_marks(args.ls.split(","))
    plan = sporadic_plan(
        taskset, args.horizon, np.random.default_rng(args.seed)
    )
    trace = simulator_class(args.protocol)(taskset).run(plan)
    print(f"protocol: {args.protocol}, {plan.total_jobs} jobs simulated")
    print(render_metrics(compute_metrics(trace)))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    from repro.analysis.proposed.formulation import (
        AnalysisMode,
        build_delay_milp,
    )
    from repro.analysis.proposed.witness import (
        extract_witness,
        validate_witness,
    )

    taskset = load_taskset(args.taskset)
    if args.ls:
        taskset = taskset.with_ls_marks(args.ls.split(","))
    task = taskset.by_name(args.task)
    if task.latency_sensitive:
        mode = AnalysisMode.LS_CASE_A
    elif args.protocol == "wasly":
        mode = AnalysisMode.WASLY
    else:
        mode = AnalysisMode.NLS
    window = args.window
    if window is None:
        window = max(
            task.deadline - task.exec_time - task.copy_out, task.copy_in
        )
    built = build_delay_milp(taskset, task, window, mode)
    solution = built.model.solve()
    witness = extract_witness(built, solution, task.name)
    validate_witness(witness)
    print(witness.render())
    print(
        f"response bound at this window: "
        f"{solution.objective + task.copy_out:.3f} (deadline {task.deadline:g})"
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.proposed.formulation import (
        AnalysisMode,
        build_delay_milp,
    )
    from repro.milp.audit import audit_delay_milp

    taskset = load_taskset(args.taskset)
    if args.ls:
        taskset = taskset.with_ls_marks(args.ls.split(","))
    tasks = [taskset.by_name(args.task)] if args.task else list(taskset)
    failed = 0
    for task in tasks:
        if task.latency_sensitive:
            modes = [AnalysisMode.LS_CASE_A, AnalysisMode.LS_CASE_B]
        elif args.protocol == "wasly":
            modes = [AnalysisMode.WASLY]
        else:
            modes = [AnalysisMode.NLS]
        window = args.window
        if window is None:
            window = max(
                task.deadline - task.exec_time - task.copy_out, task.copy_in
            )
        for mode in modes:
            built = build_delay_milp(
                taskset,
                task,
                0.0 if mode is AnalysisMode.LS_CASE_B else window,
                mode,
            )
            report = audit_delay_milp(built, taskset, task)
            print(report.render())
            if not report.ok:
                failed += 1
    verdict = "FAILED" if failed else "passed"
    # The machine-readable reports own stdout; counts are commentary.
    print(
        f"audit {verdict}: {len(tasks)} task(s), "
        f"{failed} model(s) with errors",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit 0 on a clean tree, 1 on findings, 2 on usage/config errors.

    Findings go to stdout (one per line, plus optional SARIF); counts
    and the all-clear go to stderr so piped output stays clean.
    """
    import json

    from repro.lint import (
        load_baseline,
        load_project,
        run_lint,
        suppress_baseline,
        to_sarif,
        write_baseline,
    )

    project = load_project()
    violations = sorted(
        project.findings + run_lint(project.modules, rules=args.rule),
        key=lambda v: (v.path, v.line, v.rule),
    )
    if args.update_baseline:
        if not args.baseline:
            print(
                "error: --update-baseline requires --baseline PATH",
                file=sys.stderr,
            )
            return 2
        write_baseline(violations, args.baseline)
        print(
            f"baseline {args.baseline} updated with "
            f"{len(violations)} finding(s)",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        violations = suppress_baseline(violations, baseline)
    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(to_sarif(violations), indent=2) + "\n"
        )
    for violation in violations:
        print(violation.render())
    errors = sum(1 for v in violations if v.severity == "error")
    warnings = len(violations) - errors
    if violations:
        print(
            f"{len(violations)} finding(s): {errors} error(s), "
            f"{warnings} warning(s)",
            file=sys.stderr,
        )
    else:
        print("all project invariants hold", file=sys.stderr)
    failing = len(violations) if args.strict else errors
    return 1 if failing else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Predictable Memory-CPU Co-Scheduling with "
            "Support for Latency-Sensitive Tasks' (DAC 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="per-task WCRT bounds")
    p_an.add_argument("taskset", help="task-set CSV file")
    p_an.add_argument("--protocol", choices=PROTOCOLS, default="proposed")
    p_an.add_argument("--method", choices=("milp", "lp", "closed_form"), default="milp")
    p_an.add_argument(
        "--ls-policy",
        default="greedy",
        help="LS policy for the proposed protocol (greedy/as_marked/...)",
    )
    p_an.add_argument(
        "--exact",
        action="store_true",
        help="iterate past the deadline to the true fixpoint",
    )
    p_an.add_argument("--time-limit", type=float, default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="simulate and draw a Gantt chart")
    p_sim.add_argument("taskset", help="task-set CSV file")
    p_sim.add_argument("--protocol", choices=SIM_PROTOCOLS, default="proposed")
    p_sim.add_argument(
        "--pattern", choices=("synchronous", "sporadic"), default="synchronous"
    )
    p_sim.add_argument("--horizon", type=float, default=200.0)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--width", type=int, default=100)
    p_sim.add_argument("--until", type=float, default=None)
    p_sim.add_argument(
        "--ls", default="", help="comma-separated names to mark LS"
    )
    p_sim.add_argument(
        "--svg", default="", help="also write the schedule as an SVG file"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_fig = sub.add_parser("figure", help="regenerate a Fig. 2 inset")
    p_fig.add_argument("inset", choices=sorted(FIGURE2_INSETS))
    p_fig.add_argument("--sets", type=int, default=50)
    p_fig.add_argument("--seed", type=int, default=2020)
    p_fig.add_argument("--method", choices=("milp", "lp", "closed_form"), default="milp")
    p_fig.add_argument("--time-limit", type=float, default=None)
    p_fig.add_argument(
        "--protocols",
        default="",
        help="comma-separated registered protocol names to compare "
        f"(default: paper's three; registered: {', '.join(PROTOCOLS)})",
    )
    p_fig.add_argument(
        "--thresholds",
        default="",
        help="per-task preemption thresholds for the 'threshold' "
        "protocol, as NAME=THETA,... (default: own priorities)",
    )
    p_fig.add_argument(
        "--regulation",
        default="",
        help="memory bandwidth budget for the 'regulated' protocol, "
        "as BUDGET:PERIOD (default: unregulated)",
    )
    p_fig.add_argument("--csv", default="", help="write the series to a CSV file")
    p_fig.add_argument(
        "--svg",
        default="",
        help="write the comparative sweep figure as an SVG file "
        "(one series per protocol)",
    )
    p_fig.add_argument(
        "--failure-policy",
        choices=[p.value for p in FailurePolicy],
        default=FailurePolicy.COUNT_UNSCHEDULABLE.value,
        help="how failed taskset/protocol pairs enter the ratios",
    )
    p_fig.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (results are bit-identical "
        "to --jobs 1)",
    )
    p_fig.add_argument(
        "--trace",
        default="",
        help="write a structured JSONL event trace of the run here "
        "(see 'repro profile')",
    )
    p_fig.add_argument(
        "--inject",
        default="",
        help="inject deterministic faults from this JSON fault plan "
        "(chaos testing; see repro.faults)",
    )
    p_fig.add_argument(
        "--cache",
        default="",
        help="run on this sqlite unit store, shared across runs: "
        "finished units are kept there, so rerunning an interrupted "
        "sweep resumes it (results are bit-identical with or without it)",
    )
    p_fig.set_defaults(func=_cmd_figure)

    p_srv = sub.add_parser(
        "serve",
        help="run a sweep-service coordinator with local workers",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0,
        help="port to bind (0 picks a free one, printed on startup)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=2,
        help="local worker processes to spawn (dead ones are replaced)",
    )
    p_srv.add_argument(
        "--cache", default="",
        help="sqlite unit store of finished units (repeat submits are "
        "served from it)",
    )
    p_srv.add_argument(
        "--trace-dir", default="",
        help="directory of per-sweep JSONL event traces",
    )
    p_srv.add_argument(
        "--sweeps", type=int, default=None,
        help="exit after this many processed sweeps (default: serve "
        "until interrupted)",
    )
    p_srv.add_argument(
        "--inject", default="",
        help="inject deterministic faults from this JSON fault plan "
        "(disables the unit-result store for the run)",
    )
    p_srv.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a Fig. 2 sweep to a running sweep service"
    )
    p_sub.add_argument("inset", choices=sorted(FIGURE2_INSETS))
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, required=True)
    p_sub.add_argument("--sets", type=int, default=50)
    p_sub.add_argument("--seed", type=int, default=2020)
    p_sub.add_argument(
        "--method", choices=("milp", "lp", "closed_form"), default="milp"
    )
    p_sub.add_argument("--time-limit", type=float, default=None)
    p_sub.add_argument(
        "--protocols",
        default="",
        help="comma-separated registered protocol names to compare "
        "(default: paper's three)",
    )
    p_sub.add_argument(
        "--thresholds",
        default="",
        help="per-task preemption thresholds for the 'threshold' "
        "protocol, as NAME=THETA,... (default: own priorities)",
    )
    p_sub.add_argument(
        "--regulation",
        default="",
        help="memory bandwidth budget for the 'regulated' protocol, "
        "as BUDGET:PERIOD (default: unregulated)",
    )
    p_sub.add_argument(
        "--failure-policy",
        choices=[p.value for p in FailurePolicy],
        default=FailurePolicy.COUNT_UNSCHEDULABLE.value,
    )
    p_sub.add_argument(
        "--csv", default="", help="write the series to a CSV file"
    )
    p_sub.set_defaults(func=_cmd_submit)

    p_cache = sub.add_parser(
        "cache", help="inspect or prune a unit store"
    )
    p_cache.add_argument("action", choices=("stats", "gc", "clear"))
    p_cache.add_argument("database", help="sqlite file written by --cache")
    p_cache.add_argument(
        "--keep",
        type=int,
        default=100_000,
        help="entries to retain under 'gc' (most recently written first)",
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_prof = sub.add_parser(
        "profile",
        help="aggregate a --trace event log into a per-phase report "
        "and reconcile it against its point.end records (exit 1 on any "
        "counter mismatch)",
    )
    p_prof.add_argument("trace", help="JSONL trace written by --trace")
    p_prof.add_argument(
        "--no-timings",
        action="store_true",
        help="render only the deterministic sections (identical for "
        "--jobs 1 and --jobs N runs of the same config)",
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_demo = sub.add_parser("demo", help="the Fig. 1 motivating example")
    p_demo.set_defaults(func=_cmd_demo)

    p_sens = sub.add_parser(
        "sensitivity", help="critical scaling factor of a task set"
    )
    p_sens.add_argument("taskset")
    p_sens.add_argument(
        "--knob", choices=("execution", "memory", "deadline"),
        default="execution",
    )
    p_sens.add_argument("--protocol", choices=PROTOCOLS, default="proposed")
    p_sens.add_argument("--method", choices=("milp", "lp", "closed_form"),
                        default="milp")
    p_sens.add_argument("--tolerance", type=float, default=0.02)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_met = sub.add_parser(
        "metrics", help="simulate and report trace metrics"
    )
    p_met.add_argument("taskset")
    p_met.add_argument("--protocol", choices=SIM_PROTOCOLS, default="proposed")
    p_met.add_argument("--horizon", type=float, default=1000.0)
    p_met.add_argument("--seed", type=int, default=1)
    p_met.add_argument("--ls", default="")
    p_met.set_defaults(func=_cmd_metrics)

    p_wit = sub.add_parser(
        "witness", help="decode the MILP's worst-case schedule for a task"
    )
    p_wit.add_argument("taskset")
    p_wit.add_argument("task", help="name of the task under analysis")
    p_wit.add_argument("--protocol", choices=("proposed", "wasly"),
                       default="proposed")
    p_wit.add_argument("--window", type=float, default=None,
                       help="delay window (default: deadline-induced)")
    p_wit.add_argument("--ls", default="", help="names to mark LS")
    p_wit.set_defaults(func=_cmd_witness)

    p_aud = sub.add_parser(
        "audit",
        help="static soundness audit of the delay MILPs (no solve)",
    )
    p_aud.add_argument("taskset", help="task-set CSV/JSON file")
    p_aud.add_argument(
        "--task", default="", help="audit only this task (default: all)"
    )
    p_aud.add_argument(
        "--protocol", choices=("proposed", "wasly"), default="proposed"
    )
    p_aud.add_argument(
        "--window", type=float, default=None,
        help="delay window (default: deadline-induced)",
    )
    p_aud.add_argument("--ls", default="", help="names to mark LS")
    p_aud.set_defaults(func=_cmd_audit)

    p_lint = sub.add_parser(
        "lint", help="run the project invariant linter over src/repro"
    )
    from repro.lint import RULES

    p_lint.add_argument(
        "--rule",
        action="append",
        choices=sorted(RULES),
        help="run only this rule (repeatable; default: all)",
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings (unprovable facts) as failures",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="JSON file of grandfathered finding fingerprints",
    )
    p_lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    p_lint.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="also write the findings as a SARIF 2.1.0 log",
    )
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
