"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run       simulate one (design, scheme, benchmark) cell and report
figure    regenerate Figure 7, 8, 9 or 10
table     regenerate Table 1, 2, 3, or 4
headline  the abstract-level combined claims
layout    the Fig.-10 halo floorplan
energy    energy report + on-demand gating for one cell
report    regenerate every table and figure into one document
cmp       multi-core shared-L2 scaling (future-work extension)
snuca     S-NUCA vs D-NUCA baseline comparison
faults    seeded fault-injection campaign (resilience curves)
serve     open-loop streaming service with rolling SLO telemetry
trace     generate a synthetic trace file
validate  invariant checkers + differential oracle (+ --fuzz N)
lint      static analysis the tests cannot replace (+ --types gate)

Every simulating command (run, figure, headline, energy, report, cmp,
snuca, faults, serve, validate) runs its cells through the experiment
engine (``repro.experiments.runner.run_cells``), so the engine options
``--jobs``, ``--no-cache``, ``--cache-dir``, ``--metrics-out``,
``--trace``, ``--trace-format`` and ``--window`` mean the same thing on
each of them (validate takes no ``--window``). ``table`` and ``trace``
take only the workload pair ``--measure``/``--seed``; ``layout`` and
``lint`` take neither.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.designs import DESIGN_NAMES
from repro.core.flows import FIGURE8_SCHEMES
from repro.errors import ReproError
from repro.experiments import (
    fig10_layout,
    figure7,
    figure8,
    figure9,
    headline,
    table1_params,
    table2_workloads,
    table3_designs,
    table4_area,
)
from repro.experiments.common import BENCHMARK_NAMES, ExperimentConfig
from repro.noc.network import CORES
from repro.stream.arrivals import MIX_NAMES
from repro.stream.service import ADMISSION_POLICIES


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        measure=args.measure,
        seed=args.seed,
        window=getattr(args, "window", 0),
    )


def cmd_run(args: argparse.Namespace) -> str:
    from repro.experiments.runner import run_cells, spec_for
    from repro.workloads import profile_by_name

    profile = profile_by_name(args.benchmark)
    spec = spec_for(
        args.design, args.scheme, args.benchmark, _config(args),
        early_miss_detection=args.early_miss,
    )
    result = run_cells([spec])[0]
    shares = result.breakdown_fractions()
    lines = [
        f"design {result.design}, scheme {result.scheme}, "
        f"benchmark {args.benchmark}",
        f"accesses {result.accesses}, cycles {result.cycles}",
        f"hit rate {result.hit_rate:.1%} "
        f"(MRU {result.latency.mru_hit_fraction():.0%})",
        f"latency avg {result.average_latency:.1f} "
        f"(hit {result.average_hit_latency:.1f}, "
        f"miss {result.average_miss_latency:.1f})",
        f"split network {shares['network']:.0%} / bank {shares['bank']:.0%} "
        f"/ memory {shares['memory']:.0%}",
        f"IPC {result.ipc:.3f} ({result.ipc / profile.perfect_l2_ipc:.0%} of "
        f"perfect {profile.perfect_l2_ipc})",
    ]
    if args.early_miss:
        # One partial-tag lookup per measured access.
        early = result.metrics["cache.partial_tags.early_misses"]["value"]
        rate = early / result.accesses if result.accesses else 0.0
        lines.append(f"early misses {early} ({rate:.0%} of lookups)")
    return "\n".join(lines)


def cmd_figure(args: argparse.Namespace) -> str:
    config = _config(args)
    if args.number == 7:
        return figure7.render(figure7.run(config))
    if args.number == 8:
        return figure8.render(figure8.run(config))
    if args.number == 9:
        return figure9.render(figure9.run(config))
    if args.number == 10:
        return fig10_layout.render(fig10_layout.run())
    raise SystemExit(f"no figure {args.number}; choose 7, 8, 9, or 10")


def cmd_table(args: argparse.Namespace) -> str:
    config = _config(args)
    if args.number == 1:
        return table1_params.render(table1_params.run())
    if args.number == 2:
        return table2_workloads.render(table2_workloads.run(config))
    if args.number == 3:
        return table3_designs.render(table3_designs.run())
    if args.number == 4:
        return table4_area.render(table4_area.run())
    raise SystemExit(f"no table {args.number}; choose 1-4")


def _check_schema(snapshot: dict) -> str:
    """Diff a runtime metrics snapshot against the telemetry key catalog.

    Every runtime key must be covered by a cataloged pattern with a
    matching kind; an uncovered key means ``repro.telemetry.catalog`` is
    missing an emit site.
    """
    from repro.telemetry import catalog

    unknown: list[str] = []
    drifted: list[str] = []
    for key in sorted(snapshot):
        kinds = catalog.covers(key)
        if kinds is None:
            unknown.append(key)
            continue
        payload = snapshot[key]
        kind = payload.get("type") if isinstance(payload, dict) else None
        if kind is not None and kind not in kinds:
            drifted.append(f"{key} is {kind}, catalog says {'/'.join(kinds)}")
    lines = []
    for key in unknown:
        lines.append(f"schema: {key} not covered by any catalog pattern")
    for problem in drifted:
        lines.append(f"schema: kind mismatch: {problem}")
    if lines:
        lines.append(
            f"schema check FAILED ({len(unknown)} unknown key(s), "
            f"{len(drifted)} kind mismatch(es)); add or fix the key's "
            "pattern in src/repro/telemetry/catalog.py"
        )
        raise SystemExit("\n".join(lines))
    return (
        f"schema check ok: {len(snapshot)} runtime keys covered by the "
        "telemetry catalog"
    )


def cmd_report(args: argparse.Namespace) -> str:
    if args.check_schema and not args.metrics:
        raise SystemExit("--check-schema needs a metrics file or directory")
    if args.metrics:
        import json

        from repro.telemetry import report as metrics_report

        snapshot = metrics_report.load_metrics(args.metrics)
        if args.check_schema:
            return _check_schema(snapshot)
        report = metrics_report.explore(snapshot)
        if args.format == "json":
            return json.dumps(report, indent=2, sort_keys=True)
        return metrics_report.render_text(report)

    from repro.experiments import full_report

    path = full_report.write(
        args.out,
        _config(args),
        progress=lambda title: print(f"... {title}", flush=True),
    )
    return f"report written to {path}"


def cmd_cmp(args: argparse.Namespace) -> str:
    from repro.experiments import cmp_scaling

    points = cmp_scaling.run(
        designs=tuple(args.designs),
        core_counts=tuple(args.cores),
        measure=args.measure,
        seed=args.seed,
        window=args.window,
    )
    return cmp_scaling.render(points)


def cmd_snuca(args: argparse.Namespace) -> str:
    from repro.core.flows import STATIC_NUCA
    from repro.experiments.runner import run_cells, spec_for

    config = _config(args)
    snuca, dnuca = run_cells([
        spec_for(args.design, scheme, args.benchmark, config)
        for scheme in (STATIC_NUCA, "multicast+fast_lru")
    ])
    return "\n".join(
        [
            f"benchmark {args.benchmark}, design {args.design}",
            f"  S-NUCA  lat {snuca.average_latency:7.1f} "
            f"(hit {snuca.average_hit_latency:.1f})  IPC {snuca.ipc:.3f}",
            f"  D-NUCA  lat {dnuca.average_latency:7.1f} "
            f"(hit {dnuca.average_hit_latency:.1f})  IPC {dnuca.ipc:.3f}",
            f"  D-NUCA speedup x{dnuca.ipc / snuca.ipc:.2f}",
        ]
    )


def cmd_trace(args: argparse.Namespace) -> str:
    from repro.workloads import TraceGenerator, profile_by_name
    from repro.workloads.traceio import save_trace

    profile = profile_by_name(args.benchmark)
    trace = TraceGenerator(profile, seed=args.seed).generate(args.measure)
    save_trace(trace, args.output)
    return (
        f"wrote {len(trace)} accesses ({trace.write_count} writes, "
        f"{trace.distinct_blocks()} distinct blocks) to {args.output}"
    )


def cmd_validate(args: argparse.Namespace) -> str:
    from repro.validation import fuzz, run_oracle

    if getattr(args, "profile_phases", False):
        from repro.perf import profiler

        return "\n".join(
            profiler.profile_load(core, seed=args.seed).render()
            for core in ("object", "array")
        )
    if args.fuzz:
        report = fuzz(args.fuzz, seed=args.seed)
        if not report.ok:
            raise SystemExit(report.render())
        return report.summary_line()

    lines = []
    measure = min(args.measure, 600)
    for design, scheme in (
        ("A", "multicast+fast_lru"),
        ("B", "multicast+fast_lru"),
        ("F", "unicast+lru"),
    ):
        oracle = run_oracle(
            design=design,
            scheme=scheme,
            benchmark=args.benchmark,
            measure=measure,
            seed=args.seed,
            sample=args.sample,
        )
        if not oracle.ok:
            raise SystemExit(oracle.render())
        lines.append(oracle.summary_line())
    smoke = fuzz(12, seed=args.seed)
    if not smoke.ok:
        raise SystemExit(smoke.render())
    lines.append(smoke.summary_line())
    return "\n".join(lines)


def cmd_faults(args: argparse.Namespace) -> str:
    from repro.experiments import fault_sweep
    from repro.faults.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        designs=tuple(args.designs),
        schemes=tuple(args.schemes),
        benchmark=args.benchmark,
        rates=tuple(args.rate),
        measure=args.accesses,
        seed=args.seed,
        fault_seed=args.fault_seed if args.fault_seed is not None else args.seed,
        window=args.window,
    )
    return fault_sweep.render(run_campaign(config))


def _render_serve_cell(spec, result) -> str:
    """Summary + rolling per-window SLO table of one streaming cell."""
    from repro.telemetry.registry import LATENCY_SLO_EDGES, MetricsRegistry

    summary = result.summary
    lines = [
        f"design {spec.design}, policy {spec.scheme}, mix {spec.benchmark}, "
        f"load x{spec.load:g}, {spec.cycles} cycles, seed {spec.seed}, "
        f"core {spec.core}",
        f"offered {result.offered}, admitted {result.admitted} "
        f"(availability {result.availability:.1%}), rejected "
        f"{result.rejected} ({result.rejection_rate:.1%}), completed "
        f"{result.completed}",
        f"goodput {result.goodput_per_kcycle:.2f} req/kcycle, latency "
        f"p50 {result.quantiles['p50']:.0f} / p95 "
        f"{result.quantiles['p95']:.0f} / p99 "
        f"{result.quantiles['p99']:.0f} cycles, queue high-water "
        f"{summary['queue_high_water']}",
    ]
    for name in sorted(summary["tenants"]):
        stats = summary["tenants"][name]
        lines.append(
            f"  tenant {name}: offered {stats['offered']}, rejected "
            f"{stats['rejected']}, completed {stats['completed']}"
        )
    registry = MetricsRegistry()
    registry.merge(result.metrics)
    window = spec.window
    latency = registry.series(
        "stream.series.latency", window, "hist", LATENCY_SLO_EDGES
    )
    offered = dict(
        registry.series("stream.series.offered", window).windows
    )
    completed = dict(
        registry.series("stream.series.completed", window).windows
    )
    rejected = dict(
        registry.series("stream.series.rejected", window).windows
    )
    rows = latency.window_quantiles()
    lines.append("")
    lines.append(
        f"{'window':>8} {'offered':>8} {'completed':>9} {'rejected':>8} "
        f"{'p50':>6} {'p95':>6} {'p99':>6}"
    )
    limit = 16
    for index, qs in rows[:limit]:
        lines.append(
            f"{index * window:>8} {offered.get(index, 0):>8} "
            f"{completed.get(index, 0):>9} {rejected.get(index, 0):>8} "
            f"{qs['p50']:>6.0f} {qs['p95']:>6.0f} {qs['p99']:>6.0f}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more windows")
    return "\n".join(lines)


def cmd_serve(args: argparse.Namespace) -> str:
    from repro.experiments import stream_sweep
    from repro.experiments.runner import run_cells
    from repro.stream import stream_spec_for

    spec = stream_spec_for(
        args.design,
        args.policy,
        args.mix,
        seed=args.seed,
        cycles=args.cycles,
        load=args.load,
        queue_limit=args.queue_limit,
        max_outstanding=args.outstanding,
        token_rate=args.token_rate,
        token_burst=args.token_burst,
        core=args.core,
        window=args.window if args.window > 0 else 64,
        drain=not args.no_drain,
    )
    if args.sweep:
        specs = stream_sweep.sweep_specs(spec, loads=tuple(args.sweep))
        out = stream_sweep.render(specs, run_cells(specs))
    else:
        out = _render_serve_cell(spec, run_cells([spec])[0])
    if args.metrics_out:
        # Write the serve payload here (metrics + provenance only): the
        # generic main() payload includes the batch journal, whose wall
        # times would break the byte-identical-metrics guarantee.
        import json

        from repro import telemetry

        payload = {
            "metrics": telemetry.global_registry().snapshot(),
            "provenance": telemetry.provenance_block(),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
        args.metrics_out = None
    return out


def cmd_lint(args: argparse.Namespace) -> str:
    from repro.analysis import all_rules, analyze_paths, render_findings
    from repro.analysis.typegate import check_typegate

    if args.list_rules:
        return "\n".join(
            f"{rule.id:24s} [{rule.family}] {rule.summary}"
            for rule in all_rules()
        )
    findings = analyze_paths(args.paths)
    lines = [render_findings(findings)]
    failed = bool(findings)
    if args.types or args.update_baseline:
        report = check_typegate(update_baseline=args.update_baseline)
        lines.append(report.render())
        failed = failed or not report.ok
    text = "\n".join(lines)
    if failed:
        raise SystemExit(text)
    return text


def cmd_headline(args: argparse.Namespace) -> str:
    return headline.render(headline.run(_config(args)))


def cmd_layout(args: argparse.Namespace) -> str:
    return fig10_layout.render(fig10_layout.run())


def cmd_energy(args: argparse.Namespace) -> str:
    from repro.experiments.runner import EnergySpec, run_cells, spec_for

    cell = spec_for(args.design, args.scheme, args.benchmark, _config(args))
    result = run_cells([EnergySpec(cell, args.gate_threshold)])[0]
    report, gating = result.energy, result.gating
    fractions = report.fractions()
    return "\n".join(
        [
            f"design {args.design}, scheme {args.scheme}, "
            f"benchmark {args.benchmark}",
            f"energy {report.pj_per_access:.0f} pJ/access "
            f"({report.total_pj / 1e6:.2f} uJ total)",
            f"  bank {fractions['bank']:.0%}, router {fractions['router']:.0%}, "
            f"link {fractions['link']:.0%}, memory {fractions['memory']:.0%}, "
            f"leakage {fractions['leakage']:.0%}",
            f"gating @ idle>{args.gate_threshold}: "
            f"{gating.gated_fraction:.0%} of bank area off, "
            f"net {gating.net_saving_pj / 1e6:+.2f} uJ, "
            f"+{gating.average_latency_penalty:.2f} cyc/access wake penalty",
        ]
    )


def _count(text: str) -> int:
    """argparse type of a count option: an integer that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Domain-Specific On-Chip Network Design for "
            "Large Scale Cache Systems' (HPCA 2007)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def workload(p: argparse.ArgumentParser, measure: bool = True) -> None:
        """The workload pair: trace length and seed."""
        if measure:
            p.add_argument("--measure", type=int, default=3000,
                           help="measured accesses per cell (default 3000)")
        p.add_argument("--seed", type=int, default=1)

    def engine(p: argparse.ArgumentParser, window: bool = True) -> None:
        """The experiment-engine and telemetry options of a command that
        simulates through run_cells."""
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for independent cells "
                            "(0 = all cores; default 1 = serial)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the persistent on-disk result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache location (default .repro-cache, "
                            "or $REPRO_CACHE_DIR)")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the merged telemetry metrics, run "
                            "provenance, and batch journal as JSON")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record per-flit/per-transaction lifecycle "
                            "events (forces --jobs 1 and --no-cache)")
        p.add_argument("--trace-format", choices=("jsonl", "chrome"),
                       default="jsonl",
                       help="trace encoding: jsonl lines or a Chrome "
                            "trace_event file loadable in Perfetto")
        if window:
            p.add_argument("--window", type=_count, default=0, metavar="N",
                           help="sample windowed metric series every N "
                                "sim-cycles (0 = off); series appear in "
                                "--metrics-out and feed `repro report`")

    run = sub.add_parser("run", help="simulate one configuration")
    run.add_argument("--design", choices=DESIGN_NAMES, default="A")
    run.add_argument("--scheme", choices=FIGURE8_SCHEMES,
                     default="multicast+fast_lru")
    run.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="twolf")
    run.add_argument("--early-miss", action="store_true",
                     help="enable partial-tag early miss detection")
    workload(run)
    engine(run)
    run.set_defaults(handler=cmd_run)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(7, 8, 9, 10))
    workload(figure)
    engine(figure)
    figure.set_defaults(handler=cmd_figure)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4))
    workload(table)
    table.set_defaults(handler=cmd_table)

    head = sub.add_parser("headline", help="abstract-level combined claims")
    workload(head)
    engine(head)
    head.set_defaults(handler=cmd_headline)

    layout = sub.add_parser("layout", help="Fig.-10 halo floorplan")
    layout.set_defaults(handler=cmd_layout)

    energy = sub.add_parser("energy", help="energy + gating report")
    energy.add_argument("--design", choices=DESIGN_NAMES, default="A")
    energy.add_argument("--scheme", choices=FIGURE8_SCHEMES,
                        default="multicast+fast_lru")
    energy.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="twolf")
    energy.add_argument("--gate-threshold", type=int, default=2000)
    workload(energy)
    engine(energy)
    energy.set_defaults(handler=cmd_energy)

    report = sub.add_parser(
        "report",
        help="regenerate every artifact into one file, or explore a "
             "--metrics-out snapshot",
        description=(
            "Without an argument: regenerate every table and figure into "
            "--out. With a metrics file (or run directory) written by "
            "--metrics-out: render its windowed time series, a mesh "
            "congestion heatmap from the per-link counters, and the "
            "cache.span.* latency breakdown."
        ),
    )
    report.add_argument("metrics", nargs="?", default=None,
                        help="a --metrics-out JSON file or a directory "
                             "containing one (omit for the full artifact "
                             "regeneration)")
    report.add_argument("--format", choices=("text", "json"), default="text",
                        help="explorer output: human tables/ASCII heatmap "
                             "or the structured JSON report")
    report.add_argument("--check-schema", action="store_true",
                        help="diff the snapshot's keys against the "
                             "telemetry catalog (repro.telemetry.catalog) "
                             "instead of rendering; nonzero exit on "
                             "unknown keys or kind mismatches")
    report.add_argument("--out", default="results.txt")
    workload(report)
    engine(report)
    report.set_defaults(handler=cmd_report)

    cmp_cmd = sub.add_parser("cmp", help="multi-core shared-L2 scaling")
    cmp_cmd.add_argument("--designs", nargs="+", choices=DESIGN_NAMES,
                         default=["A", "F"])
    cmp_cmd.add_argument("--cores", nargs="+", type=int, default=[1, 2, 4])
    workload(cmp_cmd)
    engine(cmp_cmd)
    cmp_cmd.set_defaults(handler=cmd_cmp)

    snuca = sub.add_parser("snuca", help="S-NUCA vs D-NUCA comparison")
    snuca.add_argument("--design", choices=DESIGN_NAMES, default="A")
    snuca.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="art")
    workload(snuca)
    engine(snuca)
    snuca.set_defaults(handler=cmd_snuca)

    faults = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign (resilience curves)",
        description=(
            "Sweep a fault-severity rate (permanent link sampling rate and "
            "per-traversal transient rate) across designs and schemes; "
            "report availability, goodput, and latency degradation per "
            "point. The zero-rate baseline is always included."
        ),
    )
    faults.add_argument("--rate", type=float, nargs="+", default=[1e-3],
                        metavar="R",
                        help="fault rate(s) to sweep (default 1e-3)")
    faults.add_argument("--accesses", type=int, default=600, metavar="N",
                        help="measured accesses per cell (default 600)")
    faults.add_argument("--designs", nargs="+", choices=DESIGN_NAMES,
                        default=["A", "C", "F"])
    faults.add_argument("--schemes", nargs="+", choices=FIGURE8_SCHEMES,
                        default=["multicast+fast_lru"])
    faults.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="art")
    faults.add_argument("--fault-seed", type=int, default=None,
                        help="fault-plan sampling seed (default: --seed)")
    workload(faults, measure=False)
    engine(faults)
    faults.set_defaults(handler=cmd_faults)

    serve = sub.add_parser(
        "serve",
        help="open-loop streaming service with rolling SLO telemetry",
        description=(
            "Serve multi-tenant open-loop request streams (Zipf content, "
            "Poisson/bursty/diurnal arrivals) through the flit-level "
            "fabric with bounded admission queues, and report rolling "
            "per-window p50/p95/p99 latency, goodput, rejection rate, "
            "and availability via the windowed Series telemetry. "
            "--window defaults to 64 cycles here (SLO series need one). "
            "With --sweep L1 L2 ...: run the offered-load x admission-"
            "policy overload grid through the experiment engine instead."
        ),
    )
    serve.add_argument("--design", choices=DESIGN_NAMES, default="C")
    serve.add_argument("--mix", choices=MIX_NAMES, default="duo-bursty",
                       help="named tenant mix (default duo-bursty)")
    serve.add_argument("--policy", choices=ADMISSION_POLICIES,
                       default="drop-tail",
                       help="admission control at the hub issue port")
    serve.add_argument("--cycles", type=int, default=4000, metavar="N",
                       help="open-loop cycle budget (default 4000)")
    serve.add_argument("--load", type=float, default=1.0, metavar="X",
                       help="offered-load multiplier on the mix's "
                            "calibrated rates (default 1.0)")
    serve.add_argument("--queue-limit", type=int, default=32, metavar="N",
                       help="admission queue bound (default 32)")
    serve.add_argument("--outstanding", type=int, default=8, metavar="N",
                       help="max in-flight transactions (default 8)")
    serve.add_argument("--token-rate", type=float, default=0.12,
                       metavar="R",
                       help="token-bucket refill per cycle (default 0.12)")
    serve.add_argument("--token-burst", type=float, default=8.0,
                       metavar="B",
                       help="token-bucket capacity (default 8.0)")
    serve.add_argument("--no-drain", action="store_true",
                       help="stop at the cycle budget without draining "
                            "in-flight transactions")
    serve.add_argument("--sweep", type=float, nargs="+", default=None,
                       metavar="LOAD",
                       help="sweep these load multipliers across both "
                            "admission policies through run_cells")
    serve.add_argument("--core", choices=CORES, default="object",
                       help="flit-simulation core: the reference object "
                            "model or the struct-of-arrays core "
                            "(bit-identical, faster)")
    workload(serve, measure=False)
    engine(serve)
    serve.set_defaults(handler=cmd_serve)

    validate = sub.add_parser(
        "validate",
        help="run the invariant checkers and differential oracle",
        description=(
            "Without --fuzz: differentially validate representative cells "
            "(engine path vs checked replay vs flit-level re-enactment) and "
            "run a short fuzz smoke. With --fuzz N: run N seeded fuzz cases "
            "over random geometries, bank-set shapes, and traces; failures "
            "are shrunk to minimal ready-to-paste pytest repros."
        ),
    )
    validate.add_argument("--fuzz", type=_count, default=0, metavar="N",
                          help="run N fuzz cases instead of the oracle suite")
    validate.add_argument("--benchmark", choices=BENCHMARK_NAMES,
                          default="art")
    validate.add_argument("--sample", type=int, default=3,
                          help="transactions re-enacted at flit level per "
                               "oracle cell (default 3)")
    validate.add_argument("--profile-phases", action="store_true",
                          help="instead of validating, wall-time-profile "
                               "the flit cores' cycle phases (arrivals / "
                               "inject / replication / switch) under the "
                               "standard load and print the breakdown")
    workload(validate)
    engine(validate, window=False)
    validate.set_defaults(handler=cmd_validate)

    trace = sub.add_parser("trace", help="generate a synthetic trace file")
    trace.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="twolf")
    trace.add_argument("--output", required=True)
    workload(trace)
    trace.set_defaults(handler=cmd_trace)

    lint = sub.add_parser(
        "lint",
        help="determinism, mutable-default and exception-handler static "
             "analysis",
        description=(
            "Run the AST rules whose bugs no tier-1 test catches (wall "
            "clock, hash-order reductions, unstable numpy sorts, mutable "
            "defaults, exception handlers; see DESIGN.md §12) over the "
            "tree; any finding fails. With --types, also run the mypy "
            "--strict typed-core gate against the ratcheted "
            "mypy-baseline.txt."
        ),
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to analyze "
                           "(default: src/repro)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every registered rule and exit")
    lint.add_argument("--types", action="store_true",
                      help="also run the mypy --strict typed-core gate "
                           "(skipped with a notice when mypy is absent)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite mypy-baseline.txt from a fresh mypy run")
    lint.set_defaults(handler=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # A typed error is a bad input, not a crash: one line and
        # argparse's usage-error status, no traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if not hasattr(args, "jobs"):
        # Commands that simulate nothing (layout, table, trace, lint)
        # take no engine/telemetry options.
        print(args.handler(args))
        return 0
    from repro import telemetry
    from repro.experiments import runner

    jobs = args.jobs
    use_cache = not args.no_cache
    sink = None
    if args.trace:
        sink = telemetry.open_sink(args.trace, args.trace_format)
        if jobs != 1 or use_cache:
            print(
                "note: --trace forces --jobs 1 and --no-cache (worker "
                "processes and cache replays produce no trace events)",
                file=sys.stderr,
            )
        jobs = 1
        use_cache = False
    runner.configure(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=args.cache_dir,
    )
    previous = telemetry.set_sink(sink) if sink is not None else None
    try:
        print(args.handler(args))
    finally:
        if sink is not None:
            telemetry.set_sink(previous)
            sink.close()
    batch = runner.last_batch()
    if batch is not None:
        print(batch.summary(), file=sys.stderr)
    if args.metrics_out:
        import json

        payload = {
            "metrics": telemetry.global_registry().snapshot(),
            "provenance": telemetry.provenance_block(),
            "journal": runner.journal_payload(),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
