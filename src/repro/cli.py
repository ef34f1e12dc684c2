"""Command-line interface: run serving experiments from a shell.

    python -m repro run --model resnet-50 --preprocess-device gpu
    python -m repro serve --port 8080            # live asyncio node (HTTP)
    python -m repro serve --replay day.jsonl.gz  # sim-vs-live comparison
    python -m repro top --url http://127.0.0.1:8080   # live dashboard
    python -m repro breakdown --model vit-base-16 --size large
    python -m repro sweep --model resnet-50 --concurrencies 1,64,512,4096
    python -m repro cache --skews 0.0,1.0 --cache-mb 0,64,256 --tiers image,tensor
    python -m repro faces --brokers fused,redis,kafka --faces 1,9,25
    python -m repro faults --downtimes 0.01,0.05 --rate 150
    python -m repro models
    python -m repro plan --rate 8000 --slo-ms 150

Sweep commands accept ``--workers N`` to fan points across CPU cores
(bit-identical to serial execution).

Every command accepts ``--json FILE`` / ``--csv FILE`` to export the
rows it prints.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from .analysis.charts import bar_chart, stacked_bar_chart
from .analysis.export import write_csv, write_json
from .analysis.tables import format_table
from .analysis.breakdown import breakdown_from_metrics
from .apps import FacePipelineConfig, serve_classification, zero_load_breakdown
from .core.config import ServerConfig
from .models.zoo import MODEL_ZOO
from .serving import plan_capacity
from .serving.runner import FACE_THINK_JITTER_SECONDS, ExperimentConfig, run_experiment
from .vision.datasets import reference_dataset
from .workload import DAY_SECONDS

__all__ = ["main", "build_parser"]


def _export(args, rows: List[Dict]) -> None:
    if getattr(args, "json", None):
        write_json(args.json, rows)
        print(f"wrote {args.json}")
    if getattr(args, "csv", None):
        write_csv(args.csv, rows)
        print(f"wrote {args.csv}")


def _add_export_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", help="export rows to a JSON file")
    parser.add_argument("--csv", help="export rows to a CSV file")


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep (1 = serial, 0 = one per "
             "CPU core); parallel results are bit-identical to serial")


def _add_workload_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--workload", default=None, metavar="SPEC",
        help=f"{help_text}; a trace path (*.jsonl[.gz]) or a spec like "
             "'diurnal:mean=120,swing=0.6' / 'flash:mean=100,at=300,peak=6' "
             "(see `repro workload --help`)")


def _workload_from_args(args):
    """Parse ``--workload`` if given; ``ValueError`` propagates to callers."""
    spec = getattr(args, "workload", None)
    if not spec:
        return None
    from .workload import Workload

    return Workload.parse(spec)


def _run_points(task, points, workers: int) -> List[Dict]:
    """Run sweep points serially or across cores; return ordered rows."""
    from .parallel import ParallelConfig, run_sweep

    config = ParallelConfig(
        workers=None if workers == 0 else workers,
        serial=workers == 1,
    )
    completed = 0

    def progress(result, total):
        nonlocal completed
        completed += 1
        print(f"  [{completed}/{total}] point {result.index} finished in "
              f"{result.seconds:.2f}s (pid {result.pid})", file=sys.stderr)

    parallel = not config.serial and config.resolved_workers(len(points)) > 1
    report = run_sweep(task, points, config,
                       on_progress=progress if parallel else None)
    if report.mode == "parallel":
        print(report.summary(), file=sys.stderr)
    return report.values


def _add_preprocess_device_flag(parser: argparse.ArgumentParser, default: str,
                                choices: Optional[List[str]] = None,
                                help_text: str = "preprocessing device") -> None:
    """The ``--preprocess-device`` flag."""
    parser.add_argument("--preprocess-device", dest="preprocess_device",
                        default=default, choices=choices, help=help_text)


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _str_list(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# -- commands -------------------------------------------------------------------


def cmd_run(args) -> int:
    from .telemetry import TelemetryConfig

    telemetry = TelemetryConfig(enabled=True, trace_limit=500) if args.trace else None
    result = serve_classification(
        model=args.model,
        preprocess_device=args.preprocess_device,
        image_size=args.size,
        concurrency=args.concurrency,
        gpu_count=args.gpus,
        runtime=args.runtime,
        seed=args.seed,
        telemetry=telemetry,
    )
    row = {"model": args.model, "preprocess_device": args.preprocess_device,
           "image": args.size, **result.to_dict()}
    print(
        format_table(
            ["metric", "value"],
            [
                ["throughput", f"{result.throughput:,.0f} img/s"],
                ["mean latency", f"{result.mean_latency * 1e3:.2f} ms"],
                ["p99 latency", f"{result.p99_latency * 1e3:.2f} ms"],
                ["mean batch", f"{result.metrics.mean_batch_size:.1f}"],
                ["energy", f"{result.joules_per_image:.3f} J/img"],
                ["GPU utilization", f"{result.gpu_utilization * 100:.0f}%"],
            ],
            title=f"{args.model} | {args.preprocess_device} preprocessing | {args.size} image",
        )
    )
    if args.trace:
        count = result.telemetry.write_trace(args.trace)
        print(f"wrote {count} trace events to {args.trace} "
              "(open in https://ui.perfetto.dev)")
    _export(args, [row])
    return 0


def cmd_serve(args) -> int:
    if args.replay:
        return _cmd_serve_replay(args)
    return _cmd_serve_live(args)


def _cmd_serve_live(args) -> int:
    import asyncio
    import signal

    from .live import LiveHttpServer, LiveNode, LiveNodeConfig

    from .telemetry import TelemetryConfig
    from .telemetry.slo import SloConfig

    slo = None
    if args.slo_ms:
        slo = SloConfig(latency_objective_seconds=args.slo_ms / 1e3,
                        target=args.target)
    telemetry = TelemetryConfig(
        enabled=True,
        trace=False,
        slo=slo,
        scrape_interval_seconds=args.scrape_interval or None,
        history_points=args.history_points,
    )
    config = LiveNodeConfig(
        server=ServerConfig(
            model=args.model,
            preprocess_device=args.preprocess_device,
            runtime=args.runtime,
        ),
        gpu_count=args.gpus,
        time_scale=args.time_scale,
        grace_seconds=args.grace_seconds,
        telemetry=telemetry,
    )

    async def serve() -> None:
        node = LiveNode(config)
        http = LiveHttpServer(node, args.host, args.port)
        node.start()
        await http.start()
        host, port = http.address
        print(
            f"serving {args.model} ({args.preprocess_device} preprocessing, "
            f"{args.gpus} GPU) on http://{host}:{port} — "
            "POST /v1/infer, GET /metrics /metrics/history /stats /healthz",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        try:
            if args.duration is not None:
                try:
                    await asyncio.wait_for(stop.wait(), timeout=args.duration)
                except asyncio.TimeoutError:
                    pass
            else:
                await stop.wait()
        finally:
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(sig)
        print("shutting down: draining batchers", flush=True)
        await http.stop()
        metrics = await node.shutdown()
        print(
            f"served {metrics.completed} requests "
            f"(admitted {node.admitted}, rejected {node.rejected})"
        )
        if metrics.completed:
            print(
                f"mean latency {metrics.latency.mean * 1e3:.2f} ms | "
                f"p99 {metrics.latency.p99 * 1e3:.2f} ms | "
                f"mean batch {metrics.mean_batch_size:.2f}"
            )

    asyncio.run(serve())
    return 0


def _cmd_serve_replay(args) -> int:
    from .live import replay_trace

    try:
        config = ExperimentConfig(
            server=ServerConfig(
                model=args.model,
                preprocess_device=args.preprocess_device,
                runtime=args.runtime,
                preprocess_batch_size=64,
            ),
            dataset=reference_dataset(args.size),
            gpu_count=args.gpus,
            seed=args.seed,
            warmup_requests=args.warmup,
            measure_requests=args.requests,
            max_sim_seconds=args.max_seconds,
        )
        report = replay_trace(args.replay, config, time_scale=args.time_scale,
                              fast_forward=args.fast_forward)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    mode = "fast-forward" if report.fast_forward else f"x{report.time_scale:g}"
    print(
        format_table(
            ["metric", "sim (virtual clock)", "live (asyncio)", "delta"],
            report.rows(),
            title=f"sim vs live — {report.workload_name} on {args.model} ({mode})",
        )
    )
    _export(args, [report.to_dict()])
    return 0


def cmd_top(args) -> int:
    import json as json_module
    import time
    import urllib.error
    import urllib.request

    from .analysis.top import render_top
    from .telemetry.timeseries import TimeSeriesStore

    patterns = args.series or None

    if args.cluster:
        # Offline mode: one frame from an exported cluster time-series
        # file (`repro cluster --timeseries-out FILE`).
        try:
            store = TimeSeriesStore.read_jsonl(args.cluster)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load {args.cluster}: {error}", file=sys.stderr)
            return 2
        print(render_top(store, title=f"repro top — {args.cluster}",
                         width=args.width, patterns=patterns), end="")
        return 0

    base = args.url.rstrip("/")

    def fetch(path: str):
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return json_module.loads(response.read().decode())

    frames = 1 if args.once else args.count
    shown = 0
    while frames is None or shown < frames:
        if shown:
            time.sleep(args.interval)
        try:
            history = fetch("/metrics/history")
            stats = fetch("/stats")
        except urllib.error.HTTPError as error:
            detail = error.read().decode(errors="replace")
            print(f"error: {base} returned {error.code}: {detail}",
                  file=sys.stderr)
            return 2
        except (urllib.error.URLError, OSError) as error:
            print(f"error: cannot reach {base}: {error}", file=sys.stderr)
            return 2
        store = TimeSeriesStore.from_dict(history)
        frame = render_top(store, stats=stats, title=f"repro top — {base}",
                           width=args.width, patterns=patterns)
        if not args.plain:
            print("\x1b[2J\x1b[H", end="")
        print(frame, end="", flush=True)
        shown += 1
    return 0


def cmd_breakdown(args) -> int:
    rows = []
    chart_rows = {}
    for device in _str_list(args.preprocess_device):
        result = zero_load_breakdown(
            model=args.model, preprocess_device=device, image_size=args.size
        )
        b = breakdown_from_metrics(result.metrics)
        rows.append(
            {
                "model": args.model,
                "image": args.size,
                "preprocess_device": device,
                "latency_ms": b.total * 1e3,
                "preprocess_ms": b.preprocess * 1e3,
                "inference_ms": b.inference * 1e3,
                "preprocess_share": b.preprocess_fraction,
            }
        )
        chart_rows[device] = {
            "preprocess": b.preprocess * 1e3,
            "transfer": b.transfer * 1e3,
            "inference": b.inference * 1e3,
            "other": (b.queue + b.other) * 1e3,
        }
    print(
        stacked_bar_chart(
            chart_rows,
            title=f"Zero-load latency breakdown (ms) — {args.model}, {args.size} image",
        )
    )
    for row in rows:
        print(
            f"{row['preprocess_device']}: {row['latency_ms']:.2f} ms total, "
            f"{row['preprocess_share'] * 100:.1f}% preprocessing"
        )
    _export(args, rows)
    return 0


def cmd_sweep(args) -> int:
    from .parallel import ExperimentPoint, run_experiment_point

    try:
        workload = _workload_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if workload is not None:
        # Open-loop: the workload, not closed-loop concurrency, sets the
        # load, so the sweep collapses to one point per seed.
        seeds = [args.seed + i for i in range(args.repeats)]
        points = [
            ExperimentPoint(
                config=ExperimentConfig(
                    server=ServerConfig(
                        model=args.model,
                        preprocess_device=args.preprocess_device,
                        preprocess_batch_size=64,
                    ),
                    dataset=reference_dataset(args.size),
                    warmup_requests=300,
                    measure_requests=1500,
                    seed=seed,
                ),
                workload=workload,
                tags=(("workload", workload.name), ("seed", seed)),
            )
            for seed in seeds
        ]
        rows = _run_points(run_experiment_point, points, args.workers)
        chart = {f"seed={row['seed']}": row["throughput"] for row in rows}
        print(bar_chart(chart, unit=" img/s",
                        title=f"Open-loop throughput — {workload.name}, "
                              f"{args.model} ({args.preprocess_device})"))
        _export(args, rows)
        return 0
    points = [
        ExperimentPoint(
            config=ExperimentConfig(
                server=ServerConfig(
                    model=args.model,
                    preprocess_device=args.preprocess_device,
                    preprocess_batch_size=64,
                ),
                dataset=reference_dataset(args.size),
                concurrency=concurrency,
                warmup_requests=max(300, concurrency),
                measure_requests=max(1500, 2 * concurrency),
                seed=args.seed,
            ),
            tags=(("concurrency", concurrency),),
        )
        for concurrency in _int_list(args.concurrencies)
    ]
    rows = _run_points(run_experiment_point, points, args.workers)
    chart = {f"c={row['concurrency']}": row["throughput"] for row in rows}
    print(bar_chart(chart, unit=" img/s",
                    title=f"Throughput vs concurrency — {args.model} ({args.preprocess_device})"))
    _export(args, rows)
    return 0


def cmd_cache(args) -> int:
    from .cache.config import MIB, POLICIES, CacheConfig
    from .vision.datasets import ImageNetLikeDataset, ZipfDataset

    tiers = _str_list(args.tiers)
    unknown = [tier for tier in tiers if tier not in ("image", "tensor", "result")]
    if unknown:
        print(f"error: unknown cache tier(s) {','.join(unknown)} "
              "(choose from image,tensor,result)", file=sys.stderr)
        return 2
    if args.policy not in POLICIES:
        print(f"error: unknown policy {args.policy!r} (choose from {','.join(POLICIES)})",
              file=sys.stderr)
        return 2

    from .parallel import ExperimentPoint, run_experiment_point

    try:
        workload = _workload_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    skews = _float_list(args.skews)
    budgets = _float_list(args.cache_mb)
    points = []
    for skew in skews:
        dataset = ZipfDataset(
            ImageNetLikeDataset(),
            catalog_size=args.catalog,
            skew=skew,
            seed=args.seed,
        )
        for cache_mb in budgets:
            if cache_mb > 0:
                budget = cache_mb * MIB
                cache = CacheConfig(
                    policy=args.policy,
                    image_cache_bytes=budget if "image" in tiers else 0.0,
                    tensor_cache_bytes=budget if "tensor" in tiers else 0.0,
                    result_cache_bytes=budget if "result" in tiers else 0.0,
                )
            else:
                cache = None  # zero budget = the exact uncached code path
            points.append(
                ExperimentPoint(
                    config=ExperimentConfig(
                        server=ServerConfig(
                            model=args.model,
                            preprocess_device=args.preprocess_device,
                            preprocess_batch_size=64,
                            cache=cache,
                        ),
                        dataset=dataset,
                        concurrency=args.concurrency,
                        warmup_requests=args.warmup,
                        measure_requests=args.requests,
                        seed=args.seed,
                    ),
                    # The sweep's per-skew Zipf dataset replaces the
                    # workload's own dataset so the skew axis survives;
                    # arrival timing (and open-loop mode) come from the
                    # workload.
                    workload=(workload.with_overrides(dataset=dataset)
                              if workload is not None else None),
                    tags=(
                        ("skew", skew),
                        ("catalog_size", args.catalog),
                        ("cache_mb", cache_mb),
                        ("policy", args.policy if cache is not None else "off"),
                        ("tiers", ",".join(tiers) if cache is not None else ""),
                    ),
                )
            )
    rows = _run_points(run_experiment_point, points, args.workers)
    for skew in skews:
        chart = {
            f"{row['cache_mb']:g} MiB" if row["cache_mb"] > 0 else "off":
                row["throughput"]
            for row in rows
            if row["skew"] == skew
        }
        print(bar_chart(chart, unit=" img/s",
                        title=f"Throughput vs cache size — Zipf s={skew:g}, "
                              f"catalog {args.catalog}, tiers {'+'.join(tiers)}"))
        print()
    _export(args, rows)
    return 0


def cmd_faces(args) -> int:
    from .parallel import ExperimentPoint, run_experiment_point

    try:
        workload = _workload_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    face_counts = _int_list(args.faces)
    brokers = _str_list(args.brokers)
    points = [
        ExperimentPoint(
            config=ExperimentConfig(
                server=FacePipelineConfig(broker=broker, faces_per_frame=faces),
                workload=workload,  # closed loop: the frame mix only
                concurrency=args.concurrency,
                warmup_requests=120,
                measure_requests=args.frames,
                seed=args.seed,
                think_jitter_seconds=FACE_THINK_JITTER_SECONDS,
            ),
            tags=(("broker", broker), ("faces", faces)),
        )
        for faces in face_counts
        for broker in brokers
    ]
    rows = _run_points(run_experiment_point, points, args.workers)
    for faces in face_counts:
        chart = {row["broker"]: row["throughput"]
                 for row in rows if row["faces"] == faces}
        print(bar_chart(chart, unit=" frames/s", title=f"{faces} faces/frame"))
        print()
    _export(args, rows)
    return 0


def cmd_models(args) -> int:
    rows = [
        {
            "name": spec.name,
            "task": spec.task,
            "gflops": spec.gflops,
            "params_millions": spec.params_millions,
            "input_size": spec.input_size,
            "hf_id": spec.hf_id,
        }
        for spec in sorted(MODEL_ZOO.values(), key=lambda s: s.gflops)
    ]
    print(
        format_table(
            ["name", "task", "GFLOPs", "params (M)", "input", "source"],
            [
                [r["name"], r["task"], f"{r['gflops']:.2f}",
                 f"{r['params_millions']:.1f}", str(r["input_size"]), r["hf_id"]]
                for r in rows
            ],
            title="Model zoo",
        )
    )
    _export(args, rows)
    return 0


def cmd_faults(args) -> int:
    from .faults.experiment import sweep_fault_rates
    from .serving.resilience import ResiliencePolicy, RetryPolicy
    from .workload import Workload

    try:
        fractions = _float_list(args.downtimes)
        for fraction in fractions:
            if not 0.0 < fraction < 1.0:
                raise ValueError(
                    f"downtime fractions must be in (0, 1), got {fraction}"
                )
        resilience = ResiliencePolicy(
            deadline_seconds=args.deadline_ms / 1e3 if args.deadline_ms > 0 else None,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            max_backlog=args.max_backlog,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not fractions:
        print("error: no downtime fractions given", file=sys.stderr)
        return 1
    try:
        workload = _workload_from_args(args) or Workload.constant(
            args.rate, dataset=reference_dataset(args.size))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    points = sweep_fault_rates(
        ServerConfig(model=args.model, preprocess_device=args.preprocess_device,
                     preprocess_batch_size=64),
        downtime_fractions=fractions,
        restart_seconds=args.restart_ms / 1e3,
        resilience=resilience,
        workers=args.workers if args.workers != 0 else os.cpu_count(),
        node_count=args.nodes,
        seed=args.seed,
        warmup_requests=args.warmup,
        measure_requests=args.requests,
        max_sim_seconds=args.max_seconds,
        workload=workload,
    )
    rows = [{"downtime_fraction": 0.0, **points[0].baseline.to_dict()}]
    for point in points:
        rows.append({
            "downtime_fraction": point.downtime_fraction,
            "goodput_ratio": point.goodput_ratio,
            "p99_ratio": point.p99_ratio,
            **point.result.to_dict(),
        })
    print(
        format_table(
            ["downtime", "goodput", "p99 (ms)", "timeouts", "retries", "shed", "faults"],
            [["0.0%", "100.0%",
              f"{points[0].baseline.metrics.latency.p99 * 1e3:.1f}",
              "0", "0", "0", "0"]] +
            [
                [f"{p.downtime_fraction * 100:.1f}%",
                 f"{p.goodput_ratio * 100:.1f}%",
                 f"{p.result.metrics.latency.p99 * 1e3:.1f}",
                 str(p.timeouts), str(p.retries),
                 str(p.result.metrics.shed_count),
                 str(p.result.fault_count)]
                for p in points
            ],
            title=f"GPU-crash tolerance — {args.model}, {args.nodes} node(s) "
                  f"@ {workload.offered_rate_hint():.0f} req/s",
        )
    )
    print(bar_chart({f"{p.downtime_fraction * 100:.1f}%": p.goodput_ratio * 100 for p in points},
                    unit="%", title="Goodput vs per-GPU downtime"))
    _export(args, rows)
    return 0


def cmd_telemetry(args) -> int:
    from .telemetry import SloConfig, TelemetryConfig

    interval = 0.005  # cadence of the gauges behind the counter tracks
    telemetry = TelemetryConfig(
        enabled=True,
        trace=True,
        trace_limit=args.trace_limit,
        trace_sample_every=args.sample_every,
        slo=SloConfig(latency_objective_seconds=args.slo_ms / 1e3, target=args.target),
        scrape_interval_seconds=interval,
        # The ring holds every tick of the longest run the runners allow
        # (their 600 s max_sim_seconds) plus the closing scrape, so no
        # counter track loses its start.
        history_points=int(600.0 / interval) + 2,
    )
    faces = args.scenario == "faces"
    result = run_experiment(
        ExperimentConfig(
            server=FacePipelineConfig() if faces else ServerConfig(
                model=args.model,
                preprocess_device=args.preprocess_device,
                preprocess_batch_size=64,
            ),
            dataset=None if faces else reference_dataset(args.size),
            concurrency=args.concurrency,
            warmup_requests=args.warmup,
            measure_requests=args.requests,
            seed=args.seed,
            think_jitter_seconds=FACE_THINK_JITTER_SECONDS if faces else 0.0,
            telemetry=telemetry,
        )
    )
    title = ("face pipeline" if faces
             else f"{args.model} ({args.preprocess_device} preprocessing)")
    session = result.telemetry
    report = session.slo_report()
    tracer = session.tracer
    print(
        format_table(
            ["metric", "value"],
            [
                ["throughput", f"{result.throughput:,.0f} img/s"],
                ["p99 latency", f"{result.p99_latency * 1e3:.2f} ms"],
                ["traced requests", str(len(tracer.requests))],
                ["trace drops", str(tracer.dropped)],
                ["metric series", str(len(session.registry))],
                ["SLO objective", f"{report.config.latency_objective_seconds * 1e3:.0f} ms @ "
                                  f"{report.config.target * 100:g}%"],
                ["SLO compliance", f"{report.compliance * 100:.2f}% "
                                   f"({'met' if report.met else 'MISSED'})"],
                ["error budget used", f"{report.error_budget_consumed * 100:.1f}%"],
            ],
            title=f"telemetry — {title}",
        )
    )
    for window in report.windows:
        print(f"burn rate over last {window.window_seconds:g}s: "
              f"{window.burn_rate:.2f}x budget ({window.bad}/{window.total} bad)")
    if args.trace:
        count = session.write_trace(args.trace)
        print(f"wrote {count} trace events to {args.trace} "
              "(open in https://ui.perfetto.dev)")
    if args.metrics:
        with open(args.metrics, "w") as handle:
            handle.write(session.prometheus_text())
        print(f"wrote Prometheus metrics to {args.metrics}")
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            handle.write(session.json_metrics())
        print(f"wrote JSON metrics to {args.metrics_json}")
    _export(args, [{"scenario": args.scenario, "slo_met": report.met,
                    "slo_compliance": report.compliance,
                    "error_budget_consumed": report.error_budget_consumed,
                    "traced_requests": len(tracer.requests),
                    **result.to_dict()}])
    return 0 if report.met else 1


def cmd_cluster(args) -> int:
    from .cluster import ClusterConfig, run_cluster_experiment
    from .telemetry.slo import SloConfig
    from .workload import Workload

    workload = _workload_from_args(args)
    if workload is None:
        workload = Workload.constant(args.rate, duration_seconds=args.duration)
    cluster = ClusterConfig(
        cells=args.cells,
        nodes_per_cell=args.nodes_per_cell,
        shards=args.shards,
        routing=args.routing,
        execution=args.execution,
        workers=args.workers or None,
        base_latency_seconds=args.base_latency_us / 1e6,
        jitter_latency_seconds=args.jitter_latency_us / 1e6,
        topology_seed=args.topology_seed,
        fluid=args.fluid,
        fluid_hot_threshold=args.fluid_hot_threshold,
    )
    slo = None
    if args.slo_ms is not None:
        slo = SloConfig(latency_objective_seconds=args.slo_ms / 1e3,
                        target=args.target)
    trace_sessions = args.trace_sessions
    if args.trace_out and trace_sessions == 0:
        trace_sessions = 8  # tracing requested: sample a handful of sessions
    result = run_cluster_experiment(
        ServerConfig(model=args.model, preprocess_device=args.preprocess_device),
        cluster,
        workload,
        seed=args.seed,
        max_requests=args.max_requests,
        max_sim_seconds=args.max_seconds,
        slo=slo,
        trace_sessions=trace_sessions,
        trace_limit=args.trace_limit,
        timeseries_interval=(args.timeseries_interval
                             if args.timeseries_out else None),
    )
    metrics = result.metrics
    rows = [
        ["nodes", f"{result.node_count:,} ({cluster.cells} cells x "
                  f"{cluster.nodes_per_cell})"],
        ["shards", f"{result.shard_count} ({result.mode}, "
                   f"{result.workers} worker(s))"],
        ["routing", cluster.routing],
        ["issued", f"{result.issued:,}"],
        ["completed", f"{result.completed:,}"],
        ["throughput", f"{metrics.throughput:,.1f} img/s"],
        ["p50 latency", f"{metrics.latency.p50 * 1e3:.2f} ms"],
        ["p99 latency", f"{metrics.latency.p99 * 1e3:.2f} ms"],
        ["epochs", f"{result.epochs:,} x {result.epoch_seconds * 1e3:g} ms"],
        ["cells touched", f"{result.cells_touched}/{cluster.cells}"],
        ["wall clock", f"{result.wall_seconds:.2f} s"],
    ]
    if result.timeouts:
        rows.append(["timeouts", f"{result.timeouts:,}"])
    if result.fluid_served:
        rows.append(["fluid served", f"{result.fluid_served:,}"])
    if result.slo is not None:
        rows.append(["SLO compliance",
                     f"{result.slo.compliance * 100:.2f}% "
                     f"({'met' if result.slo.met else 'MISSED'})"])
    print(format_table(["metric", "value"], rows,
                       title=f"cluster — {workload.name}"))
    if args.per_shard:
        print(format_table(
            ["shard", "cells", "touched", "delivered", "completed"],
            [[str(s.shard_id), str(s.cells), str(s.cells_touched),
              str(s.delivered), str(s.completed)] for s in result.shards],
            title="per-shard",
        ))
    if args.trace_out:
        count = result.write_trace(args.trace_out)
        traced = len({record.trace_id for record in result.traces})
        print(f"wrote {count} trace events for {traced} session trace(s) "
              f"to {args.trace_out} (open in Perfetto)")
    if args.timeseries_out:
        series = result.write_timeseries(args.timeseries_out)
        print(f"wrote {series} time series to {args.timeseries_out} "
              f"(view with `repro top --cluster {args.timeseries_out}`)")
    _export(args, [result.to_dict()])
    if result.slo is not None and not result.slo.met:
        return 1
    return 0


def cmd_plan(args) -> int:
    plan = plan_capacity(
        ServerConfig(model=args.model, preprocess_device=args.preprocess_device,
                     preprocess_batch_size=64),
        offered_rate=args.rate,
        p99_slo_seconds=args.slo_ms / 1e3,
        dataset=reference_dataset(args.size),
        max_nodes=args.max_nodes,
        warmup_requests=max(1000, int(args.rate * 0.2)),
        measure_requests=max(2000, int(args.rate * 0.4)),
        seed=args.seed,
    )
    print(f"offered load : {plan.offered_rate:,.0f} req/s")
    print(f"p99 SLO      : {plan.p99_slo_seconds * 1e3:.0f} ms")
    print(f"nodes needed : {plan.nodes_required}")
    print(f"achieved p99 : {plan.achieved_p99 * 1e3:.1f} ms")
    print(bar_chart({f"{n} node(s)": p99 * 1e3 for n, p99 in plan.evaluations.items()},
                    unit=" ms", title="p99 by fleet size"))
    rows = [
        {"nodes": n, "p99_ms": p99 * 1e3, "meets_slo": p99 <= plan.p99_slo_seconds}
        for n, p99 in plan.evaluations.items()
    ]
    _export(args, rows)
    return 0


def cmd_workload_synthesize(args) -> int:
    from .workload import Workload, synthesize_trace, trace_digest

    try:
        workload = Workload.parse(args.spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if workload.is_replay:
        print("error: spec is already a trace file; nothing to synthesize",
              file=sys.stderr)
        return 2
    if workload.duration_seconds is None:
        print("error: spec needs duration= (an unbounded workload never "
              "finishes recording)", file=sys.stderr)
        return 2
    count = synthesize_trace(workload, args.out, seed=args.seed)
    digest = trace_digest(args.out)
    print(f"wrote {count} events to {args.out}")
    print(f"sha256 (uncompressed): {digest}")
    _export(args, [{"path": args.out, "workload": workload.name,
                    "seed": args.seed, "events": count, "digest": digest}])
    return 0


def _flatten_describe(data: Dict, prefix: str = "") -> List[List[str]]:
    rows = []
    for key, value in data.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_describe(value, prefix=f"{label}."))
        else:
            rows.append([label, f"{value:g}" if isinstance(value, float) else str(value)])
    return rows


def cmd_workload_describe(args) -> int:
    import json

    from .workload import Workload, describe_trace

    target = args.target
    if os.path.exists(target):
        stats = describe_trace(target)
        title = f"trace {target}"
    else:
        try:
            workload = Workload.parse(target)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        stats = workload.describe()
        title = f"workload {workload.name}"
    print(format_table(["field", "value"], _flatten_describe(stats), title=title))
    _export(args, [{key: (json.dumps(value) if isinstance(value, dict) else value)
                    for key, value in stats.items()}])
    return 0


def cmd_workload_replay(args) -> int:
    from .serving.runner import run_open_loop
    from .workload import Workload

    try:
        workload = Workload.replay(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_open_loop(
        ExperimentConfig(
            server=ServerConfig(model=args.model,
                                preprocess_device=args.preprocess_device,
                                preprocess_batch_size=64),
            dataset=reference_dataset(args.size),
            warmup_requests=args.warmup,
            measure_requests=args.requests,
            seed=args.seed,
            max_sim_seconds=args.max_seconds,
        ),
        workload=workload,
    )
    phase_rows = [
        [key.removeprefix("workload_phase_"), f"{value:,.0f}"]
        for key, value in sorted(result.metrics.extras.items())
        if key.startswith("workload_phase_")
    ]
    print(
        format_table(
            ["metric", "value"],
            [
                ["throughput", f"{result.throughput:,.2f} img/s"],
                ["mean latency", f"{result.mean_latency * 1e3:.2f} ms"],
                ["p99 latency", f"{result.p99_latency * 1e3:.2f} ms"],
                ["measured requests", f"{result.metrics.completed:,}"],
            ] + [[f"phase {name}", count] for name, count in phase_rows],
            title=f"trace replay — {workload.name} on {args.model} "
                  f"({args.preprocess_device} preprocessing)",
        )
    )
    _export(args, [{"workload": workload.name, "trace": args.trace,
                    **result.to_dict()}])
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated DNN-serving experiments (DAC'24 'Beyond Inference')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one simulated serving experiment")
    run_cmd.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(run_cmd, default="gpu", choices=["cpu", "gpu"])
    run_cmd.add_argument("--size", default="medium", choices=["small", "medium", "large"])
    run_cmd.add_argument("--concurrency", type=int, default=512)
    run_cmd.add_argument("--gpus", type=int, default=1)
    run_cmd.add_argument("--runtime", default="tensorrt",
                         choices=["tensorrt", "onnxruntime", "pytorch"])
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--trace", help="write a Perfetto timeline trace JSON")
    _add_export_flags(run_cmd)
    run_cmd.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve",
        help="live asyncio serving node over HTTP; --replay compares "
             "a recorded trace under the virtual and wall clocks")
    serve.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(serve, default="gpu", choices=["cpu", "gpu"])
    serve.add_argument("--size", default="medium", choices=["small", "medium", "large"],
                       help="reference image class for replayed requests")
    serve.add_argument("--gpus", type=int, default=1)
    serve.add_argument("--runtime", default="tensorrt",
                       choices=["tensorrt", "onnxruntime", "pytorch"])
    serve.add_argument("--seed", type=int, default=0,
                       help="replay: seed of both replayed runs")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="HTTP port (0 picks a free port)")
    serve.add_argument("--time-scale", type=float, default=1.0,
                       help="virtual seconds per wall second (live mode) / "
                            "trace compression factor (replay mode)")
    serve.add_argument("--grace-seconds", type=float, default=5.0,
                       help="batcher-drain deadline on shutdown")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N wall seconds then exit "
                            "(default: until SIGINT/SIGTERM)")
    serve.add_argument("--scrape-interval", type=float, default=1.0,
                       help="metrics scrape cadence in virtual seconds "
                            "feeding /metrics/history (0 disables)")
    serve.add_argument("--history-points", type=int, default=720,
                       help="ring capacity per time series")
    serve.add_argument("--slo-ms", type=float, default=200.0,
                       help="latency objective (ms) scored into SLO burn "
                            "windows (0 disables)")
    serve.add_argument("--target", type=float, default=0.99,
                       help="required good fraction for --slo-ms")
    serve.add_argument("--replay", metavar="TRACE",
                       help="replay a repro-trace-v1 file through both "
                            "clocks and report the sim-vs-live gap")
    serve.add_argument("--requests", type=int, default=500,
                       help="replay: measurement completion target")
    serve.add_argument("--warmup", type=int, default=0,
                       help="replay: completions discarded as warm-up")
    serve.add_argument("--max-seconds", type=float, default=600.0,
                       help="replay: cap on simulated seconds")
    serve.add_argument("--fast-forward", action="store_true",
                       help="replay without sleeping: deterministic "
                            "asyncio dispatch, metrics match the DES exactly")
    _add_export_flags(serve)
    serve.set_defaults(func=cmd_serve)

    breakdown = sub.add_parser("breakdown", help="zero-load latency breakdown")
    breakdown.add_argument("--model", default="vit-base-16", choices=sorted(MODEL_ZOO))
    breakdown.add_argument("--size", default="medium", choices=["small", "medium", "large"])
    _add_preprocess_device_flag(breakdown, default="cpu,gpu",
                                help_text="comma-separated devices")
    _add_export_flags(breakdown)
    breakdown.set_defaults(func=cmd_breakdown)

    sweep = sub.add_parser("sweep", help="concurrency sweep")
    sweep.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(sweep, default="gpu", choices=["cpu", "gpu"])
    sweep.add_argument("--size", default="medium", choices=["small", "medium", "large"])
    sweep.add_argument("--concurrencies", default="1,16,64,256,1024")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--repeats", type=int, default=1,
                       help="with --workload: open-loop runs at consecutive seeds")
    _add_workload_flag(sweep, "drive the sweep open-loop from this workload "
                              "(ignores --concurrencies)")
    _add_workers_flag(sweep)
    _add_export_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    cache = sub.add_parser("cache", help="content-cache sweep (skew x size x tiers)")
    cache.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(cache, default="gpu", choices=["cpu", "gpu"])
    cache.add_argument("--skews", default="0.0,0.8,1.2",
                       help="comma-separated Zipf skew exponents")
    cache.add_argument("--cache-mb", default="0,64,256", dest="cache_mb",
                       help="comma-separated per-tier budgets in MiB (0 = caching off)")
    cache.add_argument("--tiers", default="image,tensor",
                       help="comma-separated tiers to enable: image,tensor,result")
    cache.add_argument("--policy", default="lru", help="eviction policy (lru|lfu|s3fifo)")
    cache.add_argument("--catalog", type=int, default=200,
                       help="distinct images in the Zipf catalog")
    cache.add_argument("--concurrency", type=int, default=64)
    cache.add_argument("--warmup", type=int, default=300)
    cache.add_argument("--requests", type=int, default=1500)
    cache.add_argument("--seed", type=int, default=0)
    _add_workload_flag(cache, "drive each cache point open-loop from this "
                              "workload (its dataset is replaced per skew)")
    _add_workers_flag(cache)
    _add_export_flags(cache)
    cache.set_defaults(func=cmd_cache)

    faces = sub.add_parser("faces", help="multi-DNN broker comparison")
    faces.add_argument("--brokers", default="fused,redis,kafka")
    faces.add_argument("--faces", default="1,9,25")
    faces.add_argument("--concurrency", type=int, default=96)
    faces.add_argument("--frames", type=int, default=800)
    faces.add_argument("--seed", type=int, default=0)
    _add_workload_flag(faces, "frame dataset/popularity for the pipeline "
                              "(closed-loop; arrivals ignored)")
    _add_workers_flag(faces)
    _add_export_flags(faces)
    faces.set_defaults(func=cmd_faces)

    faults = sub.add_parser("faults", help="fault-tolerance sweep (GPU crashes)")
    faults.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(faults, default="gpu", choices=["cpu", "gpu"])
    faults.add_argument("--size", default="medium", choices=["small", "medium", "large"])
    faults.add_argument("--nodes", type=int, default=2)
    faults.add_argument("--rate", type=float, default=150.0, help="offered req/s")
    faults.add_argument("--downtimes", default="0.01,0.02,0.05",
                        help="comma-separated per-GPU downtime fractions")
    faults.add_argument("--restart-ms", type=float, default=500.0,
                        help="GPU restart time per crash (ms)")
    faults.add_argument("--deadline-ms", type=float, default=250.0,
                        help="per-attempt deadline (ms); 0 disables deadlines")
    faults.add_argument("--max-attempts", type=int, default=3)
    faults.add_argument("--max-backlog", type=int, default=None,
                        help="shed new requests beyond this balancer backlog")
    faults.add_argument("--warmup", type=int, default=200)
    faults.add_argument("--requests", type=int, default=1000)
    faults.add_argument("--max-seconds", type=float, default=60.0)
    faults.add_argument("--seed", type=int, default=0)
    _add_workload_flag(faults, "fleet load during the fault sweep "
                               "(overrides --rate/--size)")
    _add_workers_flag(faults)
    _add_export_flags(faults)
    faults.set_defaults(func=cmd_faults)

    telemetry = sub.add_parser(
        "telemetry",
        help="run one scenario with full observability (trace + metrics + SLO)",
    )
    telemetry.add_argument("--scenario", default="serve", choices=["serve", "faces"])
    telemetry.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(telemetry, default="gpu", choices=["cpu", "gpu"])
    telemetry.add_argument("--size", default="medium",
                           choices=["small", "medium", "large"])
    telemetry.add_argument("--concurrency", type=int, default=64)
    telemetry.add_argument("--warmup", type=int, default=200)
    telemetry.add_argument("--requests", type=int, default=1000)
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument("--slo-ms", type=float, default=200.0,
                           help="latency objective (ms)")
    telemetry.add_argument("--target", type=float, default=0.99,
                           help="required good fraction, e.g. 0.99")
    telemetry.add_argument("--trace", help="write a Perfetto timeline trace JSON")
    telemetry.add_argument("--trace-limit", type=int, default=2000,
                           help="max requests kept in the trace")
    telemetry.add_argument("--sample-every", type=int, default=1,
                           help="trace every Nth request")
    telemetry.add_argument("--metrics", help="write Prometheus text metrics to FILE")
    telemetry.add_argument("--metrics-json", help="write JSON metrics to FILE")
    _add_export_flags(telemetry)
    telemetry.set_defaults(func=cmd_telemetry)

    cluster = sub.add_parser(
        "cluster",
        help="sharded fleet simulation (cells behind a global routing tier)",
        description="Simulate a cluster of independent cells behind a "
                    "global routing tier, packed onto one or more "
                    "execution shards advanced in conservative lockstep "
                    "epochs.  Results are invariant to --shards and "
                    "--execution; see docs/MODELING.md §12.",
    )
    cluster.add_argument("--cells", type=int, default=8,
                         help="routing cells (independent balancer groups)")
    cluster.add_argument("--nodes-per-cell", type=int, default=4)
    cluster.add_argument("--shards", type=int, default=1,
                         help="execution shards (never changes results)")
    cluster.add_argument("--routing", default="hash",
                         choices=["hash", "round_robin", "least_backlog"])
    cluster.add_argument("--execution", default="serial",
                         choices=["serial", "process"])
    cluster.add_argument("--workers", type=int, default=0,
                         help="pool size for process execution "
                              "(0 = one per shard)")
    cluster.add_argument("--model", default="resnet-50",
                         choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(cluster, default="gpu", choices=["cpu", "gpu"])
    cluster.add_argument("--rate", type=float, default=200.0,
                         help="offered req/s when no --workload is given")
    cluster.add_argument("--duration", type=float, default=30.0,
                         help="seconds of constant load when no --workload")
    _add_workload_flag(cluster, "cluster traffic")
    cluster.add_argument("--base-latency-us", type=float, default=500.0,
                         help="one-way router<->cell latency floor (µs)")
    cluster.add_argument("--jitter-latency-us", type=float, default=0.0,
                         help="per-cell deterministic latency spread (µs)")
    cluster.add_argument("--topology-seed", type=int, default=0)
    cluster.add_argument("--fluid", action="store_true",
                         help="serve cold cells analytically at zero-load "
                              "latency until they turn hot")
    cluster.add_argument("--fluid-hot-threshold", type=int, default=32)
    cluster.add_argument("--max-requests", type=int, default=None)
    cluster.add_argument("--max-seconds", type=float, default=None,
                         help="hard wall on simulated seconds")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--slo-ms", type=float, default=None,
                         help="latency objective (ms); enables SLO tracking")
    cluster.add_argument("--target", type=float, default=0.99,
                         help="required good fraction for --slo-ms")
    cluster.add_argument("--per-shard", action="store_true",
                         help="print the per-shard accounting table")
    cluster.add_argument("--trace-out", metavar="FILE",
                         help="write a merged cross-shard Perfetto trace "
                              "of sampled user sessions")
    cluster.add_argument("--trace-sessions", type=int, default=0,
                         help="distinct user sessions to trace end to end "
                              "(0 = off; --trace-out defaults it to 8)")
    cluster.add_argument("--trace-limit", type=int, default=2000,
                         help="max traced requests kept per cell")
    cluster.add_argument("--timeseries-out", metavar="FILE",
                         help="export windowed cluster time series as "
                              "JSONL (.gz supported); view with "
                              "`repro top --cluster FILE`")
    cluster.add_argument("--timeseries-interval", type=float, default=60.0,
                         help="aggregation window for --timeseries-out "
                              "(simulated seconds)")
    _add_export_flags(cluster)
    cluster.set_defaults(func=cmd_cluster)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard of a serving node's time series",
        description="Poll a live node's /metrics/history and /stats "
                    "endpoints (or load a cluster run's exported "
                    "time-series JSONL) and render sparkline rows plus "
                    "SLO burn in the terminal.",
    )
    top.add_argument("--url", default="http://127.0.0.1:8080",
                     help="base URL of a `repro serve` node")
    top.add_argument("--cluster", metavar="FILE",
                     help="render an exported cluster time-series JSONL "
                          "(from `repro cluster --timeseries-out`) "
                          "instead of polling a node")
    top.add_argument("--interval", type=float, default=2.0,
                     help="poll cadence in wall seconds")
    top.add_argument("--count", type=int, default=None,
                     help="frames to render then exit (default: forever)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.add_argument("--plain", action="store_true",
                     help="no ANSI screen clearing between frames")
    top.add_argument("--width", type=int, default=100,
                     help="frame width in columns")
    top.add_argument("--series", action="append", metavar="PATTERN",
                     help="substring filter on series names (repeatable; "
                          "default shows rates, quantiles, and SLO burn)")
    top.set_defaults(func=cmd_top)

    models = sub.add_parser("models", help="list the model zoo")
    _add_export_flags(models)
    models.set_defaults(func=cmd_models)

    workload = sub.add_parser(
        "workload",
        help="synthesize, describe, or replay workload traces",
        description="Trace-driven workloads: record a synthesized day "
                    "(diurnal curves, flash crowds, regional mixes, user "
                    "sessions) to a compact gzip trace, inspect it, or "
                    "replay it through the open-loop runner.  Specs: "
                    "constant:rate=150 | diurnal:mean=120,swing=0.6 | "
                    "flash:mean=100,at=300,len=60,peak=6 | "
                    "regions:mean=90,count=3 — shared keys duration=, "
                    "sessions=1, zipf=SKEW, catalog=N.",
    )
    wsub = workload.add_subparsers(dest="action", required=True)

    synth = wsub.add_parser("synthesize", help="record a workload spec to a trace file")
    synth.add_argument("--spec", required=True,
                       help="workload spec with duration=, e.g. "
                            "'diurnal:mean=120,swing=0.6,duration=3600'")
    synth.add_argument("--out", required=True, help="trace path (*.jsonl or *.jsonl.gz)")
    synth.add_argument("--seed", type=int, default=0)
    _add_export_flags(synth)
    synth.set_defaults(func=cmd_workload_synthesize)

    describe_w = wsub.add_parser("describe", help="summarize a trace file or workload spec")
    describe_w.add_argument("target", help="trace path or workload spec")
    _add_export_flags(describe_w)
    describe_w.set_defaults(func=cmd_workload_describe)

    replay = wsub.add_parser("replay",
                             help="replay a recorded trace through the open-loop runner")
    replay.add_argument("trace", help="trace path")
    replay.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(replay, default="gpu", choices=["cpu", "gpu"])
    replay.add_argument("--size", default="medium", choices=["small", "medium", "large"])
    replay.add_argument("--warmup", type=int, default=0,
                        help="completions before the measurement window arms")
    replay.add_argument("--requests", type=int, default=1_000_000,
                        help="measurement-window completion target (the "
                             "replay also ends when the trace runs dry)")
    replay.add_argument("--max-seconds", type=float, default=DAY_SECONDS,
                        help="hard wall on simulated seconds")
    replay.add_argument("--seed", type=int, default=0)
    _add_export_flags(replay)
    replay.set_defaults(func=cmd_workload_replay)

    plan = sub.add_parser("plan", help="size a fleet for a rate + p99 SLO")
    plan.add_argument("--model", default="resnet-50", choices=sorted(MODEL_ZOO))
    _add_preprocess_device_flag(plan, default="gpu", choices=["cpu", "gpu"])
    plan.add_argument("--size", default="medium", choices=["small", "medium", "large"])
    plan.add_argument("--rate", type=float, required=True, help="offered req/s")
    plan.add_argument("--slo-ms", type=float, required=True, help="p99 SLO in ms")
    plan.add_argument("--max-nodes", type=int, default=16)
    plan.add_argument("--seed", type=int, default=0)
    _add_export_flags(plan)
    plan.set_defaults(func=cmd_plan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
