"""Command-line front end: regenerate any paper artifact from a shell.

::

    repro-taxonomy table1            # the 47-class extended taxonomy
    repro-taxonomy table2            # flexibility values per class
    repro-taxonomy table3            # the 25-architecture survey
    repro-taxonomy fig 7             # any of figures 1..7
    repro-taxonomy classify --ips 1 --dps 64 --ip-dp 1-64 \\
        --ip-im 1-1 --dp-dm 64-1 --dp-dp 64x64
    repro-taxonomy explain MorphoSys # survey entry + derivation
    repro-taxonomy dse --min-flexibility 4
    repro-taxonomy dse --trace trace.json   # span tree of the run
    repro-taxonomy costs --profile          # cProfile top-N to artifacts/
    repro-taxonomy metrics                  # counters after a calibration run
    repro-taxonomy serve --port 0           # hardened HTTP query service
    repro-taxonomy jobs submit --kind survey-costs --param n=32 --wait
    repro-taxonomy jobs status j-abc123     # poll a durable async job
"""

from __future__ import annotations

import argparse
import sys

from repro.core.errors import FaultError, ReproError
from repro.serve.flags import REMOVED_FLAGS, add_serve_arguments, run_serve

__all__ = ["main", "build_parser"]

#: Figure numbers ``fig`` renders: ``render_fig<N>`` in :mod:`repro.reporting.figures`.
_FIGURE_NUMBERS = (1, 2, 3, 4, 5, 6, 7)

#: Removed subcommands and flags, as ``(command, name) -> diagnostic``;
#: using one exits 2 with that one line. ``serve``'s come from
#: :data:`repro.serve.flags.REMOVED_FLAGS`, which ``python -m
#: repro.serve`` reads too. ``serve --workers`` (the server's thread
#: count) is not among them.
_REMOVED = {
    ("sweep-worker", "sweep-worker"): (
        "sweep-worker was removed with the distributed sweep fabric; "
        "costs, dse and faults run their sweeps in their own process"
    ),
    **{("serve", flag): diagnostic for flag, diagnostic in REMOVED_FLAGS.items()},
    **{
        (command, flag): (
            f"{flag} was removed with the distributed sweep fabric; "
            f"{command} runs its sweep in its own process"
        )
        for command in ("costs", "dse", "faults")
        for flag in ("--workers", "--supervise", "--max-lease-size", "--rejoin-backoff")
    },
    **{
        (command, "--jobs"): (
            f"--jobs was removed with the process pool; {command} runs its sweep "
            "as one serial loop, which was faster than the pool at every measured size"
        )
        for command in ("costs", "dse", "faults")
    },
    **{
        (command, flag): (
            f"{flag} was removed with the sweep failure policies; {command} runs in "
            "milliseconds and a failing point fails the same way every time, so the "
            "first failure ends the run"
        )
        for command in ("costs", "dse", "faults")
        for flag in ("--on-error", "--timeout", "--resume")
    },
}


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-taxonomy`` argparse tree (also drives ``docs/cli.md``)."""
    parser = argparse.ArgumentParser(
        prog="repro-taxonomy",
        description=(
            "Extended Skillicorn taxonomy of massively parallel computer "
            "architectures (Shami & Hemani reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for table in ("table1", "table2", "table3"):
        table_parser = sub.add_parser(table, help=f"render {table}")
        table_parser.add_argument(
            "--markdown", action="store_true", help="Markdown layout"
        )

    fig_parser = sub.add_parser("fig", help="render a figure (1..7)")
    fig_parser.add_argument("number", type=int, choices=_FIGURE_NUMBERS)

    classify_parser = sub.add_parser(
        "classify", help="classify an architecture from its structure"
    )
    classify_parser.add_argument("--ips", required=True)
    classify_parser.add_argument("--dps", required=True)
    classify_parser.add_argument("--ip-ip", default="none")
    classify_parser.add_argument("--ip-dp", default="none")
    classify_parser.add_argument("--ip-im", default="none")
    classify_parser.add_argument("--dp-dm", default="none")
    classify_parser.add_argument("--dp-dp", default="none")

    explain_parser = sub.add_parser(
        "explain", help="explain a surveyed architecture's classification"
    )
    explain_parser.add_argument("name")

    dse_parser = sub.add_parser(
        "dse", help="recommend a class for given requirements"
    )
    dse_parser.add_argument("--min-flexibility", type=int, default=0)
    dse_parser.add_argument("--max-area-ge", type=float, default=None)
    dse_parser.add_argument("--max-config-bits", type=int, default=None)
    dse_parser.add_argument("--n", type=int, default=16)
    dse_parser.add_argument(
        "--objective",
        choices=["config", "area", "flex-per-area"],
        default="config",
    )
    _add_trace_argument(dse_parser)
    _add_profile_argument(dse_parser)

    costs_parser = sub.add_parser(
        "costs", help="cost out the 25 surveyed architectures (Eq. 1/2 + energy)"
    )
    costs_parser.add_argument(
        "--n", type=int, default=16,
        help="design size for template (n/m/v) architectures (default 16)",
    )
    _add_trace_argument(costs_parser)
    _add_profile_argument(costs_parser)

    report_parser = sub.add_parser(
        "report", help="write every artifact (tables, figures, JSON) to a directory"
    )
    report_parser.add_argument("outdir")
    _add_trace_argument(report_parser)

    faults_parser = sub.add_parser(
        "faults",
        help="fault-injection demo + survey-wide resilience sweep",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default 0)"
    )
    faults_parser.add_argument(
        "--rate", type=float, default=0.05,
        help="per-resource fault rate for the machine demo (default 0.05)",
    )
    faults_parser.add_argument(
        "--rates", default=None,
        help="comma-separated sweep rates (default 0.01,0.02,0.05,0.1,0.2)",
    )
    faults_parser.add_argument(
        "--n", type=int, default=16, help="design size for the sweep"
    )
    faults_parser.add_argument(
        "--spares", type=int, default=0, help="spare PEs granted to remap"
    )
    faults_parser.add_argument(
        "--policy", default="remap",
        help="demo policy: fail-fast | retry[:N[:B]] | remap[:S] | degrade",
    )
    faults_parser.add_argument(
        "--out", default="artifacts/resilience.csv",
        help="CSV destination ('-' to skip writing)",
    )
    _add_trace_argument(faults_parser)
    _add_profile_argument(faults_parser)

    metrics_parser = sub.add_parser(
        "metrics",
        help="run a calibration workload, then print the process metrics registry",
    )
    metrics_parser.add_argument(
        "--n", type=int, default=16,
        help="design size for the calibration sweeps (default 16)",
    )
    metrics_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry snapshot as JSON instead of a table",
    )
    metrics_parser.add_argument(
        "--prometheus", action="store_true",
        help="emit the registry in Prometheus text exposition format "
        "(the same formatter the serve /v1/metrics endpoint uses)",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the hardened HTTP query service (classify/costs/survey/metrics)",
    )
    add_serve_arguments(serve_parser, default_port=8080)

    jobs_parser = sub.add_parser(
        "jobs",
        help="submit, poll and manage durable async jobs on a running server",
    )
    jobs_sub = jobs_parser.add_subparsers(dest="jobs_command", required=True)

    def _add_url(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url", default="http://127.0.0.1:8080",
            help="base URL of the serving endpoint (default http://127.0.0.1:8080)",
        )

    jobs_submit = jobs_sub.add_parser(
        "submit", help="submit a job (POST /v1/jobs) and print its record"
    )
    _add_url(jobs_submit)
    jobs_submit.add_argument(
        "--kind", required=True,
        help="registered job kind (e.g. survey-costs, population)",
    )
    jobs_submit.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="one job parameter; repeat for several (e.g. --param n=32)",
    )
    jobs_submit.add_argument(
        "--idempotency-key", default=None, metavar="KEY",
        help="dedupe key: resubmitting with the same key returns the "
        "original job instead of running it again",
    )
    jobs_submit.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-job wall-clock deadline in seconds (server default 300)",
    )
    jobs_submit.add_argument(
        "--ttl", type=float, default=None, metavar="S",
        help="seconds the finished job outlives completion (server default)",
    )
    jobs_submit.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="execution attempts before a transient failure turns permanent",
    )
    jobs_submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job reaches a terminal state, then print the "
        "result document on success",
    )
    jobs_submit.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="S",
        help="seconds between --wait polls (default 0.2)",
    )

    jobs_status = jobs_sub.add_parser(
        "status", help="print one job's current record (GET /v1/jobs/ID)"
    )
    _add_url(jobs_status)
    jobs_status.add_argument("job_id")

    jobs_result = jobs_sub.add_parser(
        "result",
        help="print a succeeded job's result document, byte-identical to "
        "its on-disk artifact (GET /v1/jobs/ID/result)",
    )
    _add_url(jobs_result)
    jobs_result.add_argument("job_id")

    jobs_cancel = jobs_sub.add_parser(
        "cancel", help="request cooperative cancellation (DELETE /v1/jobs/ID)"
    )
    _add_url(jobs_cancel)
    jobs_cancel.add_argument("job_id")

    jobs_list = jobs_sub.add_parser(
        "list", help="list jobs, oldest first (GET /v1/jobs)"
    )
    _add_url(jobs_list)
    jobs_list.add_argument(
        "--state", default=None,
        choices=["queued", "running", "succeeded", "failed", "cancelled", "expired"],
        help="only jobs currently in this state",
    )
    jobs_list.add_argument(
        "--kind", default=None, help="only jobs of this kind"
    )

    populations_parser = sub.add_parser(
        "populations",
        help="generate or describe a seeded synthetic signature population",
    )
    populations_parser.add_argument(
        "action", choices=["generate", "describe"],
        help="generate: one canonical signature per line; "
        "describe: class-occupancy table for the same draw",
    )
    populations_parser.add_argument(
        "--size", type=int, default=1000,
        help="number of signatures to draw (default 1000)",
    )
    populations_parser.add_argument(
        "--seed", type=int, default=0,
        help="population seed; same seed, same population (default 0)",
    )
    populations_parser.add_argument(
        "--mode", choices=["stratified", "uniform"], default="stratified",
        help="stratified cycles the 47 class structures round-robin; "
        "uniform draws from all 406 valid structures (default stratified)",
    )
    populations_parser.add_argument(
        "--max-n", type=int, default=256, dest="max_n",
        help="largest concrete count decorated onto n/m/v placeholders "
        "(default 256)",
    )
    populations_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the output to FILE instead of stdout",
    )

    sub.add_parser("errata", help="paper-vs-derived discrepancies")
    sub.add_parser("audit", help="run the library self-consistency audit")
    sub.add_parser("baselines", help="compare against Flynn and Skillicorn 1988")
    return parser


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace FILE`` flag: record the run as a span tree.

    The tracer is enabled for the duration of the command and the
    collected spans are written to ``FILE`` as schema-versioned JSON
    (see :func:`repro.obs.validate_trace`). The note confirming the
    write goes to stderr so stdout artifacts stay byte-identical.
    """
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span tree of this run and write it to FILE as JSON",
    )


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--profile`` flag: cProfile the command into artifacts/."""
    parser.add_argument(
        "--profile", action="store_true",
        help="profile this command and write a top-N table to "
        "artifacts/profile_<command>.txt",
    )


def _run_metrics(args: argparse.Namespace) -> int:
    """The ``metrics`` subcommand: exercise the hot paths, dump counters.

    Metrics are process-local, so a fresh CLI process must generate some
    work before its registry says anything useful. The calibration
    workload touches each instrumented subsystem: the survey cost sweep,
    a short resilience sweep, and one machine run.
    """
    from repro.analysis.resilience import resilience_sweep
    from repro.analysis.survey_costs import evaluate_survey
    from repro.machine.array_processor import ArrayProcessor, ArraySubtype
    from repro.machine.kernels import simd_vector_add
    from repro.obs import REGISTRY

    evaluate_survey(default_n=args.n)
    resilience_sweep((0.01, 0.05, 0.2), n=args.n)
    lanes = max(args.n, 2)
    machine = ArrayProcessor(lanes, ArraySubtype.IAP_IV)
    machine.scatter(0, list(range(lanes * 8)))
    machine.scatter(64, list(range(lanes * 8)))
    machine.run(simd_vector_add(8))

    if args.prometheus:
        from repro.obs import render_prometheus

        print(render_prometheus(REGISTRY), end="")
    elif args.json:
        import json

        print(json.dumps(REGISTRY.snapshot(), indent=2))
    else:
        print(f"process metrics after the calibration workload (n={args.n}):")
        print()
        print(REGISTRY.render())
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the hardened HTTP query service.

    Blocks until SIGTERM/SIGINT, then drains in-flight requests within
    ``--drain-deadline`` seconds and exits 0 on a clean drain (1 if the
    deadline expired with work still in flight). A bad flag value or an
    unbindable address exits 2 with one ``error:`` line.
    """
    return run_serve(args)


def _jobs_http(url: str, *, method: str = "GET", payload: "dict | None" = None) -> bytes:
    """One request against the jobs API; HTTP errors become ReproError.

    The server's structured error body carries a user-facing message;
    surfacing it through :class:`~repro.core.errors.ReproError` reuses
    the CLI's ``error: ...`` / exit-2 contract.
    """
    import json
    import urllib.error
    import urllib.request

    body = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.read()
    except urllib.error.HTTPError as error:
        raw = error.read()
        try:
            message = json.loads(raw)["error"]["message"]
        except (ValueError, KeyError, TypeError):
            message = raw.decode("utf-8", "replace").strip() or str(error)
        raise ReproError(f"{error.code}: {message}") from None
    except urllib.error.URLError as error:
        raise ReproError(f"cannot reach {url}: {error.reason}") from None


def _run_jobs(args: argparse.Namespace) -> int:
    """The ``jobs`` subcommand group: an HTTP client over ``/v1/jobs``.

    ``result`` writes the response body verbatim — the same bytes as
    the server's on-disk ``result.json`` artifact — so shell pipelines
    can diff results across runs and restarts.
    """
    import json
    import time as _time

    base = args.url.rstrip("/")
    if args.jobs_command == "submit":
        payload: "dict[str, object]" = {"kind": args.kind}
        for pair in args.param:
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise ReproError(f"--param must look like KEY=VALUE, got {pair!r}")
            payload[key] = value
        if args.idempotency_key is not None:
            payload["idempotency-key"] = args.idempotency_key
        if args.deadline is not None:
            payload["deadline"] = args.deadline
        if args.ttl is not None:
            payload["ttl"] = args.ttl
        if args.max_attempts is not None:
            payload["max-attempts"] = args.max_attempts
        raw = _jobs_http(f"{base}/v1/jobs", method="POST", payload=payload)
        submitted = json.loads(raw)
        job = submitted["job"]
        if not args.wait:
            sys.stdout.write(raw.decode("utf-8"))
            return 0
        job_id = job["id"]
        while job["state"] not in ("succeeded", "failed", "cancelled", "expired"):
            _time.sleep(args.poll_interval)
            job = json.loads(_jobs_http(f"{base}/v1/jobs/{job_id}"))["job"]
        if job["state"] != "succeeded":
            raise ReproError(
                f"job {job_id} ended in state {job['state']}"
                + (f": {job['error']}" if job.get("error") else "")
            )
        sys.stdout.buffer.write(_jobs_http(f"{base}/v1/jobs/{job_id}/result"))
        return 0
    if args.jobs_command == "status":
        sys.stdout.write(
            _jobs_http(f"{base}/v1/jobs/{args.job_id}").decode("utf-8")
        )
        return 0
    if args.jobs_command == "result":
        sys.stdout.buffer.write(_jobs_http(f"{base}/v1/jobs/{args.job_id}/result"))
        return 0
    if args.jobs_command == "cancel":
        sys.stdout.write(
            _jobs_http(f"{base}/v1/jobs/{args.job_id}", method="DELETE").decode("utf-8")
        )
        return 0
    query = []
    if args.state is not None:
        query.append(f"state={args.state}")
    if args.kind is not None:
        query.append(f"kind={args.kind}")
    suffix = ("?" + "&".join(query)) if query else ""
    sys.stdout.write(_jobs_http(f"{base}/v1/jobs{suffix}").decode("utf-8"))
    return 0


def _run_populations(args: argparse.Namespace) -> int:
    """The ``populations`` subcommand: seeded synthetic signature sets.

    ``generate`` prints one canonical signature per line; ``describe``
    prints the class-occupancy table for the same draw, counted by the
    scalar classifier, so neither action imports NumPy. Both are pure
    functions of (size, seed, mode, max-n): re-running a command
    reproduces its output byte-for-byte.
    """
    from repro.registry.populations import (
        PopulationSpec,
        describe_population,
        generate_signatures,
    )

    spec = PopulationSpec(
        size=args.size, seed=args.seed, mode=args.mode, max_n=args.max_n
    )
    signatures = generate_signatures(spec)
    if args.action == "describe":
        text = describe_population(signatures)
    else:
        text = "\n".join(signature.describe() for signature in signatures)
    if args.out and args.out != "-":
        from pathlib import Path

        path = Path(args.out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _fault_rates(text: str) -> "tuple[float, ...]":
    """Parse ``faults --rates``: comma-separated numbers in [0, 1]."""
    try:
        rates = tuple(float(token) for token in text.split(","))
    except ValueError:
        raise FaultError(
            f"--rates must be a comma-separated list of numbers, got {text!r}"
        ) from None
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"fault rate must lie in [0, 1], got {rate}")
    return rates


def _run_faults(args: argparse.Namespace) -> int:
    """The ``faults`` subcommand: demo two classes, then sweep the survey.

    Everything below is a pure function of (seed, rate, n, spares,
    policy): running the same command twice produces byte-identical
    output — determinism is the point of seeded fault plans.
    """
    from repro.analysis.resilience import (
        DEFAULT_FAULT_RATES,
        render_resilience_table,
        resilience_csv_rows,
        resilience_sweep,
    )
    from repro.faults import FaultPlan, FaultPolicy
    from repro.machine.array_processor import ArrayProcessor, ArraySubtype
    from repro.machine.kernels import simd_vector_add
    from repro.models.area import redundancy_overhead

    # Every argument is checked before the first line is printed, so a
    # bad ``--rates`` exits 2 with nothing on stdout.
    rates = _fault_rates(args.rates) if args.rates else DEFAULT_FAULT_RATES
    policy = FaultPolicy.parse(args.policy)
    n_lanes = max(args.n, 2)
    plan = FaultPlan.random(args.seed, args.rate, n_pes=n_lanes)
    print(plan.describe())
    print()

    # The taxonomy's flexibility argument, executed: the same plan and
    # policy against the all-direct IAP-I and the all-switched IAP-IV.
    program = simd_vector_add(8)
    for subtype in (ArraySubtype.IAP_I, ArraySubtype.IAP_IV):
        machine = ArrayProcessor(n_lanes, subtype)
        machine.scatter(0, list(range(n_lanes * 8)))
        machine.scatter(64, list(range(n_lanes * 8)))
        try:
            result = machine.run(program, faults=plan, policy=policy)
        except ReproError as error:
            print(f"{subtype.label:8s} {policy.describe():12s} FAULT: {error}")
            continue
        print(
            f"{subtype.label:8s} {policy.describe():12s} "
            f"cycles={result.cycles} operations={result.operations} "
            f"remaps={result.stats.get('remap_events', 0)} "
            f"achieved={result.stats.get('achieved_parallelism', 0.0):.2f}/"
            f"{result.stats.get('nominal_parallelism', 0.0):.0f}"
        )
    print()

    if policy.spares or args.spares:
        spares = policy.spares or args.spares
        from repro.core.signature import make_signature

        iap_iv = make_signature(
            1, "n", ip_dp="1-n", ip_im="1-1", dp_dm="nxn", dp_dp="nxn"
        )
        print(redundancy_overhead(iap_iv, n=args.n, spares=spares).describe())
        print()

    points = resilience_sweep(rates, n=args.n, spares=args.spares)
    print(render_resilience_table(points))

    if args.out != "-":
        from repro.reporting.export import write_csv

        rows = resilience_csv_rows(points)
        write_csv(args.out, rows[0], rows[1:])
        print()
        print(f"wrote {args.out}")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    # Each command imports what it runs, so ``table1`` never pays for
    # NumPy, networkx or the sweep engine.
    if args.command in ("table1", "table2", "table3"):
        from repro.reporting import tables

        render = getattr(tables, f"render_{args.command}")
        print(render(markdown=args.markdown))
    elif args.command == "fig":
        from repro.reporting import figures

        print(getattr(figures, f"render_fig{args.number}")())
    elif args.command == "classify":
        from repro.core.classify import classify
        from repro.core.signature import make_signature

        signature = make_signature(
            args.ips,
            args.dps,
            ip_ip=args.ip_ip,
            ip_dp=args.ip_dp,
            ip_im=args.ip_im,
            dp_dm=args.dp_dm,
            dp_dp=args.dp_dp,
        )
        print(classify(signature).explain())
    elif args.command == "explain":
        from repro.registry.architectures import architecture

        record = architecture(args.name)
        print(f"{record.name} ({record.year}) — {record.family.value}")
        print(record.description)
        print()
        print(record.classification.explain())
    elif args.command == "dse":
        from repro.analysis.dse import Objective, Requirements, explore

        objective = {
            "config": Objective.CONFIG_BITS,
            "area": Objective.AREA,
            "flex-per-area": Objective.FLEXIBILITY_PER_AREA,
        }[args.objective]
        requirements = Requirements(
            min_flexibility=args.min_flexibility,
            max_area_ge=args.max_area_ge,
            max_config_bits=args.max_config_bits,
            n=args.n,
        )
        recommendation = explore(requirements, objective=objective)
        print(recommendation.explain())
    elif args.command == "costs":
        from repro.analysis.survey_costs import survey_cost_table

        print(survey_cost_table(default_n=args.n))
    elif args.command == "report":
        from repro.reporting.bundle import generate_report

        files = generate_report(args.outdir)
        for path in files:
            print(path)
        print(f"wrote {len(files)} artifact files to {args.outdir}")
    elif args.command == "errata":
        from repro.registry.survey import errata_report

        report = errata_report()
        print("\n".join(report) if report else "no discrepancies")
    elif args.command == "audit":
        from repro.audit import run_audit

        audit = run_audit()
        print(audit.summary())
        return 0 if audit.passed else 1
    elif args.command == "faults":
        return _run_faults(args)
    elif args.command == "metrics":
        return _run_metrics(args)
    elif args.command == "populations":
        return _run_populations(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "jobs":
        return _run_jobs(args)
    elif args.command == "baselines":
        from repro.core import baseline_resolution, extension_report

        print(extension_report().summary())
        print()
        for label, row in baseline_resolution().items():
            members = ", ".join(row.extended_classes)
            print(f"{label:12s} ({row.resolution_gain:2d}): {members}")
    return 0


def _dispatch_observed(args: argparse.Namespace) -> int:
    """Dispatch under the optional ``--profile`` wrapper."""
    if not getattr(args, "profile", False):
        return _dispatch(args)
    from repro.obs import Profiler

    with Profiler(args.command, top=20, memory=True) as profiler:
        status = _dispatch(args)
    assert profiler.report is not None
    path = profiler.report.write("artifacts")
    print(f"wrote profile to {path}", file=sys.stderr)
    return status


def _removed_surface(argv: "list[str]") -> "str | None":
    """The diagnostic for a removed subcommand or flag in ``argv``, if any."""
    command = argv[0] if argv else None
    for token in argv:
        diagnostic = _REMOVED.get((command, token.partition("=")[0]))
        if diagnostic is not None:
            return diagnostic
    return None


def main(argv: "list[str] | None" = None) -> int:
    """Parse and dispatch; library errors become a one-line diagnostic.

    Any :class:`ReproError` — bad signature, unknown architecture,
    untolerated fault, … — prints ``error: <message>`` on stderr and
    returns exit code 2 (argparse's own usage-error convention), so
    shell pipelines can distinguish "the machine broke" from "the tool
    crashed". Ctrl-C prints one ``interrupted`` line and returns 130
    (the shell's SIGINT convention). Non-library exceptions still
    traceback: those are bugs.

    ``--trace FILE`` (on ``dse``, ``costs``, ``faults`` and ``report``)
    records the whole command as a span tree; the JSON lands in FILE
    even when the command fails, so a trace of a crashing run is still
    inspectable.
    """
    removed = _removed_surface(sys.argv[1:] if argv is None else argv)
    if removed is not None:
        print(f"error: {removed}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    trace_file = getattr(args, "trace", None)
    if trace_file is not None:
        from repro.obs import trace as obs_trace

        obs_trace.reset()
        obs_trace.enable()
    try:
        return _dispatch_observed(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if trace_file is not None:
            obs_trace.disable()
            path = obs_trace.tracer().write_json(trace_file)
            print(f"wrote trace to {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
