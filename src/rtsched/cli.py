"""Command line front end.

    rtsched validate   doc.json           check a document, print diagnostics
    rtsched simulate   doc.json           run the virtual-time backend
    rtsched sweep      doc.json           grid of policies -> long-format CSV
    rtsched expand-sdf doc.json           repetition vector + expanded document
    rtsched latency                       dispatch latency of the thread backend

Exit status: 0 on success (deadline misses are results, not failures),
1 on configuration or validation errors and on files that cannot be
read.  RT_YASMIN_SEED seeds simulated runs when --seed is not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .document import document_from_state, load_document
from .errors import RtschedError
from .graph import plan_expansion
from .simulator import policy_label, run_simulation
from .tracing import CSV_COLUMNS

# trace rows joined per write by `simulate --trace`
_TRACE_CHUNK = 4096


def _env_seed() -> int:
    raw = os.environ.get("RT_YASMIN_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise RtschedError(f"RT_YASMIN_SEED must be an integer, got {raw!r}") from None


def _fmt_ns(ns: float | int) -> str:
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:.3f}ms"
    if ns >= 1_000:
        return f"{ns / 1_000:.1f}us"
    return f"{int(ns)}ns"


def _cmd_validate(args) -> int:
    doc = load_document(args.document)
    state = doc.build_state()
    diags = state.validate()
    for d in diags:
        print(d)
    errors = [d for d in diags if d.level == "error"]
    if errors:
        print(f"invalid: {len(errors)} error(s)")
        return 1
    nversions = sum(len(t.versions) for t in state.tasks)
    print(
        f"OK, {len(state.tasks)} tasks, {len(state.channels)} channels,"
        f" {nversions} versions, {policy_label(state.config)}"
    )
    return 0


def _print_report(report) -> None:
    meta = report.meta
    print(
        f"{meta['policy']} seed={meta['seed']} horizon={_fmt_ns(meta['horizon_ns'])}"
        f" workers={meta['workers']}"
    )
    print(
        f"released={report.released} completed={report.completed}"
        f" misses={report.misses}"
        + (" TRUNCATED" if report.truncated else "")
    )
    for name in sorted(report.tasks):
        st = report.tasks[name]
        resp = st.response
        line = (
            f"  {name}: released={st.released} completed={st.completed}"
            f" misses={st.misses}"
        )
        if resp.count:
            line += f" response avg={_fmt_ns(resp.avg)} max={_fmt_ns(resp.max)}"
        print(line)
    ov = report.overheads
    if ov.get_task.count or ov.scheduling.count:
        print(
            f"  overheads: get_task avg={_fmt_ns(ov.get_task.avg)}"
            f" scheduling avg={_fmt_ns(ov.scheduling.avg)}"
            f" preemptions={ov.preemptions}"
        )
    for w in report.warnings:
        print(f"  warning: {w}")


def _cmd_simulate(args) -> int:
    doc = load_document(args.document)
    state = doc.build_state()
    seed = args.seed if args.seed is not None else _env_seed()
    rows, report = run_simulation(state, doc.sim_model(), horizon=args.horizon, seed=seed,
                                  keep_trace="csv" if args.trace else False)
    if args.trace:
        with open(args.trace, "w") as fp:
            fp.write(",".join(CSV_COLUMNS) + "\n")
            # a join per bounded chunk: few writes, no second copy of the trace
            for i in range(0, len(rows), _TRACE_CHUNK):
                fp.write("".join(rows[i:i + _TRACE_CHUNK]))
    if args.report:
        with open(args.report, "w") as fp:
            fp.write(report.to_json() + "\n")
    _print_report(report)
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SweepSpec, best_policy, run_sweep, write_sweep_csv

    doc = load_document(args.document)
    if args.spec:
        with open(args.spec) as fp:
            spec = SweepSpec.from_dict(json.load(fp))
    else:
        spec = SweepSpec()
    if args.reps is not None:
        spec = dataclasses.replace(spec, reps=args.reps)
    rows = run_sweep(doc, spec)
    out = args.out
    if out:
        if os.path.isdir(out):
            out = os.path.join(out, "sweep.csv")
        with open(out, "w") as fp:
            write_sweep_csv(rows, fp)
        print(f"{spec.points() * spec.reps} runs -> {out}")
    else:
        write_sweep_csv(rows, sys.stdout)
    best = best_policy(rows)
    if best is not None:
        print(
            f"best: {best['policy']} version_mode={best['version_mode']}"
            f" misses={best['total_misses']}"
            f" mean_response={_fmt_ns(best['mean_response_ns'])}"
        )
    return 0


def _cmd_expand_sdf(args) -> int:
    doc = load_document(args.document)
    sdf = doc.sdf_graph()
    if sdf is None:
        raise RtschedError("document has no sdf section")
    plan = plan_expansion(sdf)  # raises on inconsistent or deadlocked graphs
    print(" ".join(f"{a}:{n}" for a, n in sorted(plan.repetition.items())))

    # the expanded document stands on its own: same config, graph-node
    # tasks and channels instead of the sdf section
    state = doc.build_state()
    out_doc = document_from_state(state)
    if args.out:
        out_doc.save(args.out)
        print(f"{len(plan.nodes)} nodes -> {args.out}")
    else:
        print(out_doc.to_json(), end="")
    return 0


def _cmd_latency(args) -> int:
    from .model import us
    from .realtime import latency_probe

    stats, warnings = latency_probe(
        threads=args.threads,
        period_ns=us(args.interval),
        loops=args.loops,
        priority_assignment=_parse_policy(args.policy),
    )
    print(f"release-to-start latency, {args.loops} loops x {args.threads} threads (us):")
    for name in sorted(stats):
        if name == "all":
            continue
        st = stats[name]
        if st.count:
            print(
                f"  {name}: min={st.min / 1000:.0f} max={st.max / 1000:.0f}"
                f" avg={st.avg / 1000:.0f} ({st.count} samples)"
            )
    pooled = stats["all"]
    if pooled.count:
        print(
            f"  all: min={pooled.min / 1000:.0f} max={pooled.max / 1000:.0f}"
            f" avg={pooled.avg / 1000:.0f} ({pooled.count} samples)"
        )
    else:
        print("no samples collected")
    for w in warnings:
        print(f"  warning: {w}")
    return 0 if pooled.count else 1


def _parse_policy(name: str):
    from .model import PriorityAssignment

    # USER ranks tasks by their user_priority, which the latency probe's
    # tasks do not carry
    if name.upper() in ("RM", "DM", "EDF"):
        return PriorityAssignment(name.upper())
    raise RtschedError(f"unknown policy {name!r}; choose from RM, DM, EDF")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtsched", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a task-set document")
    p.add_argument("document")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("simulate", help="run the virtual-time backend")
    p.add_argument("document")
    p.add_argument("--horizon", default=None,
                   help="e.g. 2hp, 500ms, 250000 (ns); default one hyperperiod")
    p.add_argument("--seed", type=int, default=None,
                   help="run seed (default RT_YASMIN_SEED or 0)")
    p.add_argument("--trace", metavar="FILE", help="write the event trace CSV here")
    p.add_argument("--report", metavar="FILE", help="write the report JSON here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="explore a policy grid")
    p.add_argument("document")
    p.add_argument("--spec", metavar="FILE", help="sweep axes (JSON)")
    p.add_argument("--reps", type=int, default=None, help="override repetitions")
    p.add_argument("--out", metavar="PATH",
                   help="results CSV file or directory (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("expand-sdf", help="print the one-iteration expansion")
    p.add_argument("document")
    p.add_argument("--out", metavar="FILE", help="write the expanded document here")
    p.set_defaults(fn=_cmd_expand_sdf)

    p = sub.add_parser("latency", help="measure thread-backend dispatch latency")
    p.add_argument("--threads", type=int, default=1, help="number of probe tasks")
    p.add_argument("--interval", type=float, default=10_000.0,
                   help="probe period in microseconds")
    p.add_argument("--loops", type=int, default=100, help="activations per probe")
    p.add_argument("--policy", default="EDF", help="priority assignment (RM/DM/EDF)")
    p.set_defaults(fn=_cmd_latency)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RtschedError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
