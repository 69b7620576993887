"""Command-line front end.

    busycycle metrics  --lambda 2 --dist '{"type":"exponential","mean":0.5}'
    busycycle bounds   --lambda 2 --dist '{"type":"exponential","mean":0.5}'
    busycycle simulate --lambda 2 --dist ... --cycles 1000000 --seed 7 --reps 3
    busycycle table    --which 1|2|3 --format plain|csv|json
    busycycle compare  --lambda 2 --dist ... --cycles 200000 --seed 7

A JSON config file (--config) is a set of flags: its keys are the command's
long option names with underscores (e.g. {"lambda": 2, "tol_quad": 1e-12,
"no_reference": true, "dist": {...}}).  Switches take true or false; any
other value is read as its string or JSON text, and is checked exactly as
that flag's text is (so "cycles": 1000.0 is a usage error, like --cycles
1000.0).  Keys the command lacks are ignored, and explicit flags win.
Exit status: 0 on success (known table errata are listed, not fatal),
2 on usage errors, JSON nested too deeply to parse among them, 3 when a
table cell's status deviates from the shipped registry (i.e. a cell
expected to PASS stopped matching), 141 (128 + SIGPIPE) from the
``busycycle`` command when its stdout's reader has gone.

``_build_parser`` adds the five commands and their options in order, and
runs once per process, on the first call: building the parser took most
of a ``metrics`` call, so later calls only parse.  A call that starts with
a command's name is parsed by that command's own parser, which ``_parse``
reads from the built parser's subparsers action: the top-level pass only
finds the name, and it cost more than the command's parse.  Help and
error texts are formatted when they are printed, so they follow
``COLUMNS`` and the current streams as a fresh parser's would.  JSON
output goes through the C encoder (``_json_text``), with the bytes of
``json.dumps(..., indent=2)``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import analytics, bounds, simulator, tables
from .distributions import QueueParameters, _tags, from_spec
from .errors import BusyCycleError, DomainError, UnsupportedMomentError

__all__ = ["main", "run"]

HIGH_RHO_WARN = 5.0
DEFAULT_CYCLES = 1_000_000
HIGH_RHO_DEFAULT_CYCLES = 10_000

_TABLE_FIELDS = ("distribution", "lambda", "alpha", "rho", "quantity",
                 "paper_value", "computed", "rel_delta", "status")
# plain rows leave out the quantity column, which the table title names
_TABLE_ROW = "{0:<12} {1:>8} {2:>7} {3:>6} {5:>14} {6:>14} {7:>10} {8}"


def fmt(x: float) -> str:
    """Render a number with 8 significant digits (matching the tables)."""
    return f"{x:.8g}"


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise argparse.ArgumentTypeError("JSON nested too deeply") from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("must be a JSON object")
    return value


def _class_tags(text: str) -> frozenset:
    try:
        return _tags((t.strip() for t in text.split(",") if t.strip()),
                     "--assume-tags")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _ConfigFlags(argparse.Action):
    """``--config FILE``: the flags its keys stand for, in the command's parser."""

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            parser.error(f"cannot read config {path}: {exc}")
        except RecursionError:
            parser.error(f"cannot read config {path}: JSON nested too deeply")
        if not isinstance(cfg, dict):
            parser.error(f"config {path} must hold a JSON object")
        namespace.config = flags = []
        for key, value in cfg.items():
            flag = "--" + key.replace("_", "-")
            action = parser._option_string_actions.get(flag)
            if action is None or action.dest in ("help", "config"):
                continue  # a key the command lacks
            if action.nargs != 0:
                try:
                    text = value if isinstance(value, str) else json.dumps(value)
                except RecursionError:
                    parser.error(f"config key {key!r} is nested too deeply")
                flags.append(f"{flag}={text}")
            elif not isinstance(value, bool):
                parser.error(f"config key {key!r} is a switch: use true or false")
            elif value:
                flags.append(flag)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but its writes to stdout (help, usage) let a
    stream's error through, as a command's output does; argparse drops the
    OSError of its own write, so a closed stdout under PYTHONUNBUFFERED=1
    would not reach ``run``.  Messages to other streams are argparse's."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The five-command parser, built once per process.

    No call changes it: ``--config`` re-parses into a fresh namespace.
    """
    p = _Parser(
        prog="busycycle",
        description="Busy-cycle age/excess mean values for the M/G/inf queue",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, queue=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", action=_ConfigFlags,
                        help="JSON file with option defaults")
        if queue:
            sp.add_argument("--lambda", dest="lam", type=float,
                            help="Poisson arrival rate")
            sp.add_argument("--dist", type=_json_object,
                            help="service distribution JSON")
        else:
            sp.add_argument("--which", type=int, choices=[1, 2, 3])
        sp.add_argument("--format", dest="output_format",
                        choices=["plain", "csv", "json"], default="plain")
        return sp

    def runs(sp, cycles):
        sp.add_argument("--cycles", type=int, default=cycles)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--reps", type=int, default=1)

    sp = command("metrics", run_metrics, "analytic busy-cycle mean values")
    sp.add_argument("--strategy", choices=["auto", "closed-form", "quadrature"],
                    default="auto")
    sp.add_argument("--tol-quad", dest="tol_quad", type=float,
                    default=analytics.DEFAULT_QUAD_TOL)

    sp = command("bounds", run_bounds, "distribution-free and class bounds")
    sp.add_argument("--assume-tags", type=_class_tags, default=frozenset(),
                    help="comma-separated class tags to assert (e.g. NBUE,DFR)")
    sp.add_argument("--no-reference", action="store_true",
                    help="skip the analytic beta_c reference / gap ratio")

    runs(command("simulate", run_simulate, "Monte Carlo busy-cycle estimate"),
         None)
    command("table", run_table, "recompute a published reference table",
            queue=False)
    runs(command("compare", run_compare, "analytics vs simulation vs bounds"),
         100_000)
    return p


def _queue_from(args: argparse.Namespace, parser) -> QueueParameters:
    """The queue of a command: ``--lambda`` and the law ``--dist`` names;
    ``{"type":"deterministic","mean":0}`` is the idle-only limit."""
    if args.lam is None:
        parser.error("--lambda is required")
    if args.dist is None:
        parser.error("--dist is required for this command")
    try:
        return QueueParameters(args.lam, from_spec(args.dist, arrival_rate=args.lam))
    except DomainError as exc:
        parser.error(str(exc))


def _bounded_queue(args: argparse.Namespace, parser) -> QueueParameters:
    """The queue of ``bounds`` and ``compare``.  A law of mean 0 has no SCV,
    so no distribution-free bound, and its class bounds are one-sided: it
    is refused, before any work."""
    params = _queue_from(args, parser)
    if params.service.mean == 0.0:
        raise UnsupportedMomentError(f"{params.service.name} has no SCV, so no "
                                     f"distribution-free bound applies")
    return params


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

# json.dumps(..., indent=2) lays out a dict of scalars nested ``depth`` deep
# as a compact dump with these separators, and a compact dump runs the C
# encoder, which an indent turns off
_FLAT_JSON = tuple(
    json.JSONEncoder(separators=(",\n  " + "  " * depth, ": ")).encode
    for depth in range(2))


def _json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` of a dict of scalars or a list of
    them, at ``depth`` levels of nesting."""
    if isinstance(value, list):
        items = ",\n  ".join(_json_text(record, 1) for record in value)
        return f"[\n  {items}\n]" if value else "[]"
    if not value:
        return "{}"
    pad = "  " * depth
    return "{\n  " + pad + _FLAT_JSON[depth](value)[1:-1] + "\n" + pad + "}"


def _emit_pairs(pairs, output_format: str) -> str:
    if output_format == "json":
        return _json_text(dict(pairs))
    if output_format == "csv":
        lines = ["key,value"] + [f"{k},{v}" for k, v in pairs]
        return "\n".join(lines)
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in pairs)


def _queue_pairs(params: QueueParameters) -> list:
    return [("lambda", fmt(params.arrival_rate)),
            ("rho", fmt(params.traffic_intensity))]


def _bound_pairs(report) -> list:
    """Every lower and upper bound of a report, then its tightest interval."""
    lo, up = report.tightest
    return ([(f"lower[{label}]", fmt(v)) for label, v in report.lower_bounds]
            + [(f"upper[{label}]", fmt(v)) for label, v in report.upper_bounds]
            + [("tightest", f"[{fmt(lo)}, {fmt(up)}]")])


def run_metrics(args: argparse.Namespace, parser) -> int:
    params = _queue_from(args, parser)
    m = analytics.beta_c(params, args.strategy, quad_tol=args.tol_quad)
    pairs = _queue_pairs(params) + [
        ("E[Z]", fmt(m.e_z)),
        ("E[B]", fmt(m.e_b)),
        ("beta", fmt(m.beta)),
        ("beta_c", fmt(m.beta_c)),
        ("E[Z^2]", fmt(m.z_second_moment)),
        ("method", m.method),
        ("error_estimate", fmt(m.error_estimate)),
    ]
    print(_emit_pairs(pairs, args.output_format))
    return 0


def run_bounds(args: argparse.Namespace, parser) -> int:
    params = _bounded_queue(args, parser)
    reference = None if args.no_reference else analytics.beta_c(params).beta_c
    report = bounds.build_report(params, reference=reference,
                                 assume_tags=args.assume_tags)
    pairs = _queue_pairs(params) + _bound_pairs(report)
    if reference is not None:
        pairs.append(("reference_beta_c", fmt(reference)))
    if report.gap_ratio is not None:
        pairs.append(("gap_ratio", fmt(report.gap_ratio)))
    pairs.append(("consistent", "yes" if report.consistent else "NO"))
    print(_emit_pairs(pairs, args.output_format))
    return 0


def run_simulate(args: argparse.Namespace, parser) -> int:
    params = _queue_from(args, parser)
    rho = params.traffic_intensity
    cycles = args.cycles
    if rho >= HIGH_RHO_WARN:
        print(f"warning: rho = {fmt(rho)} >= {HIGH_RHO_WARN:g}; expected events "
              f"per cycle grow like e^rho, so runs are expensive"
              + ("" if cycles is not None else
                 f"; defaulting to {HIGH_RHO_DEFAULT_CYCLES} cycles"),
              file=sys.stderr)
        if cycles is None:
            cycles = HIGH_RHO_DEFAULT_CYCLES
    est = simulator.estimate_beta_c(
        params, DEFAULT_CYCLES if cycles is None else cycles,
        seed=args.seed, replications=args.reps)
    pairs = _queue_pairs(params) + [
        ("cycles", str(est.n_cycles)),
        ("replications", str(est.replications)),
        ("seed", str(est.seed)),
        ("beta_c_hat", fmt(est.beta_c_hat)),
        ("std_error", fmt(est.std_error)),
        ("ci95", f"[{fmt(est.ci95[0])}, {fmt(est.ci95[1])}]"),
        ("E[Z]_hat", fmt(est.e_z_hat)),
        ("E[Z^2]_hat", fmt(est.e_z2_hat)),
        ("per_replication", " ".join(fmt(v) for v in est.per_replication)),
    ]
    print(_emit_pairs(pairs, args.output_format))
    return 0


def _cell_record(c) -> dict:
    record = dict(zip(_TABLE_FIELDS, (
        c.distribution, c.arrival_rate, c.mean_service, c.rho, c.quantity,
        c.paper_value, c.computed, c.rel_delta, c.status)))
    if c.replacement is not None:
        record["replacement"] = c.replacement
    if c.note:
        record["note"] = c.note
    if c.ratio_with_paper_reference is not None:
        record["paper_reference"] = c.paper_reference
        record["ratio_with_paper_reference"] = c.ratio_with_paper_reference
    return record


def _cell_text(c) -> list:
    """The text fields of a cell's row, then of its published-reference row."""
    key = [c.distribution, fmt(c.arrival_rate), fmt(c.mean_service), fmt(c.rho)]
    rows = [key + [c.quantity, fmt(c.paper_value), fmt(c.computed),
                   f"{c.rel_delta:.3g}", c.status]]
    ref = c.ratio_with_paper_reference
    if ref is not None:
        rows.append(key + ["gap_ratio_vs_paper_reference", fmt(c.paper_value),
                           fmt(ref), f"{abs(c.paper_value - ref) / abs(ref):.3g}",
                           c.status])
    return rows


def run_table(args: argparse.Namespace, parser) -> int:
    if args.which is None:
        parser.error("--which 1|2|3 is required")
    cells = tables.compute_table(args.which)
    if args.output_format == "csv":
        rows = [row for c in cells for row in _cell_text(c)]
        print("\n".join(",".join(row) for row in [_TABLE_FIELDS] + rows))
    elif args.output_format == "json":
        print(_json_text([_cell_record(c) for c in cells]))
    else:
        kind = "beta_c values" if cells[0].quantity == "beta_c" else "bound gap ratios"
        print(f"table {args.which} ({kind})")
        print(_TABLE_ROW.format(*_TABLE_FIELDS))
        for c in cells:
            row, *ref = _cell_text(c)
            print(_TABLE_ROW.format(*row))
            if ref:
                print(f"{'with published reference':>66} {ref[0][6]:>14}")
        errata = [c for c in cells if c.status == "ERRATUM"]
        if errata:
            print("errata (computed value is authoritative):")
            for c in errata:
                repl = fmt(c.replacement) if c.replacement is not None else fmt(c.computed)
                print(f"  {c.distribution} lambda={fmt(c.arrival_rate)} "
                      f"alpha={fmt(c.mean_service)}: published {fmt(c.paper_value)} "
                      f"-> {repl}  ({c.note})")

    unexpected = [c for c in cells if c.status != c.expected_status]
    for c in unexpected:
        print(f"UNEXPECTED STATUS: {c.distribution} lambda={fmt(c.arrival_rate)} "
              f"alpha={fmt(c.mean_service)} expected {c.expected_status}, "
              f"got {c.status}", file=sys.stderr)
    return 3 if unexpected else 0


def run_compare(args: argparse.Namespace, parser) -> int:
    params = _bounded_queue(args, parser)
    m = analytics.beta_c(params)
    if params.traffic_intensity >= HIGH_RHO_WARN:
        print(f"warning: rho = {fmt(params.traffic_intensity)} is high; "
              f"simulation cost grows like e^rho", file=sys.stderr)
    est = simulator.estimate_beta_c(params, args.cycles, seed=args.seed,
                                    replications=args.reps)
    report = bounds.build_report(params, reference=m.beta_c)
    try:
        verdict = bounds.proposition1(params.traffic_intensity,
                                      params.service.scv).value
    except BusyCycleError:
        verdict = "unavailable (no scv)"

    lo, up = report.tightest
    sandwich = lo - 1e-12 * abs(m.beta_c) <= m.beta_c <= up + 1e-12 * abs(m.beta_c)
    inside_ci = est.ci95[0] <= m.beta_c <= est.ci95[1]

    pairs = _queue_pairs(params) + [
        ("beta_c_analytic", fmt(m.beta_c)),
        ("method", m.method),
        ("beta_c_simulated", fmt(est.beta_c_hat)),
        ("std_error", fmt(est.std_error)),
        ("ci95", f"[{fmt(est.ci95[0])}, {fmt(est.ci95[1])}]"),
        ("analytic_inside_ci", "yes" if inside_ci else "NO"),
    ] + _bound_pairs(report)
    if report.gap_ratio is not None:
        pairs.append(("gap_ratio", fmt(report.gap_ratio)))
    pairs.append(("position_vs_EZ", verdict))
    pairs.append(("sandwich", "PASS" if sandwich else "FAIL"))
    print(_emit_pairs(pairs, args.output_format))
    return 0


def _parse(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with the pass that finds the command left
    out when ``argv`` starts with a command's name: that command's own parser
    reads the rest, as the subparsers action would, and arguments it leaves
    are the top-level parser's usage error, as in ``parse_args``.  Any other
    ``argv`` (none, help, an unknown command, an option before the command)
    takes the full pass."""
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    command = commands.choices.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command on ``argv`` (the process's arguments by default) and
    return its exit status; help and usage errors raise ``SystemExit`` as
    argparse's do.  A call parses with the parser ``_build_parser`` built
    for the process, through the command's own parser (``_parse``)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = _parse(parser, argv)
    if args.config:
        # the config's flags go right after the command name, ahead of the
        # explicit flags, so the explicit ones win
        at = argv.index(args.command) + 1
        args = _parse(parser, argv[:at] + args.config + argv[at:])
    try:
        return args.handler(args, parser)
    except BusyCycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The ``busycycle`` command: ``main`` on the process's arguments, with
    stdout flushed before it returns.  When stdout's reader has gone (as in
    ``busycycle table --which 1 | head -1``) it returns 141, the status a
    shell reports for a process ended by SIGPIPE, and prints nothing more.
    """
    try:
        try:
            return main()
        finally:  # argparse's help and usage errors exit through here too
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left
        # to the null device, so that flush neither fails nor reports
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141


if __name__ == "__main__":
    sys.exit(run())
