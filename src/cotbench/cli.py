"""Command-line entry point.

Subcommands: generate, validate-oracles, run, report, compare, complexity,
show-prompt.  Data goes to stdout or files; progress and diagnostics go to
stderr.  Exit codes: 0 success, 1 validation/runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from cotbench.backends import AuthError, BackendError, ReplayBackend, make_backend
from cotbench.complexity import ComplexityError, InvalidParams, density_report, template_count
from cotbench.prompts import PromptError, SupervisionKind, get_template, render_prompt
from cotbench.rundir import RunnerError, SpecError, read_spec
from cotbench.runner import aggregate, compare_runs, instance_seed_path, run_experiment, stderr_progress
from cotbench.tasks import (
    BRUTE_FORCE_MAX_LENGTH,
    DEFAULT_LENGTHS,
    InputRendering,
    TaskId,
    UnsupportedLength,
    generate_instance,
    instance_record,
    oracle_disagreements,
    render_input,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _enum_arg(cls):
    """An argparse type that parses a member of ``cls``, its ValueError as a usage error."""

    def parse(text: str):
        try:
            return cls.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


_task, _kind, _rendering = _enum_arg(TaskId), _enum_arg(SupervisionKind), _enum_arg(InputRendering)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotbench",
        description="Generate task instances, render prompts, run prompt-kind grids, and report accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write task instances as JSON lines")
    p.add_argument("--task", type=_task, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0,
                   help="master seed: the instances a run with it draws at indices 0 .. count-1")
    p.add_argument("--rendering", type=_rendering, default=None,
                   help="also include the rendered input text in each record")
    p.add_argument("--out", type=Path, default=None, help="output file (default stdout)")

    p = sub.add_parser("validate-oracles", help="cross-check fast oracles against naive solvers")
    p.add_argument("--max-length", type=int, default=12,
                   help=f"check every two-letter instance up to this length, 1 to {BRUTE_FORCE_MAX_LENGTH}")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="execute an experiment spec")
    p.add_argument("--spec", type=Path, required=True, help="experiment spec JSON file")
    p.add_argument("--out", type=Path, required=True, help="run directory")
    p.add_argument("--backend", choices=["live", "echo", "corrupt", "replay"], default=None,
                   help="override the spec's backend kind")
    p.add_argument("--corrupt-p", type=float, default=None, help="corruption rate for --backend corrupt")
    p.add_argument("--store", type=Path, default=None,
                   help="run directory whose records to replay, for --backend replay")
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("report", help="aggregate a run directory into accuracy tables")
    p.add_argument("--run", type=Path, required=True)

    p = sub.add_parser("compare", help="per-cell accuracy deltas between two runs")
    p.add_argument("--run-a", type=Path, required=True)
    p.add_argument("--run-b", type=Path, required=True)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p = sub.add_parser("complexity", help="step-template counts and answer-space densities")
    p.add_argument("--n", type=int, default=None, help="latent information bits")
    p.add_argument("--s", type=int, default=None, help="bits verbalized per step")
    p.add_argument("--tasks", type=str, default=None, help="comma-separated task codes for a density census")
    p.add_argument("--lengths", type=str, default=None, help="comma-separated lengths for the census")

    p = sub.add_parser("show-prompt", help="print the exact prompt text for one instance")
    p.add_argument("--task", type=_task, required=True)
    p.add_argument("--kind", type=_kind, required=True)
    p.add_argument("--length", type=int, default=None, help="default: the task's first grid length")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed: the prompt a run with it issues at index 0")
    p.add_argument("--rendering", type=_rendering, default=InputRendering.LIST_FIED)

    return parser


def cmd_generate(args) -> int:
    if args.count < 1:
        print(f"usage error: --count must be positive, got {args.count}", file=sys.stderr)
        return EXIT_USAGE
    try:
        lines = []
        for i in range(args.count):
            inst = generate_instance(
                args.task, args.length, seed_path=instance_seed_path(args.seed, args.task, args.length, i)
            )
            record = instance_record(inst)
            if args.rendering is not None:
                record["input"] = render_input(inst, args.rendering)
            lines.append(json.dumps(record, ensure_ascii=False))
    except UnsupportedLength as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.count} instances to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate_oracles(args) -> int:
    if not 1 <= args.max_length <= BRUTE_FORCE_MAX_LENGTH:
        print(f"usage error: --max-length must be in 1..{BRUTE_FORCE_MAX_LENGTH}, got {args.max_length}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.samples < 1:
        print(f"usage error: --samples must be positive, got {args.samples}", file=sys.stderr)
        return EXIT_USAGE
    checked, bad = oracle_disagreements(args.max_length, args.samples, f"validate/{args.seed}")
    for inst in bad:
        print(f"DISAGREE {inst.task.value} {inst.elements}", file=sys.stderr)
    print(f"checked {checked} instances, {len(bad)} disagreements")
    return EXIT_FAILURE if bad else EXIT_OK


def cmd_run(args) -> int:
    for flag, value, kind in (("--corrupt-p", args.corrupt_p, "corrupt"), ("--store", args.store, "replay")):
        if value is not None and args.backend != kind:
            print(f"usage error: {flag} needs --backend {kind}", file=sys.stderr)
            return EXIT_USAGE
    try:
        spec, _ = read_spec(args.spec)
    except (OSError, SpecError) as exc:
        print(f"bad spec file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.backend:
        backend_spec = {"kind": args.backend}
        if args.corrupt_p is not None:
            backend_spec["p"] = args.corrupt_p
        if args.store is not None:
            backend_spec["store"] = str(args.store)
        spec.backend = backend_spec
    try:
        backend = make_backend(spec.backend)
    except AuthError as exc:
        print(f"auth error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (TypeError, ValueError, SpecError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(backend, ReplayBackend):
        # every call would end in MissingRecording: refuse before the first
        mismatch = backend.decoding_mismatch(spec.completion)
        if mismatch:
            print(f"usage error: cannot replay {spec.backend['store']}: {mismatch}", file=sys.stderr)
            return EXIT_USAGE
    try:
        run_dir = run_experiment(spec, backend, args.out, workers=args.workers, progress=stderr_progress)
    except RunnerError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"run complete: {run_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        table = aggregate(args.run)
    except SpecError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(table.format_text())
    print(f"tables written to {args.run}/table.json and table.txt", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        table = compare_runs(args.run_a, args.run_b)
    except SpecError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RunnerError as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.json:
        sys.stdout.write(json.dumps(table.to_json(), indent=2) + "\n")
    else:
        sys.stdout.write(table.format_text())
    return EXIT_OK


@contextmanager
def exact_digits():
    """Lift the interpreter's limit on the digits of an int converted to text, and restore it after.

    Python 3.11 (and 3.10.7 on) refuses to print an int of more than 4,300
    digits; an interpreter without the limit prints any int.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# the counts are exact at any size, and C(n, s) or a census total can pass the limit
@exact_digits()
def cmd_complexity(args) -> int:
    did_something = False
    if args.n is not None or args.s is not None:
        if args.n is None or args.s is None:
            print("usage error: --n and --s go together", file=sys.stderr)
            return EXIT_USAGE
        try:
            value = template_count(args.n, args.s)
        except InvalidParams as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"template_count(n={args.n}, s={args.s}) = {value}")
        did_something = True
    if args.tasks:
        try:
            tasks = [TaskId.parse(t) for t in args.tasks.split(",") if t.strip()]
            lengths = [int(x) for x in (args.lengths or "").split(",") if x.strip()]
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not lengths:
            print("usage error: --tasks needs --lengths", file=sys.stderr)
            return EXIT_USAGE
        report = density_report(tasks, lengths)
        sys.stdout.write(report.format_text())
        did_something = True
    if not did_something:
        print("usage error: pass --n/--s and/or --tasks/--lengths", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_show_prompt(args) -> int:
    length = args.length if args.length is not None else DEFAULT_LENGTHS[args.task][0]
    try:
        inst = generate_instance(
            args.task, length, seed_path=instance_seed_path(args.seed, args.task, length, 0)
        )
    except UnsupportedLength as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    prompt = render_prompt(get_template(args.task, args.kind), inst, args.rendering)
    sys.stdout.write(prompt.text + "\n")
    return EXIT_OK


COMMANDS = {
    "generate": cmd_generate,
    "validate-oracles": cmd_validate_oracles,
    "run": cmd_run,
    "report": cmd_report,
    "compare": cmd_compare,
    "complexity": cmd_complexity,
    "show-prompt": cmd_show_prompt,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    # a file a command cannot read or write is an error message, not a traceback
    except (BackendError, ComplexityError, PromptError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
