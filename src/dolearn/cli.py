"""Command-line interface tying the modules into reproducible batch workflows.

Exit codes: 0 success, 2 query not identifiable, 3 positivity violation (a
conditioning event with zero count or mass), 4 input error. Failures
additionally emit a machine-readable JSON object on stderr. Every subcommand
is deterministic given its inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import io as dio
from .identify import CausalQuery, HedgeWitness, InvalidQuery, NotIdentifiable, identify
from .learn import (
    LearnConfig,
    PositivityViolation,
    evaluate_point,
    learn_interventional,
    recommended_sample_size,
)
from .generate import sample as generate_sample
from .scm import exact_interventional, exact_observational, sample_observational
from .verify import compare_to_oracle

EXIT_OK = 0
EXIT_NOT_IDENTIFIABLE = 2
EXIT_POSITIVITY = 3
EXIT_INPUT = 4


class _CliError(Exception):
    def __init__(self, code: int, error: str, message: str, **details):
        self.code = code
        self.payload = {"error": error, "message": message, **details}
        super().__init__(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _CliError(EXIT_INPUT, "FileNotFound", f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise _CliError(EXIT_INPUT, "UnreadableFile", f"{path}: {exc}")


def _write(args, out) -> None:
    """Write a command's output, text or a JSON value, to ``--out``, or to
    stdout without one."""
    text = out if isinstance(out, str) else dio.dump_json(out)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(EXIT_INPUT, "UnwritableFile", f"{args.out}: {exc}")


def _load(path: str, reader, payload: str | None = None):
    """``reader`` applied to the JSON file at ``path``. With a ``payload``
    name, a fault it raises is reported under that name with the path;
    without one, under the error's own class name."""
    try:
        return reader(json.loads(_read_text(path)))
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_INPUT, "BadJson", f"{path}: {exc}")
    except ValueError as exc:
        if payload is None:
            raise
        raise _CliError(EXIT_INPUT, payload, f"{path}: {exc}")


# -- subcommands -----------------------------------------------------------------


def _cmd_identify(args) -> int:
    g = _load(args.graph, dio.admg_from_dict, "GraphError")
    x, targets = _load(args.query, dio.query_from_dict, "QueryError")
    if not targets:
        targets = frozenset(set(g.names) - set(x))
    result = identify(CausalQuery(g, x, targets))
    if isinstance(result, HedgeWitness):
        _write(args, dio.hedge_to_dict(result))
        raise _CliError(EXIT_NOT_IDENTIFIABLE, "NotIdentifiable",
                        f"not identifiable; witness root set {sorted(result.root_set)}")
    _write(args, dio.estimand_to_dict(result))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    net = _load(args.cbn, dio.net_from_dict, "NetError")
    if args.query:
        x, targets = _load(args.query, dio.query_from_dict, "QueryError")
        table = exact_interventional(net, x)
        if targets:
            table = table.marginal_to(targets)
    else:
        table = exact_observational(net)
    _write(args, dio.table_to_dict(table))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    net = _load(args.cbn, dio.net_from_dict, "NetError")
    samples = sample_observational(net, seed=args.seed, m=args.m)
    _write(args, dio.samples_to_csv(samples))
    print(dio.dump_json({"m": samples.m, "seed": args.seed,
                         "rng_algorithm": samples.rng_algorithm}),
          file=sys.stderr, end="")
    return EXIT_OK


def _cmd_learn(args) -> int:
    g = _load(args.graph, dio.admg_from_dict, "GraphError")
    x, targets = _load(args.query, dio.query_from_dict, "QueryError")
    rest = frozenset(g.names) - set(x)
    if targets and targets != rest:
        raise InvalidQuery(
            f"learn covers every non-intervened variable: targets must be empty "
            f"or {sorted(rest)}, got {sorted(targets)}"
        )
    config = LearnConfig(epsilon=args.epsilon, delta=args.delta, alpha=args.alpha)
    if args.samples:
        try:
            samples = dio.samples_from_csv(_read_text(args.samples))
        except dio.SampleCsvError as exc:
            raise _CliError(EXIT_INPUT, "SampleCsvError", f"{args.samples}: {exc}")
    elif args.cbn:
        if args.seed is None:
            raise _CliError(EXIT_INPUT, "MissingSeed",
                            "--seed is required when sampling from --cbn")
        if args.m is None:
            m, _detail = recommended_sample_size(
                g, g.indices(x), config.epsilon, config.delta, config.alpha
            )
            raise _CliError(EXIT_INPUT, "MissingSampleSize",
                            f"--m is required when sampling from --cbn; the recommended "
                            f"sample size for these targets is {m}", recommended_m=m)
        net = _load(args.cbn, dio.net_from_dict, "NetError")
        samples = sample_observational(net, seed=args.seed, m=args.m)
    else:
        raise _CliError(EXIT_INPUT, "MissingInput", "provide --samples or --cbn")
    li = learn_interventional(samples, g, x, config)
    _write(args, dio.li_to_dict(li))
    return EXIT_OK


def _cmd_eval(args) -> int:
    li = _load(args.li, dio.li_from_dict)
    y = _load(args.assign, dio.assignment_from_dict)
    p = evaluate_point(li, y)
    _write(args, {"assignment": y, "probability": p})
    return EXIT_OK


def _cmd_sample(args) -> int:
    li = _load(args.li, dio.li_from_dict)
    samples = generate_sample(li, seed=args.seed, m=args.m)
    _write(args, dio.samples_to_csv(samples))
    return EXIT_OK


def _cmd_verify(args) -> int:
    li = _load(args.li, dio.li_from_dict)
    net = _load(args.cbn, dio.net_from_dict, "NetError")
    x = _load(args.query, dio.query_from_dict, "QueryError")[0] if args.query else li.x
    report = compare_to_oracle(li, net, x)
    _write(args, {
        "tv": report.tv,
        "kl": report.kl,
        "intervention": report.x,
        "m": report.m,
        "factor_errors": [
            {"target": f.target, "worst_event": f.worst_event, "abs_error": f.abs_error}
            for f in report.factor_errors
        ],
    })
    return EXIT_OK


def _cmd_demo(args) -> int:
    from .demo import run_bow, run_example1, run_example2

    if args.name == "example1":
        report = run_example1(seed=args.seed, m=args.m)
    elif args.name == "example2":
        report = run_example2(seed=args.seed, m=args.m)
    else:
        report = run_bow()
    _write(args, report)
    if "formula" in report:
        print(f"formula: {report['formula']}", file=sys.stderr)
    return EXIT_OK


@functools.cache  # built once per process: it is about half of a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dolearn",
        description="Identify and learn interventional distributions on "
                    "causal graphs with hidden confounders.",
        epilog="File schemas (a field with = default may be left out; other keys are "
               "ignored): " + "; ".join(f"{kind} JSON {dio.describe(schema)}"
                                       for kind, schema in dio.SCHEMAS.items())
               + "; samples CSV: a header of distinct names, then rows of integer symbols. "
                 "A net's cpt is nested row-major over the parents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--out")
        p.set_defaults(fn=fn)
        return p

    p = command("identify", _cmd_identify, "compile a query into an estimand or a witness")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)

    p = command("oracle", _cmd_oracle, "exact observational or interventional table")
    p.add_argument("--cbn", required=True)
    p.add_argument("--query")

    p = command("simulate", _cmd_simulate, "draw observational samples from a net")
    p.add_argument("--cbn", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("learn", _cmd_learn, "learn an interventional evaluator/generator")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--samples", help="observational samples CSV")
    p.add_argument("--cbn", help="ground-truth net JSON to sample from instead")
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.05)

    p = command("eval", _cmd_eval, "evaluate a learned object at one assignment")
    p.add_argument("--li", required=True)
    p.add_argument("--assign", required=True, help="JSON object var -> value")

    p = command("sample", _cmd_sample, "draw samples from a learned object")
    p.add_argument("--li", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("verify", _cmd_verify, "compare a learned object to its ground truth")
    p.add_argument("--li", required=True)
    p.add_argument("--cbn", required=True)
    p.add_argument("--query")

    p = command("demo", _cmd_demo, "run a built-in worked example end to end")
    p.add_argument("name", choices=["example1", "example2", "bow"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--m", type=int, default=100_000)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        code, payload = exc.code, exc.payload
    except NotIdentifiable as exc:
        code, payload = EXIT_NOT_IDENTIFIABLE, dio.hedge_to_dict(exc.witness)
    except PositivityViolation as exc:
        code, payload = EXIT_POSITIVITY, {"error": "PositivityViolation", "message": str(exc),
                                          "variable": exc.variable, "event": exc.event}
    except ValueError as exc:  # every named input error is one (GraphError, ScopeMismatch, ...)
        code, payload = EXIT_INPUT, {"error": type(exc).__name__, "message": str(exc)}
    print(dio.dump_json(payload), file=sys.stderr, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
