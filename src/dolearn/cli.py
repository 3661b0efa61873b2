"""Command-line interface tying the modules into reproducible batch workflows.

Exit codes: 0 success, 2 query not identifiable, 3 positivity violation (a
conditioning event with zero count or mass), 4 input error. Failures
additionally emit a machine-readable JSON object on stderr. Every subcommand
is deterministic given its inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as dio
from .admg import GraphError
from .identify import CausalQuery, HedgeWitness, InvalidQuery, NotIdentifiable, identify
from .learn import (
    LearnConfig,
    PositivityViolation,
    evaluate_point,
    learn_interventional,
    recommended_sample_size,
)
from .generate import sample as generate_sample
from .scm import (
    StateSpaceTooLarge,
    exact_interventional,
    exact_observational,
    sample_observational,
)
from .tables import ScopeMismatch
from .verify import GraphMismatch, compare_to_oracle

EXIT_OK = 0
EXIT_NOT_IDENTIFIABLE = 2
EXIT_POSITIVITY = 3
EXIT_INPUT = 4


class _CliError(Exception):
    def __init__(self, code: int, error: str, message: str, **details):
        self.code = code
        self.payload = {"error": error, "message": message, **details}
        super().__init__(message)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _CliError(EXIT_INPUT, "FileNotFound", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_INPUT, "BadJson", f"{path}: {exc}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise _CliError(EXIT_INPUT, "FileNotFound", f"no such file: {path}")


def _write(args, text: str) -> None:
    """Write a command's output to ``--out``, or to stdout without one."""
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(args, obj) -> None:
    _write(args, dio.dump_json(obj))


def _load_graph(path: str):
    try:
        return dio.admg_from_dict(_read_json(path))
    except GraphError as exc:
        raise _CliError(EXIT_INPUT, "GraphError", str(exc))


def _load_net(path: str):
    try:
        return dio.net_from_dict(_read_json(path))
    except (GraphError, KeyError, ValueError) as exc:
        raise _CliError(EXIT_INPUT, "NetError", f"{path}: {exc}")


def _load_query(path: str):
    obj = _read_json(path)
    try:
        return dio.query_from_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_INPUT, "QueryError", f"{path}: {exc}")


# -- subcommands -----------------------------------------------------------------


def _cmd_identify(args) -> int:
    g = _load_graph(args.graph)
    x, targets = _load_query(args.query)
    if not targets:
        targets = frozenset(set(g.names) - set(x))
    try:
        q = CausalQuery(g, x, targets)
    except InvalidQuery as exc:
        raise _CliError(EXIT_INPUT, "InvalidQuery", str(exc))
    result = identify(q)
    if isinstance(result, HedgeWitness):
        _emit(args, dio.hedge_to_dict(result))
        print("not identifiable; witness root set "
              f"{sorted(result.root_set)}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE
    _emit(args, dio.estimand_to_dict(result))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    net = _load_net(args.cbn)
    if args.query:
        x, targets = _load_query(args.query)
        table = exact_interventional(net, x)
        if targets:
            table = table.marginal_to(targets)
    else:
        table = exact_observational(net)
    _emit(args, dio.table_to_dict(table))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    net = _load_net(args.cbn)
    samples = sample_observational(net, seed=args.seed, m=args.m)
    _write(args, dio.samples_to_csv(samples))
    print(dio.dump_json({"m": samples.m, "seed": args.seed,
                         "rng_algorithm": samples.rng_algorithm}),
          file=sys.stderr, end="")
    return EXIT_OK


def _cmd_learn(args) -> int:
    g = _load_graph(args.graph)
    x, targets = _load_query(args.query)
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
        samples = sample_observational(_load_net(args.cbn), seed=args.seed, m=args.m)
    else:
        raise _CliError(EXIT_INPUT, "MissingInput", "provide --samples or --cbn")
    li = learn_interventional(samples, g, x, config)
    _emit(args, dio.li_to_dict(li))
    return EXIT_OK


def _cmd_eval(args) -> int:
    li = dio.li_from_dict(_read_json(args.li))
    assign = dio.json_object(_read_json(args.assign), "assignment", ScopeMismatch)
    y = {k: dio.json_integer(v, f"value of {k!r}", ScopeMismatch) for k, v in assign.items()}
    p = evaluate_point(li, y)
    _emit(args, {"assignment": y, "probability": p})
    return EXIT_OK


def _cmd_sample(args) -> int:
    li = dio.li_from_dict(_read_json(args.li))
    samples = generate_sample(li, seed=args.seed, m=args.m)
    _write(args, dio.samples_to_csv(samples))
    return EXIT_OK


def _cmd_verify(args) -> int:
    li = dio.li_from_dict(_read_json(args.li))
    net = _load_net(args.cbn)
    x, _ = _load_query(args.query) if args.query else (dict(li.x), frozenset())
    report = compare_to_oracle(li, net, x)
    _emit(args, {
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
    _emit(args, report)
    if "formula" in report:
        print(f"formula: {report['formula']}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dolearn",
        description="Identify and learn interventional distributions on "
                    "causal graphs with hidden confounders.",
        epilog=(
            "File schemas: graph JSON {vars:[{name,cardinality}],directed:[[a,b]],"
            "bidirected:[[a,b]]}; query JSON {intervene:[{var,value}],targets:[...]}; "
            "net JSON {nodes:[{name,cardinality,hidden,parents,cpt}]} with cpt nested "
            "row-major over the parents; samples CSV has a variable-name header and "
            "integer symbols."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="compile a query into an estimand or a witness")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_identify)

    p = sub.add_parser("oracle", help="exact observational or interventional table")
    p.add_argument("--cbn", required=True)
    p.add_argument("--query")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("simulate", help="draw observational samples from a net")
    p.add_argument("--cbn", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("learn", help="learn an interventional evaluator/generator")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--samples", help="observational samples CSV")
    p.add_argument("--cbn", help="ground-truth net JSON to sample from instead")
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("eval", help="evaluate a learned object at one assignment")
    p.add_argument("--li", required=True)
    p.add_argument("--assign", required=True, help="JSON object var -> value")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sample", help="draw samples from a learned object")
    p.add_argument("--li", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="compare a learned object to its ground truth")
    p.add_argument("--li", required=True)
    p.add_argument("--cbn", required=True)
    p.add_argument("--query")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("demo", help="run a built-in worked example end to end")
    p.add_argument("name", choices=["example1", "example2", "bow"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--m", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(dio.dump_json(exc.payload), file=sys.stderr, end="")
        return exc.code
    except NotIdentifiable as exc:
        print(dio.dump_json(dio.hedge_to_dict(exc.witness)), file=sys.stderr, end="")
        return EXIT_NOT_IDENTIFIABLE
    except PositivityViolation as exc:
        print(dio.dump_json({
            "error": "PositivityViolation", "message": str(exc),
            "variable": exc.variable, "event": exc.event,
        }), file=sys.stderr, end="")
        return EXIT_POSITIVITY
    except (InvalidQuery, GraphError, GraphMismatch, ScopeMismatch,
            StateSpaceTooLarge, ValueError, KeyError) as exc:
        print(dio.dump_json({
            "error": type(exc).__name__, "message": str(exc),
        }), file=sys.stderr, end="")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
