"""File formats: graph and net JSON, query JSON, sample CSV, learned-object JSON.

All floating point numbers are rendered with 17 significant digits so that
emitted files are bit-stable golden artifacts.
"""

from __future__ import annotations

import csv
import io as _io
import json
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .admg import Admg, GraphError
from .estimand import to_json_dict
from .identify import Estimand, HedgeWitness, InvalidQuery
from .learn import ConditionalTable, LearnedInterventional
from .scm import CausalBayesNet, CbnNode
from .tables import PmfTable, Samples, ScopeMismatch, as_integer


def _render(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj, ensure_ascii=False)


def dump_json(obj: Any) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return _render(obj) + "\n"


# -- JSON file schemas -----------------------------------------------------------
#
# What a well-formed JSON input file is, declared once per file kind and checked
# by one walker. A schema is a Leaf, a one-element list (an array of that
# schema), a Map (names to values of one schema) or an Obj, whose fields each
# give a schema, a default (``...``: required; None: null is accepted too) and
# the error class of their faults where it is not the file's. Keys an Obj does
# not declare are ignored; in an array, an Obj's ``key`` labels it in messages
# and may not repeat.


class Leaf(NamedTuple):
    name: str  # as :func:`describe` lists it
    expected: str  # as a fault's message says "must be ..."
    test: Callable[[Any], bool]


class Field(NamedTuple):
    schema: Any
    default: Any = ...
    error: type[ValueError] | None = None


class Obj(NamedTuple):
    fields: Mapping[str, Field]
    key: str | None = None


class Map(NamedTuple):
    values: Any


INTEGER = Leaf("integer", "an integer", lambda v: as_integer(v) is not None)  # not 1.0 or "1"
STRING = Leaf("string", "a JSON string", lambda v: isinstance(v, str))
BOOLEAN = Leaf("boolean", "a JSON boolean", lambda v: isinstance(v, bool))
NAMES = Leaf("[string]", "a JSON array of names",  # a string would split into letters
             lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v))
NUMBERS = Leaf("nested [number]", "nested JSON arrays of numbers of one shape",
               lambda v: isinstance(v, list) and all(  # NaN is a number here
                   type(x) in (int, float) for x in np.array(v, dtype=object).flat))
ANYTHING = Leaf("any", "any JSON value", lambda v: True)
FACTOR_KIND = Leaf('"add1" | "exact" | "fragment"', 'one of "add1", "exact" and "fragment"',
                   lambda v: isinstance(v, str) and v in ("add1", "exact", "fragment"))


def _fault(error: type[ValueError], what: str, expected: str, value: Any):
    raise error(f"{what} must be {expected}, got {type(value).__name__}")


def _walk(value: Any, schema: Any, what: str, error: type[ValueError]) -> Any:
    """``value`` checked against ``schema``; an Obj is read as a dict of every declared
    field, defaults filled in. ``what`` labels ``value`` in messages (the file kind)."""
    if isinstance(schema, Leaf):
        if not schema.test(value):
            _fault(error, what, schema.expected, value)
        return value
    if isinstance(schema, list):
        if not isinstance(value, list):
            _fault(error, what, "a JSON array", value)
        key = getattr(schema[0], "key", None)
        labels = [repr(v[key]) if key and isinstance(v, Mapping) and isinstance(v.get(key), str)
                  else f"entry {i} of {what}" for i, v in enumerate(value)]
        if key and len(set(labels)) < len(labels):
            raise error(f"{what} names {max(labels, key=labels.count)} twice")
        return [_walk(v, schema[0], label, error) for v, label in zip(value, labels)]
    if not isinstance(value, Mapping):
        _fault(error, what, "a JSON object", value)
    if isinstance(schema, Map):
        return {k: _walk(v, schema.values, f"{what} value of {k!r}", error)
                for k, v in value.items()}
    out = {}
    for name, (inner, default, own) in schema.fields.items():
        label = f"{name} of {what}" if schema.key else name  # an entry's field, or a file's
        got = value.get(name, default)
        if got is ...:
            raise (own or error)(f"{label} is missing")
        out[name] = got if got is default else _walk(got, inner, label, own or error)
    return out


def describe(schema: Any) -> str:
    """``schema`` as ``dolearn --help`` and the README list it."""
    if isinstance(schema, Leaf):
        return schema.name
    if isinstance(schema, list):
        return f"[{describe(schema[0])}]"
    if isinstance(schema, Map):
        return f"{{name: {describe(schema.values)}}}"
    return "{" + ", ".join(f"{k}: {describe(f.schema)}" + (
        "" if f.default is ... else f" = {json.dumps(f.default)}")
        for k, f in schema.fields.items()) + "}"


GRAPH = Obj({
    "vars": Field([Obj({"name": Field(STRING), "cardinality": Field(INTEGER, 2)}, key="name")]),
    "directed": Field([NAMES], ()),
    "bidirected": Field([NAMES], ()),
})
NET = Obj({"nodes": Field([Obj({
    "name": Field(STRING),
    "cardinality": Field(INTEGER),
    "hidden": Field(BOOLEAN, False),
    "parents": Field(NAMES, ()),
    "cpt": Field(NUMBERS),
}, key="name")])})
QUERY = Obj({
    "intervene": Field([Obj({"var": Field(STRING), "value": Field(INTEGER)}, key="var")], ()),
    "targets": Field(NAMES, ()),
})
LEARNED = Obj({
    "graph": Field(Leaf("graph JSON", "a graph", lambda v: True)),  # read by admg_from_dict
    "intervention": Field(Map(INTEGER), error=InvalidQuery),
    "order": Field(NAMES),
    "factors": Field([Obj({
        "target": Field(STRING),
        "target_cardinality": Field(INTEGER, error=GraphError),
        "cond": Field(NAMES),
        "cond_cardinalities": Field([INTEGER], error=GraphError),
        "probs": Field(NUMBERS),
        "counts": Field(NUMBERS, None),
        "kind": Field(FACTOR_KIND, "add1"),
        "fixed_context": Field(Map(INTEGER), {}, InvalidQuery),
    }, key="target")]),
    "metadata": Field(Map(ANYTHING), {}),
})
ASSIGNMENT = Map(INTEGER)
SCHEMAS = {"graph": GRAPH, "query": QUERY, "net": NET, "learned-object": LEARNED,
           "assignment": ASSIGNMENT}


# -- graphs --------------------------------------------------------------------


def admg_to_dict(g: Admg) -> dict:
    return {
        "vars": [{"name": n, "cardinality": c} for n, c in zip(g.names, g.cards)],
        "directed": [[g.names[a], g.names[b]] for a, b in sorted(g.directed)],
        "bidirected": [[g.names[a], g.names[b]] for a, b in sorted(g.bidirected)],
    }


def admg_from_dict(obj: Mapping) -> Admg:
    g = _walk(obj, GRAPH, "graph", GraphError)
    return Admg.build([(v["name"], v["cardinality"]) for v in g["vars"]],
                      g["directed"], g["bidirected"])


# -- causal Bayes nets -----------------------------------------------------------


def net_to_dict(net: CausalBayesNet) -> dict:
    nodes = []
    for nd in net.nodes:
        shape = tuple(net.cardinality(p) for p in nd.parents) + (nd.cardinality,)
        nodes.append({
            "name": nd.name,
            "cardinality": nd.cardinality,
            "hidden": nd.hidden,
            "parents": list(nd.parents),
            "cpt": nd.cpt.reshape(shape).tolist(),
        })
    return {"nodes": nodes}


def net_from_dict(obj: Mapping) -> CausalBayesNet:
    nodes = _walk(obj, NET, "net", GraphError)["nodes"]
    return CausalBayesNet([CbnNode(nd["name"], nd["cardinality"], nd["parents"], nd["cpt"],
                                   nd["hidden"]) for nd in nodes])


# -- queries --------------------------------------------------------------------


def query_from_dict(obj: Mapping) -> tuple[dict[str, int], frozenset[str]]:
    q = _walk(obj, QUERY, "query", InvalidQuery)
    return {e["var"]: e["value"] for e in q["intervene"]}, frozenset(q["targets"])


def assignment_from_dict(obj: Mapping) -> dict[str, int]:
    """An ``eval`` point: a JSON object from variable names to integer symbols."""
    return _walk(obj, ASSIGNMENT, "assignment", ScopeMismatch)


# -- samples --------------------------------------------------------------------


class SampleCsvError(ValueError):
    """A sample CSV is empty, ragged, holds a cell that is not an integer,
    names a column twice or not at all, or has a header that is not one line."""


def _separators(k: int) -> np.ndarray:
    """The bytes after each of a row's k cells: k - 1 commas and a newline."""
    seps = np.full(k, ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    return seps


def samples_to_csv(samples: Samples) -> str:
    """A header row of names, then one line of integer symbols per draw.

    A batch whose symbols are all single digits is one (m, 2k) byte array
    of ``d,d,...,d\\n`` rows, filled column by column. Otherwise each
    distinct row is rendered once, and the lines are gathered by the batch's
    row codes (:meth:`Samples.row_codes`). Raises
    :class:`~dolearn.tables.ScopeMismatch` for a non-integer batch or a
    negative symbol, and :class:`SampleCsvError` for a column name holding a
    line break, which no reader would accept.
    """
    for name in samples.names:
        if "\n" in name or "\r" in name:
            raise SampleCsvError(f"sample CSV column name {name!r} holds a line break")
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(samples.names)
    if samples.names and samples.largest_symbol < 10:
        out = np.empty((samples.m, 2 * len(samples.names)), dtype=np.uint8)
        out[:, 1::2] = _separators(len(samples.names))
        np.add(samples.values, ord("0"), out=out[:, ::2], casting="unsafe")
        buf.write(str(out.data, "ascii"))
        return buf.getvalue()
    code, size = samples.row_codes()
    at = np.full(size, -1, dtype=np.int64)
    at[code] = np.arange(samples.m)
    present = np.flatnonzero(at >= 0)
    lines = np.empty(size, dtype=object)
    lines[present] = [",".join(map(str, row)) + "\n"
                      for row in samples.values[at[present]].tolist()]
    buf.write("".join(lines[code].tolist()))
    return buf.getvalue()


def _single_digit_cells(body: str, k: int) -> np.ndarray | None:
    """The (m, k) symbols of a body made only of ``d,d,...,d\\n`` rows of k
    single ASCII digits, or None for any other body."""
    if not body.isascii() or len(body) % (2 * k):
        return None
    view = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(-1, 2 * k)
    if not (view[:, 1::2] == _separators(k)).all():
        return None
    digits = view[:, ::2] - np.uint8(ord("0"))  # wraps every non-digit above 9
    if not (digits < 10).all():
        return None
    return digits.astype(np.int64)


def samples_from_csv(text: str) -> Samples:
    """Parse a header row of names and at least one row of integer symbols.

    The accepted grammar is ``np.loadtxt``'s (comma-separated integers, with
    CRLF line ends and blank lines allowed). A body of rows of single ASCII
    digits, each row ending in ``\\n``, as :func:`samples_to_csv` writes it
    for a batch of symbols below 10, is decoded from its bytes directly to the
    same array. Header names must be distinct and non-empty; columns that a
    graph does not name are kept here and ignored by the learner.
    """
    head, _, body = text.partition("\n")
    try:
        header = next(csv.reader([head.rstrip("\r")]), [])
    except csv.Error as exc:
        raise SampleCsvError(f"sample CSV header: {exc}") from None
    if not header:
        raise SampleCsvError("sample CSV has no header row")
    seen = set()
    for j, name in enumerate(header):
        if not name:
            raise SampleCsvError(f"sample CSV header column {j + 1} has no name")
        if name in seen:
            raise SampleCsvError(f"sample CSV header names column {name!r} twice")
        seen.add(name)
    if not body.strip():
        raise SampleCsvError("sample CSV has a header but no data rows")
    values = _single_digit_cells(body, len(header))
    if values is not None:
        return Samples(tuple(header), values)
    try:
        values = np.loadtxt(_io.StringIO(body), dtype=np.int64, delimiter=",",
                            comments=None, ndmin=2)
    except ValueError as exc:
        raise SampleCsvError(f"sample CSV body: {exc}") from None
    if values.shape[1] != len(header):
        raise SampleCsvError(
            f"sample CSV rows have {values.shape[1]} cells, header has {len(header)}"
        )
    return Samples(tuple(header), values)


# -- tables and learned objects ---------------------------------------------------


def table_to_dict(t: PmfTable) -> dict:
    return {
        "vars": list(t.names),
        "cardinalities": list(t.cards),
        "probs": t.probs.reshape(-1).tolist(),
        "context": dict(t.context) if t.context else {},
    }


def _factor_to_dict(f: ConditionalTable) -> dict:
    return {
        "target": f.target,
        "target_cardinality": f.target_card,
        "cond": list(f.cond),
        "cond_cardinalities": list(f.cond_cards),
        "probs": f.probs.tolist(),
        "counts": f.counts.tolist() if f.counts is not None else None,
        "kind": f.kind,
        "fixed_context": dict(f.fixed_context),
    }


def li_to_dict(li: LearnedInterventional) -> dict:
    return {
        "graph": admg_to_dict(li.graph),
        "intervention": {k: int(v) for k, v in li.x.items()},
        "order": list(li.order),
        "factors": [_factor_to_dict(li.factors[n]) for n in li.order],
        "metadata": dict(li.metadata),
    }


def li_from_dict(obj: Mapping) -> LearnedInterventional:
    li = _walk(obj, LEARNED, "learned object", ScopeMismatch)
    factors = {f["target"]: ConditionalTable(
        f["target"], f["target_cardinality"], f["cond"], f["cond_cardinalities"], f["probs"],
        f["counts"], f["kind"], f["fixed_context"]) for f in li["factors"]}
    return LearnedInterventional(admg_from_dict(li["graph"]), li["intervention"],
                                 tuple(li["order"]), factors, li["metadata"])


# -- identification results --------------------------------------------------------


def estimand_to_dict(e: Estimand) -> dict:
    return {
        "identifiable": True,
        "targets": sorted(e.targets),
        "intervened": sorted(e.intervened),
        "arbitrary": sorted(e.arbitrary),
        "formula": e.render(),
        "latex": e.render("latex"),
        "trace": [{"step": t.step, "detail": t.description} for t in e.trace],
        "expression": to_json_dict(e.expr),
    }


def hedge_to_dict(w: HedgeWitness) -> dict:
    return {
        "identifiable": False,
        "root_set": sorted(w.root_set),
        "internal": sorted(w.internal),
        "witness_graph": admg_to_dict(w.graph),
        "trace": [{"step": t.step, "detail": t.description} for t in w.trace],
    }
