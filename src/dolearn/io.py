"""File formats: graph and net JSON, query JSON, sample CSV, learned-object JSON.

All floating point numbers are rendered with 17 significant digits so that
emitted files are bit-stable golden artifacts.
"""

from __future__ import annotations

import csv
import io as _io
import json
from typing import Any, Mapping

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


def json_integer(value: Any, what: str, error: type[ValueError]) -> int:
    """A JSON integer as an int; a float (even ``1.0``), a boolean or a string
    raises ``error`` naming ``what`` instead of being truncated."""
    out = as_integer(value)
    if out is None:
        raise error(f"{what} must be an integer, got {value!r}")
    return out


def json_object(value: Any, what: str, error: type[ValueError]) -> Mapping:
    """A JSON object as a mapping; an array, a number, a string or null
    raises ``error`` naming ``what``."""
    if not isinstance(value, Mapping):
        raise error(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def json_names(value: Any, what: str, error: type[ValueError]) -> tuple[str, ...]:
    """A JSON array of strings as a tuple of names; a string (which would
    split into its characters), an object, a number, or an array holding
    anything but strings raises ``error`` naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise error(f"{what} must be a JSON array of names, got {value!r}")
    return tuple(value)


# -- graphs --------------------------------------------------------------------


def admg_to_dict(g: Admg) -> dict:
    return {
        "vars": [{"name": n, "cardinality": c} for n, c in zip(g.names, g.cards)],
        "directed": [[g.names[a], g.names[b]] for a, b in sorted(g.directed)],
        "bidirected": [[g.names[a], g.names[b]] for a, b in sorted(g.bidirected)],
    }


def _edges(obj: Mapping, kind: str) -> list[tuple[str, ...]]:
    """The graph's ``kind`` edges, each an array of exactly two names."""
    edges =[json_names(e, f"{kind} edge", GraphError) for e in obj.get(kind, [])]
    for e in edges:
        if len(e) != 2:
            raise GraphError(f"{kind} edge {list(e)} must name exactly two variables")
    return edges


def admg_from_dict(obj: Mapping) -> Admg:
    json_object(obj, "graph", GraphError)
    try:
        names = json_names([v["name"] for v in obj["vars"]], "graph variable names",
                           GraphError)
        variables = [(n, json_integer(v.get("cardinality", 2), f"cardinality of {n!r}",
                                      GraphError))
                     for n, v in zip(names, obj["vars"])]
        directed = _edges(obj, "directed")
        bidirected = _edges(obj, "bidirected")
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph object: {exc}") from exc
    return Admg.build(variables, directed, bidirected)


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
    json_object(obj, "net", GraphError)
    names = json_names([nd["name"] for nd in obj["nodes"]], "net node names", GraphError)
    nodes = []
    for name, nd in zip(names, obj["nodes"]):
        cpt = np.asarray(nd["cpt"], dtype=np.float64)
        card = json_integer(nd["cardinality"], f"cardinality of {name!r}", GraphError)
        nodes.append(CbnNode(
            name=name,
            cardinality=card,
            parents=json_names(nd.get("parents", []), f"parents of {name!r}", GraphError),
            cpt=cpt.reshape(-1, card),
            hidden=bool(nd.get("hidden", False)),
        ))
    return CausalBayesNet(nodes)


# -- queries --------------------------------------------------------------------


def query_from_dict(obj: Mapping) -> tuple[dict[str, int], frozenset[str]]:
    json_object(obj, "query", InvalidQuery)
    intervene = obj.get("intervene", [])
    names = json_names([e["var"] for e in intervene], "intervened variables", InvalidQuery)
    x = {n: json_integer(e["value"], f"value of {n!r}", InvalidQuery)
         for n, e in zip(names, intervene)}
    targets = frozenset(json_names(obj.get("targets", []), "query targets", InvalidQuery))
    return x, targets


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


def _factor_from_dict(obj: Mapping) -> ConditionalTable:
    counts = obj.get("counts")
    target = obj["target"]
    what = f"factor of {target!r}:"
    return ConditionalTable(
        target=target,
        target_card=json_integer(obj["target_cardinality"], f"{what} target cardinality",
                                 GraphError),
        cond=json_names(obj["cond"], f"{what} conditioning variables", ScopeMismatch),
        cond_cards=tuple(json_integer(c, f"{what} conditioning cardinality", GraphError)
                         for c in obj["cond_cardinalities"]),
        probs=np.asarray(obj["probs"], dtype=np.float64),
        counts=np.asarray(counts, dtype=np.float64) if counts is not None else None,
        kind=obj.get("kind", "add1"),
        fixed_context={k: json_integer(v, f"{what} fixed value of {k!r}", InvalidQuery)
                       for k, v in obj.get("fixed_context", {}).items()},
    )


def li_to_dict(li: LearnedInterventional) -> dict:
    return {
        "graph": admg_to_dict(li.graph),
        "intervention": {k: int(v) for k, v in li.x.items()},
        "order": list(li.order),
        "factors": [_factor_to_dict(li.factors[n]) for n in li.order],
        "metadata": dict(li.metadata),
    }


def li_from_dict(obj: Mapping) -> LearnedInterventional:
    json_object(obj, "learned object", ScopeMismatch)
    if not isinstance(obj["factors"], list):
        raise ScopeMismatch(f"factors must be a JSON array, got {type(obj['factors']).__name__}")
    entries = [json_object(f, "factor", ScopeMismatch) for f in obj["factors"]]
    targets = json_names([f["target"] for f in entries], "factor targets", ScopeMismatch)
    factors = {t: _factor_from_dict(f) for t, f in zip(targets, entries)}
    return LearnedInterventional(
        graph=admg_from_dict(obj["graph"]),
        x={k: json_integer(v, f"intervention value of {k!r}", InvalidQuery)
           for k, v in obj["intervention"].items()},
        order=json_names(obj["order"], "sampling order", ScopeMismatch),
        factors=factors,
        metadata=dict(obj.get("metadata", {})),
    )


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
