"""Dense probability tables over small ordered variable sets, plus sample batches."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

TOTAL_TOL = 1e-9
ROW_TOL = 1e-12  # per entry and per row sum of conditional probability rows
RNG_ALGORITHM = "numpy-pcg64"
CODE_LIMIT = 2**62  # largest mixed-radix code space encoded without re-densifying
DENSE_FACTOR = 4  # code spaces up to this many times m (or 2**16) are bincounted directly
BLOCK_ROWS = 2**14  # rows drawn per block: a block's working arrays stay in cache


class ScopeMismatch(ValueError):
    """An assignment or table does not line up with the expected variable scope."""


def strides_for(cards: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides; the last variable varies fastest."""
    out = [1] * len(cards)
    for i in range(len(cards) - 2, -1, -1):
        out[i] = out[i + 1] * cards[i + 1]
    return tuple(out)


def check_rows(name: str, kind: str, rows: np.ndarray, error: type = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``rows`` (2-D, one row per
    conditioning configuration) are probability rows: no entry below
    ``-ROW_TOL`` and every row summing to 1 within it. Written so that NaN
    fails; a table of no rows passes, for its owner to name."""
    if not rows.min(initial=0.0) >= -ROW_TOL:
        raise error(f"{name}: negative or NaN {kind} entry")
    off = np.abs(np.add.reduce(rows, axis=1) - 1.0)
    if not np.maximum.reduce(off, initial=0.0) <= ROW_TOL:
        raise error(f"{name}: {kind} row {int(np.argmax(~(off <= ROW_TOL)))} does not sum to 1")


def iter_assignments(names: Sequence[str], cards: Sequence[int]) -> Iterator[dict[str, int]]:
    """Enumerate assignments in row-major order. Empty scope yields one empty dict."""
    for combo in np.ndindex(*cards):
        yield dict(zip(names, combo))


def symbols_of(
    assignment: Mapping[str, int | np.ndarray], names: Sequence[str], cards: Sequence[int]
) -> tuple[int | np.ndarray, ...]:
    """The values of ``names`` in ``assignment``, after checking that each is
    an integer (or integer array) of symbols in ``[0, card)``; raises
    :class:`ScopeMismatch` otherwise, so a symbol never wraps around a row."""
    try:
        values = tuple([assignment[n] for n in names])
    except KeyError as missing:
        raise ScopeMismatch(f"assignment lacks value for {missing}") from None
    for n, v, card in zip(names, values, cards):
        if type(v) is int and 0 <= v < card:
            continue  # the common scalar case, without an array round trip
        v = np.asarray(v)
        if v.dtype.kind not in "iu" or not np.all((v >= 0) & (v < card)):
            raise ScopeMismatch(f"value for {n!r} is not a symbol in [0, {card})")
    return values


@dataclass(frozen=True, eq=False)
class PmfTable:
    """A probability mass table over an ordered set of discrete variables.

    ``probs`` has one axis per variable, in ``names`` order. ``context``
    optionally records fixed values the table is conditioned on.
    Unnormalized intermediates must set ``normalized=False``.
    """

    names: tuple[str, ...]
    probs: np.ndarray
    context: Mapping[str, int] | None = None
    normalized: bool = True

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "names", tuple(self.names))
        if probs.ndim != len(self.names):
            raise ScopeMismatch(
                f"table has {probs.ndim} axes but {len(self.names)} names"
            )
        if len(set(self.names)) != len(self.names):
            raise ScopeMismatch(f"duplicate variable names: {self.names}")
        if not probs.min(initial=0.0) >= -ROW_TOL:  # written so that NaN fails
            raise ValueError("negative or NaN probability mass")
        if self.normalized and not abs(self.total - 1.0) <= TOTAL_TOL:
            raise ValueError(f"table mass {self.total!r} deviates from 1")

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.probs.shape)

    @property
    def scope(self) -> frozenset[str]:
        return frozenset(self.names)

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ScopeMismatch(f"{name!r} not in table over {self.names}") from None

    def pmf(self, assignment: Mapping[str, int | np.ndarray]) -> float | np.ndarray:
        """Mass at an assignment. Extra keys are ignored; a missing key or a
        symbol outside ``[0, card)`` is a :class:`ScopeMismatch`. Values may be
        integer arrays that broadcast together; the result is then the array
        of masses at every broadcast position."""
        out = self.probs[symbols_of(assignment, self.names, self.probs.shape)]
        return out if isinstance(out, np.ndarray) else float(out)

    def marginal_probs(self, keep: Container[str]) -> np.ndarray:
        """The bare marginal array over the variables in ``keep``, axes in
        table order. Names in ``keep`` that the table lacks are not checked
        here; :meth:`marginal_to` checks them and wraps this array."""
        drop_axes = tuple(i for i, n in enumerate(self.names) if n not in keep)
        return self.probs.sum(axis=drop_axes) if drop_axes else self.probs

    def marginal_to(self, keep: Iterable[str]) -> "PmfTable":
        keep = set(keep)
        unknown = keep - self.scope
        if unknown:
            raise ScopeMismatch(f"cannot keep unknown variables {sorted(unknown)}")
        return PmfTable(
            tuple(n for n in self.names if n in keep), self.marginal_probs(keep),
            context=self.context, normalized=self.normalized,
        )

    def sliced(self, fixed: Mapping[str, int]) -> "PmfTable":
        """Fix some coordinates. The result is an unnormalized slice."""
        relevant = {n: v for n, v in fixed.items() if n in self.scope}
        if not relevant:
            return self
        idx = tuple(relevant.get(n, slice(None)) for n in self.names)
        kept = tuple(n for n in self.names if n not in relevant)
        ctx = dict(self.context or {})
        ctx.update(relevant)
        return PmfTable(kept, self.probs[idx], context=ctx, normalized=False)

    def aligned_to(self, names: Sequence[str]) -> "PmfTable":
        names = tuple(names)
        if set(names) != self.scope or len(names) != len(self.names):
            raise ScopeMismatch(f"cannot align {self.names} to {names}")
        perm = tuple(self.names.index(n) for n in names)
        return PmfTable(
            names, np.transpose(self.probs, perm),
            context=self.context, normalized=self.normalized,
        )


class DistinctRows(NamedTuple):
    """The distinct rows of a batch, in ascending mixed-radix code order, and
    how often each occurs."""

    rows: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True, eq=False)
class Samples:
    """A batch of joint observations: one column per variable, one row per draw.

    ``values`` is a read-only view of the array passed in; samplers pass the
    transpose of an (n_vars, m) buffer, so each column is contiguous. A batch
    that the sampler or the CSV reader builds holds its symbols in the
    smallest unsigned dtype that holds its largest possible symbol: ``uint8``
    up to cardinality 256, ``uint16`` above (``np.min_scalar_type``); a CSV
    read through ``np.loadtxt`` stays int64. Code that multiplies symbols
    widens them to int64 first (:func:`row_index`, :meth:`row_codes`). The
    batch's sufficient statistics (its distinct rows and their multiplicities)
    are computed on first use and memoized, so each ``counts_over`` is a
    bincount over at most min(m, prod(cards)) distinct rows. The batch keeps
    them valid only while the caller leaves the array it passed in unchanged.
    """

    names: tuple[str, ...]
    values: np.ndarray
    rng_algorithm: str | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values).view()
        if values.ndim != 2 or values.shape[1] != len(self.names):
            raise ScopeMismatch("sample array must be (m, n_vars)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ScopeMismatch(f"duplicate variable names: {self.names}")

    @property
    def m(self) -> int:
        return int(self.values.shape[0])

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ScopeMismatch(f"{name!r} not among sampled variables") from None

    def project(self, names: Sequence[str]) -> "Samples":
        cols = [self._index(n) for n in names]
        return Samples(tuple(names), self.values[:, cols], self.rng_algorithm)

    @cached_property
    def _top(self) -> tuple[int, ...]:
        """Largest symbol per column, after checking dtype and sign once."""
        if self.values.dtype.kind not in "iu":
            raise ScopeMismatch(
                f"sample values must be integer symbols, got dtype {self.values.dtype}"
            )
        if self.m == 0:
            return (-1,) * len(self.names)
        lows = self.values.min(axis=0)
        if (lows < 0).any():
            j = int(np.argmax(lows < 0))
            raise ScopeMismatch(f"negative symbol {int(lows[j])} in column {self.names[j]!r}")
        return tuple(int(t) for t in self.values.max(axis=0))

    @property
    def largest_symbol(self) -> int:
        """The batch's largest symbol, or -1 for a batch with no rows or no
        columns. Raises :class:`ScopeMismatch` for a non-integer batch or a
        negative symbol."""
        return max(self._top, default=-1)

    def row_codes(self) -> tuple[np.ndarray, int]:
        """One int64 code per row, and the size of the code space.

        Codes lie in ``[0, size)``, are equal exactly for equal rows, and
        ascend with the rows' mixed-radix order over the observed per-column
        radix. When the next column would
        overflow int64, the running code is first re-densified to its rank
        among the codes seen so far, and once more if the final code space
        exceeds max(4m, 2**16). Raises :class:`ScopeMismatch` for a non-integer
        batch or a negative symbol. Not memoized: the codes cost 8 bytes a row.
        """
        m = self.m
        code = np.zeros(m, dtype=np.int64)
        size = 1
        for j, top in enumerate(self._top):
            col = self.values[:, j]
            if not np.can_cast(col.dtype, np.int64):  # uint64: no safe int64 add
                col = col.astype(np.int64)
            radix = top + 1
            if radix > m:
                col, radix = _densify(col)
            if size * radix > CODE_LIMIT:
                code, size = _densify(code)
            code *= radix
            code += col  # a narrow column widens inside the add, with no m-length copy
            size *= radix
        if size > max(DENSE_FACTOR * m, 1 << 16):
            code, size = _densify(code)
        return code, size

    @cached_property
    def distinct(self) -> DistinctRows:
        """Distinct rows and multiplicities from one :meth:`row_codes` pass, in
        code order. Equal codes mean equal rows, so a code keeps any row of it:
        the last one a scatter writes, in blocks so that no second m-length array forms."""
        code, size = self.row_codes()
        counts = np.bincount(code, minlength=size)
        at = np.empty(size, dtype=np.int64)
        for lo in range(0, self.m, BLOCK_ROWS):
            at[code[lo:lo + BLOCK_ROWS]] = np.arange(lo, min(lo + BLOCK_ROWS, self.m))
        present = np.flatnonzero(counts)
        rows = self.values[at[present]].astype(np.int64)
        weights = counts[present].astype(np.float64)
        rows.flags.writeable = False
        weights.flags.writeable = False
        return DistinctRows(rows, weights)

    def check_symbols(self, names: Sequence[str], cards: Sequence[int]) -> list[int]:
        """Column positions of ``names``, after checking that every symbol in
        them is an integer in ``[0, card)``; raises :class:`ScopeMismatch`."""
        cols = [self._index(n) for n in names]
        top = self._top
        for n, j, card in zip(names, cols, cards):
            if top[j] >= card:
                raise ScopeMismatch(
                    f"symbol {top[j]} in column {n!r} is out of range for cardinality {card}"
                )
        return cols

    def counts_over(self, names: Sequence[str], cards: Sequence[int]) -> np.ndarray:
        """Joint occurrence counts over a sub-scope, shaped like the sub-scope.

        Raises :class:`ScopeMismatch` for a non-integer batch, a negative
        symbol, or a symbol at or above its requested cardinality.
        """
        names = tuple(names)
        cards = tuple(cards)
        cols = self.check_symbols(names, cards)
        if not names:
            return np.array(float(self.m))
        rows, weights = self.distinct
        codes = np.zeros(len(rows), dtype=np.int64)
        for j, s in zip(cols, strides_for(cards)):
            codes += rows[:, j] * s
        size = int(np.prod(cards))
        return np.bincount(codes, weights=weights, minlength=size).reshape(cards)


def cdf_thresholds(cum: np.ndarray) -> np.ndarray:
    """The draw kernel's form of a cumulative table: row ``k`` holds every
    table row's ``k + 1``-th smallest threshold, for ``k < card - 1``.
    Formed once per table and passed to :func:`draw_inverse_cdf`."""
    return np.sort(cum, axis=1)[:, : cum.shape[1] - 1].T.copy()  # one contiguous row per rank


def draw_inverse_cdf(
    thresholds: np.ndarray, rows: np.ndarray | int, u: np.ndarray, out: np.ndarray
) -> None:
    """Invert one uniform per draw through the cumulative row it selects.

    ``thresholds`` is :func:`cdf_thresholds` of a table with one
    cumulative-probability row per conditioning configuration. ``out[i]``
    becomes the number of the ``card - 1`` smallest thresholds of row
    ``rows[i]`` that ``u[i]`` exceeds. On every row, sorted or not, that is
    the count of all ``card`` thresholds exceeded capped at ``card - 1``, so
    rounding in the last cumulative entry cannot yield an out-of-range
    symbol, and the draws for a seed are those of the compare-and-cap form.
    A binary variable costs one gather and one compare; card 1 writes zeros.
    """
    if len(thresholds) == 0:
        out.fill(0)
        return
    np.greater(u, np.take(thresholds[0], rows), out=out)
    for tau in thresholds[1:]:
        out += u > np.take(tau, rows)


def ancestral_sample(
    steps: Iterable[tuple[str, Sequence[str], Sequence[int], np.ndarray]],
    keep: Sequence[str],
    seed: int,
    m: int,
    fixed: Mapping[str, int] | None = None,
) -> Samples:
    """Draw ``m`` rows along ``steps`` with one uniform per variable and draw.

    Each step is (variable, conditioning variables, their row-major strides,
    probability rows), as :func:`row_product` takes; every conditioning
    variable is drawn by an earlier step or held at its ``fixed`` value, which
    offsets the rows whose cumulative sums give the step's thresholds.
    Variables in ``keep`` are written straight into the rows of an
    (n_keep, m) buffer whose transpose is the batch. The buffer, and the
    scratch columns of the other steps, take the smallest unsigned dtype that
    holds the largest symbol their steps can draw (``np.min_scalar_type(card
    - 1)``: ``uint8`` up to card 256, ``uint16`` above); the row index a step
    reads stays int64, and each parent is widened before it is multiplied by
    its stride.

    The stream is the ``numpy-pcg64`` contract: the uniform of step ``j`` for
    row ``r`` is draw ``j * m + r`` of ``default_rng(seed)``. Rows are drawn in
    blocks of :data:`BLOCK_ROWS`, every step in turn within a block, each
    block's uniforms reached by advancing the generator; so the working set
    is the batch plus a few block-sized arrays (uniforms, row index, gathers
    and one column per step outside ``keep``), whatever ``m`` is.
    ``m`` and ``seed`` must be non-negative integers (``bool`` is not one);
    anything else is a :class:`ValueError` naming the argument.
    """
    m = _count(m, "sample size m")
    seed = _count(seed, "seed")
    fixed = fixed or {}
    slot = {n: i for i, n in enumerate(keep)}
    plan = []  # (variable, drawn parents with strides, thresholds from the fixed offset)
    for name, cond, strides, probs in steps:
        offset = sum(fixed[c] * s for c, s in zip(cond, strides) if c in fixed)
        drawn = [(c, s) for c, s in zip(cond, strides) if c not in fixed]
        plan.append((name, drawn, cdf_thresholds(np.cumsum(probs[offset:], axis=1))))
    dropped = {n: i for i, n in enumerate(n for n, _, _ in plan if n not in slot)}
    # a step's thresholds have card - 1 rows, the largest symbol it draws
    kept_top = max((len(t) for n, _, t in plan if n in slot), default=0)
    dropped_top = max((len(t) for n, _, t in plan if n in dropped), default=0)
    buf = np.empty((len(keep), m), dtype=np.min_scalar_type(kept_top))
    width = min(m, BLOCK_ROWS)
    scratch = np.empty((len(dropped), width), dtype=np.min_scalar_type(dropped_top))
    u_buf = np.empty(width, dtype=np.float64)
    index_buf = np.empty(width, dtype=np.int64)
    rng = np.random.default_rng(seed)
    at = 0  # draws of the stream consumed so far
    for lo in range(0, m, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, m)
        u, index = u_buf[: hi - lo], index_buf[: hi - lo]
        cols = {n: buf[i, lo:hi] for n, i in slot.items()}
        cols.update({n: scratch[i, : hi - lo] for n, i in dropped.items()})
        for j, (name, drawn, thresholds) in enumerate(plan):
            rows: np.ndarray | int = 0
            for c, s in drawn:
                if rows is index:  # a later drawn parent adds into the buffer
                    index += np.multiply(cols[c], s, dtype=np.int64)
                else:
                    rows = np.multiply(cols[c], s, out=index, dtype=np.int64)
            start = j * m + lo  # the stream position of this step's first draw here
            if start != at:
                rng.bit_generator.advance(start - at)  # negative at a block start
            rng.random(out=u)
            at = start + len(u)
            draw_inverse_cdf(thresholds, rows, u, cols[name])
    return Samples(tuple(keep), buf.T, rng_algorithm=RNG_ALGORITHM)


def as_integer(value: object) -> int | None:
    """``value`` as a Python int if it is an integer (Python, numpy, or
    anything with ``__index__``) other than a ``bool``; ``None`` otherwise.
    The one rule for scalar integer inputs: intervention values, sample
    sizes, seeds, and the integers of JSON files."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _count(value: int, what: str) -> int:
    """``value`` as a non-negative Python int; a :class:`ValueError` naming
    ``what`` for a negative, non-integer or ``bool`` value."""
    count = as_integer(value)
    if count is None:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if count < 0:
        raise ValueError(f"{what} must be non-negative, got {count}")
    return count


def row_product(
    steps: Iterable[tuple[str, Sequence[str], Sequence[int], np.ndarray]],
    grid: Mapping[str, int | np.ndarray],
) -> float | np.ndarray:
    """The product of one conditional-row entry per step, in step order.

    The evaluation twin of :func:`ancestral_sample`, over the same steps: each
    contributes ``rows[sum(grid[c] * stride), grid[variable]]``. Values of
    ``grid`` may be integer arrays that broadcast together; the product is
    then formed at every broadcast position.
    """
    out: float | np.ndarray = 1.0
    for name, cond, strides, rows in steps:
        out = out * rows[row_index(cond, strides, grid), grid[name]]
    return out


def row_index(
    cond: Sequence[str], strides: Sequence[int], grid: Mapping[str, int | np.ndarray]
) -> int | np.ndarray:
    """The conditional row a step reads at ``grid``: ``sum(grid[c] * stride)``.
    A numpy value is widened to int64 before it is multiplied, so a narrow
    symbol times a stride cannot wrap."""
    row: int | np.ndarray = 0
    for c, s in zip(cond, strides):
        v = grid[c]
        row = row + (v * s if type(v) is int else np.multiply(v, s, dtype=np.int64))
    return row


def _densify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Replace each code by its rank among the distinct codes."""
    uniq, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)


@dataclass(frozen=True, eq=False)
class EmpiricalAccess:
    """Pmf access backed by a sample batch: relative frequencies."""

    samples: Samples
    cards: tuple[int, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return self.samples.names

    @cached_property
    def _joint(self) -> PmfTable:
        counts = self.samples.counts_over(self.names, self.cards)
        return PmfTable(self.names, counts / self.samples.m)

    def table(self) -> PmfTable:
        """Relative frequencies over every column, counted once per access."""
        return self._joint

    def marginal_probs(self, keep: Container[str]) -> np.ndarray:
        """Bare relative frequencies over the columns in ``keep``, axes in
        batch column order. An empty batch gives all zeros, so conditioning on
        it fails positivity instead of dividing by zero. Names in ``keep``
        that the batch lacks are not checked here; the estimand compiler
        checks them when it builds a plan."""
        names = tuple(n for n in self.names if n in keep)
        cards = tuple(c for n, c in zip(self.names, self.cards) if n in keep)
        return self.samples.counts_over(names, cards) / max(self.samples.m, 1)

    def pmf(self, assignment: Mapping[str, int]) -> float:
        return self.table().pmf(assignment)
