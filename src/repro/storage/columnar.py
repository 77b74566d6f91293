"""The columnar storage backend: typed columns + vectorized index kernels.

:class:`ColumnarTable` stores each column in a typed ``array.array``
(``q`` for INT, ``d`` for FLOAT) with a one-byte-per-row null mask, and
dictionary-encodes STRING columns (``array('i')`` codes + an
insertion-ordered decode list). Rows are **views**: the table lazily
materializes the familiar row-tuple list on first row-wise access and
shares that one list everywhere (``raw_rows``, ``fetch``, ``peek``,
``scan``), so row object *identity* is preserved exactly as in the row
backend. The fully vectorized execution paths never materialize rows at
all.

:class:`ColumnarIndex` keeps the parent's sorted ``(key, rid)`` entry list
(cursors, range scans, and positional-order semantics inherit unchanged)
and adds a flat sidecar per generation: the distinct keys, CSR segment
starts, and an ``int64`` RID array. Equality probes become O(1) dict-rank
lookups instead of ``bisect`` pairs, and the cascade's local-predicate
group kernels evaluate each leg's predicates **once per column** with
numpy masks — reproducing the scalar short-circuit eval counts exactly
via alive-mask accounting (``evals_i = rows still alive before test i``).

numpy is required (``get_backend("columnar")`` refuses to build without
it). For predicate shapes the masks do not cover and overflow-promoted
columns every entry point falls back to the inherited row-at-a-time
implementation, so results and work accounting never depend on which
path ran — only speed does.

Concurrent readers (the query server's worker threads) share one table and
one index, so every lazily built structure is built and published under a
per-object lock: the row view, the index sidecar, and the bounded kernel
memo (whose first-in-first-out eviction is a check-then-act). Whole-value
caches whose loser of a race merely rebuilt an equal value (the columns'
numpy copies) are published with a single reference store and need none.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import insort
from typing import Any, Iterator, Sequence

from repro.storage.compiled import vector_spec
from repro.storage.counters import WorkMeter
from repro.storage.index import SortedIndex
from repro.storage.schema import TableSchema
from repro.storage.table import HeapTable, Row
from repro.storage.types import ColumnType

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None  # row backend only: get_backend refuses "columnar"

HAVE_NUMPY = _np is not None


# ----------------------------------------------------------------------
# Typed column stores
# ----------------------------------------------------------------------
class _NumericColumn:
    """INT/FLOAT column: typed array + null byte-mask (+ boxed fallback).

    INT values that overflow a signed 64-bit slot promote the whole column
    to a plain Python list (``boxed``); correctness never depends on the
    typed layout, only the vectorized kernels do (they refuse boxed
    columns).
    """

    __slots__ = ("kind", "typecode", "data", "nulls", "boxed", "_np_cache")

    def __init__(self, kind: str, typecode: str) -> None:
        self.kind = kind  # "int" | "float"
        self.typecode = typecode
        self.data: array | None = array(typecode)
        self.nulls: bytearray | None = bytearray()
        self.boxed: list | None = None
        self._np_cache: tuple | None = None

    def __len__(self) -> int:
        if self.boxed is not None:
            return len(self.boxed)
        return len(self.data)

    def _promote(self) -> None:
        values = self.data.tolist()
        nulls = self.nulls
        self.boxed = [
            None if nulls[i] else values[i] for i in range(len(values))
        ]
        self.data = None
        self.nulls = None
        self._np_cache = None

    def append(self, value: Any) -> None:
        if self.boxed is not None:
            self.boxed.append(value)
            return
        if value is None:
            self.data.append(0)
            self.nulls.append(1)
            return
        try:
            self.data.append(value)
        except OverflowError:
            self._promote()
            self.boxed.append(value)
            return
        self.nulls.append(0)

    def get(self, rid: int) -> Any:
        if self.boxed is not None:
            return self.boxed[rid]
        if self.nulls[rid]:
            return None
        return self.data[rid]

    def values_list(self) -> list:
        if self.boxed is not None:
            return list(self.boxed)
        values = self.data.tolist()
        nulls = self.nulls
        if any(nulls):
            return [
                None if nulls[i] else values[i] for i in range(len(values))
            ]
        return values

    def np_values(self):
        """``(values, notnull)`` numpy copies, or None (boxed)."""
        if self.boxed is not None:
            return None
        count = len(self.data)
        cache = self._np_cache
        if cache is not None and cache[0] == count:
            return cache[1], cache[2]
        # Copies, not views: a live buffer export would make the arrays
        # refuse append() (BufferError) on later inserts.
        dtype = _np.int64 if self.typecode == "q" else _np.float64
        values = _np.frombuffer(self.data, dtype=dtype).copy()
        notnull = _np.frombuffer(self.nulls, dtype=_np.uint8) == 0
        self._np_cache = (count, values, notnull)
        return values, notnull

    def take(self, rids) -> list | None:
        """The values at *rids* (an index array) as the row view holds
        them, or None (boxed)."""
        arrays = self.np_values()
        if arrays is None:
            return None
        values, notnull = arrays
        taken = values[rids].tolist()
        present = notnull[rids]
        if not present.all():
            for position in _np.flatnonzero(~present).tolist():
                taken[position] = None
        return taken

    def nbytes(self) -> int:
        if self.boxed is not None:
            return sys.getsizeof(self.boxed) + sum(
                sys.getsizeof(v) for v in self.boxed
            )
        return self.data.itemsize * len(self.data) + len(self.nulls)


class _StringColumn:
    """Dictionary-encoded string column: int32 codes, -1 encodes NULL."""

    __slots__ = ("kind", "codes", "decode", "encode", "_np_cache")

    def __init__(self) -> None:
        self.kind = "str"
        self.codes = array("i")
        self.decode: list[str] = []
        self.encode: dict[str, int] = {}
        self._np_cache: tuple | None = None

    def __len__(self) -> int:
        return len(self.codes)

    def append(self, value: Any) -> None:
        if value is None:
            self.codes.append(-1)
            return
        code = self.encode.get(value)
        if code is None:
            code = len(self.decode)
            self.encode[value] = code
            self.decode.append(value)
        self.codes.append(code)

    def get(self, rid: int) -> Any:
        code = self.codes[rid]
        return self.decode[code] if code >= 0 else None

    def values_list(self) -> list:
        decode = self.decode
        return [decode[c] if c >= 0 else None for c in self.codes]

    def _np_arrays(self) -> tuple:
        count = len(self.codes)
        cache = self._np_cache
        if cache is None or cache[0] != count:
            codes = _np.frombuffer(self.codes, dtype=_np.int32).copy()
            # Code -1 (NULL) indexes the None appended past the last string.
            cache = self._np_cache = (count, codes, [*self.decode, None])
        return cache

    def np_codes(self):
        return self._np_arrays()[1]

    def take(self, rids) -> list:
        """The values at *rids* (an index array) as the row view holds
        them."""
        _, codes, lookup = self._np_arrays()
        return [lookup[code] for code in codes[rids].tolist()]

    def nbytes(self) -> int:
        return (
            self.codes.itemsize * len(self.codes)
            + sum(sys.getsizeof(s) for s in self.decode)
            + sys.getsizeof(self.encode)
        )


def _make_column(column_type: ColumnType):
    if column_type is ColumnType.INT:
        return _NumericColumn("int", "q")
    if column_type is ColumnType.FLOAT:
        return _NumericColumn("float", "d")
    return _StringColumn()


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------
class ColumnarTable(HeapTable):
    """Drop-in :class:`HeapTable` whose source of truth is typed columns."""

    __slots__ = ("_cols", "_nrows", "_view_lock")

    backend_name = "columnar"

    def __init__(self, schema: TableSchema, meter: WorkMeter | None = None) -> None:
        super().__init__(schema, meter)
        self._cols = [_make_column(column.type) for column in schema.columns]
        self._nrows = 0
        self._view_lock = threading.Lock()

    def __len__(self) -> int:
        return self._nrows

    @property
    def cardinality(self) -> int:
        return self._nrows

    def insert(self, values: Sequence[Any]) -> int:
        row = self.schema.validate_row(values)
        for column, cell in zip(self._cols, row):
            column.append(cell)
        self._nrows += 1
        self.version += 1
        return self._nrows - 1

    # -- row views ------------------------------------------------------
    def _materialized(self) -> list[Row]:
        """The shared row-tuple list, (re)built lazily from the columns.

        One list per table: every row-wise accessor returns objects from
        it, so identity-based assertions (the driving shadow's
        ``predicted is row``) hold exactly as in the row backend.
        """
        rows = self._rows
        if len(rows) == self._nrows:
            return rows
        with self._view_lock:  # one builder: a second would swap identities
            if not rows:
                rows[:] = zip(*(column.values_list() for column in self._cols))
            else:  # incremental append after a partial build
                cols = self._cols
                for rid in range(len(rows), self._nrows):
                    rows.append(tuple(column.get(rid) for column in cols))
        return rows

    def raw_rows(self) -> Sequence[Row]:
        return self._materialized()

    def fetch(self, rid: int) -> Row:
        if rid < 0 or rid >= self._nrows:
            from repro.errors import StorageError

            raise StorageError(
                f"table {self.name!r}: RID {rid} out of range [0, {self._nrows})"
            )
        self.meter.charge_row_fetch()
        return self._materialized()[rid]

    def peek(self, rid: int) -> Row:
        if rid < 0 or rid >= self._nrows:
            from repro.errors import StorageError

            raise StorageError(
                f"table {self.name!r}: RID {rid} out of range [0, {self._nrows})"
            )
        return self._materialized()[rid]

    def scan(self) -> Iterator[tuple[int, Row]]:
        for rid, row in enumerate(self._materialized()):
            self.meter.charge_row_fetch()
            yield rid, row

    def column_values(self, column: str) -> list[Any]:
        return self._cols[self.schema.position_of(column)].values_list()

    # -- columnar access ------------------------------------------------
    def column_store(self, slot: int):
        return self._cols[slot]

    def column_kind(self, slot: int) -> str:
        return self._cols[slot].kind

    def cells(self, slot: int, rids) -> list:
        """Column *slot* at *rids* (an index array), cell for cell what the
        row view holds — without materializing it (projection path)."""
        column = self._cols[slot]
        taken = column.take(rids)
        if taken is None:
            get = column.get
            taken = [get(rid) for rid in rids.tolist()]
        return taken

    def mask_for_spec(self, spec: tuple):
        """Whole-column boolean mask for a :func:`vector_spec` tree.

        Returns a bool ndarray of length ``len(self)`` whose slot *i* is
        exactly ``bound_test(row_i)``, or ``None`` when the spec cannot be
        evaluated vectorized (boxed column, or constant types whose
        comparison the interpreter path would resolve dynamically).
        """
        op = spec[0]
        if op == "or":
            mask = None
            for child in spec[1]:
                child_mask = self.mask_for_spec(child)
                if child_mask is None:
                    return None
                mask = child_mask if mask is None else (mask | child_mask)
            return mask
        column = self._cols[spec[1]]
        if column.kind == "str":
            return self._string_mask(column, spec)
        return self._numeric_mask(column, spec)

    @staticmethod
    def _plain_number(value: Any) -> bool:
        # bool included deliberately: numpy compares True as 1, exactly
        # like the row interpreter's ``cell == True``.
        return isinstance(value, (int, float))

    def _numeric_mask(self, column: _NumericColumn, spec: tuple):
        arrays = column.np_values()
        if arrays is None:
            return None
        values, notnull = arrays
        op = spec[0]
        if op == "isnull":
            return notnull.copy() if spec[2] else ~notnull
        if op == "cmp":
            op_name, constant = spec[2], spec[3]
            if not self._plain_number(constant):
                # Mixed-type ordering raises in the interpreter; equality
                # is always-False, inequality matches every non-NULL cell.
                if op_name == "EQ":
                    return _np.zeros(len(values), dtype=bool)
                if op_name == "NE":
                    return notnull.copy()
                return None
            if op_name == "EQ":
                return (values == constant) & notnull
            if op_name == "NE":
                return (values != constant) & notnull
            if op_name == "LT":
                return (values < constant) & notnull
            if op_name == "LE":
                return (values <= constant) & notnull
            if op_name == "GT":
                return (values > constant) & notnull
            return (values >= constant) & notnull
        if op == "between":
            low, high = spec[2], spec[3]
            if not (self._plain_number(low) and self._plain_number(high)):
                return None
            return (values >= low) & (values <= high) & notnull
        if op == "in":
            members = spec[2]
            numeric = [v for v in members if self._plain_number(v)]
            mask = (
                _np.isin(values, numeric) & notnull
                if numeric
                else _np.zeros(len(values), dtype=bool)
            )
            if any(v is None for v in members):
                mask = mask | ~notnull
            return mask
        return None

    def _string_mask(self, column: _StringColumn, spec: tuple):
        codes = column.np_codes()
        if codes is None:
            return None
        op = spec[0]
        if op == "isnull":
            return codes >= 0 if spec[2] else codes == -1
        if op == "cmp":
            op_name, constant = spec[2], spec[3]
            if not isinstance(constant, str):
                if op_name == "EQ":
                    return _np.zeros(len(codes), dtype=bool)
                if op_name == "NE":
                    return codes >= 0
                return None  # ordering vs non-str raises row-wise
            if op_name == "EQ":
                return codes == column.encode.get(constant, -2)
            if op_name == "NE":
                return (codes >= 0) & (
                    codes != column.encode.get(constant, -2)
                )
            # Ordering: evaluate once per distinct value, gather via LUT.
            # lut[-1] (the NULL code's negative-index target) stays False.
            fn = {
                "LT": str.__lt__,
                "LE": str.__le__,
                "GT": str.__gt__,
                "GE": str.__ge__,
            }[op_name]
            lut = _np.zeros(len(column.decode) + 1, dtype=bool)
            for code, text in enumerate(column.decode):
                lut[code] = fn(text, constant)
            return lut[codes]
        if op == "between":
            low, high = spec[2], spec[3]
            if not (isinstance(low, str) and isinstance(high, str)):
                return None
            lut = _np.zeros(len(column.decode) + 1, dtype=bool)
            for code, text in enumerate(column.decode):
                lut[code] = low <= text <= high
            return lut[codes]
        if op == "in":
            members = spec[2]
            wanted = [
                column.encode[v]
                for v in members
                if isinstance(v, str) and v in column.encode
            ]
            mask = (
                _np.isin(codes, wanted)
                if wanted
                else _np.zeros(len(codes), dtype=bool)
            )
            if any(v is None for v in members):
                mask = mask | (codes == -1)
            return mask
        return None

    def memory_footprint(self) -> dict[str, int]:
        columns_bytes = sum(column.nbytes() for column in self._cols)
        row_cache = self._rows
        row_cache_bytes = 0
        if row_cache:
            row_cache_bytes = sys.getsizeof(row_cache) + sum(
                sys.getsizeof(row) for row in row_cache
            )
        return {
            "rows": self._nrows,
            "bytes": columns_bytes,
            "row_cache_bytes": row_cache_bytes,
        }


def heap_memory_footprint(table: HeapTable) -> dict[str, int]:
    """Approximate resident bytes of a row-backend table.

    Counts the row list, the row tuples, and each cell object; shared
    (interned) cell objects are counted at every reference, so this is an
    upper-bound estimate — consistent across tables, which is what the
    per-backend comparison needs.
    """
    rows = table.raw_rows()
    total = sys.getsizeof(rows)
    for row in rows:
        total += sys.getsizeof(row)
        for cell in row:
            if cell is not None:
                total += sys.getsizeof(cell)
    return {"rows": len(rows), "bytes": total, "row_cache_bytes": 0}


def table_memory_footprint(table: HeapTable) -> dict[str, int]:
    if isinstance(table, ColumnarTable):
        return table.memory_footprint()
    return heap_memory_footprint(table)


# ----------------------------------------------------------------------
# Index
# ----------------------------------------------------------------------
def _true_before(flags):
    """``out[i]``: how many of ``flags[:i]`` are set (``len(flags) + 1`` long)."""
    out = _np.zeros(len(flags) + 1, dtype=_np.int64)
    _np.cumsum(flags, out=out[1:])
    return out


class _Kernel:
    """Per-(generation, local tests) vectorized group arrays of one index.

    The per-key arrays are indexed by the sidecar's distinct-key rank ``j``
    and are **distinct keys + 2** long: the two trailing slots hold 0, so
    numpy's negative indexing makes the ranks of an absent key (-1 NULL,
    -2 not in the index: :meth:`ColumnarIndex.row_ranks`) gather zeros and
    the cascade needs no mask for them.

    * ``totals[j]`` — entry count of key *j* (what a probe charges as
      INDEX_ENTRY / ROW_FETCH),
    * ``evals[j]`` — scalar-exact short-circuit local-predicate evals,
    * ``counts[j]`` — how many of key *j*'s rows pass every local test,
    * ``pass_offsets`` — ``counts``' exclusive cumsum (distinct keys + 3
      long): ``pass_offsets[j] : pass_offsets[j+1]`` is the slice of
      ``pass_rids`` holding those rows' RIDs, in entry order,
    * ``ev``/``pa`` — per-test (evaluated, passed) arrays for the
      monitored path's local-predicate counters.

    Arrays are non-writeable and shared wherever two of them are equal by
    construction: ``totals`` (and a test-free kernel's counts, offsets and
    RIDs) with the index sidecar, ``ev[0]`` with ``totals``, ``ev[i]`` with
    ``pa[i - 1]``, ``counts`` with ``pa[-1]``, a one-test kernel's
    ``evals`` with ``totals``.
    """

    __slots__ = (
        "totals",
        "evals",
        "counts",
        "pass_offsets",
        "pass_rids",
        "ev",
        "pa",
    )

    def __init__(self, totals, evals, counts, pass_offsets, pass_rids, ev, pa):
        self.totals = totals
        self.evals = evals
        self.counts = counts
        self.pass_offsets = pass_offsets
        self.pass_rids = pass_rids
        self.ev = ev
        self.pa = pa
        for array in (totals, evals, counts, pass_offsets, pass_rids, *ev, *pa):
            array.setflags(write=False)

    def restricted(self, keep) -> "_Kernel":
        """This kernel with one more test after the locals (a derived copy).

        *keep* is a boolean array over ``pass_rids``. The extra test runs
        once per locally-passing candidate, so each key's ``evals`` grow by
        its pass count; the passing slices shrink to the kept rows, in the
        same order. ``totals`` / ``ev`` / ``pa`` describe the access method
        and the locals only and are shared, not copied. The caller owns the
        result — it is never entered in ``ColumnarIndex._kernels``.
        """
        pass_offsets = _true_before(keep)[self.pass_offsets]
        return _Kernel(
            self.totals,
            self.evals + self.counts,
            _np.diff(pass_offsets),
            pass_offsets,
            self.pass_rids[keep],
            self.ev,
            self.pa,
        )


class ColumnarIndex(SortedIndex):
    """A :class:`SortedIndex` with flat-array probing and group kernels."""

    __slots__ = (
        "_gen",
        "_rank",
        "_keys",
        "_starts",
        "_ent_rids",
        "_keys_np",
        "_bounds_np",
        "_totals_np",
        "_kernels",
        "_row_ranks",
        "_lock",
    )

    def __init__(self, name: str, table: HeapTable, column: str) -> None:
        self._gen = None
        self._kernels = {}
        self._row_ranks = {}
        # Guards build-and-publish of the sidecar and the bounded memos.
        self._lock = threading.Lock()
        super().__init__(name, table, column)

    def rebuild(self) -> None:
        # Build entries straight from the column store when available —
        # the load path then never materializes the row view.
        table = self.table
        if isinstance(table, ColumnarTable):
            values = table.column_store(self._column_pos).values_list()
            entries = [
                (key, rid) for rid, key in enumerate(values) if key is not None
            ]
            entries.sort()
            self._entries = entries
            self._built_upto = len(table)
        else:
            super().rebuild()
        self._gen = None

    def refresh(self) -> None:
        # As rebuild(): read the appended keys from the column store, so
        # loading a table never materializes its row view.
        table = self.table
        if not isinstance(table, ColumnarTable):
            return super().refresh()
        if self._built_upto == 0:
            return self.rebuild()  # one sort, not an insertion per row
        get = table.column_store(self._column_pos).get
        for rid in range(self._built_upto, len(table)):
            key = get(rid)
            if key is not None:
                insort(self._entries, (key, rid))
        self._built_upto = len(table)

    def _generation(self) -> tuple:
        return (self._built_upto, self.table.version, len(self._entries))

    def _sidecar(self) -> tuple:
        """(rank, keys, starts) for the current generation (lazy)."""
        gen = self._generation()
        if self._gen != gen:
            with self._lock:
                if self._gen != gen:  # not built while this thread waited
                    self._build_sidecar()
                    self._gen = gen  # published last: readers test it first
        return self._rank, self._keys, self._starts

    def _build_sidecar(self) -> None:
        entries = self._entries
        keys: list = []
        starts: list[int] = []
        rank: dict = {}
        previous = _SENTINEL
        for position, (key, _) in enumerate(entries):
            if key != previous:
                rank[key] = len(keys)
                keys.append(key)
                starts.append(position)
                previous = key
        starts.append(len(entries))
        self._rank = rank
        self._keys = keys
        self._starts = starts
        self._ent_rids = _np.fromiter(
            (rid for _, rid in entries), dtype=_np.int64, count=len(entries)
        )
        # CSR segment bounds and sizes per distinct key: the same for
        # every kernel of this generation, which share them. The end bound
        # is there three times, so the sizes end in the two zero slots an
        # absent key's rank (-1 / -2) gathers (see _Kernel).
        self._bounds_np = _np.asarray(starts + starts[-1:] * 2, dtype=_np.int64)
        self._totals_np = _np.diff(self._bounds_np)
        for array in (self._ent_rids, self._bounds_np, self._totals_np):
            array.setflags(write=False)
        self._keys_np = None
        kind = (
            self.table.column_kind(self._column_pos)
            if isinstance(self.table, ColumnarTable)
            else None
        )
        if keys and kind in ("int", "float"):
            dtype = _np.int64 if kind == "int" else _np.float64
            try:
                self._keys_np = _np.array(keys, dtype=dtype)
                self._keys_np.setflags(write=False)
            except (OverflowError, TypeError, ValueError):
                pass
        self._kernels = {}
        self._row_ranks = {}

    # -- O(1) probing ---------------------------------------------------
    def lookup_rids(self, key: Any) -> list[int]:
        faults = self.table.faults
        if faults is not None:
            faults.fire("index-lookup")
        self._check_fresh()
        self.meter.charge_index_descend()
        if key is None:
            return []
        rank, _, starts = self._sidecar()
        j = rank.get(key)
        if j is None:
            self.meter.charge_index_entries(1)
            return []
        lo, hi = starts[j], starts[j + 1]
        self.meter.charge_index_entries(hi - lo)
        return [rid for _, rid in self._entries[lo:hi]]

    # -- vectorized group kernels ---------------------------------------
    def _specs_for(self, tests: Sequence) -> list | None:
        """Vector specs for bound test closures, or None if any is opaque.

        The executor tags every bound local test with its source predicate
        (``test.predicate``); untagged tests (or shapes ``vector_spec``
        rejects, or columns the table cannot mask) disable vectorization.
        """
        if not isinstance(self.table, ColumnarTable):
            return None
        schema = self.table.schema
        specs = []
        for test in tests:
            predicate = getattr(test, "predicate", None)
            if predicate is None:
                return None
            spec = vector_spec(predicate, schema)
            if spec is None:
                return None
            specs.append(spec)
        return specs

    def _kernel_for(self, tests: Sequence, predicates_key: tuple):
        """Build (or fetch) the group kernel for this generation + tests."""
        self._sidecar()
        with self._lock:  # one build per key; eviction is check-then-act
            kernel = self._kernels.get(predicates_key)
            if kernel is None:
                kernel = self._build_kernel(tests)
                if kernel is not None:
                    if len(self._kernels) >= 16:  # bound the per-generation memo
                        self._kernels.pop(next(iter(self._kernels)))
                    self._kernels[predicates_key] = kernel
        return kernel

    def _build_kernel(self, tests: Sequence) -> "_Kernel | None":
        specs = self._specs_for(tests)
        if specs is None:
            return None
        masks = []
        for spec in specs:
            mask = self.table.mask_for_spec(spec)
            if mask is None:
                return None
            masks.append(mask)
        ent_rids = self._ent_rids
        bounds = self._bounds_np
        totals = self._totals_np
        if not masks:
            # Every entry passes: the kernel is the sidecar itself.
            return _Kernel(
                totals, _np.zeros_like(totals), totals, bounds, ent_rids, [], []
            )
        alive = None
        pa: list = []
        for mask in masks:
            passed = mask[ent_rids]
            alive = passed if alive is None else alive & passed
            # bounds ends in three equal entries, so each pass-count array
            # ends in two zeros, like totals.
            pass_offsets = _true_before(alive)[bounds]
            pa.append(_np.diff(pass_offsets))
        # Short-circuit evaluation: test i sees the rows still alive before
        # it — every entry of the key for the first test, the previous
        # test's passers after. So ``ev`` needs no arrays of its own, and a
        # key's evals are their sum.
        ev = [totals, *pa[:-1]]
        evals = totals if len(ev) == 1 else _np.sum(ev, axis=0)
        return _Kernel(
            totals, evals, pa[-1], pass_offsets, ent_rids[alive], ev, pa
        )

    @staticmethod
    def _predicates_key(tests: Sequence) -> tuple | None:
        out = []
        for test in tests:
            predicate = getattr(test, "predicate", None)
            if predicate is None:
                return None
            out.append(predicate)
        try:
            hash(key := tuple(out))
        except TypeError:
            return None
        return key

    def cascade_groups(self, local_tests: Sequence) -> "_Kernel | None":
        """The group kernel the vectorized join cascade expands through, or
        None (tests the masks do not cover)."""
        self._check_fresh()
        tests = [test for _, test in local_tests]
        predicates_key = self._predicates_key(tests)
        if predicates_key is None:
            return None
        return self._kernel_for(tests, predicates_key)

    def row_ranks(self, source_column):
        """Every row of *source_column* as a rank of this index, or None.

        ``row_ranks[rid]`` is the distinct-key rank (the kernels' ``j``) of
        the key *source_column* holds at ``rid`` — the scalar
        ``rank.get(row[key_slot])`` for every row at once: -1 where the key
        is NULL, -2 where this index does not hold it. A join probe through
        this index is then one gather per chunk. None for the shapes no
        array comparison reproduces: a boxed (overflowed) source column, a
        numeric source against a non-numeric key domain, a string source
        against non-string keys.

        One int64 array per source column that probes this index (bounded
        by the schema's join edges), for the current sidecar generation:
        dropped with the sidecar, rebuilt when the source column grew.
        ``_row_ranks`` holds ``(rows at build, array, any -2 in it)``.
        """
        self._check_fresh()
        self._sidecar()
        rows = len(source_column)
        with self._lock:  # one build per source column
            held = self._row_ranks.get(source_column)
            if held is None or held[0] != rows:
                ranks = self._build_row_ranks(source_column)
                if ranks is not None:
                    ranks.setflags(write=False)
                held = self._row_ranks[source_column] = (
                    rows,
                    ranks,
                    ranks is not None and bool((ranks == -2).any()),
                )
        return held[1]

    def misses_keys_of(self, source_column) -> bool:
        """Whether :meth:`row_ranks` of *source_column* holds a -2 (found
        once, when the array was built): a probe through a pair that misses
        no key has no missing keys to count, chunk after chunk."""
        held = self._row_ranks.get(source_column)
        return held is None or held[2]

    def _build_row_ranks(self, source_column):
        rank = self._rank
        if isinstance(source_column, _StringColumn):
            if rank and not isinstance(next(iter(rank)), str):
                return None  # typed mismatch between key domains
            decode = source_column.decode
            lut = _np.full(len(decode) + 1, -2, dtype=_np.int64)
            for code, text in enumerate(decode):
                j = rank.get(text)
                if j is not None:
                    lut[code] = j
            lut[-1] = -1  # NULL encodes as code -1 -> last LUT slot
            return lut[source_column.np_codes()]
        arrays = source_column.np_values()
        if arrays is None:
            return None  # boxed
        values, notnull = arrays
        if not rank:
            # Empty index: every non-null key misses, nulls stay null.
            return _np.where(notnull, _np.int64(-2), _np.int64(-1))
        keys = self._keys_np
        if keys is None:
            return None  # non-numeric (or unbuildable) key domain
        clipped = _np.minimum(_np.searchsorted(keys, values), len(keys) - 1)
        ranks = _np.where(keys[clipped] == values, clipped, -2)
        ranks[~notnull] = -1
        return ranks

    def kernel_footprint(self) -> int:
        """Approximate resident bytes of the cascade sidecar + kernel plan.

        The numpy entry-RID / distinct-key sidecars, every memoized group
        kernel and every row-rank array of the current generation.
        Positional kernels derived from these for one query
        (:meth:`_Kernel.restricted`) are not counted: nothing here retains
        them. Reports 0 while the sidecar is unbuilt or stale — a stats read
        must never force a lazy build.
        """
        if self._gen is None or self._gen != self._generation():
            return 0
        with self._lock:  # a worker thread may be publishing a kernel
            kernels = list(self._kernels.values())
            row_ranks = [held[1] for held in self._row_ranks.values()]
        arrays = [
            self._ent_rids, self._keys_np, self._bounds_np, self._totals_np,
            *row_ranks,
        ]
        for kernel in kernels:
            arrays += (
                kernel.totals, kernel.evals, kernel.counts,
                kernel.pass_offsets, kernel.pass_rids, *kernel.ev, *kernel.pa,
            )
        # Kernels share arrays with the sidecar and among their own fields.
        unique = {id(array): array for array in arrays if array is not None}
        return sum(int(array.nbytes) for array in unique.values())


class _SentinelType:
    __slots__ = ()

    def __eq__(self, other):  # pragma: no cover - trivial
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):  # pragma: no cover - trivial
        return object.__hash__(self)


_SENTINEL = _SentinelType()
