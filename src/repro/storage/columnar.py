"""The columnar storage backend: typed columns + vectorized index kernels.

:class:`ColumnarTable` stores each column in a typed ``array.array``
(``q`` for INT, ``d`` for FLOAT) with a one-byte-per-row null mask, and
dictionary-encodes STRING columns (``array('i')`` codes + an
insertion-ordered decode list). Rows are **views**: the table lazily
materializes the familiar row-tuple list on first row-wise access and
shares that one list everywhere (``raw_rows``, ``fetch``, ``peek``,
``scan``), so row object *identity* is preserved exactly as in the row
backend. The engine never materializes rows: it reads the columns
(``mask_for_spec``, ``cells``) and the index sidecars.

:class:`ColumnarIndex` keeps the parent's sorted ``(key, rid)`` entry list
(cursors, range scans, and positional-order semantics inherit unchanged)
and adds a flat sidecar per generation: the distinct keys, CSR segment
starts, and an ``int64`` RID array. The cascade's local-predicate group
kernels evaluate each leg's predicates **once per column** with numpy
masks — reproducing the scalar short-circuit eval counts exactly via
alive-mask accounting (``evals_i = rows still alive before test i``) —
and a join probe is a gather from the index's row-rank arrays. A hash
probe (an unindexed join column) runs through the same structures, over an
unregistered index (:meth:`ColumnarTable.hash_build`).

numpy is required (``get_backend("columnar")`` refuses to build without
it). Every predicate planning admits has a mask and every INT fits its
typed slot, so no entry point has a row-at-a-time fallback.

Concurrent readers (an embedding caller's threads; the query server's
engines are processes, one request at a time) share one table and one
index, so every lazily built structure is built and published under a
per-object lock: the row view, the index sidecar, and the bounded kernel
memo (whose first-in-first-out eviction is a check-then-act). Whole-value
caches whose loser of a race merely rebuilt an equal value (the columns'
numpy copies) are published with a single reference store and need none.
"""

from __future__ import annotations

import operator
import sys
import threading
from array import array
from bisect import insort
from typing import Any, Iterator, NamedTuple, Sequence

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
    """INT/FLOAT column: typed array + null byte-mask.

    Every value fits its slot: an INT column holds signed 64-bit integers
    on both stores (:meth:`ColumnType.validate` refuses the rest at load).
    """

    __slots__ = ("kind", "typecode", "data", "nulls", "_np_cache")

    def __init__(self, kind: str, typecode: str) -> None:
        self.kind = kind  # "int" | "float"
        self.typecode = typecode
        self.data = array(typecode)
        self.nulls = bytearray()
        self._np_cache: tuple | None = None

    def __len__(self) -> int:
        return len(self.data)

    def append(self, value: Any) -> None:
        self.data.append(0 if value is None else value)
        self.nulls.append(value is None)

    def get(self, rid: int) -> Any:
        if self.nulls[rid]:
            return None
        return self.data[rid]

    def values_list(self) -> list:
        values = self.data.tolist()
        nulls = self.nulls
        if any(nulls):
            return [
                None if nulls[i] else values[i] for i in range(len(values))
            ]
        return values

    def np_values(self):
        """``(values, notnull)`` numpy copies."""
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

    def take(self, rids) -> list:
        """The values at *rids* (an index array) as the row view holds
        them."""
        values, notnull = self.np_values()
        taken = values[rids].tolist()
        present = notnull[rids]
        if not present.all():
            for position in (~present).nonzero()[0].tolist():
                taken[position] = None
        return taken

    def nbytes(self) -> int:
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

    __slots__ = ("_cols", "_nrows", "_view_lock", "_hash_memo")

    backend_name = "columnar"

    def __init__(self, schema: TableSchema, meter: WorkMeter | None = None) -> None:
        super().__init__(schema, meter)
        self._cols = [_make_column(column.type) for column in schema.columns]
        self._nrows = 0
        self._view_lock = threading.Lock()
        # (version, {(column, predicates): HashBuild}): hash_build's memo.
        self._hash_memo: tuple = (None, {})

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

    def cells(self, slot: int, rids) -> list:
        """Column *slot* at *rids* (an index array), cell for cell what the
        row view holds — without materializing it (projection path)."""
        return self._cols[slot].take(rids)

    def hash_build(self, column: str, local_tests: Sequence) -> "HashBuild":
        """The hash table over *column* behind a leg's *local_tests*
        (``(predicate, test)`` pairs), built once per table version."""
        key = (column, tuple(predicate for predicate, _ in local_tests))
        with self._view_lock:  # one build at a time per table
            version, builds = self._hash_memo
            if version != self.version:
                builds = {}
                self._hash_memo = (self.version, builds)
            build = builds.get(key)
            if build is None:
                if len(builds) >= 16:  # bound the per-version memo
                    builds.pop(next(iter(builds)))
                build = builds[key] = self._build_hash(column, local_tests)
        return build

    def _build_hash(self, column: str, local_tests) -> "HashBuild":
        index = ColumnarIndex(f"{self.name}.{column} (hash)", self, column)
        base = index.cascade_groups(local_tests)
        alive = None
        local_counts = []
        for predicate, _ in local_tests:
            mask = self.mask_for_spec(vector_spec(predicate, self.schema))
            evaluated = self._nrows if alive is None else int(alive.sum())
            alive = mask if alive is None else alive & mask
            local_counts.append((evaluated, int(alive.sum())))
        counts = base.counts
        kernel = _Kernel(
            counts, _np.zeros_like(counts), counts, base.pass_offsets,
            base.pass_rids, [], [], base.first_rids,
        )
        return HashBuild(
            index, kernel, self._nrows, sum(e for e, _ in local_counts),
            len(base.pass_rids), tuple(local_counts),
        )

    def mask_for_spec(self, spec: tuple):
        """Whole-column boolean mask for a :func:`vector_spec` tree.

        Returns a bool ndarray of length ``len(self)`` whose slot *i* is
        exactly ``bound_test(row_i)``; an ordering against a constant of
        another type raises ``TypeError``, as the interpreter does (planning
        refuses it first: :func:`~repro.storage.compiled.check_predicate`).
        """
        op = spec[0]
        if op == "or":
            mask = None
            for child in spec[1]:
                child_mask = self.mask_for_spec(child)
                mask = child_mask if mask is None else (mask | child_mask)
            return mask
        column = self._cols[spec[1]]
        if column.kind == "str":
            return self._string_mask(column, spec)
        return self._numeric_mask(column, spec)

    def _numeric_mask(self, column: _NumericColumn, spec: tuple):
        values, notnull = column.np_values()
        op = spec[0]
        if op == "isnull":
            return notnull.copy() if spec[2] else ~notnull
        if op == "cmp":
            op_name, constant = spec[2], spec[3]
            # bool is a number here: numpy compares True as 1, exactly like
            # the row interpreter's ``cell == True``.
            if not isinstance(constant, (int, float)):
                # Across types equality is always False and inequality
                # matches every non-NULL cell; an ordering raises TypeError
                # in numpy as in the interpreter (planning refuses it).
                if op_name == "EQ":
                    return _np.zeros(len(values), dtype=bool)
                if op_name == "NE":
                    return notnull.copy()
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
            return (values >= low) & (values <= high) & notnull
        if op == "in":
            members = spec[2]
            numeric = [v for v in members if isinstance(v, (int, float))]
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
            if op_name == "EQ":
                return codes == column.encode.get(constant, -2)
            if op_name == "NE":
                return (codes >= 0) & (
                    codes != column.encode.get(constant, -2)
                )
            # Ordering: evaluate once per distinct value, gather via LUT.
            # lut[-1] (the NULL code's negative-index target) stays False.
            fn = _ORDERINGS[op_name]  # TypeError against a non-str
            lut = _np.zeros(len(column.decode) + 1, dtype=bool)
            for code, text in enumerate(column.decode):
                lut[code] = fn(text, constant)
            return lut[codes]
        if op == "between":
            low, high = spec[2], spec[3]
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


_ORDERINGS = {"LT": operator.lt, "LE": operator.le, "GT": operator.gt, "GE": operator.ge}


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
      monitored path's local-predicate counters,
    * ``unique`` — no key has more than one passing row, so a probe is a
      gather, not an expansion (derived here, for restricted kernels too),
    * ``first_rids[j]`` — a unique kernel's one passing RID of key *j*,
      -1 where no row passes (the two trailing slots too, so an absent
      key's rank gathers "no match" with no mask); None for any other
      kernel. A unique step is this one gather and a compare,
    * ``untested`` — no candidate is tested (no local and no positional
      test: a test-free kernel, a hash build's): ``evals`` is all zeros
      and the step gathers none of it,
    * ``one_entry`` — every key has exactly one entry (a key index: the
      FK -> PK lookup), so a probe whose key is present reads one entry
      and the step gathers no ``totals``.

    Arrays are non-writeable and shared wherever two of them are equal by
    construction: ``totals`` (and a test-free kernel's counts, offsets and
    RIDs) with the index sidecar, ``ev[0]`` with ``totals``, ``ev[i]`` with
    ``pa[i - 1]``, ``counts`` with ``pa[-1]``, a one-test kernel's
    ``evals`` with ``totals``, a hash build's ``first_rids`` with its base
    kernel's.
    """

    __slots__ = (
        "totals",
        "evals",
        "counts",
        "pass_offsets",
        "pass_rids",
        "ev",
        "pa",
        "unique",
        "first_rids",
        "untested",
        "one_entry",
    )

    def __init__(
        self, totals, evals, counts, pass_offsets, pass_rids, ev, pa,
        first_rids=None,
    ):
        """*first_rids* is passed by a caller that already holds this
        kernel's (a hash build, its base kernel's); a unique kernel derives
        its own otherwise."""
        self.totals = totals
        self.evals = evals
        self.counts = counts
        self.pass_offsets = pass_offsets
        self.pass_rids = pass_rids
        self.ev = ev
        self.pa = pa
        self.unique = bool(counts.max() <= 1)
        if self.unique and first_rids is None:
            first_rids = _np.full(len(counts), -1, dtype=pass_rids.dtype)
            passing = counts > 0
            first_rids[passing] = pass_rids[pass_offsets[:-1][passing]]
        self.first_rids = first_rids
        self.untested = not evals.any()
        self.one_entry = bool((totals[:-2] == 1).all())
        for array in self.arrays():
            array.setflags(write=False)

    def arrays(self) -> list:
        """Every array of this kernel (shared ones more than once)."""
        arrays = [
            self.totals, self.evals, self.counts, self.pass_offsets,
            self.pass_rids, *self.ev, *self.pa,
        ]
        if self.first_rids is not None:
            arrays.append(self.first_rids)
        return arrays

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


class HashBuild(NamedTuple):
    """The Sec 6 hash table over one column
    (:class:`~repro.executor.hashprobe.HashProbeTable`), as the cascade
    probes it. ``index`` is an unregistered :class:`ColumnarIndex` over the
    column (distinct keys = buckets, row-rank arrays = probe keys' ranks);
    ``kernel``'s buckets hold each key's rows passing every local test in
    RID order, its ``totals`` the bucket sizes and its ``evals`` zero (a
    probe tests no local). The rest is the build's charge, the scalar
    build's: a fetch per table row, the locals' short-circuit evals over
    every row (NULL keys too), an entry per passing row with a key, and
    each local test's table-wide ``(evaluated, passed)``.
    """

    index: "ColumnarIndex"
    kernel: _Kernel
    rows: int
    evals: int
    entries: int
    local_counts: tuple


class ColumnarIndex(SortedIndex):
    """A :class:`SortedIndex` with flat-array probing and group kernels."""

    #: Changes to the memos of every columnar index in this process: a
    #: sidecar (re)built, which empties them, a group kernel or a row-rank
    #: array built. Who reports :meth:`kernel_footprint` re-measures when
    #: it moved, instead of re-counting the memos on every read.
    memo_changes = 0
    _memo_changes_lock = threading.Lock()

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
        # Build entries straight from the column store: the load path then
        # never materializes the row view.
        table = self.table
        values = table.column_store(self._column_pos).values_list()
        entries = [
            (key, rid) for rid, key in enumerate(values) if key is not None
        ]
        entries.sort()
        self._entries = entries
        self._built_upto = len(table)
        self._gen = None

    def refresh(self) -> None:
        # As rebuild(): read the appended keys from the column store, so
        # loading a table never materializes its row view.
        table = self.table
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
        kind = self.table.column_store(self._column_pos).kind
        if keys and kind != "str":
            dtype = _np.int64 if kind == "int" else _np.float64
            self._keys_np = _np.array(keys, dtype=dtype)
            self._keys_np.setflags(write=False)
        self._kernels = {}
        self._row_ranks = {}
        self._memo_changed()

    @staticmethod
    def _memo_changed() -> None:
        with ColumnarIndex._memo_changes_lock:
            ColumnarIndex.memo_changes += 1

    # -- vectorized group kernels ---------------------------------------
    def _kernel_for(self, local_tests: Sequence, predicates_key: tuple):
        """Build (or fetch) the group kernel for this generation + tests."""
        self._sidecar()
        with self._lock:  # one build per key; eviction is check-then-act
            kernel = self._kernels.get(predicates_key)
            if kernel is None:
                kernel = self._build_kernel(local_tests)
                if len(self._kernels) >= 16:  # bound the per-generation memo
                    self._kernels.pop(next(iter(self._kernels)))
                self._kernels[predicates_key] = kernel
                self._memo_changed()
        return kernel

    def _build_kernel(self, local_tests: Sequence) -> "_Kernel":
        table = self.table
        masks = [
            table.mask_for_spec(vector_spec(predicate, table.schema))
            for predicate, _ in local_tests
        ]
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

    def cascade_groups(self, local_tests: Sequence) -> "_Kernel":
        """The group kernel the vectorized join cascade expands through,
        for the ``(predicate, test)`` pairs *local_tests* (every predicate
        planning admits has a mask: ``check_predicate``)."""
        self._check_fresh()
        return self._kernel_for(
            local_tests, tuple(predicate for predicate, _ in local_tests)
        )

    def row_ranks(self, source_column):
        """Every row of *source_column* as a rank of this index.

        ``row_ranks[rid]`` is the distinct-key rank (the kernels' ``j``) of
        the key *source_column* holds at ``rid`` — the scalar
        ``rank.get(row[key_slot])`` for every row at once: -1 where the key
        is NULL, -2 where this index does not hold it. A join probe through
        this index is then one gather per chunk. Planning admits joins
        between comparable key domains only (numbers with numbers, strings
        with strings), so every source column has one.

        One int64 array per source column that probes this index (bounded
        by the schema's join edges), for the current sidecar generation:
        dropped with the sidecar, rebuilt when the source column grew.
        ``_row_ranks`` holds ``(rows at build, array, its lowest rank)``.
        """
        self._check_fresh()
        self._sidecar()
        rows = len(source_column)
        with self._lock:  # one build per source column
            held = self._row_ranks.get(source_column)
            if held is None or held[0] != rows:
                ranks = self._build_row_ranks(source_column)
                ranks.setflags(write=False)
                held = self._row_ranks[source_column] = (
                    rows, ranks, int(ranks.min()) if rows else 0
                )
                self._memo_changed()
        return held[1]

    def lowest_rank_of(self, source_column) -> int:
        """The lowest rank :meth:`row_ranks` of *source_column* holds, found
        once, when the array was built (0 for an empty column): -2 when a
        probe through the pair can miss a key, -1 when only NULL keys are
        absent, 0 or more when every row holds a key this index holds. A
        pair above -2 has no missing keys to count, chunk after chunk; a
        pair at 0 or more through a kernel whose every key has one entry
        (``_Kernel.one_entry``) reads exactly one entry a probe."""
        held = self._row_ranks.get(source_column)
        return -2 if held is None else held[2]

    def _build_row_ranks(self, source_column):
        rank = self._rank
        if isinstance(source_column, _StringColumn):
            decode = source_column.decode
            lut = _np.full(len(decode) + 1, -2, dtype=_np.int64)
            for code, text in enumerate(decode):
                j = rank.get(text)
                if j is not None:
                    lut[code] = j
            lut[-1] = -1  # NULL encodes as code -1 -> last LUT slot
            return lut[source_column.np_codes()]
        values, notnull = source_column.np_values()
        if not rank:
            # Empty index: every non-null key misses, nulls stay null.
            return _np.where(notnull, _np.int64(-2), _np.int64(-1))
        keys = self._keys_np
        clipped = _np.minimum(_np.searchsorted(keys, values), len(keys) - 1)
        ranks = _np.where(keys[clipped] == values, clipped, -2)
        ranks[~notnull] = -1
        return ranks

    def kernel_arrays(self) -> list:
        """The cascade sidecar + kernel plan arrays resident on this index.

        The numpy entry-RID / distinct-key sidecars, every memoized group
        kernel and every row-rank array of the current generation, shared
        arrays more than once. Positional kernels derived from these for
        one query (:meth:`_Kernel.restricted`) are not among them: nothing
        here retains them. Empty while the sidecar is unbuilt or stale — a
        stats read must never force a lazy build.
        """
        if self._gen is None or self._gen != self._generation():
            return []
        with self._lock:  # another thread may be publishing a kernel
            kernels = list(self._kernels.values())
            row_ranks = [held[1] for held in self._row_ranks.values()]
        arrays = [
            self._ent_rids, self._keys_np, self._bounds_np, self._totals_np,
            *row_ranks,
        ]
        for kernel in kernels:
            arrays += kernel.arrays()
        return [array for array in arrays if array is not None]

    def kernel_footprint(self) -> int:
        """Approximate resident bytes of :meth:`kernel_arrays`."""
        return unique_nbytes(self.kernel_arrays())


def unique_nbytes(arrays) -> int:
    """Bytes of *arrays*, each array counted once however often it is in
    there (kernels share arrays with their sidecar and among their own
    fields)."""
    unique = {id(array): array for array in arrays}
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
