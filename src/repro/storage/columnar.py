"""The columnar storage backend: typed columns + vectorized index kernels.

:class:`ColumnarTable` stores each column in a typed ``array.array``
(``q`` for INT, ``d`` for FLOAT) with a one-byte-per-row null mask, and
dictionary-encodes STRING columns (``array('i')`` codes + an
insertion-ordered decode list). It keeps no row tuples: a row-wise read
(``raw_rows``, ``fetch``, ``peek``, ``scan``, all the scalar machine's)
raises :class:`~repro.errors.StorageError`, and everything reads the
columns (``column_values``, ``cells``, ``mask_for_spec``) and the index
arrays. Only the engine runs on this store.

:class:`ColumnarIndex` is its arrays: the (key, rid) order the row store
keeps as a sorted list of tuples is an ``int64`` RID array, the distinct
keys and their CSR segment bounds, built by one stable sort of the column.
Cursors, range scans and positional predicates read it through the
entry accessors :class:`~repro.storage.index.SortedIndex` declares. The
cascade's local-predicate group kernels evaluate each leg's predicates
**once per column** with numpy masks — reproducing the scalar
short-circuit eval counts exactly via alive-mask accounting
(``evals_i = rows still alive before test i``) — and a join probe is a
gather from the index's row-rank arrays. A hash probe (an unindexed join
column) runs through the same structures, over an unregistered index
(:meth:`ColumnarTable.hash_build`).

numpy is required (``get_backend("columnar")`` refuses to build without
it). Every predicate planning admits has a mask and every INT fits its
typed slot, so no entry point has a row-at-a-time fallback.

Concurrent readers (an embedding caller's threads; the query server's
engines are processes, one request at a time) share one table and one
index, so every lazily built structure is built and published under a
per-object lock: a hash build, an index build, and the bounded kernel
memo (whose first-in-first-out eviction is a check-then-act). Whole-value
caches whose loser of a race merely rebuilt an equal value (the columns'
numpy copies) are published with a single reference store and need none.
"""

from __future__ import annotations

import operator
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from itertools import filterfalse, repeat
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

from repro.errors import StorageError
from repro.storage.compiled import vector_spec
from repro.storage.counters import WorkMeter
from repro.storage.index import SortedIndex
from repro.storage.schema import TableSchema
from repro.storage.table import HeapTable
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

    def extend(self, values: list) -> None:
        """Append a validated batch's column and its null mask. The values
        go through a typed array built from the list, which fills faster
        than ``array.extend`` iterates a list."""
        if None in values:
            self.nulls.extend([value is None for value in values])
            values = [0 if value is None else value for value in values]
        else:
            self.nulls.extend(bytes(len(values)))
        self.data.extend(array(self.typecode, values))

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

    def _np_arrays(self) -> tuple:
        """``(rows, values, notnull, holds a NULL)``, built once per
        length."""
        count = len(self.data)
        cache = self._np_cache
        if cache is None or cache[0] != count:
            # Copies, not views: a live buffer export would make the arrays
            # refuse append() (BufferError) on later inserts.
            dtype = _np.int64 if self.typecode == "q" else _np.float64
            values = _np.frombuffer(self.data, dtype=dtype).copy()
            notnull = _np.frombuffer(self.nulls, dtype=_np.uint8) == 0
            cache = self._np_cache = (count, values, notnull, 1 in self.nulls)
        return cache

    def np_values(self):
        """``(values, notnull)`` numpy copies."""
        return self._np_arrays()[1:3]

    def take(self, rids) -> list:
        """The values at *rids* (an index array) as the row view holds
        them."""
        _, values, notnull, nullable = self._np_arrays()
        taken = values.take(rids).tolist()
        if nullable:
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

    def extend(self, values: list) -> None:
        """Append a validated batch's column. A string new to the
        dictionary takes the next code in order of first appearance; the
        codes are one lookup per value at C speed, NULL's -1 included."""
        encode, decode = self.encode, self.decode
        fresh = dict.fromkeys(values)
        fresh.pop(None, None)
        new = list(filterfalse(encode.__contains__, fresh))
        encode.update(zip(new, range(len(decode), len(decode) + len(new))))
        decode.extend(new)
        self.codes.extend(map(encode.get, values, repeat(-1)))

    def get(self, rid: int) -> Any:
        code = self.codes[rid]
        return self.decode[code] if code >= 0 else None

    def values_list(self) -> list:
        # Code -1 (NULL) reads the None past the last string.
        return list(map((self.decode + [None]).__getitem__, self.codes))

    def _np_arrays(self) -> tuple:
        count = len(self.codes)
        cache = self._np_cache
        if cache is None or cache[0] != count:
            codes = _np.frombuffer(self.codes, dtype=_np.int32).copy()
            # Code -1 (NULL) indexes the None appended past the last string;
            # an object array, so a projection decodes in two gathers.
            lookup = _np.empty(len(self.decode) + 1, dtype=object)
            lookup[:-1] = self.decode
            cache = self._np_cache = (count, codes, lookup)
        return cache

    def np_codes(self):
        return self._np_arrays()[1]

    def take(self, rids) -> list:
        """The values at *rids* (an index array) as the row view holds
        them."""
        _, codes, lookup = self._np_arrays()
        return lookup.take(codes.take(rids)).tolist()

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
class _NoRows:
    """A columnar table's row list: there is none, so every read of it —
    whatever row-wise accessor of :class:`HeapTable` makes it — raises."""

    __slots__ = ()

    def _refuse(self, *args) -> Any:
        raise StorageError(
            "a columnar table keeps no row tuples; read its columns "
            "(column_values, cells)"
        )

    __len__ = __iter__ = __getitem__ = _refuse


class ColumnarTable(HeapTable):
    """Drop-in :class:`HeapTable` whose source of truth is typed columns."""

    __slots__ = ("_cols", "_nrows", "_build_lock", "_hash_memo")

    backend_name = "columnar"

    def __init__(self, schema: TableSchema, meter: WorkMeter | None = None) -> None:
        super().__init__(schema, meter)
        self._rows = _NoRows()
        self._cols = [_make_column(column.type) for column in schema.columns]
        self._nrows = 0
        self._build_lock = threading.Lock()
        # (version, {(column, predicates): HashBuild}): hash_build's memo.
        self._hash_memo: tuple = (None, {})

    def __len__(self) -> int:
        return self._nrows

    @property
    def cardinality(self) -> int:
        return self._nrows

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append a batch a whole column at a time, once every column of it
        validated (see :meth:`HeapTable.insert_many`); one column's cells
        are alive at a time."""
        batch = self.schema.validate_batch(rows)
        for slot, column in enumerate(self._cols):
            column.extend(list(map(itemgetter(slot), batch)))
        self._nrows += len(batch)
        self.version += len(batch)
        return len(batch)

    def column_values(self, column: str) -> list[Any]:
        return self._cols[self.schema.position_of(column)].values_list()

    # -- columnar access ------------------------------------------------
    def column_store(self, slot: int):
        return self._cols[slot]

    def cells(self, slot: int, rids) -> list:
        """Column *slot* at *rids* (an index array), cell for cell what the
        row store's rows hold there (projection path)."""
        return self._cols[slot].take(rids)

    def hash_build(self, column: str, local_tests: Sequence) -> "HashBuild":
        """The hash table over *column* behind a leg's *local_tests*
        (``(predicate, test)`` pairs), built once per table version."""
        key = (column, tuple(predicate for predicate, _ in local_tests))
        with self._build_lock:  # one build at a time per table
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
        return {
            "rows": self._nrows,
            "bytes": sum(column.nbytes() for column in self._cols),
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
    return {"rows": len(rows), "bytes": total}


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
    """Per-(build, local tests) vectorized group arrays of one index.

    The per-key arrays are indexed by the index's distinct-key rank ``j``
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
    RIDs) with the index, ``ev[0]`` with ``totals``, ``ev[i]`` with
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
    """A :class:`SortedIndex` held as numpy arrays, with group kernels.

    The (key, RID) order is held with no Python object per entry:

    * ``_ent_rids`` — every non-NULL row's RID in (key, RID) order;
    * ``_keys_np`` — the distinct keys, ascending, of a numeric column
      (``None`` for a string column); ``_str_keys`` — a string column's
      distinct keys as a sorted list of its own ``str`` objects (``None``
      for a numeric one): a string column has few distinct values;
    * ``_bounds_np`` — the CSR segment starts of the distinct keys (key
      ``j``'s entries are ``_ent_rids[_bounds_np[j] : _bounds_np[j + 1]]``),
      distinct keys + 3 long, the end bound three times, and ``_totals_np``
      its sizes, distinct keys + 2 long, ending in the two zero slots an
      absent key's rank (-1 / -2) gathers (see :class:`_Kernel`).

    A build or a refresh sorts the column once (a stable argsort, so equal
    keys stay in RID order, as the row store's tuple sort leaves them) and
    empties the memos of group kernels and row-rank arrays. Entries are
    read through :meth:`_entry` / :meth:`_bisect_after` / :meth:`_rids`, and
    a key comes back as the row view holds it (Python ``int``, ``float`` or
    ``str``), so positions compare exactly as the row store's.
    """

    #: Changes to the memos of every columnar index in this process: an
    #: index (re)built, which empties them, a group kernel or a row-rank
    #: array built. Who reports :meth:`kernel_footprint` re-measures when
    #: it moved, instead of re-counting the memos on every read.
    memo_changes = 0
    _memo_changes_lock = threading.Lock()

    __slots__ = (
        "_ent_rids",
        "_keys_np",
        "_str_keys",
        "_bounds_np",
        "_totals_np",
        "_kernels",
        "_row_ranks",
        "_lock",
    )

    def __init__(self, name: str, table: HeapTable, column: str) -> None:
        # Guards the publication of a build and the bounded memos.
        self._lock = threading.Lock()
        super().__init__(name, table, column)

    def rebuild(self) -> None:
        # Straight from the column store: loading a table never
        # materializes its row view.
        table = self.table
        rows = len(table)
        column = table.column_store(self._column_pos)
        str_keys = keys_np = None
        if column.kind == "str":
            # Rank the column's distinct strings (every decoded one is in
            # some row) and sort the entries by rank.
            decode = column.decode
            by_text = sorted(range(len(decode)), key=decode.__getitem__)
            str_keys = [decode[code] for code in by_text]
            code_rank = _np.empty(len(decode), dtype=_np.int64)
            code_rank[by_text] = _np.arange(len(decode))
            codes = column.np_codes()[:rows]
            rids = (codes >= 0).nonzero()[0]
            entry_keys = code_rank[codes[rids]]
        else:
            values, notnull = column.np_values()
            rids = notnull[:rows].nonzero()[0]
            entry_keys = values[rids]
        order = entry_keys.argsort(kind="stable")
        ent_rids = rids[order]
        entry_keys = entry_keys[order]
        count = len(entry_keys)
        first = _np.ones(count, dtype=bool)
        # -0.0 == 0.0: one key, as in the row store's tuple order.
        _np.not_equal(entry_keys[1:], entry_keys[:-1], out=first[1:])
        starts = first.nonzero()[0]
        if str_keys is None:
            keys_np = entry_keys[starts]
            keys_np.setflags(write=False)
        bounds = _np.concatenate((starts, _np.full(3, count, dtype=_np.int64)))
        totals = _np.diff(bounds)
        for array in (ent_rids, bounds, totals):
            array.setflags(write=False)
        with self._lock:  # readers see one build's arrays and memos
            self._ent_rids = ent_rids
            self._keys_np = keys_np
            self._str_keys = str_keys
            self._bounds_np = bounds
            self._totals_np = totals
            self._kernels = {}
            self._row_ranks = {}
            self._built_upto = rows
        self._memo_changed()

    def refresh(self) -> None:
        # One sort of the whole column, not an insertion per appended row.
        if self._built_upto != len(self.table):
            self.rebuild()

    @staticmethod
    def _memo_changed() -> None:
        with ColumnarIndex._memo_changes_lock:
            ColumnarIndex.memo_changes += 1

    # -- the (key, rid) order, read off the arrays ------------------------
    def __len__(self) -> int:
        return len(self._ent_rids)

    def distinct_key_count(self) -> int:
        return len(self._totals_np) - 2

    def _entry(self, position: int) -> tuple:
        rid = self._ent_rids.item(position)
        return self.table.column_store(self._column_pos).get(rid), rid

    def _rids(self, lo: int, hi: int) -> list[int]:
        return self._ent_rids[lo:hi].tolist()

    def _key_rank(self, key, right: bool) -> int:
        """How many distinct keys sort before *key* (``right``: at or
        before it) — the ``bisect`` of the row store's tuple list, by the
        same comparisons."""
        search = bisect_right if right else bisect_left
        if self._str_keys is not None:
            return search(self._str_keys, key)
        keys = self._keys_np
        exact = int if keys.dtype.kind == "i" else float
        if type(key) is exact and (exact is float or -(2**63) <= key < 2**63):
            return int(keys.searchsorted(key, "right" if right else "left"))
        # Another type (an int bound on a float column, a float one on an
        # int column, an int past int64): Python's exact mixed-type
        # comparison, key by key, as the tuples compare.
        return search(keys, key, key=exact)

    def _range_bounds(self, low, high, low_inclusive, high_inclusive):
        bounds = self._bounds_np
        lo = 0 if low is None else bounds.item(self._key_rank(low, not low_inclusive))
        hi = (
            len(self._ent_rids)
            if high is None
            else bounds.item(self._key_rank(high, high_inclusive))
        )
        return lo, hi

    def _bisect_after(self, entry: tuple) -> int:
        key, rid = entry
        rank = self._key_rank(key, False)
        lo = self._bounds_np.item(rank)
        if rank == self.distinct_key_count() or self._key_at(rank) != key:
            return lo  # no entry has the key: every one before it counts
        hi = self._bounds_np.item(rank + 1)
        # A key's entries are in RID order.
        return lo + int(self._ent_rids[lo:hi].searchsorted(rid, "right"))

    def _key_at(self, rank: int):
        """Distinct key *rank* as a Python value."""
        if self._str_keys is not None:
            return self._str_keys[rank]
        return self._keys_np.item(rank)

    # -- vectorized group kernels ---------------------------------------
    def _kernel_for(self, local_tests: Sequence, predicates_key: tuple):
        """Build (or fetch) the group kernel for this build + tests."""
        with self._lock:  # one build per key; eviction is check-then-act
            kernel = self._kernels.get(predicates_key)
            if kernel is None:
                kernel = self._build_kernel(local_tests)
                if len(self._kernels) >= 16:  # bound the per-build memo
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
            # Every entry passes: the kernel is the index itself.
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
        the key *source_column* holds at ``rid`` — what the scalar probe
        resolves for every row at once: -1 where the key is NULL, -2 where
        this index does not hold it. A join probe through this index is
        then one gather per chunk. Planning admits joins between comparable
        key domains only (numbers with numbers, strings with strings), so
        every source column has one.

        One int64 array per source column that probes this index (bounded
        by the schema's join edges), for the current build: dropped with
        it, rebuilt when the source column grew. ``_row_ranks`` holds
        ``(rows at build, array, its lowest rank)``.
        """
        self._check_fresh()
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
        if isinstance(source_column, _StringColumn):
            # A lookup table over the source's codes, from the sorted keys;
            # NULL encodes as code -1, the last slot.
            rank = {key: j for j, key in enumerate(self._str_keys)}
            lut = [rank.get(text, -2) for text in source_column.decode] + [-1]
            return _np.array(lut, dtype=_np.int64)[source_column.np_codes()]
        values, notnull = source_column.np_values()
        keys = self._keys_np
        if not len(keys):
            # Empty index: every non-null key misses, nulls stay null.
            return _np.where(notnull, _np.int64(-2), _np.int64(-1))
        clipped = _np.minimum(_np.searchsorted(keys, values), len(keys) - 1)
        ranks = _np.where(keys[clipped] == values, clipped, -2)
        ranks[~notnull] = -1
        return ranks

    def index_arrays(self) -> list:
        """The arrays this index is: entry RIDs, distinct numeric keys, CSR
        bounds and sizes."""
        arrays = [self._ent_rids, self._bounds_np, self._totals_np]
        if self._keys_np is not None:
            arrays.append(self._keys_np)
        return arrays

    def nbytes(self) -> int:
        """Resident bytes of the index: its arrays, and a string column's
        sorted key list (the strings are the column's own objects)."""
        total = unique_nbytes(self.index_arrays())
        if self._str_keys is not None:
            total += sys.getsizeof(self._str_keys)
        return total

    def kernel_arrays(self) -> list:
        """The cascade's index + kernel plan arrays resident on this index.

        The index's own arrays (:meth:`index_arrays`), every memoized group
        kernel and every row-rank array of the current build, shared arrays
        more than once. Positional kernels derived from these for one query
        (:meth:`_Kernel.restricted`) are not among them: nothing here
        retains them.
        """
        with self._lock:  # another thread may be publishing a kernel
            arrays = self.index_arrays()
            kernels = list(self._kernels.values())
            arrays += [held[1] for held in self._row_ranks.values()]
        for kernel in kernels:
            arrays += kernel.arrays()
        return arrays

    def kernel_footprint(self) -> int:
        """Approximate resident bytes of :meth:`kernel_arrays`."""
        return unique_nbytes(self.kernel_arrays())


def unique_nbytes(arrays) -> int:
    """Bytes of *arrays*, each array counted once however often it is in
    there (kernels share arrays with their index and among their own
    fields)."""
    unique = {id(array): array for array in arrays}
    return sum(int(array.nbytes) for array in unique.values())
