"""Vectorized columnar execution kernel with shared base-frame reuse.

The row engines (:mod:`repro.sql.executor`, :mod:`repro.sql.plan_executor`)
evaluate one tuple at a time and rebuild every scan, hash table, and join
pipeline per query — even though each personalized candidate
``Qx = Q AND Px`` shares the base query ``Q``, and the final Formula (6)
answer is a UNION ALL of progressively personalized variants of the
*same* query. This module exploits that structure, and runs the bulk
operators on numpy:

* :class:`~repro.storage.columns.Column` — typed column encodings:
  ``int64``/``float64``/``bool`` value arrays with null masks,
  dictionary-encoded strings compared on sorted-dictionary codes, and
  an exact Python-list fallback. Tables encode once
  (:meth:`~repro.storage.table.Table.encoded_columns`) and every frame
  built on them shares the arrays.
* :class:`ColumnFrame` — parallel columns plus an optional ``int64``
  *selection vector* (ordered row indices). Filters never copy data;
  they narrow the selection with boolean masks. Frames are immutable
  once built, so they can be shared freely across query branches and
  across requests.
* :class:`ColumnarExecutor` — vectorized scan / filter / hash-join /
  project / distinct / sort / limit / group-having operators driven by
  the existing :class:`~repro.sql.plan.PlanNode` tree, so planning is
  unchanged and the block-I/O cost receipts stay identical to the row
  engine: the same ``blocks_read`` / ``io_ms`` / ``cpu_ms`` /
  ``rows_processed``, with ``cpu_ms_per_row`` charged per selected row
  exactly as today. Filter predicates compile once per plan node into
  mask programs (resolved column positions + comparison kernels); hash
  joins factorize both key columns to a shared code domain and expand
  matches with ``bincount``/``repeat`` (order-identical to the row
  engine's bucket join); sort, distinct, and group-having run on
  ``lexsort``/``unique`` over per-column codes. Any operand the typed
  kernels cannot reproduce exactly falls back to the original Python
  loop for that operator — bit-identical semantics always win.
* :class:`FrameCache` — the shared base-frame cache. Within one UNION
  ALL statement (and, when a cache is passed in, across the statements
  of one ``request_many`` batch) the frame produced by a common plan
  prefix — the base query's scans, pushed-down filters, and joins — is
  computed once; each personalized branch applies only its extra
  preference predicates as incremental selection-vector filters.
  Admission is byte-budgeted and eviction is cost-aware: every entry
  carries its private resident bytes (base-table columns count 0 — they
  are resident regardless) and its recompute cost replayed from the
  tally through :func:`repro.sql.cost.replay_cost_ms`; when the cache
  exceeds ``capacity`` entries or ``capacity_bytes``, the entry with
  the least recompute-cost-per-byte is dropped first.

Frame reuse is a *wall-clock* optimization only: on every cache hit the
executor re-charges the receipt the row engine would have produced for
that subtree (scans per the ``shared_scans`` setting, index probes and
join/sort/group work always), so the Formula (6) cost semantics and the
``shared_scans`` ablation are preserved bit-for-bit. See
``docs/ALGORITHMS.md`` ("Vectorized execution").
"""

from __future__ import annotations

import heapq
import operator as _op
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache_stats import CacheStatsMixin
from repro.errors import ExecutionError, SQLError
from repro.sql.ast_nodes import Literal, Operator, QueryNode
from repro.sql.cost import replay_cost_ms
from repro.sql.executor import DEFAULT_CPU_MS_PER_ROW, ExecutionResult
from repro.sql.plan import (
    DistinctNode,
    FilterNode,
    GroupHavingCountNode,
    HashJoinNode,
    IndexProbeNode,
    LimitNode,
    NestedLoopJoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionAllNode,
)
from repro.sql.planner import Planner, resolve_column
from repro.storage.columns import Column
from repro.storage.database import Database
from repro.storage.table import Row

_OPERATOR_FN = {
    Operator.EQ: _op.eq,
    Operator.NE: _op.ne,
    Operator.LT: _op.lt,
    Operator.LE: _op.le,
    Operator.GT: _op.gt,
    Operator.GE: _op.ge,
}

_EMPTY_SEL = np.asarray([], dtype=np.int64)


class ColumnFrame:
    """An immutable columnar batch: typed columns + selection vector.

    ``data`` holds one :class:`~repro.storage.columns.Column` per
    attribute (plain value lists are encoded on construction); ``sel``
    is an ordered ``int64`` index array into those columns (``None``
    means all rows in storage order). Operators that only drop rows
    (filters, limits, sorts, distinct) share ``data`` and produce a new
    ``sel``; operators that build new rows (joins, unions, grouping)
    gather fresh columns.
    """

    __slots__ = ("columns", "data", "sel", "_rows_memo")

    def __init__(
        self,
        columns: Sequence[str],
        data: Sequence[object],
        sel: Optional[Sequence[int]] = None,
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.data: Tuple[Column, ...] = tuple(
            column if isinstance(column, Column) else Column.from_values(column)
            for column in data
        )
        if sel is None:
            self.sel: Optional[np.ndarray] = None
        elif isinstance(sel, np.ndarray):
            self.sel = sel.astype(np.int64, copy=False)
        else:
            self.sel = np.asarray(sel, dtype=np.int64)
        self._rows_memo: Optional[List[Row]] = None

    @property
    def n_rows(self) -> int:
        if self.sel is not None:
            return len(self.sel)
        return len(self.data[0]) if self.data else 0

    def selection(self) -> np.ndarray:
        """The selection vector, materialized (all rows when ``sel`` is None)."""
        if self.sel is not None:
            return self.sel
        n = len(self.data[0]) if self.data else 0
        return np.arange(n, dtype=np.int64)

    def column_values(self, position: int) -> List[object]:
        """One column's selected values, as exact Python objects, in
        selection order."""
        return self.data[position].materialize(self.sel)

    def rows(self) -> List[Row]:
        """Row-major materialization (memoized; returns a fresh list)."""
        if self._rows_memo is None:
            if not self.data:
                self._rows_memo = []
            else:
                materialized = [column.materialize(self.sel) for column in self.data]
                self._rows_memo = list(zip(*materialized))
        return list(self._rows_memo)


def plan_key(node: PlanNode, _memo: Optional[Dict[int, Tuple]] = None) -> Tuple:
    """Structural identity of a plan subtree — the frame-cache key.

    Two subtrees with equal keys compute the same frame on the same
    database snapshot. All embedded values (conditions, literals, sort
    keys) are hashable by construction. ``_memo`` (an id(node) → key
    dict whose owner keeps the nodes alive) lets the executor reuse
    child keys across nested calls instead of re-walking shared
    subtrees.
    """
    if _memo is not None:
        memoized = _memo.get(id(node))
        if memoized is not None:
            return memoized
    key = _build_plan_key(node, _memo)
    if _memo is not None:
        _memo[id(node)] = key
    return key


def _build_plan_key(node: PlanNode, memo: Optional[Dict[int, Tuple]]) -> Tuple:
    if isinstance(node, ScanNode):
        return ("scan", node.relation, node.binding)
    if isinstance(node, IndexProbeNode):
        return ("probe", node.relation, node.binding, node.attribute, node.value)
    if isinstance(node, FilterNode):
        return ("filter", node.conditions, plan_key(node.child, memo))
    if isinstance(node, HashJoinNode):
        return (
            "hashjoin",
            node.left_column,
            node.right_column,
            plan_key(node.left, memo),
            plan_key(node.right, memo),
        )
    if isinstance(node, NestedLoopJoinNode):
        return (
            "nloop",
            node.conditions,
            plan_key(node.left, memo),
            plan_key(node.right, memo),
        )
    if isinstance(node, ProjectNode):
        return ("project", node.columns, node.output_names, plan_key(node.child, memo))
    if isinstance(node, DistinctNode):
        return ("distinct", plan_key(node.child, memo))
    if isinstance(node, SortNode):
        return ("sort", node.keys, plan_key(node.child, memo))
    if isinstance(node, LimitNode):
        return ("limit", node.limit, plan_key(node.child, memo))
    if isinstance(node, UnionAllNode):
        return ("union",) + tuple(plan_key(child, memo) for child in node.inputs)
    if isinstance(node, GroupHavingCountNode):
        return ("group", node.count, node.at_least, plan_key(node.child, memo))
    raise ExecutionError("no plan key for node %r" % (node,))


@dataclass
class _Tally:
    """The cost receipt of one plan subtree, recorded on first execution.

    Replayed on every frame-cache hit so reuse never changes the
    simulated receipt: scans charge per the ``shared_scans`` setting
    (skipped for relations already scanned in the current statement),
    index probes and join/sort/group work re-charge unconditionally —
    exactly what the row engine would have done re-executing the
    subtree.
    """

    scans: List[Tuple[str, int, int]] = field(default_factory=list)  # (rel, blocks, rows)
    probe_blocks: int = 0
    probe_rows: int = 0
    work_rows: int = 0

    def absorb(self, other: "_Tally") -> None:
        self.scans.extend(other.scans)
        self.probe_blocks += other.probe_blocks
        self.probe_rows += other.probe_rows
        self.work_rows += other.work_rows


DEFAULT_FRAME_CAPACITY = 8192
DEFAULT_FRAME_BUDGET_BYTES = 256 << 20  # 256 MiB of private frame bytes


def _tally_recompute_ms(tally: _Tally) -> float:
    blocks = sum(blocks for _, blocks, _ in tally.scans) + tally.probe_blocks
    rows = (
        sum(rows for _, _, rows in tally.scans)
        + tally.probe_rows
        + tally.work_rows
    )
    return replay_cost_ms(blocks, rows)


class FrameCache(CacheStatsMixin):
    """Shared base-frame cache: plan-subtree key → (frame, tally).

    One instance spans whatever reuse scope its owner chooses: the
    executor creates a throwaway per-statement cache when none is
    passed (sharing across UNION ALL branches), and every
    ``PersonalizationService`` owns one service-lifetime instance, so
    identical prefixes — and whole repeated statements — are shared
    across requests and batches.
    Entries are validated against the database's ``stats_token`` and
    dropped wholesale when the data changes.

    Capacity is two-dimensional: ``capacity`` bounds the entry count
    (0 disables storage entirely) and ``capacity_bytes`` bounds the
    entries' *private* resident bytes (``None`` = unbounded — snapshot
    boots use this so a restore never evicts what it just installed).
    Private means bytes evicting the frame would actually free:
    base-table columns and shared dictionaries count 0. Over budget,
    the entry with the least recompute cost per byte goes first — big
    cheap frames are sacrificed before small expensive ones.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_FRAME_CAPACITY,
        capacity_bytes: Optional[int] = DEFAULT_FRAME_BUDGET_BYTES,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0, got %r" % capacity)
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0, got %r" % capacity_bytes)
        self.capacity = capacity
        self.capacity_bytes = capacity_bytes
        # key -> (frame, tally, nbytes, seq); seq invalidates stale heap rows.
        self._entries: Dict[Tuple, Tuple[ColumnFrame, _Tally, int, int]] = {}
        self._heap: List[Tuple[float, int, Tuple]] = []  # (score, seq, key)
        self._seq = 0
        self._token: Optional[Tuple[int, int]] = None
        self._bytes = 0  # incrementally maintained private-byte figure
        self.puts = 0
        self._init_stats()
        # Fault seam: when set, called with the site name at the top of
        # every lookup (see repro.testing.faults) — an eviction there
        # must leave the engine on the recompute path, never corrupt it.
        self.fault_hook: Optional[Callable[[str], None]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def validate(self, token: Tuple[int, int]) -> None:
        """Flush all entries if the database snapshot changed."""
        if self._token != token:
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._heap.clear()
            self._bytes = 0
            self._token = token

    def get(self, key: Tuple) -> Optional[Tuple[ColumnFrame, _Tally]]:
        if self.fault_hook is not None:
            self.fault_hook("frame_cache.get")
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry[0], entry[1]
        self.misses += 1
        return None

    def put(self, key: Tuple, frame: ColumnFrame, tally: _Tally) -> None:
        if self.capacity == 0:
            return
        nbytes = _frame_nbytes(frame)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous[2]
        self._seq += 1
        self._entries[key] = (frame, tally, nbytes, self._seq)
        self._bytes += nbytes
        score = _tally_recompute_ms(tally) / max(1, nbytes)
        heapq.heappush(self._heap, (score, self._seq, key))
        self.puts += 1
        self._shrink()

    def _shrink(self) -> None:
        while self._entries and (
            len(self._entries) > self.capacity
            or (self.capacity_bytes is not None and self._bytes > self.capacity_bytes)
        ):
            if not self._evict_one():
                break

    def _evict_one(self) -> bool:
        """Drop the entry with the least recompute cost per byte."""
        while self._heap:
            _, seq, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if entry is not None and entry[3] == seq:
                del self._entries[key]
                self._bytes -= entry[2]
                self.evictions += 1
                return True
        return False

    def invalidate(self) -> None:
        """Explicitly drop every entry (eviction drills, out-of-band
        data mutation); the next lookups recompute from the tables."""
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self._heap.clear()
        self._bytes = 0

    # -- persistence -----------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The cached frames as a state blob for on-disk persistence.

        Frame columns are decoded to the fixed dtypes
        :mod:`repro.storage.shm` shares across processes (int64 /
        float64 / bool / fixed-width unicode); a frame with any column
        that cannot be represented that way is skipped — recomputed on
        first use after a restore, bit-identical just colder. Column
        arrays are deduplicated by object identity (filters share their
        parent's data), so a shared base column is captured once. The
        returned blob's ``columns`` map holds numpy arrays; the disk
        writer (:mod:`repro.storage.snapshot`) spills them to files that
        restore as zero-copy read-only memmap views.
        """
        columns: Dict[int, object] = {}
        entries = []
        for key, (frame, tally, _, _) in self._entries.items():
            refs: List[int] = []
            shareable = True
            for column in frame.data:
                ref = id(column)
                if ref not in columns:
                    array = column.dense_array()
                    if array is None:
                        shareable = False
                        break
                    columns[ref] = array
                refs.append(ref)
            if not shareable:
                continue
            sel = None if frame.sel is None else frame.sel.tolist()
            entries.append(
                (
                    key,
                    (frame.columns, tuple(refs), sel),
                    (list(tally.scans), tally.probe_blocks, tally.probe_rows, tally.work_rows),
                )
            )
        used = {ref for _, (_, refs, _), _ in entries for ref in refs}
        return {
            "kind": "frame_cache",
            "capacity": self.capacity,
            "entries": entries,
            "columns": {ref: columns[ref] for ref in used},
        }

    def restore(
        self,
        state: Dict,
        token: Tuple,
        columns: Optional[Dict[int, object]] = None,
    ) -> int:
        """Install a :meth:`snapshot` blob under the live ``token``.

        ``columns`` optionally overrides the blob's column arrays with
        externally attached ones (the zero-copy memmap views of
        :mod:`repro.storage.snapshot`). Arrays are re-encoded into
        typed :class:`~repro.storage.columns.Column` objects exactly
        once per shared ref, so restored frames keep the snapshot's
        column sharing. Returns frames installed.
        """
        if state.get("kind") != "frame_cache":
            raise ValueError("not a FrameCache snapshot: %r" % (state.get("kind"),))
        source = columns if columns is not None else state["columns"]
        self.validate(token)
        encoded: Dict[int, Column] = {}

        def column_of(ref: int) -> Column:
            column = encoded.get(ref)
            if column is None:
                column = Column.from_array(np.asarray(source[ref]))
                encoded[ref] = column
            return column

        installed = 0
        for key, (names, refs, sel), tally_state in state["entries"]:
            frame = ColumnFrame(
                columns=names,
                data=[column_of(ref) for ref in refs],
                sel=sel,
            )
            scans, probe_blocks, probe_rows, work_rows = tally_state
            tally = _Tally(
                scans=[tuple(scan) for scan in scans],
                probe_blocks=probe_blocks,
                probe_rows=probe_rows,
                work_rows=work_rows,
            )
            self.put(key, frame, tally)
            installed += 1
        return installed

    # -- telemetry -------------------------------------------------------------------

    def _stats_entries(self) -> int:
        return len(self._entries)

    def _stats_bytes(self) -> int:
        return self._bytes

    def _stats_extra(self) -> Dict[str, object]:
        return {
            "puts": self.puts,
            "eviction_rate": (
                round(self.evictions / self.puts, 4) if self.puts else 0.0
            ),
        }


def _frame_nbytes(frame: ColumnFrame) -> int:
    """The private resident bytes of one cached frame: column payloads
    this frame's data would free on eviction (base-table columns and
    shared dictionaries count 0 — see ``Column.nbytes``) plus its
    selection vector. Columns shared between cached frames are counted
    once per frame, an over-estimate by design: the figure bounds what
    eviction can free, not RSS."""
    payload = sum(column.nbytes for column in frame.data)
    sel = 0 if frame.sel is None else frame.sel.nbytes
    return 128 + payload + sel


# -- vectorized operator helpers -----------------------------------------------------


def _symbol_op(symbol: str):
    return {
        "=": _op.eq,
        "<>": _op.ne,
        "<": _op.lt,
        "<=": _op.le,
        ">": _op.gt,
        ">=": _op.ge,
    }[symbol]


def _pair_mask(
    left: Column, right: Column, symbol: str, sel: np.ndarray
) -> Optional[np.ndarray]:
    """Boolean mask over ``sel`` for ``left OP right`` (NULLs never
    match), or None when the typed kernels cannot decide exactly."""
    if left.kind == "obj" or right.kind == "obj":
        return None
    if (
        left.kind == "dict"
        and right.kind == "dict"
        and left.dictionary is right.dictionary
    ):
        lcodes = left.codes[sel]
        rcodes = right.codes[sel]
        # Sorted dictionary: code order is value order, so every
        # comparison runs directly on codes.
        return (lcodes >= 0) & (rcodes >= 0) & _symbol_op(symbol)(lcodes, rcodes)
    ltag, lvalues, lvalid = left.compare_keys(sel)
    rtag, rvalues, rvalid = right.compare_keys(sel)
    if ltag != rtag:
        return None  # str vs num: Python semantics decide (fallback)
    return lvalid & rvalid & _symbol_op(symbol)(lvalues, rvalues)


def _join_takes(
    left: ColumnFrame, right: ColumnFrame, lcol: Column, rcol: Column
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Factorized equi-join: (left_take, right_take) storage indices in
    the row engine's output order (right-major, left insertion order
    within a key), or None for the Python fallback."""
    if lcol.kind == "obj" or rcol.kind == "obj":
        return None
    lsel = left.selection()
    rsel = right.selection()
    if (
        lcol.kind == "dict"
        and rcol.kind == "dict"
        and lcol.dictionary is rcol.dictionary
    ):
        lcodes = lcol.codes[lsel]
        rcodes = rcol.codes[rsel]
        lvalid = lcodes >= 0
        rvalid = rcodes >= 0
        lkeys = lcodes[lvalid]
        rkeys = rcodes[rvalid]
        domain = len(lcol.dictionary)
    else:
        ltag, lvalues, lvalid = lcol.compare_keys(lsel)
        rtag, rvalues, rvalid = rcol.compare_keys(rsel)
        if ltag != rtag:
            # String keys never equal numeric keys (1 != "1"), exactly
            # like the bucket join's Python dict.
            return _EMPTY_SEL, _EMPTY_SEL
        lcomp = lvalues[lvalid]
        rcomp = rvalues[rvalid]
        if len(lcomp) == 0 or len(rcomp) == 0:
            return _EMPTY_SEL, _EMPTY_SEL
        # Factorize both sides over one shared code domain.
        _, inverse = np.unique(np.concatenate([lcomp, rcomp]), return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        lkeys = inverse[: len(lcomp)]
        rkeys = inverse[len(lcomp):]
        domain = int(inverse.max()) + 1
    if len(lkeys) == 0 or len(rkeys) == 0 or domain == 0:
        return _EMPTY_SEL, _EMPTY_SEL
    lmatch = lsel[lvalid]
    rmatch = rsel[rvalid]
    counts = np.bincount(lkeys, minlength=domain)
    order = np.argsort(lkeys, kind="stable")  # build rows grouped by key
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    per_probe = counts[rkeys]
    total = int(per_probe.sum())
    if total == 0:
        return _EMPTY_SEL, _EMPTY_SEL
    # For each probe row, expand its key's contiguous build-run.
    run_base = np.repeat(np.cumsum(per_probe) - per_probe, per_probe)
    within = np.arange(total, dtype=np.int64) - run_base
    build_rows = order[np.repeat(starts[rkeys], per_probe) + within]
    left_take = lmatch[build_rows]
    right_take = rmatch[np.repeat(np.arange(len(rkeys), dtype=np.int64), per_probe)]
    return left_take, right_take


def _join_takes_py(
    left: ColumnFrame, right: ColumnFrame, lcol: Column, rcol: Column
) -> Tuple[np.ndarray, np.ndarray]:
    """The original bucket join, for operands the kernels punt on."""
    buckets: Dict[object, List[int]] = {}
    for i, key in zip(left.selection().tolist(), lcol.materialize(left.sel)):
        if key is not None:
            buckets.setdefault(key, []).append(i)
    left_take: List[int] = []
    right_take: List[int] = []
    for j, key in zip(right.selection().tolist(), rcol.materialize(right.sel)):
        if key is None:
            continue
        matches = buckets.get(key)
        if matches:
            left_take.extend(matches)
            right_take.extend([j] * len(matches))
    return (
        np.asarray(left_take, dtype=np.int64),
        np.asarray(right_take, dtype=np.int64),
    )


def _concat_columns(
    columns: List[Column], sels: List[Optional[np.ndarray]]
) -> Column:
    """Concatenate one output column across UNION ALL branches."""
    kinds = {column.kind for column in columns}
    if kinds == {"dict"}:
        dictionary = columns[0].dictionary
        if all(column.dictionary is dictionary for column in columns):
            codes = np.concatenate(
                [
                    column.codes if sel is None else column.codes[sel]
                    for column, sel in zip(columns, sels)
                ]
            )
            return Column("dict", codes=codes, dictionary=dictionary)
    if kinds == {"num"}:
        dtypes = {column.values.dtype for column in columns}
        if len(dtypes) == 1:
            values = np.concatenate(
                [
                    column.values if sel is None else column.values[sel]
                    for column, sel in zip(columns, sels)
                ]
            )
            if any(column.mask is not None for column in columns):
                mask = np.concatenate(
                    [
                        (column.mask if sel is None else column.mask[sel])
                        if column.mask is not None
                        else np.zeros(
                            len(column) if sel is None else len(sel), dtype=bool
                        )
                        for column, sel in zip(columns, sels)
                    ]
                )
            else:
                mask = None
            return Column("num", values=values, mask=mask)
    # Exactness fallback (mixed encodings/dtypes across branches):
    # merge the Python values and re-sniff — from_values never coerces.
    merged: List[object] = []
    for column, sel in zip(columns, sels):
        merged.extend(column.materialize(sel))
    return Column.from_values(merged)


_OP_LABEL = {
    ScanNode: "scan",
    IndexProbeNode: "scan",
    FilterNode: "filter",
    HashJoinNode: "join",
    NestedLoopJoinNode: "join",
    ProjectNode: "project",
    DistinctNode: "distinct",
    SortNode: "sort",
    LimitNode: "limit",
    UnionAllNode: "union",
    GroupHavingCountNode: "group",
}


class ColumnarExecutor:
    """Vectorized plan evaluation with receipt-identical cost metering.

    Drop-in alternative to :class:`~repro.sql.executor.Executor` /
    :class:`~repro.sql.plan_executor.PlanExecutor`: ``execute`` takes
    any query node (planned through the ordinary
    :class:`~repro.sql.planner.Planner`), ``execute_plan`` takes a
    prepared plan. ``frame_reuse=False`` disables all caching — each
    operator recomputes, the pure-vectorization ablation.
    ``profile_ops=True`` accumulates exclusive wall-clock seconds per
    operator kind in ``op_times`` (across executions — benches read it
    after a loop); it costs a couple of timer reads per node, so it is
    off by default.
    """

    def __init__(
        self,
        database: Database,
        shared_scans: bool = False,
        cpu_ms_per_row: float = DEFAULT_CPU_MS_PER_ROW,
        use_indexes: bool = False,
        frame_reuse: bool = True,
        profile_ops: bool = False,
    ) -> None:
        self.database = database
        self.shared_scans = shared_scans
        self.cpu_ms_per_row = cpu_ms_per_row
        self.use_indexes = use_indexes
        self.frame_reuse = frame_reuse
        self.profile_ops = profile_ops
        self.op_times: Dict[str, float] = {}
        self._op_stack: List[float] = []
        self._plan_cache: "OrderedDict[Tuple, PlanNode]" = OrderedDict()
        # Filter mask programs, compiled once per FilterNode: node id ->
        # (node, steps, child columns). The node reference pins the id.
        self._filter_programs: "OrderedDict[int, Tuple[FilterNode, List, Tuple]]" = (
            OrderedDict()
        )
        # Per-execution state.
        self._rows_processed = 0
        self._scanned: set = set()
        self._tallies: List[_Tally] = []
        self._cache: Optional[FrameCache] = None
        self._hits = 0
        self._misses = 0
        self._branches_incremental = 0
        self._rows_filtered_vectorized = 0

    # -- public API -----------------------------------------------------------

    def plan(self, query: QueryNode) -> PlanNode:
        """Plan ``query``, memoizing on the AST + statistics snapshot."""
        key = (query, self.use_indexes, self.database.stats_token)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = Planner(self.database, use_indexes=self.use_indexes).plan(query)
            self._plan_cache[key] = plan
            # As many plans as the frame cache holds entries: a plan
            # evicted while its frames stay cached would re-plan on
            # every repeat of its statement.
            while len(self._plan_cache) > DEFAULT_FRAME_CAPACITY:
                self._plan_cache.popitem(last=False)
        return plan

    def execute(
        self, query: QueryNode, frame_cache: Optional[FrameCache] = None
    ) -> ExecutionResult:
        """Plan and execute ``query``; see :meth:`execute_plan`."""
        return self.execute_plan(self.plan(query), frame_cache=frame_cache)

    def execute_plan(
        self, plan: PlanNode, frame_cache: Optional[FrameCache] = None
    ) -> ExecutionResult:
        """Execute a plan, metering I/O and per-selected-row CPU.

        ``frame_cache`` extends base-frame sharing beyond this statement
        (e.g. a service's lifetime cache); when omitted a
        statement-scoped cache still shares frames across the UNION ALL
        branches of this one query.
        """
        self._rows_processed = 0
        self._scanned = set()
        self._tallies = []
        self._hits = self._misses = 0
        self._branches_incremental = 0
        self._rows_filtered_vectorized = 0
        # Plan nodes are alive for the whole execution, so id()-keyed
        # memoization of their structural keys is sound here.
        self._key_memo = {}
        if self.frame_reuse:
            cache = frame_cache if frame_cache is not None else FrameCache()
            cache.validate(self.database.stats_token)
        else:
            cache = None
        self._cache = cache
        try:
            with self.database.device.meter() as receipt:
                frame = self._run(plan)
        finally:
            self._cache = None
        return ExecutionResult(
            columns=list(frame.columns),
            rows=frame.rows(),
            blocks_read=receipt.blocks_read,
            io_ms=receipt.elapsed_ms,
            cpu_ms=self._rows_processed * self.cpu_ms_per_row,
            rows_processed=self._rows_processed,
            frame_cache_hits=self._hits,
            frame_cache_misses=self._misses,
            branches_incremental=self._branches_incremental,
            rows_filtered_vectorized=self._rows_filtered_vectorized,
        )

    # -- cost metering ---------------------------------------------------------

    def _charge_scan(self, relation: str, blocks: int, rows: int) -> None:
        if self._tallies:
            self._tallies[-1].scans.append((relation, blocks, rows))
        if self.shared_scans and relation in self._scanned:
            return
        self._scanned.add(relation)
        self.database.device.charge(blocks)
        self._rows_processed += rows

    def _charge_probe(self, blocks: int, rows: int) -> None:
        if self._tallies:
            tally = self._tallies[-1]
            tally.probe_blocks += blocks
            tally.probe_rows += rows
        self.database.device.charge(blocks)
        self._rows_processed += rows

    def _charge_work(self, rows: int) -> None:
        if self._tallies:
            self._tallies[-1].work_rows += rows
        self._rows_processed += rows

    def _apply_tally(self, tally: _Tally) -> None:
        """Replay a cached subtree's receipt in the current statement."""
        device = self.database.device
        for relation, blocks, rows in tally.scans:
            if self.shared_scans and relation in self._scanned:
                continue
            self._scanned.add(relation)
            device.charge(blocks)
            self._rows_processed += rows
        if tally.probe_blocks:
            device.charge(tally.probe_blocks)
        self._rows_processed += tally.probe_rows + tally.work_rows
        if self._tallies:
            self._tallies[-1].absorb(tally)

    # -- dispatch ---------------------------------------------------------------

    def _run(self, node: PlanNode) -> ColumnFrame:
        if not self.profile_ops:
            return self._run_node(node)
        started = time.perf_counter()
        self._op_stack.append(0.0)
        try:
            return self._run_node(node)
        finally:
            children = self._op_stack.pop()
            elapsed = time.perf_counter() - started
            if self._op_stack:
                self._op_stack[-1] += elapsed
            label = _OP_LABEL.get(type(node), "other")
            self.op_times[label] = self.op_times.get(label, 0.0) + (
                elapsed - children
            )

    def _run_node(self, node: PlanNode) -> ColumnFrame:
        cache = self._cache
        if cache is None:
            handler = self._HANDLERS.get(type(node))
            if handler is None:
                raise ExecutionError("no handler for plan node %r" % (node,))
            return handler(self, node)
        key = plan_key(node, self._key_memo)
        entry = cache.get(key)
        if entry is not None:
            frame, tally = entry
            self._apply_tally(tally)
            self._hits += 1
            return frame
        handler = self._HANDLERS.get(type(node))
        if handler is None:
            raise ExecutionError("no handler for plan node %r" % (node,))
        tally = _Tally()
        self._tallies.append(tally)
        try:
            frame = handler(self, node)
        finally:
            self._tallies.pop()
        if self._tallies:
            self._tallies[-1].absorb(tally)
        cache.put(key, frame, tally)
        self._misses += 1
        return frame

    # -- leaves -----------------------------------------------------------------

    def _run_scan(self, node: ScanNode) -> ColumnFrame:
        table = self.database.table(node.relation)
        columns = [
            "%s.%s" % (node.binding, a) for a in table.relation.attribute_names
        ]
        self._charge_scan(node.relation, table.block_count, len(table))
        return ColumnFrame(columns, table.encoded_columns())

    def _run_index_probe(self, node: IndexProbeNode) -> ColumnFrame:
        index = self.database.index_on(node.relation, node.attribute)
        if index is None:
            raise ExecutionError(
                "plan expects an index on %s.%s that does not exist"
                % (node.relation, node.attribute)
            )
        rows = index.lookup(node.value)
        self._charge_probe(index.lookup_blocks(node.value), len(rows))
        relation = self.database.relation(node.relation)
        columns = ["%s.%s" % (node.binding, a) for a in relation.attribute_names]
        data = [
            Column.from_typed(
                [row[position] for row in rows], attribute.data_type
            )
            for position, attribute in enumerate(relation.attributes)
        ]
        return ColumnFrame(columns, data)

    # -- filters ----------------------------------------------------------------

    def _filter_program(self, node: FilterNode, columns: Tuple[str, ...]) -> List:
        """The node's conditions compiled to resolved positions +
        comparison kernels, cached per plan node."""
        entry = self._filter_programs.get(id(node))
        if entry is not None and entry[0] is node and entry[2] == columns:
            return entry[1]
        steps: List = []
        for condition in node.conditions:
            position = resolve_column(columns, condition.left)
            symbol = condition.op.value
            compare = _OPERATOR_FN[condition.op]
            if isinstance(condition.right, Literal):
                steps.append(
                    ("lit", position, symbol, compare, condition.right.value)
                )
            else:
                steps.append(
                    (
                        "col",
                        position,
                        symbol,
                        compare,
                        resolve_column(columns, condition.right),
                    )
                )
        self._filter_programs[id(node)] = (node, steps, columns)
        while len(self._filter_programs) > 4096:
            self._filter_programs.popitem(last=False)
        return steps

    def _run_filter(self, node: FilterNode) -> ColumnFrame:
        frame = self._run(node.child)
        steps = self._filter_program(node, frame.columns)
        data = frame.data
        sel = frame.sel
        n_all = len(data[0]) if data else 0
        for step in steps:
            self._rows_filtered_vectorized += len(sel) if sel is not None else n_all
            if step[0] == "lit":
                _, position, symbol, compare, value = step
                if value is None:
                    sel = _EMPTY_SEL
                    continue
                column = data[position]
                mask = column.literal_mask(symbol, value, sel)
                if mask is not None:
                    sel = np.flatnonzero(mask) if sel is None else sel[mask]
                else:
                    sel = _filter_literal_py(column, compare, value, sel)
            else:
                _, position, symbol, compare, right_position = step
                sel_arr = (
                    sel if sel is not None else np.arange(n_all, dtype=np.int64)
                )
                mask = _pair_mask(data[position], data[right_position], symbol, sel_arr)
                if mask is not None:
                    sel = sel_arr[mask]
                else:
                    sel = _filter_pair_py(
                        data[position], data[right_position], compare, sel, sel_arr
                    )
        return ColumnFrame(frame.columns, frame.data, sel)

    # -- joins ------------------------------------------------------------------

    def _run_hash_join(self, node: HashJoinNode) -> ColumnFrame:
        left = self._run(node.left)
        right = self._run(node.right)
        left_column = left.data[left.columns.index(node.left_column)]
        right_column = right.data[right.columns.index(node.right_column)]
        takes = _join_takes(left, right, left_column, right_column)
        if takes is None:
            takes = _join_takes_py(left, right, left_column, right_column)
        left_take, right_take = takes
        data = [column.gather(left_take) for column in left.data]
        data.extend(column.gather(right_take) for column in right.data)
        self._charge_work(len(left_take))
        return ColumnFrame(left.columns + right.columns, data)

    def _run_nested_loop(self, node: NestedLoopJoinNode) -> ColumnFrame:
        left = self._run(node.left)
        right = self._run(node.right)
        columns = left.columns + right.columns
        left_sel = left.selection()
        right_sel = right.selection()
        if not node.conditions:
            left_take = np.repeat(left_sel, len(right_sel))
            right_take = np.tile(right_sel, len(left_sel))
        else:
            takes = _nested_loop_takes(node, left, right, columns, left_sel, right_sel)
            if takes is None:
                takes = _nested_loop_takes_py(
                    node, left, right, columns, left_sel, right_sel
                )
            left_take, right_take = takes
        data = [column.gather(left_take) for column in left.data]
        data.extend(column.gather(right_take) for column in right.data)
        self._charge_work(len(left_take))
        return ColumnFrame(columns, data)

    # -- shaping ----------------------------------------------------------------

    def _run_project(self, node: ProjectNode) -> ColumnFrame:
        frame = self._run(node.child)
        if not node.columns:
            return frame
        positions = []
        for name in node.columns:
            if name in frame.columns:
                positions.append(frame.columns.index(name))
            else:  # unqualified projection target
                matches = [
                    i
                    for i, c in enumerate(frame.columns)
                    if c.split(".", 1)[-1] == name
                ]
                if len(matches) != 1:
                    raise ExecutionError(
                        "cannot project %r from %s" % (name, list(frame.columns))
                    )
                positions.append(matches[0])
        output = list(node.output_names) if node.output_names else list(node.columns)
        return ColumnFrame(output, [frame.data[p] for p in positions], frame.sel)

    def _run_distinct(self, node: DistinctNode) -> ColumnFrame:
        frame = self._run(node.child)
        sel = frame.selection()
        if len(sel) == 0:
            return ColumnFrame(frame.columns, frame.data, sel)
        codes = _frame_group_codes(frame)
        if codes is None:
            keep = _distinct_keep_py(frame)
        else:
            _, first = (
                np.unique(codes[0], return_index=True)
                if len(codes) == 1
                else np.unique(np.stack(codes, axis=1), axis=0, return_index=True)
            )
            keep = np.sort(first)
        return ColumnFrame(frame.columns, frame.data, sel[keep])

    def _run_sort(self, node: SortNode) -> ColumnFrame:
        frame = self._run(node.child)
        indices = frame.selection()
        self._charge_work(len(indices))
        key_positions = []
        for name, descending in node.keys:
            matches = [
                i
                for i, c in enumerate(frame.columns)
                if c == name or c.split(".", 1)[-1] == name
            ]
            if len(matches) != 1:
                raise ExecutionError(
                    "cannot sort by %r in %s" % (name, list(frame.columns))
                )
            key_positions.append((matches[0], descending))
        for position, descending in reversed(key_positions):
            column = frame.data[position]
            key = column.sort_key(indices)
            if key is None:
                values = column.materialize(indices)
                order = np.asarray(
                    sorted(
                        range(len(values)),
                        key=lambda k: (values[k] is None, values[k]),
                        reverse=descending,
                    ),
                    dtype=np.int64,
                )
            else:
                nulls, keys = key
                if descending:
                    # Stable descending = stable ascending of the
                    # reversed keys, mapped back and reversed.
                    perm = np.lexsort((keys[::-1], nulls[::-1]))
                    order = (len(indices) - 1 - perm)[::-1]
                else:
                    order = np.lexsort((keys, nulls))
            indices = indices[order]
        return ColumnFrame(frame.columns, frame.data, indices)

    def _run_limit(self, node: LimitNode) -> ColumnFrame:
        frame = self._run(node.child)
        return ColumnFrame(frame.columns, frame.data, frame.selection()[: node.limit])

    def _run_union(self, node: UnionAllNode) -> ColumnFrame:
        columns: Tuple[str, ...] = ()
        parts: List[ColumnFrame] = []
        for child in node.inputs:
            hits_before = self._hits
            frame = self._run(child)
            if self._hits > hits_before:
                self._branches_incremental += 1
            if not columns:
                columns = frame.columns
            elif len(columns) != len(frame.columns):
                raise SQLError("UNION ALL inputs disagree in arity")
            parts.append(frame)
        data = [
            _concat_columns(
                [part.data[position] for part in parts],
                [part.sel for part in parts],
            )
            for position in range(len(columns))
        ]
        return ColumnFrame(columns, data)

    def _run_group_having(self, node: GroupHavingCountNode) -> ColumnFrame:
        frame = self._run(node.child)
        sel = frame.selection()
        self._charge_work(len(sel))
        if len(sel) == 0:
            return ColumnFrame(
                frame.columns, [column.gather(_EMPTY_SEL) for column in frame.data]
            )
        codes = _frame_group_codes(frame)
        if codes is None:
            return ColumnFrame(frame.columns, _group_columns_py(frame, node))
        _, first, counts = (
            np.unique(codes[0], return_index=True, return_counts=True)
            if len(codes) == 1
            else np.unique(
                np.stack(codes, axis=1), axis=0, return_index=True, return_counts=True
            )
        )
        keep = counts >= node.count if node.at_least else counts == node.count
        representatives = sel[np.sort(first[keep])]
        data = [column.gather(representatives) for column in frame.data]
        return ColumnFrame(frame.columns, data)

    _HANDLERS = {
        ScanNode: _run_scan,
        IndexProbeNode: _run_index_probe,
        FilterNode: _run_filter,
        HashJoinNode: _run_hash_join,
        NestedLoopJoinNode: _run_nested_loop,
        ProjectNode: _run_project,
        DistinctNode: _run_distinct,
        SortNode: _run_sort,
        LimitNode: _run_limit,
        UnionAllNode: _run_union,
        GroupHavingCountNode: _run_group_having,
    }


# -- Python fallbacks (exact row-engine semantics for obj operands) ------------------


def _filter_literal_py(
    column: Column, compare, value: object, sel: Optional[np.ndarray]
) -> np.ndarray:
    if sel is None:
        values = column.materialize(None)
        return np.asarray(
            [i for i, v in enumerate(values) if v is not None and compare(v, value)],
            dtype=np.int64,
        )
    values = column.materialize(sel)
    keep = [k for k, v in enumerate(values) if v is not None and compare(v, value)]
    return sel[np.asarray(keep, dtype=np.int64)]


def _filter_pair_py(
    left: Column,
    right: Column,
    compare,
    sel: Optional[np.ndarray],
    sel_arr: np.ndarray,
) -> np.ndarray:
    lvalues = left.materialize(sel)
    rvalues = right.materialize(sel)
    keep = [
        k
        for k in range(len(lvalues))
        if lvalues[k] is not None
        and rvalues[k] is not None
        and compare(lvalues[k], rvalues[k])
    ]
    return sel_arr[np.asarray(keep, dtype=np.int64)]


def _frame_group_codes(frame: ColumnFrame) -> Optional[List[np.ndarray]]:
    """Per-column group codes over the frame's selection, or None when
    any column needs the Python row-tuple path."""
    codes: List[np.ndarray] = []
    for column in frame.data:
        column_codes = column.group_codes(frame.sel)
        if column_codes is None:
            return None
        codes.append(column_codes)
    return codes if codes else None


def _distinct_keep_py(frame: ColumnFrame) -> np.ndarray:
    materialized = [column.materialize(frame.sel) for column in frame.data]
    seen: set = set()
    keep: List[int] = []
    for k, row in enumerate(zip(*materialized)):
        if row not in seen:
            seen.add(row)
            keep.append(k)
    return np.asarray(keep, dtype=np.int64)


def _group_columns_py(frame: ColumnFrame, node: GroupHavingCountNode) -> List[Column]:
    from collections import Counter

    materialized = [column.materialize(frame.sel) for column in frame.data]
    counts = Counter(zip(*materialized))
    if node.at_least:
        kept = [row for row, count in counts.items() if count >= node.count]
    else:
        kept = [row for row, count in counts.items() if count == node.count]
    return [
        Column.from_values([row[position] for row in kept])
        for position in range(len(frame.columns))
    ]


def _nested_loop_takes(
    node: NestedLoopJoinNode,
    left: ColumnFrame,
    right: ColumnFrame,
    columns: Tuple[str, ...],
    left_sel: np.ndarray,
    right_sel: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Vectorized theta join over the materialized cross product (the
    row engine's i-major/j-minor order), or None for the fallback."""
    n_left = len(left.columns)
    li = np.repeat(left_sel, len(right_sel))
    rj = np.tile(right_sel, len(left_sel))
    keep = np.ones(len(li), dtype=bool)

    def operand(ref) -> Optional[Tuple[str, object, Optional[np.ndarray]]]:
        if isinstance(ref, Literal):
            value = ref.value
            if value is None:
                return ("null", None, None)
            if isinstance(value, str):
                return ("str", value, None)
            if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
                return ("num", value, None)
            return None
        position = resolve_column(columns, ref)
        if position < n_left:
            column, idx = left.data[position], li
        else:
            column, idx = right.data[position - n_left], rj
        if column.kind == "obj":
            return None
        tag, values, valid = column.compare_keys(idx)
        return (tag, values, valid)

    for condition in node.conditions:
        lhs = operand(condition.left)
        rhs = operand(condition.right)
        if lhs is None or rhs is None:
            return None
        ltag, lvalues, lvalid = lhs
        rtag, rvalues, rvalid = rhs
        if ltag == "null" or rtag == "null":
            keep[:] = False
            continue
        if ltag != rtag:
            # Cross-type pairs: == is False, != is True (for non-NULL
            # operands), ordering raises — exactly Python's semantics.
            if condition.op is Operator.EQ:
                keep[:] = False
            elif condition.op is Operator.NE:
                if lvalid is not None:
                    keep &= lvalid
                if rvalid is not None:
                    keep &= rvalid
            else:
                return None  # fallback raises like the row engine
            continue
        try:
            matches = _symbol_op(condition.op.value)(lvalues, rvalues)
        except (TypeError, OverflowError):
            return None
        keep &= matches
        if lvalid is not None:
            keep &= lvalid
        if rvalid is not None:
            keep &= rvalid
    return li[keep], rj[keep]


def _nested_loop_takes_py(
    node: NestedLoopJoinNode,
    left: ColumnFrame,
    right: ColumnFrame,
    columns: Tuple[str, ...],
    left_sel: np.ndarray,
    right_sel: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The original per-pair loop, for operands the kernels punt on."""
    n_left = len(left.columns)
    accessors = []
    for condition in node.conditions:
        lpos = resolve_column(columns, condition.left)
        lookup_left = (True, lpos) if lpos < n_left else (False, lpos - n_left)
        if isinstance(condition.right, Literal):
            rhs = ("lit", condition.right.value)
        else:
            rpos = resolve_column(columns, condition.right)
            rhs = ("col", (True, rpos) if rpos < n_left else (False, rpos - n_left))
        accessors.append((lookup_left, _OPERATOR_FN[condition.op], rhs))

    def value_of(side: Tuple[bool, int], i: int, j: int) -> object:
        on_left, position = side
        return (
            left.data[position].value_at(i)
            if on_left
            else right.data[position].value_at(j)
        )

    left_take: List[int] = []
    right_take: List[int] = []
    for i in left_sel.tolist():
        for j in right_sel.tolist():
            ok = True
            for left_side, compare, rhs in accessors:
                lv = value_of(left_side, i, j)
                rv = rhs[1] if rhs[0] == "lit" else value_of(rhs[1], i, j)
                if lv is None or rv is None or not compare(lv, rv):
                    ok = False
                    break
            if ok:
                left_take.append(i)
                right_take.append(j)
    return (
        np.asarray(left_take, dtype=np.int64),
        np.asarray(right_take, dtype=np.int64),
    )
