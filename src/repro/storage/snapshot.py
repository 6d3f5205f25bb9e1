"""Persistent workload snapshots: compiled cache state on disk.

The workload compiler (:mod:`repro.workloads.compiler`) spends minutes
of offline CPU so the online service can boot warm: per-path pricing
(:class:`~repro.core.param_cache.ParameterCache`), canonical boundary
frontiers (:class:`~repro.core.frontier_cache.FrontierCache`) and shared
base frames (:class:`~repro.sql.columnar.FrameCache`) are all pure
functions of *(query, profile content, database content + statistics)*,
so the compiled state is reusable by any process that can prove it is
looking at the same database. This module is that proof plus the disk
format:

* **Identity** — a snapshot records the owning database's
  :attr:`~repro.storage.database.Database.fingerprint` (a SHA-256
  content digest: schema, rows, indexes, block size) *and* its
  ``stats_version``. :meth:`CompiledWorkload.restore_into` refuses both
  a different database (fingerprint mismatch) and the same database
  under re-ANALYZEd statistics (version mismatch) — restoring would be
  correct only by accident, so it is an error
  (:class:`SnapshotMismatch`), never a silent cold start. On success
  the cache entries are re-tagged with the *live* ``stats_token``, so
  the ordinary first-access invalidation keeps protecting them from
  later mutations.

* **Layout** — a snapshot is a directory::

      manifest.json     # identity, format version, meta + telemetry
      caches.pkl        # ParameterCache / FrontierCache / FrameCache blobs
      columns/<ref>.npy # deduplicated frame column arrays

  Frame columns are spilled to individual ``.npy`` files and reattached
  with ``numpy.load(..., mmap_mode="r")``: restoring maps them
  zero-copy from the page cache instead of unpickling row data, the
  same fixed-dtype contract :mod:`repro.storage.shm` uses for
  cross-process frames. Everything else is small (frontiers are rank
  tuples, pricing entries are float pairs) and travels through one
  pickle.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import StorageError
from repro.storage.database import Database

# 2: frontier memo entries are keyed by (algorithm, limit), not limit.
SNAPSHOT_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
CACHES_NAME = "caches.pkl"
COLUMNS_DIR = "columns"


class SnapshotMismatch(StorageError):
    """A snapshot does not belong to the database it was restored into
    (content fingerprint or statistics version differ), or its on-disk
    format is from an incompatible writer."""


@dataclass
class CompiledWorkload:
    """Everything one compiler run produced, in restorable form.

    ``meta`` is the JSON-able workload description (dataset seeds,
    fleet shape, query SQL, problem specs) that lets a fresh process
    rebuild the serving setup; ``interning`` is the
    :meth:`~repro.core.interning.ProfileInterner.report` block;
    ``telemetry`` the per-cache counters and timings at compile end.
    The three ``*_state`` blobs are the caches' ``snapshot()`` dicts.
    ``frame_columns``, when set, overrides the frame blob's in-memory
    column arrays with externally attached ones (the memmap views of
    :func:`load_snapshot`).
    """

    fingerprint: str
    stats_version: int
    meta: Dict = field(default_factory=dict)
    interning: Dict = field(default_factory=dict)
    telemetry: Dict = field(default_factory=dict)
    param_state: Optional[Dict] = None
    frontier_state: Optional[Dict] = None
    frame_state: Optional[Dict] = None
    frame_columns: Optional[Dict[int, object]] = None
    format_version: int = SNAPSHOT_FORMAT_VERSION

    def restore_into(
        self,
        database: Database,
        param_cache=None,
        frontier_cache=None,
        frame_cache=None,
    ) -> Dict[str, int]:
        """Install the compiled state into live caches, provably safely.

        Raises :class:`SnapshotMismatch` unless ``database`` has the
        exact content fingerprint *and* statistics version the snapshot
        was compiled against. Only the caches actually passed are
        touched; returns ``{"param_entries", "frontiers", "frames"}``
        counts for what was installed.
        """
        if self.format_version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotMismatch(
                "snapshot format v%r, this reader expects v%r"
                % (self.format_version, SNAPSHOT_FORMAT_VERSION)
            )
        live = database.fingerprint
        if live != self.fingerprint:
            raise SnapshotMismatch(
                "database content fingerprint %s... does not match the "
                "snapshot's %s... — compiled against different data"
                % (live[:12], str(self.fingerprint)[:12])
            )
        if database.stats_version != self.stats_version:
            raise SnapshotMismatch(
                "database statistics version %d does not match the "
                "snapshot's %d — statistics were rebuilt since the "
                "compile; recompile instead of restoring stale pricing"
                % (database.stats_version, self.stats_version)
            )
        token = database.stats_token
        installed = {"param_entries": 0, "frontiers": 0, "frames": 0}
        if param_cache is not None and self.param_state is not None:
            installed["param_entries"] = param_cache.restore(self.param_state, token)
        if frontier_cache is not None and self.frontier_state is not None:
            installed["frontiers"] = frontier_cache.restore(self.frontier_state, token)
        if frame_cache is not None and self.frame_state is not None:
            columns = self.frame_columns
            if columns is None:
                columns = self.frame_state.get("columns")
            installed["frames"] = frame_cache.restore(
                self.frame_state, token, columns=columns
            )
        return installed


def save_snapshot(compiled: CompiledWorkload, path: str) -> Dict[str, int]:
    """Write ``compiled`` as a snapshot directory at ``path``.

    Returns ``{"files": ..., "bytes": ...}`` for telemetry. Overwrites
    any snapshot already at ``path`` (the manifest is written last, so
    a torn write never looks like a valid snapshot).
    """
    import numpy as np

    os.makedirs(path, exist_ok=True)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)

    frame_state = compiled.frame_state
    column_refs = []
    columns_dir = os.path.join(path, COLUMNS_DIR)
    if frame_state is not None and frame_state.get("columns"):
        os.makedirs(columns_dir, exist_ok=True)
        for ref, array in frame_state["columns"].items():
            np.save(os.path.join(columns_dir, "%d.npy" % ref), np.asarray(array))
            column_refs.append(int(ref))
        # The pickle carries structure only; the arrays live in .npy
        # files and come back as zero-copy memmap views.
        frame_state = dict(frame_state)
        frame_state["columns"] = {}

    with open(os.path.join(path, CACHES_NAME), "wb") as handle:
        pickle.dump(
            {
                "param": compiled.param_state,
                "frontier": compiled.frontier_state,
                "frame": frame_state,
            },
            handle,
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    manifest = {
        "format_version": compiled.format_version,
        "kind": "workload_snapshot",
        "fingerprint": compiled.fingerprint,
        "stats_version": compiled.stats_version,
        "meta": compiled.meta,
        "interning": compiled.interning,
        "telemetry": compiled.telemetry,
        "column_refs": sorted(column_refs),
    }
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)

    files = 2 + len(column_refs)
    nbytes = snapshot_nbytes(path)
    return {"files": files, "bytes": nbytes}


def load_snapshot(path: str) -> CompiledWorkload:
    """Read a snapshot directory back into a :class:`CompiledWorkload`.

    Frame columns are attached as read-only memory maps — no row data
    is copied until (unless) a restored frame is actually read.
    """
    import numpy as np

    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise SnapshotMismatch("no snapshot manifest at %s" % manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("kind") != "workload_snapshot":
        raise SnapshotMismatch(
            "not a workload snapshot: kind=%r" % (manifest.get("kind"),)
        )
    if manifest.get("format_version") != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotMismatch(
            "snapshot format v%r, this reader expects v%r"
            % (manifest.get("format_version"), SNAPSHOT_FORMAT_VERSION)
        )
    with open(os.path.join(path, CACHES_NAME), "rb") as handle:
        states = pickle.load(handle)

    frame_columns: Optional[Dict[int, object]] = None
    refs = manifest.get("column_refs") or []
    if refs:
        columns_dir = os.path.join(path, COLUMNS_DIR)
        frame_columns = {
            int(ref): np.load(
                os.path.join(columns_dir, "%d.npy" % ref), mmap_mode="r"
            )
            for ref in refs
        }

    return CompiledWorkload(
        fingerprint=manifest["fingerprint"],
        stats_version=int(manifest["stats_version"]),
        meta=manifest.get("meta", {}),
        interning=manifest.get("interning", {}),
        telemetry=manifest.get("telemetry", {}),
        param_state=states.get("param"),
        frontier_state=states.get("frontier"),
        frame_state=states.get("frame"),
        frame_columns=frame_columns,
        format_version=int(manifest["format_version"]),
    )


def snapshot_nbytes(path: str) -> int:
    """Total on-disk size of a snapshot directory."""
    total = 0
    for root, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
    return total
