"""Durable checkpoint journal for long experiment sweeps.

A study is hundreds of independent ``(config, instance, start, seed)``
cells; losing a host mid-sweep must not mean losing the completed
cells.  The journal records every finished cell as one JSONL line and
lets a re-invoked study skip straight past them:

* the file is keyed by a **content hash of the study spec**
  (:func:`spec_key`), so a journal can never be resumed against a
  different study -- that mismatch raises :class:`CheckpointError`;
* every write is **durable**, and a torn write costs at most one
  cell: a finished cell is appended as one line, flushed and fsync'd.
  Opening a journal rewrites it once, **atomically** (a sibling temp
  file, fsync'd, ``os.replace``'d over the old one, then a directory
  fsync), keeping only the header and the valid lines.  A SIGKILL
  mid-append can therefore tear only the last line; the next open
  drops it, the cell is recomputed, and no append ever follows a torn
  line.  A new journal's header is written the same atomic way;
* cell values round-trip through pickle (base64 in the JSON), so a
  resumed study sees *bit-identical* results -- the backbone of the
  "resume == uninterrupted run" contract;
* corrupt lines (a fault-injection scenario, or a disk that lied about
  durability) are counted and skipped: the affected cells are simply
  recomputed;
* quarantined cells are journaled with their reason but *not* treated
  as completed -- a resume is the natural chance to heal them.

Layout: record 1 is a header with the spec hash; every other record is
``{"kind": "cell", "batch": ..., "index": ..., "item": ...,
"value": ...}``.  ``batch`` is the deterministic call-site key a study
assigns to each ``parallel_map`` invocation (e.g.
``"good:20.0"``), ``index``/``item`` identify the cell within
the batch (for multistart batches the item *is* the start seed).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.runtime.errors import CheckpointError
from repro.runtime.observe import recorder as _observe

PathLike = Union[str, Path]

JOURNAL_VERSION = 1

_MISS = object()


def spec_key(spec: Any) -> str:
    """Content hash of a study spec (any JSON-serializable object).

    Canonical JSON (sorted keys, no whitespace) keeps the hash stable
    across processes and Python versions; non-JSON leaves are rendered
    with ``str``.
    """
    canonical = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode_value(value: Any) -> str:
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_value(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _item_fingerprint(item: Any) -> Any:
    """A JSON-able identity check for a cell's input item.

    Integer items (the multistart seeds) are stored verbatim -- the
    journal then literally records which seed produced which cell.
    Anything else is hashed through its pickle.
    """
    if isinstance(item, int) and not isinstance(item, bool):
        return item
    digest = hashlib.sha256(
        pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()
    return f"sha256:{digest[:24]}"


class CheckpointJournal:
    """One study's journal file (see module docstring)."""

    def __init__(self, path: PathLike, spec: Any) -> None:
        self.path = Path(path)
        self.spec_hash = spec_key(spec)
        # (batch, index) -> {"item": fp, "value": encoded} | {"quarantined": ...}
        self._cells: Dict[Tuple[str, int], dict] = {}
        self.corrupt_lines = 0
        self.resumed = self.path.exists()
        if self.resumed:
            self._rewrite(self._load(spec))
        else:
            header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "spec_hash": self.spec_hash,
                "spec": json.loads(
                    json.dumps(spec, default=str)
                ) if spec is not None else None,
            }
            self._rewrite([json.dumps(header, sort_keys=True)])

    # -- persistence ---------------------------------------------------
    def _load(self, spec: Any) -> List[str]:
        """Read an existing journal; return its header and valid lines."""
        raw = self.path.read_text().splitlines()
        if not raw:
            raise CheckpointError(f"{self.path}: empty journal file")
        try:
            header = json.loads(raw[0])
            if header.get("kind") != "header":
                raise ValueError("first record is not a header")
        except ValueError as exc:
            raise CheckpointError(
                f"{self.path}: unreadable journal header ({exc}); "
                "delete the file to start over"
            ) from exc
        if header.get("spec_hash") != self.spec_hash:
            raise CheckpointError(
                f"{self.path}: journal was written by a different study "
                f"spec (journal {header.get('spec_hash')!r:.20}..., "
                f"this study {self.spec_hash!r:.20}...); refusing to "
                "splice unrelated results"
            )
        kept = [raw[0]]
        for line in raw[1:]:
            try:
                record = json.loads(line)
                if record.get("kind") != "cell":
                    raise ValueError("not a cell record")
                key = (str(record["batch"]), int(record["index"]))
                if "value" in record:
                    _decode_value(record["value"])  # must round-trip
                elif "quarantined" not in record:
                    raise ValueError("cell carries neither value nor "
                                     "quarantine reason")
            except (ValueError, KeyError, TypeError, EOFError,
                    pickle.UnpicklingError) as _exc:  # noqa: F841
                self.corrupt_lines += 1
                continue
            self._cells[key] = record
            kept.append(line)
        rec = _observe.active()
        if rec.enabled:
            rec.count("checkpoint.resumes")
            rec.count("checkpoint.loaded_cells", len(self._cells))
            if self.corrupt_lines:
                rec.count("checkpoint.corrupt_lines", self.corrupt_lines)
        return kept

    def _rewrite(self, lines: List[str]) -> None:
        """Atomically replace the journal with ``lines`` (tmp file +
        replace, fsync'd)."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        payload = "\n".join(lines) + "\n"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        try:  # durability of the rename itself (best effort off Linux)
            dir_fd = os.open(self.path.parent or Path("."), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass

    def _append(self, record: dict) -> None:
        """Durably append one cell record (one line, fsync'd)."""
        self._cells[(record["batch"], record["index"])] = record
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- cell API ------------------------------------------------------
    def lookup(self, batch: str, index: int, item: Any) -> Any:
        """The journaled value of a cell, or the module-private miss.

        A cell only hits if its recorded item fingerprint matches --
        a journal whose seeds drifted (or whose record was corrupted)
        yields a miss and the cell is recomputed.  Quarantined cells
        miss by design (resume retries them).
        """
        record = self._cells.get((batch, index))
        if record is None or "value" not in record:
            return _MISS
        if record.get("item") != _item_fingerprint(item):
            return _MISS
        return _decode_value(record["value"])

    def record(self, batch: str, index: int, item: Any, value: Any) -> None:
        """Journal one completed cell (one durable append)."""
        record = {
            "kind": "cell",
            "batch": batch,
            "index": index,
            "item": _item_fingerprint(item),
            "value": _encode_value(value),
        }
        self._append(record)
        rec = _observe.active()
        if rec.enabled:
            rec.count("checkpoint.writes")

    def record_quarantine(
        self, batch: str, index: int, item: Any, reason: str
    ) -> None:
        """Journal a quarantined cell's reason (not a completion)."""
        record = {
            "kind": "cell",
            "batch": batch,
            "index": index,
            "item": _item_fingerprint(item),
            "quarantined": reason,
        }
        self._append(record)
        rec = _observe.active()
        if rec.enabled:
            rec.count("checkpoint.quarantine_writes")

    def completed_cells(self) -> int:
        """Number of journaled cells holding a value."""
        return sum(1 for r in self._cells.values() if "value" in r)

    def quarantined_cells(self) -> Dict[Tuple[str, int], str]:
        """Reasons of every quarantined cell (the study's hole report)."""
        return {
            key: r["quarantined"]
            for key, r in self._cells.items()
            if "quarantined" in r
        }

    # -- views ---------------------------------------------------------
    def batch(self, key: str) -> "CheckpointBatch":
        """The per-call-site view handed to ``parallel_map``."""
        return CheckpointBatch(self, key)

    def namespace(self, prefix: str) -> "JournalNamespace":
        """A view that prefixes every batch key (multi-circuit studies)."""
        return JournalNamespace(self, prefix)


class JournalNamespace:
    """Prefixes batch keys so sub-studies sharing a journal can't collide."""

    def __init__(self, journal: CheckpointJournal, prefix: str) -> None:
        self._journal = journal
        self._prefix = prefix

    def batch(self, key: str) -> "CheckpointBatch":
        return self._journal.batch(f"{self._prefix}/{key}")

    def namespace(self, prefix: str) -> "JournalNamespace":
        return JournalNamespace(self._journal, f"{self._prefix}/{prefix}")


class CheckpointBatch:
    """One ``parallel_map`` call site's window into a journal."""

    def __init__(self, journal: CheckpointJournal, key: str) -> None:
        self.journal = journal
        self.key = key
        self.hits = 0

    def lookup(self, index: int, item: Any) -> Any:
        value = self.journal.lookup(self.key, index, item)
        if value is not _MISS:
            self.hits += 1
        return value

    def record(self, index: int, item: Any, value: Any) -> None:
        self.journal.record(self.key, index, item, value)

    def record_quarantine(self, index: int, item: Any, reason: str) -> None:
        self.journal.record_quarantine(self.key, index, item, reason)


def is_miss(value: Any) -> bool:
    """True when a :meth:`CheckpointBatch.lookup` returned no hit."""
    return value is _MISS
