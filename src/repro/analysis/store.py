"""The unit store: finished sweep units in sqlite, shared across runs.

A sweep is a grid of (point, task set) work units (see
:mod:`repro.experiments.units`). This module keeps each finished unit
as one content-addressed row, so a repeated, resumed, widened or
protocol-extended sweep is answered from disk instead of re-analysed.
The in-memory :class:`repro.analysis.cache.AnalysisCache` memoises the
individual solves within a unit; nothing below a unit is stored here.

Design notes
------------
* **One reader and writer.** The sweep's parent process (its
  :class:`~repro.experiments.units.UnitScheduler`) is the only reader
  and writer of a store: it serves stored units before dispatch and
  writes each finished unit back. Workers never open it.
* **Rows.** A unit is stored as the entry ``("unit", {"verdicts":
  {protocol: [count, attempted]}, "failures": [...]})`` under its unit
  digest. An upsert replaces a row only with one covering *more*
  protocols, so a row grows as sweeps add protocols and never shrinks,
  whatever order concurrent sweeps write in.
* **Corruption.** Every payload is stored next to its sha256; a reader
  that finds a mismatch (torn write, bit rot) deletes the row and
  reports it to the caller, which re-evaluates the unit. A corrupted
  row is *never* trusted.
* **Schema version.** :data:`SCHEMA_VERSION` is bumped whenever the
  row encoding, the digest inputs, or the table layout change. A
  store created under a different version is discarded wholesale when
  a sweep, ``gc`` or ``clear`` opens it — a stale row can never alias
  a new-format digest. :meth:`PersistentStore.stats` only reads.
* **Processes.** Connections are opened lazily per process: a forked
  worker inherits the parent's store object, and the pid guard keeps
  it from ever using the parent's sqlite handle.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ReproError

#: Bump when the row encoding, digest inputs, or table layout change;
#: mismatching stores are discarded on open (see module notes).
SCHEMA_VERSION = 4

#: One stored entry; a finished unit is ``("unit", row)``.
Entry = tuple[Any, ...]

#: Attempts at a connection's set-up before a ``database is locked``
#: error is reported. Switching a fresh file to WAL needs an exclusive
#: lock, and sqlite reports that contention at once, without waiting
#: out the busy timeout, when waiting could deadlock (two processes
#: opening one fresh store). Retrying after a short pause resolves it.
OPEN_ATTEMPTS = 20


def _encode(entry: Entry) -> str:
    """Canonical JSON text of one entry (the tuple as a JSON list).

    ``json`` round-trips Python floats exactly (it emits ``repr`` and
    parses back the identical double), so a decoded entry is
    bit-identical to the stored one.
    """
    return json.dumps(list(entry), sort_keys=True, allow_nan=False)


def _decode(text: str) -> Entry:
    entry = json.loads(text)
    if not isinstance(entry, list) or not entry:
        raise ValueError("not a stored entry")
    return tuple(entry)


def _protocols(entry: Entry) -> int:
    """The ``protocols`` column: how many protocols a ``("unit", row)``
    entry covers (an entry of any other kind covers none)."""
    if entry[0] == "unit":
        return len(entry[1]["verdicts"])
    return 0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _set_up(conn: sqlite3.Connection) -> None:
    """Put a fresh connection in WAL mode and create or migrate the
    tables (see the module notes on the schema version)."""
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA busy_timeout=30000")
    conn.execute(
        "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
    )
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    if row is not None and row[0] != str(SCHEMA_VERSION):
        # A different build wrote this store; its rows may alias
        # new-format digests, so the whole store is discarded.
        conn.execute("DROP TABLE IF EXISTS entries")
        conn.execute("DELETE FROM meta")
        row = None
    if row is None:
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES "
            "('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
    conn.execute(
        "CREATE TABLE IF NOT EXISTS entries ("
        " digest TEXT PRIMARY KEY,"
        " payload TEXT NOT NULL,"
        " sha TEXT NOT NULL,"
        " protocols INTEGER NOT NULL,"
        " created REAL NOT NULL)"
    )
    # ``store`` reads MAX(created) on every upsert and ``gc`` orders
    # by it; without the index both scan the whole table.
    conn.execute(
        "CREATE INDEX IF NOT EXISTS entries_created ON entries(created)"
    )
    conn.commit()


class PersistentStore:
    """Digest-keyed sqlite store of finished sweep units.

    Args:
        path: Database file; created (with parents) on first use.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    def _connect(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(1, OPEN_ATTEMPTS + 1):
            conn = sqlite3.connect(self.path, timeout=30.0)
            try:
                _set_up(conn)
            except sqlite3.DatabaseError as exc:
                conn.close()
                locked = "database is locked" in str(exc)
                if locked and attempt < OPEN_ATTEMPTS:
                    time.sleep(0.01 * attempt)
                    continue
                # Not a database (or not one sqlite can use): name the
                # path, and leave the file as it is.
                raise self._unusable(exc) from exc
            break
        self._conn = conn
        self._pid = pid
        return conn

    def _unusable(self, exc: sqlite3.DatabaseError) -> ReproError:
        return ReproError(f"cannot open the unit store {self.path}: {exc}")

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None

    # -- rows ----------------------------------------------------------
    def fetch(self, digest: str) -> tuple[Entry | None, bool]:
        """Look up one digest: ``(entry, corrupted)``.

        A row whose payload fails its sha256 check (or does not decode)
        is deleted and reported as ``(None, True)``; it is never
        trusted.
        """
        found = self.fetch_many([digest])
        return found.get(digest), digest in found and found[digest] is None

    def fetch_many(
        self, digests: "Iterable[str]"
    ) -> dict[str, Entry | None]:
        """Batched probe: every stored entry among ``digests``.

        A sweep probes *every* pending unit before dispatching
        anything; one ``SELECT`` per unit would pay the round-trip and
        B-tree descent thousands of times for a warm repeat sweep, so
        the probe is batched into ``IN (...)`` queries (chunked under
        sqlite's bound-parameter limit). A row that fails its sha256
        check (or does not decode) is deleted and maps to ``None``, so
        the caller can count it and re-evaluate its unit.
        """
        found: dict[str, Entry | None] = {}
        wanted = sorted(set(digests))
        if not wanted:
            return found
        conn = self._connect()
        for start in range(0, len(wanted), 500):
            chunk = wanted[start : start + 500]
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                f"SELECT digest, payload, sha FROM entries"
                f" WHERE digest IN ({marks})",
                chunk,
            ).fetchall()
            for digest, payload, sha in rows:
                found[digest] = None
                if _sha(payload) == sha:
                    try:
                        found[digest] = _decode(payload)
                    except (ValueError, TypeError):
                        pass  # undecodable despite a matching sha
        corrupt = [digest for digest, row in found.items() if row is None]
        if corrupt:
            conn.executemany(
                "DELETE FROM entries WHERE digest = ?",
                [(digest,) for digest in corrupt],
            )
            conn.commit()
        return found

    def store(self, digest: str, entry: Entry) -> None:
        """Upsert one entry; it replaces a stored row only when it
        covers more protocols (a row never shrinks)."""
        payload = _encode(entry)
        conn = self._connect()
        # ``created`` is a write sequence, not a wall-clock time: the
        # subquery runs inside the (serialised) write transaction, so
        # it is atomic — gc's "most recently written" ordering needs
        # nothing more.
        conn.execute(
            "INSERT INTO entries (digest, payload, sha, protocols, created)"
            " VALUES (?, ?, ?, ?,"
            "         (SELECT COALESCE(MAX(created), 0) + 1 FROM entries))"
            " ON CONFLICT(digest) DO UPDATE SET"
            " payload=excluded.payload, sha=excluded.sha,"
            " protocols=excluded.protocols, created=excluded.created"
            " WHERE excluded.protocols > entries.protocols",
            (digest, payload, _sha(payload), _protocols(entry)),
        )
        conn.commit()

    # -- maintenance (the ``repro cache`` subcommand) ------------------
    def stats(self) -> dict[str, object]:
        """Row count, on-disk schema version and file size.

        Reads the file as it is: unlike every other method it never
        migrates, so a store written under another
        :data:`SCHEMA_VERSION` is reported (``schema_version`` is the
        version on disk, ``None`` for a file without one) rather than
        discarded.
        """
        conn = sqlite3.connect(
            f"{self.path.resolve().as_uri()}?mode=ro", uri=True
        )
        try:
            tables = {
                name for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            version = None
            if "meta" in tables:
                row = conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                version = int(row[0]) if row is not None else None
            entries = 0
            if "entries" in tables:
                entries = conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()[0]
        except sqlite3.DatabaseError as exc:
            raise self._unusable(exc) from exc
        finally:
            conn.close()
        return {
            "path": str(self.path),
            "schema_version": version,
            "entries": entries,
            "file_bytes": self.path.stat().st_size,
        }

    def gc(self, keep: int) -> int:
        """Drop all but the ``keep`` most recently written rows.

        Returns the number of rows removed. The file is vacuumed so the
        space is actually released.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        conn = self._connect()
        before = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        conn.execute(
            "DELETE FROM entries WHERE digest NOT IN ("
            " SELECT digest FROM entries"
            " ORDER BY created DESC, digest LIMIT ?)",
            (keep,),
        )
        conn.commit()
        conn.execute("VACUUM")
        after = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        return before - after

    def clear(self) -> int:
        """Drop every row; returns how many were removed."""
        conn = self._connect()
        removed = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        conn.execute("DELETE FROM entries")
        conn.commit()
        conn.execute("VACUUM")
        return removed

    def digests(self) -> Iterator[str]:
        """All stored digests (test/diagnostic helper)."""
        conn = self._connect()
        for (digest,) in conn.execute(
            "SELECT digest FROM entries ORDER BY digest"
        ):
            yield digest

    def __len__(self) -> int:
        conn = self._connect()
        return int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])

    def __repr__(self) -> str:
        return f"PersistentStore({str(self.path)!r})"
