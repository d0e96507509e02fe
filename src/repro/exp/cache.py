"""On-disk result cache for experiment points.

Outcomes are stored content-addressed under a root directory (by
convention ``results/.cache/``), keyed by :meth:`RunPoint.cache_key` —
a stable hash of (config, traffic spec, rate, protocol, code version).
Re-running a collection script or resuming a crashed sweep then skips
every already-simulated point.

The layout is ``objects/<k[:2]>/<k[2:4]>/<key>.pkl`` — a two-level
fan-out over the key hash, so a shard serving millions of cached points
never piles every entry into 256 directories.  Anything else under the
root is not an entry and is ignored.

Entries are pickles written atomically (unique tmp file +
``os.replace``) so a killed run never leaves a truncated entry and
concurrent writers never clobber each other's tmp files; unreadable or
stale-schema entries are treated as misses.  Orphaned tmp files from
crashed writers are swept on cache construction once they are old
enough that no live writer can still own them.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.exp.spec import CACHE_SCHEMA

logger = logging.getLogger("repro.exp.cache")

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")

#: Subdirectory holding the content-addressed layout.
CAS_DIR = "objects"

#: Tmp files older than this are considered abandoned by a crashed
#: writer (a live ``store`` holds its tmp for milliseconds).
STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """Content-addressed pickle store with hit/miss counters."""

    def __init__(self, root=DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self._prefix = os.path.join(self.root, CAS_DIR, "")
        self.hits = 0
        self.misses = 0
        self.sweep_stale_tmp()

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}{os.sep}{key[2:4]}{os.sep}{key}.pkl"

    def _entry_paths(self) -> Iterator[Path]:
        """Every stored entry."""
        return self.root.glob(f"{CAS_DIR}/*/*/*.pkl")

    def _read(self, path: str):
        """One entry payload, or ``None`` on any unreadable/stale file."""
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except FileNotFoundError:
            return None
        except (OSError, pickle.PickleError, EOFError,
                AttributeError, ImportError, ValueError) as exc:
            logger.warning("cache entry %s unreadable (%s: %s); recomputing",
                           path, type(exc).__name__, exc)
            return None
        if not isinstance(payload, dict) or \
                payload.get("schema") != CACHE_SCHEMA:
            return None
        return payload

    def load(self, key: str):
        """The cached outcome for ``key``, or ``None`` on any miss
        (absent, unreadable, or written by an older schema).

        An *absent* entry is a silent miss; an entry that exists but
        cannot be read (truncated pickle, permission error, unpicklable
        class) is logged before being treated as a miss, so transient
        corruption degrades to recompute instead of killing the sweep.
        """
        payload = self._read(self._path(key))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload.get("outcome")

    def store(self, key: str, outcome) -> None:
        """Atomically persist one outcome.

        The tmp file name comes from ``mkstemp`` — PID suffixes collide
        between hosts sharing a cache over a network filesystem — and is
        unlinked on any failure so crashed writes leave no orphan."""
        path = self._path(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=f"{key}.pkl.tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump({"schema": CACHE_SCHEMA, "outcome": outcome}, f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def sweep_stale_tmp(self,
                        max_age_seconds: float = STALE_TMP_SECONDS) -> int:
        """Remove abandoned tmp files older than ``max_age_seconds``;
        returns the number removed.  Young tmp files are left alone —
        they may belong to a live concurrent writer."""
        removed = 0
        now = time.time()
        for tmp in self.root.glob(f"{CAS_DIR}/*/*/*.pkl.tmp*"):
            try:
                if now - tmp.stat().st_mtime >= max_age_seconds:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # a concurrent sweep or writer got there first
        return removed

    def prune(self, max_age_s: Optional[float] = None,
              max_entries: Optional[int] = None) -> int:
        """Evict entries, LRU by file mtime; returns the number removed.

        ``max_age_s`` drops every entry older than that many seconds;
        ``max_entries`` then keeps only the newest that many.  Both
        ``None`` is a no-op.  ``load`` refreshes nothing — mtime is
        write time — so "LRU" here is strictly least-recently-*stored*,
        which is the right policy for a long-lived server whose hot keys
        are re-stored only when the code version (and hence the key)
        changes.  Entries that vanish mid-scan (a concurrent prune or
        writer) are skipped, not errors.
        """
        if max_age_s is None and max_entries is None:
            return 0
        if max_age_s is not None and max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        entries = []
        for path in self._entry_paths():
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        entries.sort()  # oldest first
        doomed = []
        if max_age_s is not None:
            cutoff = time.time() - max_age_s
            doomed += [path for mtime, path in entries if mtime < cutoff]
            entries = [(m, p) for m, p in entries if m >= cutoff]
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            doomed += [path for _, path in entries[:excess]]
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def stats(self) -> dict:
        """Size and age accounting of the on-disk store plus this
        instance's hit/miss counters, as a JSON-safe dict."""
        entries = 0
        total_bytes = 0
        oldest = newest = None
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += stat.st_size
            if oldest is None or stat.st_mtime < oldest:
                oldest = stat.st_mtime
            if newest is None or stat.st_mtime > newest:
                newest = stat.st_mtime
        now = time.time()
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_age_s": now - oldest if oldest is not None else None,
            "newest_age_s": now - newest if newest is not None else None,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in list(self._entry_paths()):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
