"""On-disk result cache for the sweep engine.

Successful runs are stored as one JSON file per
:meth:`~repro.harness.spec.RunSpec.fingerprint` under a cache root
(``$REPRO_CACHE_DIR``, default ``~/.cache/repro-tlr``).  Re-running a
figure then only simulates configurations whose fingerprint changed --
a different workload size, scheme, processor count, seed, or any other
:class:`~repro.harness.config.SystemConfig` field.

Only *successful* runs are cached: a livelocked or timed-out run may
succeed under a larger wall-clock ``timeout``, which is deliberately
not part of the fingerprint.

Entries live under a per-schema-version directory
(``<root>/v<FINGERPRINT_VERSION>/<fp[:2]>/<fp>.json``): bumping
:data:`~repro.harness.spec.FINGERPRINT_VERSION` changes every
fingerprint, so files written under an older version can never be hit
again and would otherwise accumulate forever.  :meth:`ResultCache.prune`
removes them; the first miss of a cache instance also prunes once, so
long-lived cache directories stay clean without anyone running the
command (``repro cache --prune``) by hand.

Entries are written atomically (temp file + rename) so concurrent
sweeps sharing a cache directory never observe torn JSON; unreadable
or stale-schema entries are treated as misses and dropped.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.harness.spec import FINGERPRINT_VERSION

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Root-level file holding hit/miss counters persisted across processes
#: (``repro cache --stats`` reads it; the job service merges into it on
#: shutdown).  Not an entry: prune/clear leave it alone.
STATS_FILE = "stats.json"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-tlr``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tlr"


class ResultCache:
    """Fingerprint-keyed store of serialized run results."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version_dir = self.root / f"v{FINGERPRINT_VERSION}"
        self.hits = 0
        self.misses = 0
        self._pruned = False

    def _path(self, fingerprint: str) -> Path:
        # Two-level fan-out keeps directories small on big sweeps.
        return self.version_dir / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[dict]:
        """The cached payload for ``fingerprint``, or ``None``.

        A corrupt or undecodable entry counts as a miss and is removed.
        The first miss also prunes superseded-version entries once per
        cache instance (cheap when there is nothing to do).
        """
        path = self._path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            self._prune_once()
            return None
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            self.invalidate(fingerprint)
            return None
        self.hits += 1
        return payload

    def put(self, fingerprint: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``fingerprint``."""
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry; returns whether anything was removed."""
        try:
            self._path(fingerprint).unlink()
            return True
        except OSError:
            return False

    def _prune_once(self) -> None:
        if not self._pruned:
            self._pruned = True
            self.prune()

    def prune(self, ttl: Optional[float] = None) -> int:
        """Remove entries that can never be hit again: files under
        superseded ``v<N>`` directories and entries from the original
        unversioned layout (``<root>/<xx>/<fp>.json``).  With ``ttl``
        (seconds), *current-version* entries older than that are evicted
        too, oldest first by modification time (``put`` rewrites the
        file, so the mtime is the last time the entry was produced --
        TTL eviction ages out results nobody regenerates).  Returns the
        number of entry files removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for child in list(self.root.iterdir()):
            if child == self.version_dir or not child.is_dir():
                continue
            stale = (child.name.startswith("v")
                     or len(child.name) == 2)  # pre-versioning fan-out
            if not stale:
                continue
            removed += sum(1 for _ in child.rglob("*.json"))
            shutil.rmtree(child, ignore_errors=True)
        if ttl is not None and self.version_dir.is_dir():
            import time
            cutoff = time.time() - ttl
            aged = []
            for path in self.version_dir.glob("*/*.json"):
                try:
                    mtime = path.stat().st_mtime
                except OSError:
                    continue
                if mtime < cutoff:
                    aged.append((mtime, path))
            for _mtime, path in sorted(aged):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Remove every entry (all schema versions); returns the number
        removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.rglob("*.json"):
            if path == self._stats_path():
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        """Entries usable under the current fingerprint schema."""
        if not self.version_dir.is_dir():
            return 0
        return sum(1 for _ in self.version_dir.glob("*/*.json"))

    # -- statistics -----------------------------------------------------
    def _stats_path(self) -> Path:
        return self.root / STATS_FILE

    def _load_counters(self) -> dict:
        try:
            with open(self._stats_path(), "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def persist_counters(self) -> dict:
        """Merge this instance's session hit/miss counters into
        ``<root>/stats.json`` (atomic replace) and reset them, so
        repeated persists never double-count.  Lifetime counters are
        advisory: two processes persisting at the same instant may lose
        an increment, which is acceptable for statistics."""
        merged = self._load_counters()
        merged["hits"] = merged.get("hits", 0) + self.hits
        merged["misses"] = merged.get("misses", 0) + self.misses
        self.hits = 0
        self.misses = 0
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(merged))
            os.replace(tmp, self._stats_path())
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return merged

    def stats(self) -> dict:
        """Cache footprint and counters: current-version entry count and
        byte size, lifetime hit/miss counters from ``stats.json``, and
        this instance's not-yet-persisted session counters."""
        entries = 0
        size = 0
        if self.version_dir.is_dir():
            for path in self.version_dir.glob("*/*.json"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        persisted = self._load_counters()
        return {
            "root": str(self.root),
            "fingerprint_version": FINGERPRINT_VERSION,
            "entries": entries,
            "bytes": size,
            "hits": persisted.get("hits", 0),
            "misses": persisted.get("misses", 0),
            "session_hits": self.hits,
            "session_misses": self.misses,
        }


def resolve_cache(cache) -> Optional[ResultCache]:
    """Normalize the public ``cache=`` argument.

    ``None``/``False`` disable caching, ``True`` uses the default
    directory, a path selects a directory, and a :class:`ResultCache`
    is used as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
