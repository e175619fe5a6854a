"""Pluggable persistent stores for the engine's shared artifacts.

The expensive artifacts of the SVC engine — compiled safe plans, lineage DNFs
and knowledge-compiled circuits — are pure data: they depend only on the
*content* of the ``(query, database)`` pair that produced them, never on
process state.  An :class:`ArtifactStore` exploits that purity: artifacts are
keyed by stable content hashes (SHA-256 over a canonical text rendering, never
Python's salted ``hash``), so the same query over the same data maps to the
same key in every process, on every machine.

Two backends ship with the package:

* :class:`MemoryStore` — a bounded in-process LRU; the default of
  :class:`repro.workspace.AttributionWorkspace`, sharing artifacts across the
  engines and sessions of one process,
* :class:`DiskStore`  — one pickle file per artifact under a directory, so
  plans, lineages and circuits survive process restarts and are shared
  between workspaces (and machines, if the directory is).

Robustness contract of every store: ``get`` returns ``None`` — a plain cache
miss — for absent, corrupted, truncated or version-mismatched entries; it
never raises.  ``put`` skips artifacts that cannot be serialised and *counts*
write failures (``put_failures`` in ``store_stats()``) after a bounded
deterministic retry.  The caller always recomputes on a miss and overwrites
on the next ``put``, so a damaged store heals itself.  Values round-trip
losslessly: every count and Shapley value derived from a stored artifact is a
bitwise-identical ``Fraction`` to one derived from a freshly computed
artifact (exact integer / rational arithmetic pickles exactly).

No silent corruption: disk entries are checksummed envelopes (SHA-256 over
the pickled payload, verified *before* deserialisation), so a bit flip that
still unpickles cleanly can never surface as a wrong artifact — and corrupt
files are moved to a ``quarantine/`` subdirectory exactly once, instead of
being re-read and re-missed forever, so operators can inspect what the
hardware did.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, TypeVar, runtime_checkable

from ..reliability import faults
from ..reliability.retry import RetryPolicy, call_with_retry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..counting.lineage import Lineage
    from ..data.database import PartitionedDatabase
    from ..queries.base import BooleanQuery

#: Bumped whenever the pickled artifact layout changes incompatibly; stored
#: entries carrying another version are treated as misses (recompute and
#: overwrite), never deserialised into the wrong shape.  Version 2 nests the
#: pickled payload as bytes under a SHA-256 checksum, so corruption is
#: detected before deserialisation; version-1 entries read as stale misses.
ARTIFACT_SCHEMA_VERSION = 2

#: Field / record separators of the canonical content texts (control
#: characters that cannot occur in relation or constant renderings).
_FIELD = "\x1f"
_RECORD = "\x1e"


@dataclass(frozen=True)
class ArtifactKey:
    """A typed store key: the artifact kind plus a stable content digest."""

    kind: str
    digest: str

    @property
    def filename(self) -> str:
        """The file name a disk-backed store uses for this key."""
        return f"{self.kind}-{self.digest}.pkl"


def _digest(*parts: str) -> str:
    return hashlib.sha256(_RECORD.join(parts).encode("utf-8")).hexdigest()


def _fact_text(f) -> str:
    """An *injective* rendering of a fact (unlike ``str``).

    ``str(Fact)`` joins term names with ``", "``, so a unary fact over the
    constant ``"a, b"`` renders exactly like a binary fact over ``"a"`` and
    ``"b"`` — and constants with commas arise naturally from CSV fields.
    Length-prefixing every component makes the concatenation unambiguous for
    arbitrary relation and constant strings, so distinct facts can never
    collide on one content hash.
    """
    parts = [f.relation] + [t.name for t in f.terms]
    return "".join(f"{len(p)}:{p}" for p in parts)


def query_content_text(query: "BooleanQuery") -> str:
    """A canonical text rendering of a query.

    Class name + the deterministic ``str`` form, plus the sorted relation
    names and length-prefixed constants (which disambiguate the ``str``
    rendering's one weak spot: a constant containing ``", "`` reads like an
    argument separator).  Equal queries built in different processes produce
    equal texts — the property the content hash needs.
    """
    relations = ",".join(sorted(query.relation_names()))
    constants = "".join(f"{len(c.name)}:{c.name}"
                        for c in sorted(query.constants(), key=lambda c: c.name))
    return _FIELD.join((type(query).__name__, str(query), relations, constants))


@lru_cache(maxsize=128)
def database_content_text(pdb: "PartitionedDatabase") -> str:
    """A canonical rendering of a partitioned database (sorted facts per part).

    Memoised on the (immutable, hashable) snapshot: one refresh derives
    several content keys from the same snapshot — lineage, support, and the
    incremental path's maintained view — and sorting the fact sets dominates
    the rendering.
    """
    endo = _FIELD.join(_fact_text(f) for f in sorted(pdb.endogenous))
    exo = _FIELD.join(_fact_text(f) for f in sorted(pdb.exogenous))
    return f"Dn{_FIELD}{endo}{_RECORD}Dx{_FIELD}{exo}"


def database_digest(pdb: "PartitionedDatabase") -> str:
    """The stable content hash of a snapshot (what serving keys requests on)."""
    return _digest(database_content_text(pdb))


def lineage_content_text(lineage: "Lineage") -> str:
    """A canonical rendering of a lineage (variable order + sorted clause sets)."""
    variables = _FIELD.join(_fact_text(f) for f in lineage.variables)
    clauses = _FIELD.join(
        ",".join(str(v) for v in sorted(clause))
        for clause in sorted(lineage.dnf.clauses, key=lambda c: sorted(c)))
    return f"vars{_FIELD}{variables}{_RECORD}clauses{_FIELD}{clauses}"


def plan_key(query: "BooleanQuery") -> ArtifactKey:
    """The store key of a compiled safe plan (depends on the query alone)."""
    return ArtifactKey("plan", _digest(query_content_text(query)))


def lineage_key(query: "BooleanQuery", pdb: "PartitionedDatabase") -> ArtifactKey:
    """The store key of a lineage (depends on query and database content)."""
    return ArtifactKey("lineage", _digest(query_content_text(query),
                                          database_content_text(pdb)))


def support_key(query: "BooleanQuery", pdb: "PartitionedDatabase") -> ArtifactKey:
    """The store key of a lineage-support union (same content as a lineage key).

    The support union — every fact occurring in some minimal support of the
    query in the snapshot — drives the workspace's delta invalidation; like
    the lineage it costs a homomorphism enumeration, so it is stored under
    the same ``(query, database)`` content and reused across refreshes and
    processes.
    """
    return ArtifactKey("support", _digest(query_content_text(query),
                                          database_content_text(pdb)))


def circuit_key(query: "BooleanQuery", lineage: "Lineage") -> ArtifactKey:
    """The store key of a compiled circuit: content hash of ``(query, lineage)``.

    Keying by lineage content (not database content) means every database
    snapshot with the *same* lineage — e.g. one that differs only in facts
    outside the query's support — reuses one compiled circuit.
    """
    return ArtifactKey("circuit", _digest(query_content_text(query),
                                          lineage_content_text(lineage)))


def pairs_key(query: "BooleanQuery", lineage: "Lineage") -> ArtifactKey:
    """The store key of one island's priced conditioned-pair record.

    Same content as a :func:`circuit_key` — ``(query, sub-lineage)`` — but a
    different kind: the stored artifact is the island's *swept* result
    (:class:`repro.engine.sharding.IslandPairs`), not its circuit, so a
    patched refresh whose delta left the island untouched skips the sweep
    too, not just the compile.
    """
    return ArtifactKey("pairs", _digest(query_content_text(query),
                                        lineage_content_text(lineage)))


def maintained_key(query: "BooleanQuery", pdb: "PartitionedDatabase") -> ArtifactKey:
    """The store key of a maintained minimal-support view.

    Keyed like a lineage — ``(query, database)`` content — since the view
    (:class:`repro.incremental.MaintainedLineage`) materialises exactly the
    enumeration a lineage build performs; a fresh process warm-starts the
    incremental path from this entry instead of re-enumerating.
    """
    return ArtifactKey("supports", _digest(query_content_text(query),
                                           database_content_text(pdb)))


@runtime_checkable
class ArtifactStore(Protocol):
    """What the engine needs from a store: get, put, and observability.

    Implementations must make ``get`` total (``None`` on any miss, absence or
    damage — never an exception) and ``put`` best-effort (silently skip what
    cannot be stored).  Stores are compared by identity, which is what the
    engine LRU keys on.
    """

    def get(self, key: ArtifactKey) -> "object | None":
        """The stored artifact, or ``None`` on a miss (absent/corrupt/stale)."""
        ...  # pragma: no cover - protocol

    def put(self, key: ArtifactKey, artifact: object) -> None:
        """Store an artifact under the key (best-effort, overwriting)."""
        ...  # pragma: no cover - protocol

    def stats(self) -> dict[str, int]:
        """Hit/miss/store counters (surfaced by workspace reports)."""
        ...  # pragma: no cover - protocol


T = TypeVar("T")


def cached(store: "ArtifactStore | None",
           key: "ArtifactKey | Callable[[], ArtifactKey]", kind: type,
           build: "Callable[[], T]",
           accept: "Callable[[T], bool] | None" = None) -> "T":
    """The artifact under ``key`` if it is a ``kind`` that ``accept``s, else ``build()``.

    The one lookup-or-compute step of every store reader.  A stored entry of
    another type — an older layout, a foreign payload — or one ``accept``
    rejects reads as a miss, never raises.  On a miss the built artifact is
    put under ``key`` unless it is ``None`` (``build`` returning ``None``
    means "no artifact"); exceptions from ``build`` propagate, nothing put.
    Without a store this is just ``build()``.  ``key`` may be a zero-argument
    callable, called only when a store is attached, so a storeless caller
    never hashes content.
    """
    if store is None:
        return build()
    if callable(key):
        key = key()
    found = store.get(key)
    if isinstance(found, kind) and (accept is None or accept(found)):
        return found
    artifact = build()
    if artifact is not None:
        store.put(key, artifact)
    return artifact


class MemoryStore:
    """A bounded in-process LRU artifact store (the workspace default).

    Artifacts are held by reference — a hit returns the very object that was
    put, so reuse is free and trivially bitwise-identical.  ``max_entries``
    bounds memory: least-recently-used entries are evicted first.

    All operations are thread-safe: the serving tier runs attributions on
    executor threads that share one store, so the LRU reordering, eviction
    loop and counters sit under one lock.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[ArtifactKey, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._patched = 0
        self._patch_fallbacks = 0

    def record_patch(self, fallback: bool = False) -> None:
        """Count one incremental refresh served against this store.

        ``fallback=True`` records a patch attempt that degraded to a cold
        recompute.  Kept out of :meth:`stats` (whose exact shape callers
        assert) and surfaced by :meth:`store_stats` for operators.
        """
        with self._lock:
            if fallback:
                self._patch_fallbacks += 1
            else:
                self._patched += 1

    def get(self, key: ArtifactKey) -> "object | None":
        with self._lock:
            try:
                artifact = self._entries.pop(key)
            except KeyError:
                self._misses += 1
                return None
            self._entries[key] = artifact  # re-insert: most recently used
            self._hits += 1
            return artifact

    def put(self, key: ArtifactKey, artifact: object) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = artifact
            self._stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "stores": self._stores, "evictions": self._evictions,
                    "entries": len(self._entries)}

    def store_stats(self) -> dict:
        """The counters plus the store's capacity configuration."""
        with self._lock:
            patched, fallbacks = self._patched, self._patch_fallbacks
        return {**self.stats(), "max_entries": self.max_entries,
                "patched": patched, "patch_fallbacks": fallbacks}


class DiskStore:
    """A directory of pickled artifacts, one file per content key.

    Entries are written atomically (temp file + ``os.replace``) and wrapped in
    a versioned, *checksummed* envelope: the payload pickle is nested as bytes
    under its SHA-256, verified before deserialisation.  ``get`` treats
    everything it cannot fully validate as a plain miss — stale schema
    versions and foreign payloads are (best-effort) deleted; corrupted or
    truncated entries are moved to a ``quarantine/`` subdirectory exactly
    once, so damage is inspectable and is never re-read into a second miss.
    A ``DiskStore`` therefore never fails a computation: at worst it degrades
    to recomputing.

    ``put`` retries transient ``OSError`` failures (full disk, flaky mount)
    under a bounded deterministic :class:`~repro.reliability.RetryPolicy`
    before giving up; exhausted writes are counted as ``put_failures``.  On
    open, leftover ``*.tmp`` files from writers that crashed mid-``put`` are
    swept (counted as ``tmp_swept``).

    ``max_bytes`` bounds the directory: after every successful ``put`` the
    least-recently-*used* entries (by file mtime — a ``get`` hit touches the
    file, so recency survives process restarts) are evicted until the total
    size fits.  ``None`` (the default) keeps the store unbounded, the
    pre-existing behaviour.

    Thread-safe: counters and the eviction pass sit under one lock, and the
    file operations themselves already tolerate concurrent eviction (writes
    are atomic replaces; reads, stats and unlinks treat a vanished file as a
    miss/skip) — several serving threads, or several processes, can hammer
    one directory.
    """

    def __init__(self, directory: "str | os.PathLike[str]",
                 max_bytes: "int | None" = None,
                 retry: "RetryPolicy | None" = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, backoff_s=0.005)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._invalid = 0
        self._put_failures = 0
        self._put_retries = 0
        self._quarantined = 0
        self._evictions = 0
        self._patched = 0
        self._patch_fallbacks = 0
        self._tmp_swept = self._sweep_tmp_files()

    def record_patch(self, fallback: bool = False) -> None:
        """Count one incremental refresh served against this store.

        ``fallback=True`` records a patch attempt that degraded to a cold
        recompute.  Kept out of :meth:`stats` (whose exact shape callers
        assert) and surfaced by :meth:`store_stats` for operators.
        """
        self._count("_patch_fallbacks" if fallback else "_patched")

    def _sweep_tmp_files(self) -> int:
        """Remove ``*.tmp`` leftovers of writers that crashed mid-``put``.

        Atomicity means a crashed writer can only ever leave a temp file, not
        a half-written entry — sweeping at open keeps the directory from
        accumulating dead bytes.  A concurrently *live* writer whose temp file
        vanishes underneath it fails its ``os.replace``, which the retry
        logic treats like any other transient write failure.
        """
        swept = 0
        for tmp in self.directory.glob("*.tmp"):
            try:
                tmp.unlink()
                swept += 1
            except OSError:
                continue
        return swept

    def _path(self, key: ArtifactKey) -> Path:
        return self.directory / key.filename

    @property
    def quarantine_directory(self) -> Path:
        """Where corrupt entries are moved (created on first quarantine)."""
        return self.directory / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move one corrupt entry into ``quarantine/`` (fall back to unlink).

        Either way the damaged file leaves the store directory exactly once:
        it can never be re-read into an endless miss-again loop, and when the
        move succeeds the evidence survives for inspection.
        """
        try:
            self.quarantine_directory.mkdir(exist_ok=True)
            os.replace(path, self.quarantine_directory / path.name)
        except OSError:
            self._discard(path)
        self._count("_quarantined")

    def _count(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def get(self, key: ArtifactKey) -> "object | None":
        path = self._path(key)
        try:
            faults.check("store.get.read")
            raw = path.read_bytes()
        except OSError:
            self._count("_misses")
            return None
        try:
            envelope = pickle.loads(raw)
            version = envelope["version"]
            kind = envelope["kind"]
            payload_blob = envelope["payload"]
            checksum = envelope["checksum"]
        except Exception:
            # Truncated file, corrupted bytes, not even a dict: damage.
            # Quarantined (not deleted): inspectable, and never re-read.
            self._quarantine(path)
            self._count("_misses")
            self._count("_invalid")
            return None
        if version != ARTIFACT_SCHEMA_VERSION or kind != key.kind:
            # Not damage — a stale schema or a foreign payload under our key.
            # Discard so the next put starts clean.
            self._discard(path)
            self._count("_misses")
            self._count("_invalid")
            return None
        if (not isinstance(payload_blob, bytes)
                or hashlib.sha256(payload_blob).hexdigest() != checksum):
            # The envelope unpickled but the payload bytes are not what was
            # written: the silent-corruption case the checksum exists for.
            self._quarantine(path)
            self._count("_misses")
            self._count("_invalid")
            return None
        try:
            artifact = pickle.loads(payload_blob)
        except Exception:
            self._quarantine(path)
            self._count("_misses")
            self._count("_invalid")
            return None
        try:
            os.utime(path)  # touch: mtime is the eviction recency signal
        except OSError:
            pass
        self._count("_hits")
        return artifact

    def put(self, key: ArtifactKey, artifact: object) -> None:
        try:
            payload_blob = pickle.dumps(artifact)
        except Exception:
            self._count("_put_failures")  # unpicklable artifact: skip, don't fail
            return
        blob = pickle.dumps({"version": ARTIFACT_SCHEMA_VERSION,
                             "kind": key.kind,
                             "checksum": hashlib.sha256(payload_blob).hexdigest(),
                             "payload": payload_blob})

        def write_once() -> None:
            faults.check("store.put.write")
            # A "corrupt"/"truncate" fault mangles the bytes *silently* —
            # the write succeeds; detection is get()'s checksum's job.
            out = faults.mangle("store.put.write", blob)
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(out)
                os.replace(tmp_name, self._path(key))
            except BaseException:
                self._discard(Path(tmp_name))
                raise

        try:
            call_with_retry(write_once, self.retry, retry_on=(OSError,),
                            on_retry=lambda *_: self._count("_put_retries"))
        except OSError:
            self._count("_put_failures")  # retries exhausted: the store degrades
            return
        self._count("_stores")
        self._evict_to_budget()

    def _entries_by_recency(self) -> "list[tuple[float, int, Path]]":
        """``(mtime, size, path)`` of every entry, least recently used first.

        Entries that vanish mid-scan (another process evicting the shared
        directory) are simply skipped.
        """
        entries = []
        for path in self.directory.glob("*.pkl"):
            try:
                status = path.stat()
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
        entries.sort()
        return entries

    def _evict_to_budget(self) -> None:
        """Drop least-recently-used entries until the directory fits ``max_bytes``.

        The entry just written carries the newest mtime, so it is evicted only
        when it alone exceeds the budget — an over-budget store never grows,
        even under adversarial artifact sizes.
        """
        if self.max_bytes is None:
            return
        with self._lock:
            entries = self._entries_by_recency()
            total = sum(size for _, size, _ in entries)
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                self._discard(path)
                self._evictions += 1
                total -= size

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def total_bytes(self) -> int:
        """Current on-disk footprint of the store's entries."""
        return sum(size for _, size, _ in self._entries_by_recency())

    def quarantine_entries(self) -> int:
        """How many corrupt entries sit in ``quarantine/`` right now."""
        if not self.quarantine_directory.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_directory.glob("*.pkl"))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "stores": self._stores, "invalid": self._invalid,
                    "put_failures": self._put_failures,
                    "put_retries": self._put_retries,
                    "quarantined": self._quarantined,
                    "tmp_swept": self._tmp_swept,
                    "evictions": self._evictions}

    def store_stats(self) -> dict:
        """The counters plus the store's size and capacity configuration."""
        with self._lock:
            patched, fallbacks = self._patched, self._patch_fallbacks
        return {**self.stats(), "entries": len(self),
                "quarantine_entries": self.quarantine_entries(),
                "total_bytes": self.total_bytes(), "max_bytes": self.max_bytes,
                "patched": patched, "patch_fallbacks": fallbacks}


__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactKey",
    "ArtifactStore",
    "DiskStore",
    "MemoryStore",
    "cached",
    "circuit_key",
    "database_content_text",
    "database_digest",
    "lineage_content_text",
    "lineage_key",
    "maintained_key",
    "pairs_key",
    "plan_key",
    "query_content_text",
    "support_key",
]
