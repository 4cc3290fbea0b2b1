"""The sharded on-disk result store — one format for offline and served paths.

Results are keyed by :func:`repro.api.session.request_digest` (the
SHA-256 of the canonical request JSON) and stored as

    <root>/<digest[:2]>/<digest>.json

— 256-way digest-prefix shards so a production store with millions of
entries never puts more than ~1/256th of them in one directory, and so
concurrent writers (worker processes, multiple server processes over
one store directory) contend on different directories.

Safety properties:

* **Atomic writes.**  Every entry is written to a temp file in the
  *destination shard* and published with ``os.replace`` — readers never
  observe a partial entry, and concurrent writers of the same digest
  race benignly (both write byte-identical canonical JSON; last rename
  wins).
* **Crash tolerance.**  A failed write never raises out of
  :meth:`put_text`; the entry is simply a miss next time.  Stray
  ``.tmp`` files from a killed writer are ignored by readers.
* **Corruption quarantine.**  Every read is validated (parseable
  JSON, or whatever the caller's decoder accepts) before it is
  served.  A zero-byte or truncated entry — a killed writer on a
  filesystem without atomic rename, a torn NFS write, bit rot — or
  one the decoder rejects is renamed to a ``<entry>.json.quarantine``
  sidecar (kept for inspection, invisible to readers) and reported as
  a miss, so the caller recomputes and rewrites; the store **never
  raises** on corrupt data.  The ``store.read.*`` / ``store.write.*``
  fault seams (:mod:`repro.resilience.faults`) inject exactly these
  failures for the chaos suite.

The store deals only in digest → JSON *text*.  Schema checks stay
with the callers: :meth:`ShardedResultStore.load` runs a caller's
decoder as the read's one parse (:class:`repro.api.session.ResultCache`
decodes straight to an ``AnalysisResult``), and the serving path
(:mod:`repro.serve.service`) ships the stored bytes verbatim — a warm
response is byte-identical to the cold one by construction.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

from repro.resilience import faults as _faults

logger = logging.getLogger("repro.serve")

#: Exactly the shape request_digest() produces.
_DIGEST_RE = re.compile(r"\A[0-9a-f]{64}\Z")

#: Hex characters of the digest used as the shard directory name.
SHARD_PREFIX_LEN = 2

T = TypeVar("T")


def is_digest(text: str) -> bool:
    """Whether ``text`` is a well-formed request digest (64 hex chars)."""
    return isinstance(text, str) and _DIGEST_RE.match(text) is not None


class ShardedResultStore:
    """A digest-keyed JSON store over 256 digest-prefix shards.

    Instances are cheap (no I/O at construction) and safe to share
    across threads; the counters are advisory (plain ints, updated
    without locking) and exist for the ``/v1/stats`` endpoint, not for
    correctness.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_errors = 0
        #: Entries that failed read validation (empty / unparseable).
        self.corrupt = 0
        #: Corrupt entries successfully renamed to their sidecar.
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def path(self, digest: str) -> str:
        """The sharded path of ``digest`` (whether or not it exists)."""
        self._check(digest)
        return os.path.join(
            self.root, digest[:SHARD_PREFIX_LEN], f"{digest}.json"
        )

    @staticmethod
    def _check(digest: str) -> None:
        if not is_digest(digest):
            raise ValueError(f"not a request digest: {digest!r}")

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get_text(self, digest: str) -> Optional[str]:
        """The stored JSON text for ``digest``, or None on a miss.

        An entry that fails validation (zero-byte / partial JSON left
        by a killed writer) is quarantined to a sidecar and treated as
        a miss — corruption never raises and never gets served.
        """
        entry = self.load(digest, json.loads)
        return None if entry is None else entry[0]

    def load(self, digest: str,
             decode: Callable[[str], T]) -> Optional[Tuple[str, T]]:
        """``(text, decode(text))`` for ``digest``, or None on a miss.

        ``decode`` is the read's validation and its only parse: an
        entry it rejects with ``ValueError`` (an empty or torn JSON
        document), ``KeyError`` or ``TypeError`` (valid JSON of the
        wrong shape) is quarantined like any corrupt entry and reads
        as a miss.
        """
        path = self.path(digest)
        text = self._read(path)
        if text is not None:
            try:
                value = decode(text)
            except (ValueError, KeyError, TypeError):
                self._quarantine(path, digest)
            else:
                self.hits += 1
                return text, value
        self.misses += 1
        return None

    def put_text(self, digest: str, text: str) -> bool:
        """Atomically store ``text`` under ``digest``.

        Returns False (never raises) when the write fails — the result
        was computed and the caller still has it; the store entry is
        just a miss next time.
        """
        self._check(digest)
        ok = self._write(digest, text)
        if ok:
            self.writes += 1
        else:
            self.write_errors += 1
        return ok

    def __contains__(self, digest: str) -> bool:
        return is_digest(digest) and os.path.exists(self.path(digest))

    @staticmethod
    def _read(path: str) -> Optional[str]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        if _faults.active():
            # Chaos seams store.read.truncate / store.read.empty: a
            # torn read, exercised like real on-disk corruption.
            text = _faults.corrupt_text("store.read", text)
        return text

    def _quarantine(self, path: str, digest: str) -> None:
        """Move a corrupt entry to its ``.quarantine`` sidecar.

        The sidecar keeps the bad bytes for post-mortem inspection;
        readers never look at it (it doesn't end in ``.json``), so the
        digest reads as a miss and the caller recomputes.  A failed
        rename (e.g. a concurrent reader already moved it) is ignored —
        the entry will be overwritten by the recompute either way.
        """
        self.corrupt += 1
        try:
            os.replace(path, path + ".quarantine")
            self.quarantined += 1
        except OSError:
            return
        logger.warning(
            "store quarantined corrupt entry for digest %s (%s)",
            digest, path,
        )

    def _write(self, digest: str, text: str) -> bool:
        if _faults.active():
            # Chaos seams store.write.truncate / store.write.empty: a
            # killed writer's partial flush, landed atomically so the
            # *read-side* hardening is what gets exercised.
            text = _faults.corrupt_text("store.write", text)
        shard = os.path.join(self.root, digest[:SHARD_PREFIX_LEN])
        tmp = None
        try:
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, os.path.join(shard, f"{digest}.json"))
            return True
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def iter_digests(self) -> Iterator[str]:
        """All digests currently stored."""
        try:
            top = os.listdir(self.root)
        except OSError:
            return
        for entry in sorted(top):
            path = os.path.join(self.root, entry)
            if len(entry) != SHARD_PREFIX_LEN or not os.path.isdir(path):
                continue
            try:
                names = os.listdir(path)
            except OSError:
                continue
            for name in sorted(names):
                digest = name[:-5] if name.endswith(".json") else ""
                if is_digest(digest):
                    yield digest

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_digests())

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
        }
