"""Content-addressed on-disk result store — sweeps become resumable.

The store maps a content hash (from :meth:`repro.engine.plan.PointSpec.key`,
which covers the snapshot fingerprint and every value-determining
parameter) to a small JSON payload, with an optional ``.npz`` sidecar
for array-valued results.  Because the key *is* the content, the store
needs no invalidation logic: a changed seed, grid, trial count or
snapshot config simply hashes to a different key, and a re-run of a
figure recomputes only the points it has never seen.

Layout (two-level fan-out keeps directories small)::

    reports/cache/
        ab/abc123....json        # point payload (JSON, NaN-tolerant)
        ab/abc123....npz         # optional array sidecar

All I/O goes through a :class:`repro.storage.StorageBackend` — the
default :class:`~repro.storage.local.LocalFSBackend` reproduces the
historical layout byte for byte (atomic temp-file + ``os.replace``
writes), and a :class:`~repro.storage.remote.RemoteObjectBackend`
makes the same cache fleet-shareable (write-through puts, read-through
local cache) so N workers drain one shared plan without recomputing
each other's points.  Unreadable or corrupt payloads are treated as
misses, *quarantined* (evicted together with their sidecar so a bad
artifact is never read twice), and recomputed — and a corrupt ``.npz``
sidecar gets exactly the same treatment as a corrupt ``.json`` payload.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.storage import LocalFSBackend, StorageBackend, StoreStats
from repro.storage.url import backend_from_spec

DEFAULT_CACHE_DIR = Path("reports") / "cache"

SCHEMA_VERSION = 1


def content_key(payload: dict, length: int | None = None) -> str:
    """The canonical content hash used for every store key.

    One shared idiom — sorted-key JSON through SHA-256 — so point specs
    (:meth:`repro.engine.plan.PointSpec.key`), family member keys,
    claim-block leases and snapshot fingerprints cannot drift onto
    incompatible hashing conventions.  ``length`` truncates the hex
    digest (fingerprints use 16 chars; full keys use all 64).
    """
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest if length is None else digest[:length]


class ResultStore:
    """A content-addressed JSON/NPZ store over a storage backend.

    ``hits``/``misses``/``writes`` count this instance's traffic — the
    resume tests (and the CLI's cache summary) read them to prove that a
    second run recomputed nothing; :attr:`statistics` adds evictions
    and the backend's byte traffic (:class:`~repro.storage.StoreStats`).
    """

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        backend: StorageBackend | None = None,
    ):
        if backend is None:
            backend = LocalFSBackend(
                DEFAULT_CACHE_DIR if root is None else root
            )
        elif root is not None and Path(root) != backend.root:
            raise ValueError(
                f"pass either root or backend, not both "
                f"(root={str(root)!r}, backend root={str(backend.root)!r})"
            )
        self.backend = backend

    def __repr__(self) -> str:
        return (
            f"ResultStore({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )

    @property
    def root(self) -> Path:
        return self.backend.root

    @property
    def statistics(self) -> StoreStats:
        """The full shared ledger (store counters + backend byte traffic)."""
        return self.backend.stats

    @property
    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    @property
    def hits(self) -> int:
        return self.backend.stats.hits

    @hits.setter
    def hits(self, value: int) -> None:
        self.backend.stats.hits = value

    @property
    def misses(self) -> int:
        return self.backend.stats.misses

    @misses.setter
    def misses(self, value: int) -> None:
        self.backend.stats.misses = value

    @property
    def writes(self) -> int:
        return self.backend.stats.writes

    @writes.setter
    def writes(self, value: int) -> None:
        self.backend.stats.writes = value

    def spec(self) -> dict:
        """A picklable description a worker process rebuilds from."""
        return {"store": "result", "backend": self.backend.spec()}

    def claim_board(self, *, owner: str | None = None, ttl_s: float | None = None):
        """A :class:`~repro.runtime.ClaimBoard` over this store's backend.

        Lease files land under ``claims/`` beside the payloads (same
        backend, same fleet visibility) with a ``.lease`` suffix, so
        :meth:`__len__` and :meth:`clear` — which look only at
        ``.json``/``.npz`` — never count or delete live coordination
        state.
        """
        from repro.runtime.claims import ClaimBoard

        return ClaimBoard(self.backend, owner=owner, ttl_s=ttl_s)

    @classmethod
    def from_spec(cls, spec: dict) -> "ResultStore":
        return cls(backend=backend_from_spec(spec["backend"]))

    def _key_for(self, key: str, suffix: str = ".json") -> str:
        if len(key) < 3:
            raise ValueError(f"store keys must be content hashes, got {key!r}")
        return f"{key[:2]}/{key}{suffix}"

    def path_for(self, key: str, suffix: str = ".json") -> Path:
        """Where a key's payload lives (two-level hex fan-out)."""
        return self.root / self._key_for(key, suffix)

    def contains(self, key: str) -> bool:
        """Whether a payload exists for ``key`` (does not touch counters)."""
        return self.backend.contains(self._key_for(key))

    def _quarantine(self, key: str) -> None:
        """Evict a corrupt entry (payload + sidecar) so it is never re-read.

        Under a local backend this deletes the files; under a remote
        one it drops only the cached copies — the authoritative remote
        object may be fine (the corruption local), and if it is not,
        the re-download-then-reparse will miss again without this
        worker destroying shared state.
        """
        evicted = False
        for suffix in (".json", ".npz"):
            evicted = self.backend.evict(self._key_for(key, suffix)) or evicted
        self.backend.stats.evictions += evicted

    # -- payloads -------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Load the JSON payload for ``key``; ``None`` (a miss) otherwise.

        A corrupt or unreadable payload counts as a miss and is
        quarantined together with its sidecar: resumability must never
        be worse than recomputing, and a bad artifact must never be
        parsed twice.
        """
        raw = self.backend.read_bytes(self._key_for(key))
        if raw is None:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._quarantine(key)
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self._quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        key: str,
        payload: dict,
        arrays: dict[str, np.ndarray] | None = None,
    ) -> Path:
        """Atomically persist ``payload`` (and optional array sidecar)."""
        payload = dict(payload)
        payload.setdefault("schema", SCHEMA_VERSION)
        payload["key"] = key
        if arrays is not None:
            # The sidecar goes first: a payload listing arrays that are
            # not yet readable would be a torn write.
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **arrays)
            self.backend.put_file(self._key_for(key, ".npz"), buffer.getvalue())
            payload["arrays"] = sorted(arrays)
        path = self.backend.put_file(
            self._key_for(key),
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )
        self.writes += 1
        return path

    def get_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Load the ``.npz`` sidecar for ``key``, if present and readable.

        A corrupt or truncated sidecar counts as a miss and quarantines
        the whole entry (payload included) — the payload's ``arrays``
        manifest promises data the sidecar can no longer deliver, so
        the pair must be recomputed together.
        """
        path = self.backend.open_local(self._key_for(key, ".npz"))
        if path is None:
            return None
        try:
            with np.load(path) as archive:
                return {name: archive[name] for name in archive.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):
            self._quarantine(key)
            return None

    # -- maintenance ----------------------------------------------------

    def __len__(self) -> int:
        """Number of stored payloads (walks the tree; for tests/tools)."""
        return sum(
            1 for key in self.backend.list_keys() if key.endswith(".json")
        )

    def clear(self) -> int:
        """Delete every stored payload and sidecar; returns the count."""
        removed = 0
        for key in self.backend.list_keys():
            if key.endswith((".json", ".npz")):
                self.backend.delete(key)
                removed += key.endswith(".json")
        return removed
