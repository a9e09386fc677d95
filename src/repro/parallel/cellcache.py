"""Content-addressed, disk-backed memoisation of campaign cells.

A campaign expands into independent *cells* (one experiment run each).
Cells are deterministic given their full specification, so a completed
cell can be persisted and reused across processes, crashes, and partial
edits: re-running a campaign only recomputes the cells whose
specification actually changed.

Keying
------
The cache key is the SHA-256 of the cell's *canonical token*: the kind
of run, workload identity (trace model, duration, seed), predictor,
policy/scheduler parameters, and the full
:class:`~repro.experiments.engine.EngineConfig` expanded field-by-field
by :func:`repro.experiments.cache.config_token`.  Because the token
reflects over ``dataclasses.fields``, a knob added to the engine later
(audit levels, fault models, quarantine caps, ...) automatically changes
the key — a stale hit on a config differing only in a late-added field
is structurally impossible.  A format version is folded into every key
so payload-layout changes invalidate old entries wholesale.

Storage
-------
One file per cell, named by its key.  Each file carries its own
integrity header (SHA-256 of the pickled payload) and is written with
the same temp-file + ``fsync`` + rename protocol as the durability
layer's :class:`~repro.durability.snapshot.SnapshotStore`, so a crash
mid-write can never leave a readable-but-torn entry.  Corrupt or
unreadable entries are treated as misses and deleted.

The cache is an accelerator, not the product: a ``put`` that keeps
failing (full disk, dead mount) is retried briefly and then the cache
*degrades* — further puts become no-ops, one warning is emitted, and the
campaign keeps computing results it simply cannot memoise.  Reads keep
working (misses at worst).
"""

from __future__ import annotations

import hashlib
import pickle
import time
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from repro.durability.snapshot import atomic_write
from repro.resilience.retry import RetryPolicy

__all__ = ["CellCache", "CELL_CACHE_FORMAT", "CACHE_IO_RETRY"]

#: Bump when the pickled payload layout changes incompatibly.
#: 2: event-queue heap entries are ``(time, priority, seq, event)``
#:    tuples and providers carry an idle-VM index; format-1 entries are
#:    keyed differently, so they are simply never hit again.
#: 3: pickled schedulers and results lost their fractional-fleet
#:    (allocator) fields.
CELL_CACHE_FORMAT = 3

#: Backoff between failed put attempts; short, because a campaign cell's
#: result is already in memory and the put blocks the fan-out loop.
CACHE_IO_RETRY = RetryPolicy(
    base_delay=0.05, max_delay=0.5, multiplier=3.0, max_attempts=8
)

#: Put retries before the cache degrades to write-disabled.
_PUT_RETRIES = 2

_MAGIC = b"repro-cell-cache\n"


class CellCache:
    """A directory of content-addressed experiment results."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: ``True`` once writes failed past their retry budget; further
        #: puts are silently skipped (reads still work).
        self.degraded = False

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key_of(token: object) -> str:
        """SHA-256 hex digest of a canonical cell token."""
        text = repr((CELL_CACHE_FORMAT, token))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def path_of(self, key: str) -> Path:
        return self.directory / f"cell-{key}.pkl"

    # -- access -------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The stored payload for *key*, or None on miss/corruption."""
        path = self.path_of(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if not raw.startswith(_MAGIC):
            path.unlink(missing_ok=True)
            return None
        body = raw[len(_MAGIC):]
        digest, _, blob = body.partition(b"\n")
        if hashlib.sha256(blob).hexdigest().encode("ascii") != digest:
            # Torn or tampered entry: recompute rather than trust it.
            path.unlink(missing_ok=True)
            return None
        try:
            return pickle.loads(blob)
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, payload: Any) -> bool:
        """Atomically persist *payload* under *key* (write-then-rename).

        Returns ``True`` on success.  Persistent ``OSError`` degrades the
        cache to write-disabled (with one warning) instead of raising —
        losing memoisation must never lose the computed result."""
        if self.degraded:
            return False
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest().encode("ascii")
        data = _MAGIC + digest + b"\n" + blob
        path = self.path_of(key)
        # Keys are SHA-256 hex, so the prefix is a deterministic,
        # per-entry jitter seed.
        rng = np.random.default_rng(int(key[:8], 16) if key else 0)
        delay = 0.0
        for attempt in range(_PUT_RETRIES + 1):
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                atomic_write(path, data, site="cellcache")
                return True
            except OSError as exc:
                if attempt >= _PUT_RETRIES:
                    self.degraded = True
                    warnings.warn(
                        f"cell cache at {self.directory} degraded to "
                        f"write-disabled after repeated I/O failures "
                        f"({exc}); campaign results are no longer being "
                        f"memoised",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    return False
                delay = CACHE_IO_RETRY.next_delay(delay, rng)
                time.sleep(delay)
        return False  # pragma: no cover - loop always returns

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("cell-*.pkl"))
