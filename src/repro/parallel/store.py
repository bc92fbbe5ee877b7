"""Content-addressed on-disk store for completed experiment runs.

The sweep orchestrator caches every finished run under a key derived
from the run's *content* — the figure name plus the full experiment
configuration — so a re-run of a sweep recomputes only the entries whose
configuration actually changed.  Keys are hex SHA-256 digests of the
canonical (sorted-key, separator-free) JSON encoding of the spec; any
field change, including seed or backend, yields a new key, while field
order and formatting never do.

Entries are single JSON files (``<key>.json``) written atomically, so a
store shared by several sweep processes is safe: concurrent writers of
the same key produce the same content, and readers never observe a
partial file.  Execution backend choice is deliberately *part* of the
key even though histories are backend-independent — a cache hit must
prove the exact requested configuration ran, not an equivalent one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.io import write_json

STORE_VERSION = 1


def canonical_json(payload: dict) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(spec: dict) -> str:
    """Hex digest addressing ``spec``; stable across field order."""
    body = canonical_json({"store_version": STORE_VERSION, "spec": spec})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ResultsStore:
    """A directory of ``<content key> -> JSON payload`` cache entries."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: lifetime load() outcomes; the sweep report surfaces these as
        #: first-class fields (no log grepping).
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> dict | None:
        """The cached payload, or None when missing or unreadable.

        A corrupt entry (interrupted legacy writer, disk fault) is
        treated as a miss — the run recomputes and overwrites it.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        path = self.path_for(key)
        write_json(path, payload, indent=None)
        return path
