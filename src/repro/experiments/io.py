"""Saving and loading experiment artifacts (JSON + CSV).

Every figure driver returns in-memory containers; this module persists
them so long experiment runs can be archived and re-plotted without
re-running.  The JSON schema is versioned, and a figure reads back
exactly (:func:`figure_from_dict`, which the CLI's CSV export uses).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.experiments.runner import FigureData, Series
from repro.fl.metrics import TrainingHistory

SCHEMA_VERSION = 1


def write_json(path: str | Path, payload: dict, indent: int | None = 1) -> None:
    """Atomically write ``payload`` as JSON (tmp file + rename).

    Concurrent writers (the sweep orchestrator's pool workers and its
    results store) never leave a half-written artifact behind: readers
    see either the old file or the complete new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            fd = -1  # the handle owns it now
            json.dump(payload, handle, indent=indent)
        # mkstemp creates 0600; widen to the umask-derived mode a plain
        # open() would have used, so artifacts stay world-readable.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if fd >= 0:
            os.close(fd)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# FigureData
# ----------------------------------------------------------------------
def figure_to_dict(figure: FigureData) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "figure",
        "title": figure.title,
        "notes": list(figure.notes),
        "series": [
            {"label": s.label, "x": list(map(float, s.x)),
             "y": list(map(float, s.y))}
            for s in figure.series
        ],
    }


def figure_from_dict(data: dict) -> FigureData:
    _check(data, "figure")
    figure = FigureData(title=data["title"], notes=list(data.get("notes", [])))
    for s in data["series"]:
        figure.series.append(Series(s["label"], list(s["x"]), list(s["y"])))
    return figure


# ----------------------------------------------------------------------
# TrainingHistory
# ----------------------------------------------------------------------
def history_to_dict(history: TrainingHistory) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "history",
        "records": [
            {
                "round": r.round_index,
                "k": r.k,
                "round_time": r.round_time,
                "cumulative_time": r.cumulative_time,
                "loss": r.loss,
                "accuracy": r.accuracy,
                "uplink": r.uplink_elements,
                "downlink": r.downlink_elements,
                "contributions": {str(k): v for k, v in r.contributions.items()},
            }
            for r in history.records
        ],
    }


def export_figure_csv(figure: FigureData, path: str | Path) -> None:
    """Write the long-format CSV of a figure next to its JSON."""
    Path(path).write_text(figure.to_csv())


def _check(data: dict, kind: str) -> None:
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {data.get('schema')!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    if data.get("kind") != kind:
        raise ValueError(f"expected kind {kind!r}, got {data.get('kind')!r}")
