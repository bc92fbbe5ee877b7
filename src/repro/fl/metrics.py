"""Round-level records and training history shared by all trainers."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RoundRecord:
    """Everything measured in one training round.

    ``cumulative_time`` is the normalized time at the *end* of the round
    (the x-axis of the paper's loss/accuracy-vs-time figures).
    """

    round_index: int
    k: float
    round_time: float
    cumulative_time: float
    loss: float
    accuracy: float | None = None
    uplink_elements: int = 0
    downlink_elements: int = 0
    contributions: dict[int, int] = field(default_factory=dict)


@dataclass
class TrainingHistory:
    """Ordered round records plus convenience accessors."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError("round indices must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Series accessors (x- and y-axes of the paper's figures)
    # ------------------------------------------------------------------
    def times(self) -> list[float]:
        return [r.cumulative_time for r in self.records]

    def losses(self) -> list[float]:
        return [r.loss for r in self.records]

    def accuracies(self) -> list[float]:
        return [r.accuracy for r in self.records if r.accuracy is not None]

    def ks(self) -> list[float]:
        return [r.k for r in self.records]

    def evaluated(self) -> list[RoundRecord]:
        """Records of the rounds that measured the loss.

        With ``eval_every > 1`` the rounds in between carry NaN.
        """
        return [r for r in self.records if not math.isnan(r.loss)]

    def loss_curve(self) -> tuple[list[float], list[float]]:
        """(normalized time, loss) over the evaluated rounds."""
        records = self.evaluated()
        return [r.cumulative_time for r in records], [r.loss for r in records]

    def accuracy_curve(self) -> tuple[list[float], list[float]]:
        """(normalized time, accuracy) over the evaluated rounds with one."""
        records = [r for r in self.evaluated() if r.accuracy is not None]
        return (
            [r.cumulative_time for r in records],
            [r.accuracy for r in records],
        )

    @property
    def final_loss(self) -> float:
        """Loss of the most recent round that evaluated.

        With ``eval_every > 1`` the rounds in between carry NaN; this skips
        back to the last real measurement.
        """
        for record in reversed(self.records):
            if not math.isnan(record.loss):
                return record.loss
        raise ValueError("history contains no evaluated rounds")

    @property
    def total_time(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].cumulative_time

    def loss_at_time(self, t: float) -> float:
        """Loss of the last evaluated round completed by normalized time ``t``.

        Before the first evaluated round the initial loss is unknown to
        the history, so that round's loss is returned.
        """
        records = self.evaluated()
        if not records:
            raise ValueError("history contains no evaluated rounds")
        best = records[0].loss
        for r in records:
            if r.cumulative_time <= t:
                best = r.loss
            else:
                break
        return best

    def time_to_loss(self, target: float) -> float | None:
        """Normalized time at which loss first reached ``target`` (or None)."""
        for r in self.records:
            if r.loss <= target:
                return r.cumulative_time
        return None

    def contribution_counts(self) -> dict[int, int]:
        """Total per-client contributed elements over all rounds.

        Feeds the CDF in Fig. 4 (right): number of gradient elements used
        from each client.
        """
        totals: dict[int, int] = {}
        for r in self.records:
            for cid, c in r.contributions.items():
                totals[cid] = totals.get(cid, 0) + c
        return totals

    def to_csv(self) -> str:
        """Serialize the per-round series as CSV text."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["round", "k", "round_time", "cumulative_time", "loss", "accuracy",
             "uplink_elements", "downlink_elements"]
        )
        for r in self.records:
            writer.writerow(
                [r.round_index, r.k, f"{r.round_time:.6g}",
                 f"{r.cumulative_time:.6g}", f"{r.loss:.6g}",
                 "" if r.accuracy is None else f"{r.accuracy:.6g}",
                 r.uplink_elements, r.downlink_elements]
            )
        return buf.getvalue()
