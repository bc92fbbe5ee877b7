"""Client-availability processes: who *can* participate in a round.

The paper's protocol assumes every sampled client computes and uploads;
deployment reality (its Section VI remark on heterogeneous clients, and
every production FL system) is that devices come and go — phones leave
Wi-Fi, laptops sleep, edge nodes reboot.  An availability process answers,
for each round ``m``, "which clients are online?"; the
:class:`~repro.scenarios.scenario.ScenarioSampler` then samples the
round's cohort from that set only.

Determinism contract (load-bearing for backend bit-identity): the set of
available clients is a pure function of ``(construction arguments,
round_index)`` — it never reads training state, wall-clock, or global
RNG, and repeated queries for the same round return the same ids.  All
three execution backends consult availability in the parent process in
the same order, so scenario runs stay bit-identical across serial,
vectorized and sharded execution.

Four processes ship:

- :class:`AlwaysAvailable` — the degenerate process; a scenario built on
  it reproduces the plain (scenario-free) trainer exactly.
- :class:`MarkovAvailability` — per-client two-state (on/off) Markov
  chains, the standard churn model: an online client drops with
  ``p_drop`` per round, an offline one recovers with ``p_recover``.
- :class:`DiurnalAvailability` — deterministic day/night duty cycle with
  a seeded per-client phase, modelling timezone-spread populations.
- :class:`TraceAvailability` — replay of an explicit per-round schedule
  (inline or from a JSON file), for reproducing a recorded deployment.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class ClientAvailability:
    """Interface: the deterministic per-round set of online clients."""

    def __init__(self, client_ids: list[int]) -> None:
        if not client_ids:
            raise ValueError("need at least one client")
        if len(set(client_ids)) != len(client_ids):
            raise ValueError("duplicate client ids")
        self.client_ids = sorted(int(c) for c in client_ids)

    def available_ids(self, round_index: int) -> list[int]:
        """Sorted ids of the clients online in round ``round_index`` (1-based).

        May be empty; callers decide how an empty round is handled (the
        scenario sampler waits the round out on the full population).
        """
        raise NotImplementedError

    def _check_round(self, round_index: int) -> None:
        if round_index < 1:
            raise ValueError("round_index is 1-based and must be >= 1")


class AlwaysAvailable(ClientAvailability):
    """Every client is online every round (the paper's implicit model)."""

    def available_ids(self, round_index: int) -> list[int]:
        self._check_round(round_index)
        return list(self.client_ids)


class MarkovAvailability(ClientAvailability):
    """Independent per-client on/off Markov chains (seeded).

    All clients start online; each round an online client goes offline
    with probability ``p_drop`` and an offline one comes back with
    probability ``p_recover``.  States are extended lazily and cached, so
    querying any round (in any order, repeatedly) yields one fixed
    realization of the chain per (seed, p_drop, p_recover, client set).
    """

    def __init__(
        self,
        client_ids: list[int],
        p_drop: float = 0.1,
        p_recover: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(client_ids)
        if not 0.0 <= p_drop <= 1.0 or not 0.0 <= p_recover <= 1.0:
            raise ValueError("transition probabilities must be in [0, 1]")
        self.p_drop = p_drop
        self.p_recover = p_recover
        self._rng = np.random.default_rng((seed, 0xC4A1))
        # _states[m] is the (num_clients,) online mask of round m+1.
        self._states: list[np.ndarray] = []

    def available_ids(self, round_index: int) -> list[int]:
        self._check_round(round_index)
        while len(self._states) < round_index:
            if not self._states:
                prev = np.ones(len(self.client_ids), dtype=bool)
            else:
                prev = self._states[-1]
            draw = self._rng.random(len(self.client_ids))
            nxt = np.where(prev, draw >= self.p_drop, draw < self.p_recover)
            self._states.append(nxt)
        mask = self._states[round_index - 1]
        return [cid for cid, up in zip(self.client_ids, mask) if up]


class DiurnalAvailability(ClientAvailability):
    """Deterministic duty cycle with a seeded per-client phase.

    Client ``i`` is online in round ``m`` iff
    ``(m - 1 + phase_i) mod period < duty * period`` — a population
    spread over timezones where each device is up for a fixed fraction
    of every ``period``-round "day".
    """

    def __init__(
        self,
        client_ids: list[int],
        period: int = 24,
        duty: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(client_ids)
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 < duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        self.period = period
        self.duty = duty
        rng = np.random.default_rng((seed, 0xD1A7))
        self._phases = rng.integers(0, period, size=len(self.client_ids))
        self._window = max(1, int(round(duty * period)))

    def available_ids(self, round_index: int) -> list[int]:
        self._check_round(round_index)
        slot = (round_index - 1 + self._phases) % self.period
        return [
            cid
            for cid, s in zip(self.client_ids, slot)
            if s < self._window
        ]


class TraceAvailability(ClientAvailability):
    """Replay an explicit per-round availability schedule.

    ``rounds`` is a sequence of id lists: ``rounds[m - 1]`` is the online
    set of round ``m``.  Past the end the trace either cycles
    (``cycle=True``, the default) or holds its last entry — both keep
    arbitrarily long runs well-defined.  Ids not in ``client_ids`` are a
    construction error (a trace for the wrong federation).
    """

    def __init__(
        self,
        client_ids: list[int],
        rounds: list[list[int]],
        cycle: bool = True,
    ) -> None:
        super().__init__(client_ids)
        if not rounds:
            raise ValueError("trace needs at least one round entry")
        known = set(self.client_ids)
        self.rounds = []
        for entry in rounds:
            ids = sorted(int(c) for c in entry)
            unknown = [c for c in ids if c not in known]
            if unknown:
                raise ValueError(f"trace names unknown client ids {unknown}")
            if len(set(ids)) != len(ids):
                raise ValueError("duplicate ids in a trace round")
            self.rounds.append(ids)
        self.cycle = cycle

    def available_ids(self, round_index: int) -> list[int]:
        self._check_round(round_index)
        if self.cycle:
            entry = self.rounds[(round_index - 1) % len(self.rounds)]
        else:
            entry = self.rounds[min(round_index - 1, len(self.rounds) - 1)]
        return list(entry)


def load_trace_json(path: str | Path) -> tuple[list[list[int]], bool]:
    """Parse the trace-schedule JSON schema: ``(rounds, cycle)``.

    The one place the ``{"rounds": ..., "cycle": ...}`` schema is read
    (the CLI's ``--trace`` flag).
    """
    data = json.loads(Path(path).read_text())
    if "rounds" not in data:
        raise ValueError(f"{path}: trace JSON needs a 'rounds' key")
    return data["rounds"], bool(data.get("cycle", True))
