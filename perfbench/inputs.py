"""Seeded input generation for every workload.

Everything the program under test receives is produced here from the
workload seed alone, so one seed always yields the same inputs.  This
module imports nothing from the program, which keeps it importable (and
testable) without the source tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("cli-cold", "search-heavy", "serve-mixed", "fleet-sweep")

#: cli-cold: ``pase search --model M --p 16`` with default flags.
CLI_MODELS = ("alexnet", "rnnlm", "transformer", "inception_v3")
CLI_P = 16


@dataclass(frozen=True)
class SearchProblem:
    """One in-process ``repro.api.search`` call of search-heavy."""

    model: str
    p: int
    reduce: "bool | str"
    objective: str

    @property
    def name(self) -> str:
        tag = "frontier" if self.objective.startswith("frontier") else "scalar"
        return f"{tag}.{self.model}-p{self.p}"

    @property
    def is_frontier(self) -> bool:
        return self.objective.startswith("frontier")


#: search-heavy: scalar problems first, then frontier problems.  Exact
#: transformer frontiers are left out: p8 alone takes minutes.
SEARCH_PROBLEMS = (
    SearchProblem("inception_v3", 16, False, "cost"),
    SearchProblem("transformer", 16, "auto", "cost"),
    SearchProblem("transformer", 32, "auto", "cost"),
    SearchProblem("alexnet", 32, False, "cost"),
    SearchProblem("alexnet", 16, False, "frontier"),
    SearchProblem("alexnet", 32, False, "frontier"),
    SearchProblem("rnnlm", 16, False, "frontier"),
    SearchProblem("inception_v3", 8, False, "frontier:eps=10"),
)

#: serve-mixed: the small problems both hits and misses are drawn from.
SERVE_PROBLEMS = tuple((m, p) for m in ("rnnlm", "alexnet", "transformer")
                       for p in (8, 16))
#: Offered load (requests per second, Poisson).  At this rate two client
#: connections are rarely both busy, so the generator seldom runs late.
SERVE_RATE = 3.0
#: Share of cache hits.  An assumption, not a measurement: there is no
#: traffic record to take a mix from.  The tail is reported per class
#: (``wall_tail_s`` is the geometric mean of the hit and the miss tail),
#: so the split shapes only ``slo_share`` and how busy the pool is.  The
#: hot set is one request per problem in `SERVE_PROBLEMS`.
SERVE_HIT_SHARE = 0.5
#: Latency limits per request class (seconds).
SERVE_LIMITS = {"hit": 0.050, "miss": 1.0}

#: fleet-sweep grid axes; seeds are drawn per workload seed.
FLEET_MODELS = ("alexnet", "rnnlm")
FLEET_PS = (2, 4, 8)
FLEET_N_SEEDS = 4
FLEET_WORKERS = 2

#: Per-operation limits (seconds) behind ``slo_share``, for the
#: workloads whose operations are not served requests.
OP_LIMITS = {"cli-cold": 5.0, "search-heavy": 10.0, "fleet-sweep": 10.0}

#: Every generated schedule is this long; runs stop on time long before.
MAX_ROUNDS = 512


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def rounds(seed: int, workload: str, items) -> list:
    """``items`` in seeded rounds: one fresh permutation per round.

    The order of cli-cold's models and of search-heavy's problems.
    """
    rng = _rng(seed, workload)
    order: list = []
    for _ in range(MAX_ROUNDS):
        round_ = list(items)
        rng.shuffle(round_)
        order.extend(round_)
    return order


@dataclass(frozen=True)
class ServeRequest:
    """One request of the serve-mixed open loop."""

    due: float            # seconds after the load starts
    kind: str             # "hit" or "miss"
    model: str
    p: int
    seed: int

    def body(self) -> dict:
        return {"model": self.model, "p": self.p, "seed": self.seed}


def _balanced(rng: random.Random, items: list, n: int) -> list:
    """``n`` draws covering ``items`` as evenly as possible, shuffled."""
    out = (items * (n // len(items) + 1))[:n]
    rng.shuffle(out)
    return out


def serve_plan(seed: int, seconds: float) -> tuple[list[ServeRequest],
                                                   list[ServeRequest]]:
    """The hot set warmed in setup, and the timed open-loop schedule.

    Arrivals are a Poisson process at `SERVE_RATE` conditioned on its
    count: ``rate * seconds`` requests at sorted uniform times.  The
    counts of hits, and of misses per problem, are fixed; only which
    request comes when is drawn from the seed.  Hits repeat a hot-set
    request exactly; every miss carries a search seed no earlier request
    used, so its fingerprint is fresh while its problem (and so its cost
    tables) is one the server has seen.
    """
    rng = _rng(seed, "serve-mixed")
    base = rng.randrange(1 << 20) * 1024
    hot = [ServeRequest(0.0, "warm", m, p, base + i)
           for i, (m, p) in enumerate(SERVE_PROBLEMS)]
    n = int(round(SERVE_RATE * seconds))
    n_hit = int(round(n * SERVE_HIT_SHARE))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    kinds = _balanced(rng, ["hit"] * n_hit + ["miss"] * (n - n_hit), n)
    hits = iter(_balanced(rng, hot, n_hit))
    misses = iter(_balanced(rng, list(SERVE_PROBLEMS), n - n_hit))
    fresh = base + len(hot)
    load: list[ServeRequest] = []
    for t, kind in zip(times, kinds):
        if kind == "hit":
            h = next(hits)
            load.append(ServeRequest(t, "hit", h.model, h.p, h.seed))
        else:
            m, p = next(misses)
            load.append(ServeRequest(t, "miss", m, p, fresh))
            fresh += 1
    return hot, load


def fleet_spec(seed: int) -> dict:
    """The 24-task sweep grid for fleet-sweep, as a sweep-spec dict."""
    rng = _rng(seed, "fleet-sweep")
    seeds = sorted(rng.sample(range(1 << 16), FLEET_N_SEEDS))
    return {"models": list(FLEET_MODELS), "ps": list(FLEET_PS),
            "methods": ["ours"], "seeds": seeds}


def fleet_problems() -> list[tuple[str, int]]:
    return [(m, p) for m in FLEET_MODELS for p in FLEET_PS]
