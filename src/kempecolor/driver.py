"""Main search loop: highest-conflict vertex choice, chains, restarts."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .conflicts import ConflictDictionary, conflict_level, kempe_start
from .graph import Graph
from .precolor import greedy_precolor, random_precolor
from .verifier import check_edge_coloring


class ParameterError(ValueError):
    """Run parameters incompatible with the target graph."""


@dataclass
class HeuristicParams:
    colors: int
    repetition_limit: int = 50
    iteration_limit: int = 50
    seed: int | None = None
    precolor_mode: str = "greedy"  # "greedy" or "random"

    def __post_init__(self):
        if self.repetition_limit < 0:
            raise ParameterError("repetition limit must be non-negative")
        if self.iteration_limit < 1:
            raise ParameterError("iteration limit must be positive")
        if self.precolor_mode not in ("greedy", "random"):
            raise ParameterError(f"unknown precolor mode {self.precolor_mode!r}")


@dataclass
class RunReport:
    success: bool
    passes: int
    wall_time: float
    final_conflictivity: int
    seed: int


def heuristic_pass(
    graph: Graph, colors: int, repetition_limit: int, rng: random.Random
) -> bool:
    """One pass over a totally colored graph; True iff all conflicts resolved.

    Repeatedly samples a vertex from the highest nonempty conflict bucket
    and launches a chain from it.  A counter of consecutive choices that
    failed to improve on the best conflictivity seen this pass triggers
    failure once it exceeds the repetition limit; it resets only on strict
    improvement below that best.
    """
    cd = ConflictDictionary(graph, colors)
    best = cd.total
    counter = 0
    while best > 0:
        v = cd.sample_max_level(rng)
        kempe_start(graph, cd, colors, v, rng)
        current = cd.total
        if current == 0:
            return True
        if current >= best:
            counter += 1
            if counter > repetition_limit:
                return False
        else:
            counter = 0
        best = min(best, current)
    return True


def apply_heuristic(graph: Graph, params: HeuristicParams) -> RunReport:
    """Run up to iteration_limit passes, each from a fresh pre-coloring.

    Rejects runs with fewer colors than the maximum degree (no proper
    coloring can exist).  A reported success is always re-checked by the
    independent verifier; if that check fails, RuntimeError is raised
    instead of a report.  A verified success reports final conflictivity
    0; a failed run reports a recount by ``conflict_level``, which shares
    no state with the search.  Identical graph and params (including seed)
    give an identical report and final coloring.  Without a seed, one is
    drawn from the system's entropy source and reported, so the run can be
    replayed.
    """
    if params.colors < graph.max_degree():
        raise ParameterError(
            f"{params.colors} colors cannot properly color a graph "
            f"with maximum degree {graph.max_degree()}"
        )
    seed = params.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    rng = random.Random(seed)
    precolor = greedy_precolor if params.precolor_mode == "greedy" else random_precolor
    start = time.perf_counter()
    success = False
    passes = 0
    for _ in range(params.iteration_limit):
        passes += 1
        precolor(graph, params.colors, rng)
        if heuristic_pass(graph, params.colors, params.repetition_limit, rng):
            success = True
            break
    wall = time.perf_counter() - start
    if success and not check_edge_coloring(graph, params.colors):
        raise RuntimeError("success reported for an improper coloring")
    # a verified coloring has total 0; only a failed run is recounted
    final = 0 if success else sum(conflict_level(graph, v) for v in range(graph.n))
    return RunReport(
        success=success,
        passes=passes,
        wall_time=wall,
        final_conflictivity=final,
        seed=seed,
    )
