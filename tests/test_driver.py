import random
from dataclasses import replace

import pytest

import kempecolor.driver as driver
from kempecolor import (
    ConflictDictionary,
    HeuristicParams,
    ParameterError,
    apply_heuristic,
    check_edge_coloring,
    greedy_precolor,
    heuristic_pass,
    random_precolor,
    random_regular_graph,
)


def test_pass_immediate_success_on_proper_coloring(triangle):
    for (u, v), c in zip(triangle.edges(), [0, 1, 2]):
        triangle.set_edge_color(u, v, c)
    assert heuristic_pass(triangle, 3, 50, random.Random(0))
    # untouched: the coloring was already proper
    assert [triangle.edge_color(u, v) for u, v in triangle.edges()] == [0, 1, 2]


def test_pass_solves_triangle(triangle):
    for u, v in triangle.edges():
        triangle.set_edge_color(u, v, 0)
    assert heuristic_pass(triangle, 3, 50, random.Random(0))
    assert check_edge_coloring(triangle, 3)


def test_pass_fails_on_petersen_with_three_colors(petersen):
    # chi'(Petersen) = 4, so no pass can succeed with 3 colors
    for u, v in petersen.edges():
        petersen.set_edge_color(u, v, 0)
    assert not heuristic_pass(petersen, 3, 50, random.Random(0))


def test_k4_succeeds_quickly(k4):
    report = apply_heuristic(k4, HeuristicParams(colors=3, seed=0))
    assert report.success
    assert report.passes <= 5
    assert report.final_conflictivity == 0
    assert check_edge_coloring(k4, 3)


def test_petersen_fails_with_three_colors_after_l_passes(petersen):
    report = apply_heuristic(petersen, HeuristicParams(colors=3, seed=0))
    assert not report.success
    assert report.passes == 50
    assert report.final_conflictivity > 0
    # the final recount agrees with a dictionary built on the coloring left
    assert report.final_conflictivity == ConflictDictionary(petersen, 3).total


def test_failed_run_reports_an_independent_recount(petersen):
    # counted from the final coloring alone, with no search structure
    report = apply_heuristic(petersen, HeuristicParams(colors=3, seed=1))
    assert not report.success
    recount = sum(
        petersen.degree(v) - len(set(petersen.incident_colors(v))) for v in range(petersen.n)
    )
    assert report.final_conflictivity == recount > 0


def test_verified_success_is_not_recounted(k4, monkeypatch):
    # the verifier vouches for a success, so no vertex is recounted after it
    calls = []
    monkeypatch.setattr(driver, "conflict_level", lambda *args: calls.append(args))
    report = apply_heuristic(k4, HeuristicParams(colors=3, seed=0))
    assert report.success
    assert report.final_conflictivity == 0
    assert calls == []


def test_one_dictionary_build_per_pass(petersen, monkeypatch):
    builds = []

    def counting(*args):
        builds.append(args)
        return ConflictDictionary(*args)

    monkeypatch.setattr(driver, "ConflictDictionary", counting)
    report = apply_heuristic(petersen, HeuristicParams(colors=3, seed=0, iteration_limit=4))
    assert report.passes == 4
    assert len(builds) == 4


def edge_colors(g):
    return [g.edge_color(u, v) for u, v in g.edges()]


def test_unseeded_run_reports_a_seed_that_replays_it(petersen):
    params = HeuristicParams(colors=3, iteration_limit=3)
    first = apply_heuristic(petersen, params)
    first_coloring = edge_colors(petersen)
    assert isinstance(first.seed, int)
    again = apply_heuristic(petersen, replace(params, seed=first.seed))
    assert again.seed == first.seed
    assert edge_colors(petersen) == first_coloring
    assert again.passes == first.passes
    assert again.final_conflictivity == first.final_conflictivity


def test_petersen_succeeds_with_four_colors(petersen):
    report = apply_heuristic(petersen, HeuristicParams(colors=4, seed=0))
    assert report.success
    assert check_edge_coloring(petersen, 4)


def test_rejects_too_few_colors(k4):
    with pytest.raises(ParameterError):
        apply_heuristic(k4, HeuristicParams(colors=2, seed=0))


def test_edgeless_graph_succeeds_trivially():
    from kempecolor import Graph

    report = apply_heuristic(Graph(3, []), HeuristicParams(colors=1, seed=0))
    assert report.success
    assert report.passes == 1


@pytest.mark.parametrize("precolor_mode", ["greedy", "random"])
def test_determinism_same_seed_same_run(petersen, precolor_mode):
    params = HeuristicParams(colors=4, seed=1234, precolor_mode=precolor_mode)
    first = apply_heuristic(petersen, params)
    first_coloring = [petersen.edge_color(u, v) for u, v in petersen.edges()]
    second = apply_heuristic(petersen, params)
    second_coloring = [petersen.edge_color(u, v) for u, v in petersen.edges()]
    assert first.success == second.success
    assert first.passes == second.passes
    assert first.final_conflictivity == second.final_conflictivity
    assert first_coloring == second_coloring


def test_pass_limit_respected(petersen):
    for limit in (1, 3, 7):
        report = apply_heuristic(
            petersen, HeuristicParams(colors=3, seed=0, iteration_limit=limit)
        )
        assert not report.success
        assert report.passes == limit


def test_random_precolor_mode_works(k4):
    report = apply_heuristic(
        k4, HeuristicParams(colors=3, seed=0, precolor_mode="random")
    )
    assert report.success


def test_param_validation():
    with pytest.raises(ParameterError):
        HeuristicParams(colors=3, repetition_limit=-1)
    with pytest.raises(ParameterError):
        HeuristicParams(colors=3, iteration_limit=0)
    with pytest.raises(ParameterError):
        HeuristicParams(colors=3, precolor_mode="fancy")


def test_success_recheck_holds_under_optimize(run_optimized):
    # with heuristic_pass stubbed to claim success, a triangle with 2 colors
    # must raise, not report success, even when python -O strips asserts
    script = (
        "import kempecolor.driver as d\n"
        "from kempecolor import Graph, HeuristicParams\n"
        "d.heuristic_pass = lambda *args: True\n"
        "g = Graph(3, [(0, 1), (1, 2), (2, 0)])\n"
        "try:\n"
        "    report = d.apply_heuristic(g, HeuristicParams(colors=2, seed=0))\n"
        "except RuntimeError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('reported:', report.success, report.final_conflictivity)\n"
    )
    assert run_optimized(script) == "raised: success reported for an improper coloring\n"


class BitsOnlyRandom(random.Random):
    """A generator whose Python-level draw methods raise: only getrandbits works."""

    def randrange(self, *args, **kwargs):
        raise AssertionError("randrange called on the search path")

    choice = _randbelow = randrange


@pytest.mark.parametrize("n, d", [(200, 3), (60, 15)])
def test_search_draws_only_with_getrandbits(n, d):
    # both pre-colorings and a pass draw through getrandbits alone, the same
    # draws randrange and choice would make
    g = random_regular_graph(n, d, random.Random(n))
    for precolor in (greedy_precolor, random_precolor):
        runs = []
        for rng in (random.Random(7), BitsOnlyRandom(7)):
            precolor(g, d, rng)
            solved = heuristic_pass(g, d, 50, rng)
            runs.append((list(g.colors), solved, rng.getstate()))
        assert runs[0] == runs[1]
