"""Seeded instance generation: determinism, thinning, validity."""

import pytest

from cfevrp import generator
from cfevrp.errors import GenerationFailed
from cfevrp.fileio import dumps_canonical, instance_to_json
from cfevrp.generator import GenParams, _grid_segments, generate_instance


def test_same_seed_same_instance():
    p = GenParams(nodes=15, vehicles=2, jobs=2, horizon=20)
    a = generate_instance(1, p)
    b = generate_instance(1, p)
    assert instance_to_json(a) == instance_to_json(b)


def test_different_seeds_differ():
    p = GenParams(nodes=15, vehicles=2, jobs=3, horizon=20)
    docs = {dumps_canonical(instance_to_json(generate_instance(s, p)))
            for s in range(6)}
    assert len(docs) > 1


def test_no_reduction_keeps_full_grid():
    p = GenParams(nodes=15, vehicles=2, jobs=2, horizon=20)
    inst = generate_instance(7, p)
    full, _, _ = _grid_segments(15)
    assert len(inst.graph.edges) == 2 * len(full)


def test_reduction_drops_segments_but_stays_connected():
    p = GenParams(nodes=16, vehicles=2, jobs=2, horizon=20,
                  edge_reduction=0.2)
    inst = generate_instance(5, p)
    full, _, _ = _grid_segments(16)
    assert len(inst.graph.edges) < 2 * len(full)
    # validate_graph already proved strong connectivity


def test_generated_instances_satisfy_invariants():
    for seed in range(10):
        inst = generate_instance(seed, GenParams(nodes=15, vehicles=3,
                                                 jobs=3, horizon=20))
        T = inst.fleet.horizon
        for t in inst.tasks.values():
            assert 0 <= t.window.lower <= t.window.upper <= T
            assert t.location in inst.graph.nodes
        for j in inst.jobs.values():
            assert j.eligible_vehicles


def test_window_geometry_tracks_horizon():
    inst = generate_instance(11, GenParams(nodes=15, vehicles=2, jobs=3,
                                           horizon=100))
    for t in inst.tasks.values():
        width = t.window.upper - t.window.lower
        assert width <= 0.3 * 100 + 0.2  # rounding slack
        assert t.window.upper <= 100


def test_bad_params_rejected():
    with pytest.raises(GenerationFailed):
        GenParams(nodes=2, vehicles=1, jobs=1, horizon=10)
    with pytest.raises(GenerationFailed):
        GenParams(nodes=10, vehicles=1, jobs=1, horizon=10,
                  edge_reduction=1.0)
    with pytest.raises(GenerationFailed):
        GenParams(nodes=10, vehicles=1, jobs=1, horizon=0)


def test_excessive_reduction_fails_cleanly():
    with pytest.raises(GenerationFailed):
        generate_instance(1, GenParams(nodes=16, vehicles=2, jobs=2,
                                       horizon=20, edge_reduction=0.9))


def test_too_few_segments_left_fails_without_thinning(monkeypatch):
    # 40 nodes have 67 grid segments; dropping 34 leaves 33 of the 39 that
    # a spanning tree needs, so no thinning is tried
    def no_thinning(*args, **kwargs):
        raise AssertionError("validate_graph called")
    monkeypatch.setattr(generator, "validate_graph", no_thinning)
    with pytest.raises(GenerationFailed, match="could not drop 34 segments"):
        generate_instance(1, GenParams(nodes=40, vehicles=2, jobs=2,
                                       horizon=20, edge_reduction=0.5))
