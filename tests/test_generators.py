from __future__ import annotations

import signal

import pytest

from triconvex.errors import ValidationError
from triconvex.generators import (
    MAX_RANDOM_VERTICES,
    all_connected_graphs,
    bowtie_graph,
    cycle_graph,
    from_spec,
    random_connected_graph,
    star_graph,
    triangle_star_graph,
)
from triconvex.graph import is_connected


def test_cycle_edges():
    g = cycle_graph(5)
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_bowtie_is_two_triangles_sharing_zero():
    g = bowtie_graph()
    assert g.n == 5 and g.m == 6
    assert g.has_edge(1, 2) and g.has_edge(3, 4)
    assert g.degree(0) == 4


def test_triangle_star_layout():
    g = triangle_star_graph(3)
    assert g.n == 7 and g.m == 9
    for i in (1, 3, 5):
        assert g.has_edge(0, i) and g.has_edge(0, i + 1) and g.has_edge(i, i + 1)


def test_star_center_zero():
    g = star_graph(3)
    assert g.degree(0) == 3 and all(g.degree(v) == 1 for v in range(1, 4))


def test_random_connected_is_deterministic_and_connected():
    a = random_connected_graph(10, 0.3, seed=1)
    b = random_connected_graph(10, 0.3, seed=1)
    assert a == b
    assert is_connected(a)
    assert random_connected_graph(10, 0.3, seed=2) != a
    assert is_connected(random_connected_graph(30, 0.0, seed=7))


def test_parameter_validation():
    with pytest.raises(ValidationError):
        cycle_graph(2)
    with pytest.raises(ValidationError):
        random_connected_graph(5, 1.5)
    with pytest.raises(ValidationError):
        from_spec("cycle:x")
    with pytest.raises(ValidationError):
        from_spec("moebius:5")


def test_random_graph_size_is_checked_before_the_pair_scan():
    # n(n-1)/2 pairs at about 100 ns each: 20 s just past the bound, days at
    # n = 10^6. The alarm makes a scan that starts fail, not hang.
    def stop(signum, frame):
        raise TimeoutError("the pair scan ran")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        for n in (MAX_RANDOM_VERTICES + 1, 1_000_000):
            with pytest.raises(ValidationError):
                random_connected_graph(n, 0.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_malformed_spec_names_its_expected_form():
    with pytest.raises(ValidationError, match=r"expected random_connected:N,P\[,SEED\]"):
        from_spec("random_connected:5")
    with pytest.raises(ValidationError, match="expected path:N"):
        from_spec("path")
    with pytest.raises(ValidationError, match="expected path:N"):
        from_spec("path:3,9")
    with pytest.raises(ValidationError, match="expected bowtie"):
        from_spec("bowtie:7")


def test_from_spec_round_trips_named_kinds():
    assert from_spec("cycle:5") == cycle_graph(5)
    assert from_spec("bowtie") == bowtie_graph()
    assert from_spec("random_connected:8,0.4,3") == random_connected_graph(8, 0.4, 3)
    assert from_spec("random_connected:8,0.4", default_seed=3) == random_connected_graph(8, 0.4, 3)


def test_connected_graph_counts_match_known_values():
    # labeled connected graph counts: 1, 1, 4, 38, 728
    counts = [sum(1 for _ in all_connected_graphs(n)) for n in range(1, 6)]
    assert counts == [1, 1, 4, 38, 728]
