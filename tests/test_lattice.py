import math

import pytest

from spinsys import (SpinGraph, build_graph, complete_graph, diameter, graph_distance,
                     is_connected, parse_graph_file, path_graph, ring_graph,
                     set_distance, spin_matrices, star_graph)
from spinsys.lattice import distances_from


def test_path_graph_structure():
    g = path_graph(5)
    assert g.n_vertices == 5
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))
    assert g.spins == (0.5,) * 5


def test_ring_distances():
    g = ring_graph(6)
    assert graph_distance(g, 0, 3) == 3
    assert graph_distance(g, 0, 5) == 1
    assert diameter(g, list(g.vertices)) == 3


def test_complete_and_star():
    k4 = complete_graph(4)
    assert len(k4.edges) == 6
    s3 = star_graph(3)
    assert s3.n_vertices == 4
    assert all(x == 0 for (x, _, _) in s3.edges)


def test_edges_normalized_and_deduplicated():
    g = build_graph(3, [(1, 0, 2.0), (1, 2, 1.0)])
    assert g.edges[0] == (0, 1, 2.0)
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0, 1.0)])
    # negative couplings are legal on a spin graph (SSEP validates separately)
    assert build_graph(3, [(0, 1, -1.0)]).edges[0][2] == -1.0


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_is_refused(weight):
    with pytest.raises(ValueError, match="not a finite number"):
        build_graph(3, [(0, 1, 1.0), (1, 2, weight)])


@pytest.mark.parametrize("spin", [math.nan, math.inf, -math.inf, 0.0, 0.7])
def test_spin_that_is_not_a_positive_half_integer_is_refused(spin):
    # one check serves the spin matrices and the graphs; inf used to raise
    # OverflowError from round(2 s)
    for make in (spin_matrices, lambda s: path_graph(3, spin=s),
                 lambda s: SpinGraph(1, (), (s,))):
        with pytest.raises(ValueError, match="positive half-integer"):
            make(spin)


def test_disconnected_graph():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert not is_connected(g)
    assert math.isinf(distances_from(g, 0)[2])
    assert is_connected(path_graph(4))


def test_set_distance():
    g = path_graph(6)
    assert set_distance(g, 0, {3, 4}) == 3
    assert set_distance(g, 4, {3, 4}) == 0


def test_parse_graph_file():
    text = """
    # comment
    vertices 4
    0 1 1.0
    1 2 0.5
    2 3 1.0
    spin 0 1
    spin 3 3/2
    """
    g = parse_graph_file(text)
    assert g.n_vertices == 4
    assert g.spins == (1.0, 0.5, 0.5, 1.5)
    assert g.edges[1] == (1, 2, 0.5)


def test_parse_graph_file_errors():
    with pytest.raises(ValueError):
        parse_graph_file("0 1 1.0\n")          # missing vertices header
    with pytest.raises(ValueError):
        parse_graph_file("vertices 2\n0 5 1.0\n")
    with pytest.raises(ValueError):
        parse_graph_file("vertices 2\nspin 0 0.3\n")
    # a spin that converts to no finite float, or divides by zero
    for value in ("1e400", "1/0"):
        with pytest.raises(ValueError, match="bad spin line"):
            parse_graph_file(f"vertices 2\nspin 0 {value}\n")
