import numpy as np
import pytest

from pnpdg.quadrature import gauss_rule


def test_one_point_is_midpoint_rule():
    r = gauss_rule(1)
    assert r.nodes.tolist() == [0.0]
    assert r.weights.tolist() == [2.0]


def test_two_point_closed_form():
    r = gauss_rule(2)
    np.testing.assert_allclose(r.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(r.weights, [1.0, 1.0], atol=1e-15)


def test_four_point_integrates_xi_sixth():
    r = gauss_rule(4)
    assert abs(np.sum(r.weights * r.nodes**6) - 2.0 / 7.0) < 1e-15


@pytest.mark.parametrize("n", range(1, 11))
def test_exactness_to_degree_2n_minus_1(n):
    r = gauss_rule(n)
    for m in range(2 * n):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(np.sum(r.weights * r.nodes**m) - exact) < 1e-14


@pytest.mark.parametrize("n", range(2, 11))
def test_nodes_symmetric_weights_positive(n):
    r = gauss_rule(n)
    # mirrored construction: symmetry is exact in floating point
    assert np.all(r.nodes == -r.nodes[::-1])
    assert np.all(r.weights == r.weights[::-1])
    assert np.all(r.weights > 0)
    assert np.all(np.diff(r.nodes) > 0)


@pytest.mark.parametrize("n", [0, -3, 11])
def test_unsupported_order_rejected(n):
    with pytest.raises(ValueError):
        gauss_rule(n)
