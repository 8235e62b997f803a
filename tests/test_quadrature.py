"""The scheme's one Gauss rule, `basis.RULE`: the 4-point Gauss-Legendre
rule on [-1, 1], written out."""

import math

import numpy as np
import pytest

from pnpdg.basis import RULE, basis_for
from pnpdg.mesh import build_mesh_2d

# the rule's nodes and weights in increasing node order, as hex doubles; every
# golden output was computed with exactly these values
PINNED_NODES = ("-0x1.b8e6dbcf63985p-1", "-0x1.5c23fd9dd3dfdp-2",
                "0x1.5c23fd9dd3dfdp-2", "0x1.b8e6dbcf63985p-1")
PINNED_WEIGHTS = ("0x1.64340f7e7b669p-2", "0x1.4de5f840c24cap-1",
                  "0x1.4de5f840c24cap-1", "0x1.64340f7e7b669p-2")


def _monomial_integral(m):
    return 2.0 / (m + 1) if m % 2 == 0 else 0.0


def test_rule_is_pinned_bit_for_bit():
    assert RULE.n == 4
    assert RULE.nodes.tolist() == [float.fromhex(s) for s in PINNED_NODES]
    assert RULE.weights.tolist() == [float.fromhex(s) for s in PINNED_WEIGHTS]


def test_four_point_closed_form():
    # nodes -/+sqrt(3/7 +/- (2/7) sqrt(6/5)) bit for bit; weights
    # (18 -/+ sqrt(30))/36 to 2 ulp
    inner, outer = (math.sqrt(3 / 7 + s * 2 / 7 * math.sqrt(6 / 5)) for s in (-1, 1))
    assert RULE.nodes.tolist() == [-outer, -inner, inner, outer]
    w_inner, w_outer = (18 + math.sqrt(30)) / 36, (18 - math.sqrt(30)) / 36
    np.testing.assert_allclose(RULE.weights, [w_outer, w_inner, w_inner, w_outer],
                               rtol=0, atol=2 * np.spacing(w_inner))


def test_four_point_integrates_xi_sixth():
    assert abs(np.sum(RULE.weights * RULE.nodes**6) - 2.0 / 7.0) < 1e-15


@pytest.mark.parametrize("m", range(2 * RULE.n + 3))
def test_exactness_to_degree_2n_minus_1(m):
    # exact on xi^m for m <= 2n - 1 = 7, and on every odd power by symmetry;
    # the even powers 8 and 10 are not, so the degree is exactly 7
    err = abs(np.sum(RULE.weights * RULE.nodes**m) - _monomial_integral(m))
    if m < 2 * RULE.n or m % 2 == 1:
        assert err < 1e-15
    else:
        assert err > 1e-3


def test_tensor_rule_exact_in_two_directions():
    # the cell tables' 2D weights, over the node grid in their order, are
    # exact on xi^a eta^b for a, b <= 2n - 1
    tables = basis_for(build_mesh_2d(1, 1, 2, 2))
    xi, eta = (x.ravel() for x in np.meshgrid(RULE.nodes, RULE.nodes, indexing="ij"))
    np.testing.assert_array_equal(tables.vol_flat[:, 1:3], np.stack([xi, eta], -1))
    for a in range(2 * RULE.n):
        for b in range(2 * RULE.n):
            exact = _monomial_integral(a) * _monomial_integral(b)
            assert abs(tables.w_flat @ (xi**a * eta**b) - exact) < 4e-15


def test_nodes_symmetric_weights_positive():
    assert np.all(RULE.nodes == -RULE.nodes[::-1])
    assert np.all(RULE.weights == RULE.weights[::-1])
    assert np.all(RULE.weights > 0)
    assert np.all(np.diff(RULE.nodes) > 0)
    assert np.all(np.abs(RULE.nodes) < 1)


def test_arrays_are_read_only():
    for a in (RULE.nodes, RULE.weights):
        with pytest.raises(ValueError):
            a[0] = 0.0
