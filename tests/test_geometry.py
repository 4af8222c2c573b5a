import math

import numpy as np
import pytest

from subreg import (
    INF,
    DualVectorSet,
    NormSpec,
    ProductPoint,
    dual_norm_rho,
    duality_map,
    euclidean,
    is_inf,
    point_to_set_distance,
    prod_dist,
    q_duality_enlargement,
    xi_q,
)
from subreg.geometry import GeometryError


def test_prod_dist_identical_points_is_zero():
    p = ProductPoint([1.0, 2.0], [3.0])
    for variant in ("max", "sum"):
        assert prod_dist(p, p, 0.7, variant) == 0.0


def test_prod_dist_forced_values():
    a = ProductPoint([0.0], [0.0])
    b = ProductPoint([1.0], [2.0])
    assert prod_dist(a, b, 0.5, "max") == max(1.0, 0.5 * 2.0) == 1.0
    assert prod_dist(a, b, 0.5, "sum") == 2.0
    assert prod_dist(a, b, 0.5, "sum") >= prod_dist(a, b, 0.5, "max")


def test_prod_dist_rejects_bad_input():
    a = ProductPoint([0.0], [0.0])
    b = ProductPoint([1.0], [2.0])
    with pytest.raises(GeometryError):
        prod_dist(a, b, 0.0)
    with pytest.raises(GeometryError):
        prod_dist(a, ProductPoint([1.0, 1.0], [2.0]), 1.0)


def test_prod_dist_metric_axioms_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rho = float(rng.uniform(0.05, 3.0))
        pts = [ProductPoint(rng.normal(size=2), rng.normal(size=3)) for _ in range(3)]
        for variant in ("max", "sum"):
            d01 = prod_dist(pts[0], pts[1], rho, variant)
            d10 = prod_dist(pts[1], pts[0], rho, variant)
            d02 = prod_dist(pts[0], pts[2], rho, variant)
            d12 = prod_dist(pts[1], pts[2], rho, variant)
            assert d01 == d10
            assert d01 > 0.0
            assert d02 <= d01 + d12 + 1e-12
        assert prod_dist(pts[0], pts[1], rho, "max") <= prod_dist(
            pts[0], pts[1], rho, "sum"
        )


def test_dual_norm_rho_values():
    assert dual_norm_rho([0.0], [0.0], 0.3) == 0.0
    assert dual_norm_rho([1.0], [2.0], 0.5) == 1.0 + 4.0
    x = np.array([1.0, -2.0])
    y = np.array([0.5])
    assert dual_norm_rho(x, y, 1.0) == pytest.approx(np.linalg.norm(x) + 0.5)
    with pytest.raises(GeometryError):
        dual_norm_rho([1.0], [1.0], 0.0)


class TestDualityMap:
    def test_euclidean_gradient(self):
        out = duality_map([3.0, 4.0], euclidean(2))
        assert out.kind == "singleton"
        np.testing.assert_allclose(out.members()[0], [0.6, 0.8], atol=1e-12)

    def test_scalar_sign(self):
        out = duality_map([-2.0], euclidean(1))
        np.testing.assert_allclose(out.members()[0], [-1.0], atol=1e-12)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(5)
        for norm in (euclidean(3), NormSpec("p", 3, p=3.0), NormSpec("p", 3, p=1.0)):
            y = rng.normal(size=3)
            plus = duality_map(y, norm).members()
            minus = duality_map(-y, norm).members()
            got = sorted(tuple(np.round(-m, 12)) for m in minus)
            want = sorted(tuple(np.round(m, 12)) for m in plus)
            assert got == want

    def test_linf_face_vertices_match_enumeration(self):
        # extreme points of the l1 dual ball attaining the pairing
        norm = NormSpec("p", 2, p=math.inf)
        y = np.array([1.0, 1.0])
        out = duality_map(y, norm)
        got = sorted(tuple(v) for v in out.members())
        expected = []
        for i in range(2):
            for s in (1.0, -1.0):
                cand = np.zeros(2)
                cand[i] = s
                if abs(float(np.dot(cand, y)) - 1.0) <= 1e-12:
                    expected.append(tuple(cand))
        assert got == sorted(expected) == [(0.0, 1.0), (1.0, 0.0)]

    def test_l1_face_with_free_coordinate(self):
        norm = NormSpec("p", 3, p=1.0)
        out = duality_map([2.0, 0.0, -3.0], norm)
        got = sorted(tuple(v) for v in out.members())
        assert got == [(1.0, -1.0, -1.0), (1.0, 1.0, -1.0)]
        assert out.contains([1.0, 0.25, -1.0], norm.dual())
        assert not out.contains([1.0, 0.25, -0.5], norm.dual())

    def test_weighted_max_face(self):
        norm = NormSpec("weighted-max", 2, weights=(2.0, 1.0))
        out = duality_map([1.0, 2.0], norm)
        got = sorted(tuple(v) for v in out.members())
        assert got == [(0.0, 1.0), (2.0, 0.0)]

    @pytest.mark.parametrize(
        "norm",
        [
            euclidean(4),
            NormSpec("p", 4, p=1.5),
            NormSpec("p", 4, p=3.0),
            NormSpec("p", 4, p=1.0),
            NormSpec("p", 4, p=math.inf),
            NormSpec("weighted-max", 4, weights=(1.0, 2.0, 0.5, 3.0)),
        ],
    )
    def test_defining_identities(self, norm):
        rng = np.random.default_rng(11)
        dual = norm.dual()
        for _ in range(20):
            y = rng.normal(size=4)
            ny = norm.value(y)
            for j in duality_map(y, norm).members():
                assert abs(dual.value(j) - 1.0) <= 1e-9
                assert abs(float(np.dot(j, y)) - ny) <= 1e-9 * ny

    def test_rejects_origin(self):
        with pytest.raises(GeometryError):
            duality_map([0.0, 0.0], euclidean(2))


class TestQDualityEnlargement:
    def test_scalar_q_half(self):
        out = q_duality_enlargement([4.0], 0.5, 0.0, 8, 0)
        np.testing.assert_allclose(out.members()[0], [0.25], atol=1e-12)

    def test_scalar_normalized_zero_enlargement(self):
        out = q_duality_enlargement([4.0], 0.5, 0.0, 8, 0, normalized=True)
        np.testing.assert_allclose(out.members()[0], [1.0], atol=1e-12)

    def test_q_one_matches_duality_map(self):
        out = q_duality_enlargement([-3.0], 1.0, 0.0, 8, 0)
        np.testing.assert_allclose(out.members()[0], [-1.0], atol=1e-12)

    def test_positive_enlargement_members_are_unit(self):
        norm = euclidean(3)
        dual = norm.dual()
        out = q_duality_enlargement([1.0, -2.0, 0.5], 0.7, 0.2, 12, 3, norm)
        assert len(out.members()) > 1
        for w in out.members():
            assert abs(dual.value(w) - 1.0) <= 1e-9

    def test_rejects_bad_q(self):
        with pytest.raises(GeometryError):
            q_duality_enlargement([1.0], 1.5, 0.0, 4, 0)
        with pytest.raises(GeometryError):
            q_duality_enlargement([0.0], 0.5, 0.0, 4, 0)


def test_xi_q_values():
    assert xi_q([2.0], [0.5], 1.0) == 1.0
    # |y - ybar| = 4 at q = 1/2: 4^{1/2} / (1/2) = 4
    assert xi_q([4.0], [0.0], 0.5) == pytest.approx(4.0)
    # half-square scaling: |y| = x^2 gives 2x
    for x in (0.1, 0.5, 0.9):
        assert xi_q([x * x], [0.0], 0.5) == pytest.approx(2 * x, rel=1e-12)
    with pytest.raises(GeometryError):
        xi_q([1.0], [1.0], 0.5)


def test_xi_q_algebraic_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        y = rng.normal(size=2)
        q = float(rng.uniform(0.1, 1.0))
        d = float(np.linalg.norm(y))
        assert xi_q(y, [0.0, 0.0], q) * q * d ** (q - 1.0) == pytest.approx(1.0)


def test_point_to_set_distance():
    pts = [np.array([0.0]), np.array([-1.0])]
    assert point_to_set_distance([0.0], pts) == 0.0
    assert point_to_set_distance([0.5], [np.array([t]) for t in (-3.0, -1.0, 0.0)]) == 0.5
    assert point_to_set_distance([2.0], [np.array([5.0])]) == 3.0
    assert is_inf(point_to_set_distance([1.0], []))


def test_infinity_sentinel_behavior():
    assert INF > 1e300
    assert not (INF < 1e300)
    assert 5.0 < INF
    assert INF == INF
    assert INF + 3.0 == INF
    assert 3.0 + INF == INF
    assert min([INF, 2.0]) == 2.0
    assert max([INF, 2.0]) == INF
    assert INF * 2.5 == INF and 2.5 * INF == INF
    assert INF * 0 == 0.0 and 0 * INF == 0.0
    assert INF * 0.0 == 0.0 and type(INF * 0.0) is float
    with pytest.raises(ValueError):
        INF * -1


def test_dual_vector_set_ball_and_empty():
    ball = DualVectorSet.ball([0.0, 0.0], 1.0)
    assert ball.contains([0.5, 0.5], euclidean(2))
    assert not ball.contains([2.0, 0.0], euclidean(2))
    assert ball.min_norm(euclidean(2)) == 0.0
    assert is_inf(DualVectorSet.empty().min_norm(euclidean(2)))
