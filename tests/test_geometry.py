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
from subreg.geometry import GeometryError, duality_faces
from subreg.report import _emit


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


class TestDualityFaces:
    @pytest.mark.parametrize(
        "norm",
        [
            euclidean(1),
            euclidean(2),
            euclidean(3),
            NormSpec("p", 3, p=3.0),
            NormSpec("p", 3, p=1.0),
            NormSpec("p", 3, p=math.inf),
            NormSpec("weighted-max", 3, weights=(1.0, 2.0, 0.5)),
        ],
    )
    def test_equal_to_duality_map_row_by_row(self, norm):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(40, norm.dim)) * rng.choice([1e-9, 1.0, 1e9], size=(40, 1))
        rows[::5, 0] = 0.0  # a free coordinate: l1 and linf faces with several vertices
        rows[rows.any(axis=1) == 0] = 1.0
        faces = duality_faces(rows, norm)
        assert len(faces) == len(rows)
        for face, row in zip(faces, rows):
            ref = duality_map(row, norm).members()
            assert [v.tobytes() for v in face] == [v.tobytes() for v in ref]

    def test_no_rows_no_faces(self):
        assert duality_faces(np.zeros((0, 2)), euclidean(2)) == []

    @pytest.mark.parametrize("norm", [euclidean(1), euclidean(2), NormSpec("p", 2, p=1.0)])
    def test_rejects_origin(self, norm):
        rows = np.ones((3, norm.dim))
        rows[1] = 0.0
        with pytest.raises(GeometryError, match="origin"):
            duality_faces(rows, norm)


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


def test_inf_is_the_float_inf():
    assert INF == math.inf and type(INF) is float
    assert 5.0 < INF and not (INF < 1e308) and INF > 1e308
    assert INF + 3.0 == INF and 3.0 + INF == INF
    assert min([INF, 2.0]) == 2.0 and max([INF, 2.0]) == INF
    assert is_inf(np.float64("inf"))
    assert not is_inf(-INF) and not is_inf(1e308)
    parts = []
    _emit(INF, parts)
    assert parts == ['"inf"']
    # no 0 * inf = 0 convention: a product with INF needs its own guard
    assert math.isnan(INF * 0) and math.isnan(0 * INF)


def test_dual_vector_set_ball_and_empty():
    ball = DualVectorSet.ball([0.0, 0.0], 1.0)
    assert ball.contains([0.5, 0.5], euclidean(2))
    assert not ball.contains([2.0, 0.0], euclidean(2))
    assert ball.min_norm(euclidean(2)) == 0.0
    assert is_inf(DualVectorSet.empty().min_norm(euclidean(2)))


def _squares_left_to_right(row):
    # the euclidean norm's reference: squares summed left to right on
    # Python floats, from the first one
    total = row[0] * row[0]
    for v in row[1:]:
        total += v * v
    return math.sqrt(total)


# signed zeros, subnormals, and squares near and past the overflow threshold
_NORM_EDGE_ENTRIES = [0.0, -0.0, 5e-324, -4e-320, 2.2e-308, 1e150, -3e150, 1.3e154, 0.7]


def test_value_rows_equal_the_scalar_norm():
    rng = np.random.default_rng(11)
    norms = [euclidean(dim) for dim in (1, 2, 3, 4, 5, 6)]
    for dim in (1, 2, 3):
        norms += [NormSpec("p", dim, p=p) for p in (1.0, 1.5, 3.0, math.inf)]
        weights = tuple(np.exp(rng.uniform(-3.0, 3.0, dim)).tolist())
        norms += [NormSpec(kind, dim, weights=weights) for kind in ("weighted-max", "weighted-sum")]
    for norm in norms:
        m = rng.standard_normal((2000, norm.dim)) * np.exp(rng.uniform(-30.0, 30.0, (2000, norm.dim)))
        if norm.kind == "euclidean" and norm.dim >= 2:
            m = np.concatenate([m, rng.choice(_NORM_EDGE_ENTRIES, (500, norm.dim))])
        with np.errstate(over="ignore"):
            want = np.array([norm.value(v) for v in m])
            assert norm.value_rows(m).tobytes() == want.tobytes(), norm
            # a row's norm does not depend on the rows taken with it
            parts = np.concatenate([norm.value_rows(m[i : i + 7]) for i in range(0, len(m), 7)])
        assert parts.tobytes() == want.tobytes(), norm
        if norm.kind == "euclidean" and norm.dim >= 2:
            ref = np.array([_squares_left_to_right(v) for v in m.tolist()])
            assert want.tobytes() == ref.tobytes(), norm
        if norm.dim == 1:
            # a 1-d array is a column of one-dimensional rows
            assert norm.value_rows(m[:, 0]).tobytes() == want.tobytes(), norm
