import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscode.analytic import p_antipodal, p_simplex
from gausscode import estimators
from gausscode.configs import AntipodalLengths, Configuration, embed_antipodal, regular_simplex
from gausscode.estimators import (
    DimensionTooLargeError,
    GridCoverageError,
    HalfspaceSystem,
    MCReport,
    PlankSystem,
    mc_decode,
    p_direct,
    plank_product_gap,
    slice_identity_check,
)
from gausscode.gaussian import RandomStream, normal_cdf

PAIR = Configuration(1, [[1.0], [-1.0]])


def combined(err_a: float, err_b: float) -> float:
    return 3.0 * np.hypot(err_a, err_b)


def union_measure(system: HalfspaceSystem, samples: int, seed: int):
    """Union measure from substream (seed, 0), with its binomial standard error."""
    (p,) = estimators._hit_fractions(
        [estimators._union_test(system)], samples, seed, system.normals.shape[1]
    )
    return p, float(np.sqrt(p * (1.0 - p) / samples))


def halfspace_exact(normal: np.ndarray, offset: float) -> float:
    """Exact variance-1/2 Gaussian measure of one halfspace {w . x >= c}."""
    scale = float(np.linalg.norm(normal)) / np.sqrt(2.0)
    return 1.0 - normal_cdf(offset / scale)


class TestMcDecode:
    def test_single_point_is_certain(self):
        report = mc_decode(Configuration(3, [[0.5, -0.2, 1.0]]), 1000, seed=1)
        assert report.estimate == 1.0
        assert report.std_error == 0.0

    def test_coincident_points_count_once(self):
        config = Configuration(2, [[1.0, 0.0], [1.0, 0.0]])
        report = mc_decode(config, 1000, seed=1)
        assert report.estimate == 1.0

    def test_antipodal_pair_closed_form(self):
        report = mc_decode(PAIR, 200_000, seed=3)
        want = 2 * normal_cdf(1.0)
        assert abs(report.estimate - want) <= 3 * report.std_error

    def test_reproducible_and_thread_independent(self):
        config = embed_antipodal(AntipodalLengths((1.0, 0.6), True))
        a = mc_decode(config, 50_000, seed=11)
        b = mc_decode(config, 50_000, seed=11)
        c = mc_decode(config, 50_000, seed=11, threads=3)
        assert a == b == c

    def test_rotation_invariance(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        config = embed_antipodal(AntipodalLengths((0.9, 1.2)))
        rotated = Configuration(2, config.points @ rot.T)
        a = mc_decode(config, 200_000, seed=5)
        b = mc_decode(rotated, 200_000, seed=6)
        assert abs(a.estimate - b.estimate) <= combined(a.std_error, b.std_error)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_decode(PAIR, 0, seed=1)

    @pytest.mark.parametrize("points, named", [
        ([[1e308], [-1e308]], r"\[-1e\+308\] and \[1e\+308\]"),
        ([[1e154, 0.0], [-1e154, 0.0], [0.0, 1.0]], r"\[-1e\+154, 0.0\] and \[1e\+154, 0.0\]"),
    ], ids=["difference", "square"])
    def test_overflowing_walls_refused(self, points, named):
        # P is the number of points here; the overflowing walls gave 1.03
        # for the first, after a RuntimeWarning.
        config = Configuration(len(points[0]), points)
        with pytest.raises(ValueError, match=f"points {named} are too far apart: "
                           "the square of their distance overflows float64"):
            mc_decode(config, 1000, seed=1)

    def test_far_but_finite_walls_kept(self):
        config = Configuration(1, [[1e153], [-1e153]])
        assert mc_decode(config, 1000, seed=1).estimate == 2.0


def distance_loop_decode(config: Configuration, samples: int, seed: int) -> MCReport:
    """Reference: nearest-point decoding by explicit squared distances.

    Point i draws from RandomStream(seed, i) in chunks of 2**19 samples and
    counts the draws with |g|^2 strictly below |v_i + g - v_j|^2 for every
    other distinct v_j.
    """
    pts = config.distinct_points()
    probs = []
    for i in range(pts.shape[0]):
        stream = RandomStream(seed, i)
        hits = 0
        done = 0
        while done < samples:
            m = min(1 << 19, samples - done)
            g = stream.normal((m, config.dimension))
            d_own = np.einsum("ij,ij->i", g, g)
            x = pts[i] + g
            d_other = np.full(m, np.inf)
            for j in range(pts.shape[0]):
                if j != i:
                    diff = x - pts[j]
                    np.minimum(d_other, np.einsum("ij,ij->i", diff, diff), out=d_other)
            hits += int(np.count_nonzero(d_own < d_other))
            done += m
        probs.append(hits / samples)
    variance = float(np.sum([p * (1.0 - p) / samples for p in probs]))
    return MCReport(float(np.sum(probs)), float(np.sqrt(variance)), samples, seed)


def row_major_fraction(test, samples: int, seed: int, dimension: int) -> float:
    """Reference: the share of RandomStream(seed, 0) draws that ``test``
    accepts, drawn in chunks of 2**19 rows with one draw per row."""
    stream = RandomStream(seed, 0)
    hits = 0
    for done in range(0, samples, 1 << 19):
        g = stream.normal((min(1 << 19, samples - done), dimension))
        hits += int(np.count_nonzero(test(g)))
    return hits / samples


def row_major_union(system: HalfspaceSystem):
    """Reference: the union test as it was written on (m, dimension) draws."""
    return lambda g: ((g / np.sqrt(2.0)) @ system.normals.T >= system.offsets).any(axis=1)


def row_major_planks(system: PlankSystem):
    """Reference: the plank test as it was written on (m, dimension) draws."""
    return lambda g: (np.abs(g @ system.directions.T) <= system.halfwidths).all(axis=1)


@st.composite
def small_configurations(draw):
    """Dimensions 1-4, up to 8 points on a 0.1 lattice, maybe the origin and a duplicate."""
    n = draw(st.integers(min_value=1, max_value=4))
    coordinate = st.integers(min_value=-20, max_value=20).map(lambda c: c / 10)
    points = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n),
                           min_size=1, max_size=6))
    if draw(st.booleans()):
        points.append([0.0] * n)
    if draw(st.booleans()):
        points.append(list(points[0]))
    return Configuration(n, points)


class TestHalfspaceForm:
    """mc_decode tests each Voronoi cell as an intersection of halfspaces;
    it must count exactly the hits of the explicit distance comparison."""

    @given(small_configurations(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_distance_loop(self, config, seed):
        assert mc_decode(config, 3_000, seed) == distance_loop_decode(config, 3_000, seed)

    def test_matches_distance_loop_across_chunks(self):
        config = Configuration(2, [[0.9, 0.1], [-0.4, 0.8], [0.0, -1.1]])
        assert mc_decode(config, 600_000, 9) == distance_loop_decode(config, 600_000, 9)

    def test_exact_tie_counts_as_incorrect(self, monkeypatch):
        class OnesStream:
            def __init__(self, seed, index):
                pass

            def normal(self, shape):
                return np.ones(shape)

        # g = 1 puts the noise from 0 exactly on the wall at 1; from 2 it
        # lands at 3, well inside its own cell.
        monkeypatch.setattr(estimators, "RandomStream", OnesStream)
        assert mc_decode(Configuration(1, [[0.0], [2.0]]), 10, seed=0).estimate == 1.0


@st.composite
def small_systems(draw):
    """Dimensions 1-4 with 1-5 rows on a 0.1 lattice: (rows, offsets)."""
    n = draw(st.integers(min_value=1, max_value=4))
    coordinate = st.integers(min_value=-20, max_value=20).map(lambda c: c / 10)
    rows = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n)
                         .filter(lambda r: any(r)), min_size=1, max_size=5))
    offsets = draw(st.lists(coordinate, min_size=len(rows), max_size=len(rows)))
    return np.array(rows), np.array(offsets)


class TestWallMajorTests:
    """The union and plank tests take (dimension, m) views; they must count
    exactly the hits of their row-major forms."""

    @given(small_systems(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_union_matches_row_major(self, rows_offsets, seed):
        rows, offsets = rows_offsets
        system = HalfspaceSystem(rows, offsets)
        want = row_major_fraction(row_major_union(system), 3_000, seed, rows.shape[1])
        assert union_measure(system, 3_000, seed)[0] == want

    @given(small_systems(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_planks_match_row_major(self, rows_offsets, seed):
        rows, offsets = rows_offsets
        system = PlankSystem(rows / np.linalg.norm(rows, axis=1, keepdims=True),
                             np.abs(offsets) + 0.05)
        want = row_major_fraction(row_major_planks(system), 3_000, seed, rows.shape[1])
        assert plank_product_gap(system, 3_000, seed)[0].estimate == want


class TestChunkMemory:
    def test_mc_decode_peak_stays_small(self):
        # In chunks of 2**19 rows this peaked at 78 MiB: 24 MiB of draws,
        # a 48 MiB (2**19, 12) product and its mask.
        config = embed_antipodal(AntipodalLengths((0.6, 0.8, 1.0, 1.1, 1.3, 1.6), True))
        tracemalloc.start()
        try:
            mc_decode(config, 1 << 19, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestFrozenEstimates:
    """Exact Monte Carlo estimates, frozen before the halfspace form and the
    shared chunk loop: (estimate, std_error) reprs."""

    LATTICE = Configuration(2, [[0.1, 0.2], [0.3, 0.0], [0.0, 0.0], [0.2, 0.1],
                                [0.1 + 0.2, 0.1], [0.7, 0.3]])

    @pytest.mark.parametrize("config,samples,seed,want", [
        pytest.param(
            embed_antipodal(AntipodalLengths((0.6, 0.8, 1.0, 1.1, 1.3, 1.6), True)),
            100_000, 7, ("4.137619999999999", "0.00498505739826534"),
            id="six-pairs-and-origin"),
        pytest.param(regular_simplex(7, 1.5), 100_000, 8,
                     ("4.336869999999999", "0.004061943316812779"), id="7-simplex"),
        pytest.param(PAIR, 200_000, 3, ("1.683185", "0.0011546173032113282"), id="pair"),
        pytest.param(PAIR, 600_000, 4, ("1.6841616666666668", "0.0006657844845486719"),
                     id="pair-two-chunks"),
        pytest.param(Configuration(3, [[0.5, -0.2, 1.0]]), 1000, 1, ("1.0", "0.0"),
                     id="one-point"),
        pytest.param(Configuration(2, [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.5]]), 50_000, 2,
                     ("1.69854", "0.0022628332523630633"), id="coincident"),
        pytest.param(LATTICE, 100_000, 5, ("1.33966", "0.002872732110726651"),
                     id="0.1-lattice"),
    ])
    def test_mc_decode(self, config, samples, seed, want):
        report = mc_decode(config, samples, seed)
        assert (repr(report.estimate), repr(report.std_error)) == want

    def test_plank_product_gap(self):
        system = PlankSystem([[1.0, 0.0], [np.cos(0.5), np.sin(0.5)]], [0.8, 1.1])
        report, product = plank_product_gap(system, 600_000, seed=3)
        assert repr(report.estimate) == "0.5340083333333333"
        assert repr(report.std_error) == "0.0006440023722315119"
        assert repr(product) == "0.4199234306045825"

    def test_measure_union(self):
        system = HalfspaceSystem([[1.0, 0.0], [-0.5, 2.0]], [0.3, 0.4])
        estimate, std_error = union_measure(system, 600_000, seed=6)
        assert repr(estimate) == "0.6302766666666667"
        assert repr(std_error) == "0.0006232013988567717"


class TestFrozenEstimatesSmallChunks(TestFrozenEstimates):
    """The same pins with chunks of 997 rows, which divides none of the
    sample counts: chunked standard normal draws equal one draw."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(estimators, "_CHUNK", 997)


class TestFrozenEstimatesLargeChunks(TestFrozenEstimates):
    """The same pins with chunks of 2**19 rows, the chunk size the pins
    were frozen at."""

    @pytest.fixture(autouse=True)
    def large_chunks(self, monkeypatch):
        monkeypatch.setattr(estimators, "_CHUNK", 1 << 19)


class TestPDirect:
    def test_single_point(self):
        est = p_direct(Configuration(2, [[0.3, -0.4]]))
        assert est.value == pytest.approx(1.0, abs=1e-7)

    def test_pair_closed_form(self):
        est = p_direct(PAIR)
        assert est.value == pytest.approx(2 * normal_cdf(1.0), abs=1e-7)

    def test_matches_antipodal_quadrature(self):
        est = p_direct(embed_antipodal(AntipodalLengths((0.8, 1.3))))
        want = p_antipodal(AntipodalLengths((0.8, 1.3))).value
        assert est.value == pytest.approx(want, abs=1e-6)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLargeError):
            p_direct(Configuration(4, [[0.0, 0.0, 0.0, 0.0]]))

    def test_far_pair(self):
        # One box around both points would start with panels so wide that
        # every node misses both density bumps.
        est = p_direct(Configuration(1, [[-1e6], [1e6]]))
        assert est.value == pytest.approx(2.0, abs=1e-7)

    def test_far_points_2d(self):
        est = p_direct(Configuration(2, [[0.0, 0.0], [30.0, 0.0], [0.0, 1e5]]))
        assert est.value == pytest.approx(3.0, abs=1e-7)

    def test_unresolvable_coordinate_refused(self):
        with pytest.raises(ValueError, match="coordinate 1e\\+200 is too large"):
            p_direct(Configuration(2, [[0.0, 0.0], [1e200, 0.0]]))

    def test_cross_method_small_config(self):
        config = Configuration(2, [[0.9, 0.1], [-0.4, 0.8], [0.0, -1.1]])
        direct = p_direct(config)
        mc = mc_decode(config, 200_000, seed=9)
        assert abs(direct.value - mc.estimate) <= combined(direct.abs_error, mc.std_error)


class TestMeasureUnion:
    def test_halfspace_through_origin(self):
        system = HalfspaceSystem([[1.0, 0.0]], [0.0])
        estimate, std_error = union_measure(system, 200_000, seed=2)
        assert abs(estimate - 0.5) <= 3 * std_error

    def test_two_opposite_halfspaces(self):
        h = 0.7
        system = HalfspaceSystem([[1.0], [-1.0]], [h, h])
        estimate, std_error = union_measure(system, 200_000, seed=4)
        want = 2 * (1 - normal_cdf(h * np.sqrt(2.0)))
        assert abs(estimate - want) <= 3 * std_error

    def test_exact_single_halfspace(self):
        # variance-1/2 Gaussian: w.x ~ N(0, |w|^2/2)
        assert halfspace_exact(np.array([2.0, 0.0]), 1.0) == pytest.approx(
            1 - normal_cdf(1.0 / np.sqrt(2.0)), abs=1e-14
        )
        system = HalfspaceSystem([[2.0, 0.0]], [1.0])
        estimate, std_error = union_measure(system, 200_000, seed=8)
        want = halfspace_exact(np.array([2.0, 0.0]), 1.0)
        assert abs(estimate - want) <= 3 * std_error

    def test_at_level_construction(self):
        config = Configuration(2, [[1.0, 0.0], [0.0, -2.0]])
        system = HalfspaceSystem.at_level(config, 0.5)
        assert np.allclose(np.sort(np.linalg.norm(system.normals, axis=1)), [2.0, 4.0])
        norms2 = np.array([4.0, 1.0])  # sorted by distinct_points ordering
        assert np.allclose(np.sort(system.offsets), np.sort(np.log(0.5) + norms2))

    def test_at_level_rejects_origin_point(self):
        with pytest.raises(ValueError):
            HalfspaceSystem.at_level(Configuration(1, [[0.0], [1.0]]), 1.0)

    @pytest.mark.parametrize("normal", [[np.inf, 1.0], [np.nan, 1.0], [-np.inf, 0.0]])
    def test_rejects_non_finite_normals(self, normal):
        with pytest.raises(ValueError, match="all normals must be finite"):
            HalfspaceSystem([normal], [1.0])


class TestSliceIdentity:
    def test_single_vector_total_mass(self):
        config = Configuration(1, [[1.0]])
        y_grid = np.geomspace(1e-6, np.exp(1.0) * 200, 250)
        recon = slice_identity_check(config, y_grid, 50_000, seed=1)
        assert recon == pytest.approx(1.0, abs=0.01)

    def test_pair_matches_scaled_direct(self):
        y_grid = np.geomspace(1e-6, np.exp(1.0) * 200, 250)
        recon = slice_identity_check(PAIR, y_grid, 50_000, seed=2)
        direct = p_direct(Configuration(1, [[np.sqrt(2.0)], [-np.sqrt(2.0)]])).value
        assert recon == pytest.approx(direct, abs=0.01)

    def test_coverage_guard(self):
        with pytest.raises(GridCoverageError):
            slice_identity_check(PAIR, np.geomspace(1e-6, 1.0, 50), 1000, seed=0)

    def test_coverage_guard_past_exp_overflow(self):
        # exp(900) overflows float64: the guard compares logs of the levels.
        far = Configuration(1, [[30.0], [-30.0]])
        with pytest.raises(GridCoverageError) as err:
            slice_identity_check(far, np.geomspace(1e-6, 1e300, 50), 1000, seed=0)
        assert str(err.value) == "y_max = 1e+300 is below the level envelope exp(900)"

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_validation(self, samples):
        y_grid = np.geomspace(1e-6, np.exp(1.0) * 100, 60)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            slice_identity_check(PAIR, y_grid, samples, seed=0)

    def test_thread_independence(self):
        y_grid = np.geomspace(1e-6, np.exp(1.0) * 100, 60)
        a = slice_identity_check(PAIR, y_grid, 5_000, seed=3, threads=1)
        b = slice_identity_check(PAIR, y_grid, 5_000, seed=3, threads=4)
        assert a == b


class TestPlanks:
    def test_single_plank_marginal(self):
        system = PlankSystem([[1.0, 0.0]], [0.9])
        report, product = plank_product_gap(system, 200_000, seed=1)
        assert product == pytest.approx(2 * normal_cdf(0.9) - 1, abs=1e-14)
        assert abs(report.estimate - product) <= 3 * report.std_error

    def test_perpendicular_planks_factorize(self):
        system = PlankSystem([[1.0, 0.0], [0.0, 1.0]], [0.8, 1.1])
        report, product = plank_product_gap(system, 400_000, seed=2)
        assert abs(report.estimate - product) <= 3 * report.std_error

    def test_angled_planks_dominate_product(self):
        theta = np.radians(30.0)
        system = PlankSystem(
            [[1.0, 0.0], [np.cos(theta), np.sin(theta)]], [0.8, 1.1]
        )
        report, product = plank_product_gap(system, 200_000, seed=3)
        assert report.estimate >= product - 3 * report.std_error

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            PlankSystem([[1.0, 1.0]], [0.5])
        with pytest.raises(ValueError):
            PlankSystem([[1.0, 0.0]], [0.0])

    @pytest.mark.parametrize("direction", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
    def test_rejects_non_finite_directions(self, direction):
        with pytest.raises(ValueError, match="directions must be finite"):
            PlankSystem([direction], [1.0])


class TestOneThread:
    """Every sample is drawn in the calling thread, whatever ``threads`` says."""

    @pytest.fixture
    def drawing_threads(self, monkeypatch):
        seen = set()
        normal = RandomStream.normal

        def recording(stream, shape=None):
            seen.add(threading.get_ident())
            return normal(stream, shape)

        monkeypatch.setattr(RandomStream, "normal", recording)
        return seen

    def test_mc_decode(self, drawing_threads):
        config = embed_antipodal(AntipodalLengths((1.0, 0.6), True))
        mc_decode(config, 2_000, seed=11, threads=4)
        assert drawing_threads == {threading.get_ident()}

    def test_slice_identity_check(self, drawing_threads):
        y_grid = np.geomspace(1e-6, np.exp(1.0) * 100, 60)
        slice_identity_check(PAIR, y_grid, 1_000, seed=3, threads=4)
        assert drawing_threads == {threading.get_ident()}


class TestOrthogonalIsBestMc:
    """Monte Carlo view of the planar four-point property: rotating one pair
    away from perpendicular never helps."""

    @pytest.mark.parametrize("theta_deg", [30.0, 50.0, 70.0])
    def test_angles_do_not_beat_orthogonal(self, theta_deg):
        theta = np.radians(theta_deg)
        angled = Configuration(
            2,
            [[1, 0], [-1, 0],
             [np.cos(theta), np.sin(theta)], [-np.cos(theta), -np.sin(theta)]],
        )
        orth = embed_antipodal(AntipodalLengths((1.0, 1.0)))
        a = mc_decode(angled, 200_000, seed=21)
        b = mc_decode(orth, 200_000, seed=22)
        assert b.estimate >= a.estimate - combined(a.std_error, b.std_error)


class TestSimplexAgainstMc:
    def test_tetrahedron(self):
        config = regular_simplex(4, 1.5)
        report = mc_decode(config, 200_000, seed=13)
        want = p_simplex(4, 1.5).value
        assert abs(report.estimate - want) <= 3 * report.std_error
