import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscode.configs import (
    AntipodalLengths,
    ConfigParseError,
    Configuration,
    ConfigurationError,
    DimensionMismatchError,
    EnergyBudget,
    embed_antipodal,
    energy,
    load_configuration,
    regular_simplex,
    save_configuration,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def rotation(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


class TestEnergy:
    def test_origin_point(self):
        assert energy(Configuration(2, [[0.0, 0.0]])) == 0.0

    def test_four_unit_vectors(self):
        config = Configuration(2, [[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert energy(config) == pytest.approx(4.0)

    @given(st.lists(st.floats(min_value=0.05, max_value=10), min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_antipodal_energy(self, lengths):
        config = embed_antipodal(AntipodalLengths(tuple(lengths), True))
        assert energy(config) == pytest.approx(2 * sum(a * a for a in lengths), rel=1e-12)

    @given(st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_invariance(self, pts, seed):
        config = Configuration(2, pts)
        rng = np.random.default_rng(seed)
        permuted = Configuration(2, config.points[rng.permutation(config.size)])
        rotated = Configuration(2, config.points @ rotation(2, seed).T)
        base = energy(config)
        assert energy(permuted) == pytest.approx(base, abs=1e-12 + 1e-12 * base)
        assert energy(rotated) == pytest.approx(base, abs=1e-12 + 1e-12 * base)


class TestEmbedAntipodal:
    def test_single_pair(self):
        config = embed_antipodal(AntipodalLengths((1.0,)))
        assert config.dimension == 1
        assert sorted(config.points[:, 0]) == [-1.0, 1.0]

    def test_two_pairs_with_origin(self):
        config = embed_antipodal(AntipodalLengths((1.0, 2.0), True))
        expect = {(1, 0), (-1, 0), (0, 2), (0, -2), (0, 0)}
        assert {tuple(p) for p in config.points} == expect

    def test_cross_pair_orthogonality_exact(self):
        config = embed_antipodal(AntipodalLengths((0.7, 1.4, 2.1)))
        pts = config.points
        for i in range(0, 6, 2):
            for j in range(0, 6, 2):
                if i != j:
                    assert pts[i] @ pts[j] == 0.0


class TestRegularSimplex:
    def test_two_vertices(self):
        config = regular_simplex(2, 1.5)
        assert config.dimension == 1
        assert sorted(config.points[:, 0]) == pytest.approx([-1.5, 1.5])

    def test_tetrahedron_inner_products(self):
        pts = regular_simplex(4, 1.0).points
        for i in range(4):
            for j in range(i + 1, 4):
                assert pts[i] @ pts[j] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("m,radius", [(2, 1.0), (3, 0.5), (5, 2.0), (7, 1.3)])
    def test_invariants(self, m, radius):
        pts = regular_simplex(m, radius).points
        assert np.linalg.norm(pts.sum(axis=0)) <= 1e-12 * m * radius
        assert np.allclose(np.linalg.norm(pts, axis=1), radius, atol=1e-12)
        want = -radius * radius / (m - 1)
        gram = pts @ pts.T
        off = gram[~np.eye(m, dtype=bool)]
        assert np.allclose(off, want, atol=1e-12)
        assert energy(Configuration(m - 1, pts)) == pytest.approx(m * radius**2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            regular_simplex(1, 1.0)
        with pytest.raises(ConfigurationError):
            regular_simplex(3, 0.0)

    @pytest.mark.parametrize("radius,message", [
        (0.0, "radius must be positive, got 0.0"),
        (-1.5, "radius must be positive, got -1.5"),
        (float("inf"), "radius must be finite and positive, got inf"),
        (float("nan"), "radius must be finite and positive, got nan"),
    ])
    def test_radius_messages(self, radius, message):
        with pytest.raises(ConfigurationError) as err:
            regular_simplex(3, radius)
        assert str(err.value) == message


class TestFileRoundTrip:
    def test_round_trip(self, tmp_path):
        config = Configuration(3, np.arange(15, dtype=float).reshape(5, 3) / 7.0)
        path = tmp_path / "code.json"
        save_configuration(config, path)
        back = load_configuration(path)
        assert back.dimension == 3
        assert np.array_equal(back.points, config.points)

    def test_ragged_points(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 2, "points": [[1.0, 2.0], [3.0]]}')
        with pytest.raises(DimensionMismatchError):
            load_configuration(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 1, "points": [["zap"]]}')
        with pytest.raises(ConfigParseError):
            load_configuration(path)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_too_large_for_float(self, tmp_path, sign):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dimension": 2, "points": [[1, 2], [3, {sign}1{"0" * 400}]]}}')
        with pytest.raises(ConfigParseError, match=r"points\[1\]\[1\] is too large for float64"):
            load_configuration(path)

    @pytest.mark.parametrize("content", [
        b'{"dimension": 1, "points": [[1.0]], "note": "caf\xe9"}',  # Latin-1, not UTF-8
        b'{"dimension": 1, "points": [[1' + b"0" * 5000 + b"]]}",  # past int()'s digit limit
        b"[" * 100_000,  # deeper than the parser recurses
    ], ids=["latin1", "digits", "nested"])
    def test_undecodable_content_names_the_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigParseError) as err:
            load_configuration(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_invalid_json_has_line_info(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 1,\n "points": [[1.0],]}')
        with pytest.raises(ConfigParseError, match="line"):
            load_configuration(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [[1.0]]}')
        with pytest.raises(ConfigParseError):
            load_configuration(path)

    @given(st.lists(st.lists(finite, min_size=3, max_size=3), min_size=1, max_size=5))
    @settings(max_examples=25)
    def test_round_trip_property(self, pts):
        config = Configuration(3, pts)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            save_configuration(config, path)
            assert np.array_equal(load_configuration(path).points, config.points)


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration(1, [[float("nan")]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Configuration(3, [[1.0, 2.0]])

    def test_points_immutable(self):
        config = Configuration(1, [[1.0]])
        with pytest.raises(ValueError):
            config.points[0, 0] = 2.0

    def test_energy_budget(self):
        assert EnergyBudget(2.5).total == 2.5
        with pytest.raises(ConfigurationError):
            EnergyBudget(0.0)

    def test_antipodal_lengths(self):
        with pytest.raises(ConfigurationError):
            AntipodalLengths(())
        with pytest.raises(ConfigurationError):
            AntipodalLengths((1.0, 0.0))
        with pytest.raises(ConfigurationError):
            AntipodalLengths((-1.0,))

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_nonfinite_length_and_energy(self, value):
        with pytest.raises(ConfigurationError,
                           match=f"pair lengths must be finite and positive, got {value}"):
            AntipodalLengths((1.0, value))
        with pytest.raises(ConfigurationError,
                           match=f"total energy must be finite and positive, got {value}"):
            EnergyBudget(value)

    def test_distinct_points(self):
        config = Configuration(2, [[1, 0], [1, 0], [0, 1]])
        assert config.distinct_points().shape == (2, 2)
