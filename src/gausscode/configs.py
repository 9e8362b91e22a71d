"""Code configurations: containers, canonical generators, and file I/O.

A configuration is a finite list of signal vectors in R^n.  The file
format is a JSON document with two fields::

    {"dimension": 2, "points": [[1.0, 0.0], [0.0, 1.0]]}

``dimension`` is a positive integer and ``points`` an array of arrays of
numbers, each of length ``dimension``.  The format is stable across
versions of the package.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ConfigurationError(ValueError):
    """Base class for configuration construction and file errors."""


class ConfigParseError(ConfigurationError):
    """The file is not valid UTF-8 JSON or is missing/typing the required fields."""


class DimensionMismatchError(ConfigurationError):
    """A point's coordinate count disagrees with the declared dimension."""


@dataclass(frozen=True)
class Configuration:
    """An ordered list of N signal vectors in R^n, stored as an (N, n) array."""

    dimension: int
    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        dimension = checked_count("dimension", self.dimension, 1, ConfigurationError)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ConfigurationError("points must be a nonempty 2-d array")
        if pts.shape[1] != dimension:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, expected {dimension}"
            )
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("all coordinates must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def distinct_points(self) -> np.ndarray:
        """Points with exact coordinate duplicates removed."""
        return np.unique(self.points, axis=0)


@dataclass(frozen=True)
class AntipodalLengths:
    """Lengths a_1..a_k of orthogonal antipodal pairs, plus an optional origin."""

    lengths: tuple[float, ...]
    include_origin: bool = False

    def __post_init__(self) -> None:
        lengths = tuple(float(a) for a in self.lengths)
        if len(lengths) < 1:
            raise ConfigurationError("need at least one pair length")
        for a in lengths:
            if not (np.isfinite(a) and a > 0):
                finite = "" if np.isfinite(a) else "finite and "
                raise ConfigurationError(f"pair lengths must be {finite}positive, got {a}")
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class EnergyBudget:
    """Total energy: the sum of squared vector lengths the code may spend."""

    total: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.total) and self.total > 0):
            finite = "" if np.isfinite(self.total) else "finite and "
            raise ConfigurationError(f"total energy must be {finite}positive, got {self.total}")


def checked_count(name: str, value, least: int, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int >= ``least``; anything else, 2.5 or True say,
    raises ``error``, a ValueError or a subclass of it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise error(f"{name} must be >= {least}, got {count}")
    return count


def energy(config: Configuration) -> float:
    """Sum of squared norms of all points."""
    return float(np.sum(config.points**2))


def embed_antipodal(spec: AntipodalLengths) -> Configuration:
    """Embed pair lengths as +-a_i e_i in R^k, plus the origin if requested."""
    k = len(spec.lengths)
    rows = []
    for i, a in enumerate(spec.lengths):
        v = np.zeros(k)
        v[i] = a
        rows.append(v)
        rows.append(-v)
    if spec.include_origin:
        rows.append(np.zeros(k))
    return Configuration(dimension=k, points=np.array(rows))


def regular_simplex(m: int, radius: float) -> Configuration:
    """m vertices of a regular simplex in R^(m-1), centered at the origin.

    Every vertex has norm ``radius`` and all pairwise inner products equal
    -radius^2/(m-1).  Built from a Helmert orthonormal basis of the
    hyperplane orthogonal to (1, ..., 1) in R^m, so the construction is
    deterministic.
    """
    m = checked_count("m", m, 2, ConfigurationError)
    if not (np.isfinite(radius) and radius > 0):
        finite = "" if np.isfinite(radius) else "finite and "
        raise ConfigurationError(f"radius must be {finite}positive, got {radius}")
    helmert = np.zeros((m - 1, m))
    for j in range(1, m):
        helmert[j - 1, :j] = 1.0
        helmert[j - 1, j] = -j
        helmert[j - 1] /= np.sqrt(j * (j + 1.0))
    # Columns of the Helmert matrix are the centered basis directions; each
    # has norm sqrt((m-1)/m), so rescale to put vertices at |v| = radius.
    verts = (radius * np.sqrt(m / (m - 1.0))) * helmert.T
    return Configuration(dimension=m - 1, points=verts)


def save_configuration(config: Configuration, path) -> None:
    """Write a configuration to ``path`` in the JSON format above."""
    doc = {
        "dimension": config.dimension,
        "points": [[float(c) for c in p] for p in config.points],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_configuration(path) -> Configuration:
    """Read a configuration, with line/field diagnostics on bad input.

    Every fault of the file's content raises :class:`ConfigParseError` or
    :class:`DimensionMismatchError` naming ``path``; a file that cannot be
    read raises ``OSError``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ConfigParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigParseError(f"{path}: invalid JSON: nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path}: expected a JSON object at top level")
    if "dimension" not in doc or "points" not in doc:
        raise ConfigParseError(f"{path}: missing required field 'dimension' or 'points'")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ConfigParseError(f"{path}: field 'dimension' must be an integer")
    pts = doc["points"]
    if not isinstance(pts, list) or not pts:
        raise ConfigParseError(f"{path}: field 'points' must be a nonempty array")
    for idx, p in enumerate(pts):
        if not isinstance(p, list):
            raise ConfigParseError(f"{path}: points[{idx}] is not an array")
        if len(p) != dim:
            raise DimensionMismatchError(
                f"{path}: points[{idx}] has {len(p)} coordinates, expected {dim}"
            )
        for jdx, c in enumerate(p):
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ConfigParseError(
                    f"{path}: points[{idx}][{jdx}] is not a number: {c!r}"
                )
            try:
                float(c)
            except OverflowError:
                raise ConfigParseError(
                    f"{path}: points[{idx}][{jdx}] is too large for float64"
                ) from None
    return Configuration(dimension=dim, points=np.array(pts, dtype=float))
