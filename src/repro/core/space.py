"""Search-space definitions for autotuning problems.

This module implements system S1 of DESIGN.md: the parameter and space
abstractions behind GPTuneCrowd's meta description (paper Sec. IV-A).
A :class:`Space` is an ordered collection of typed parameters.  Task
("input") spaces, tuning ("parameter") spaces and output spaces are all
plain :class:`Space` objects; :mod:`repro.core.problem` wires them into a
tuning problem.

All surrogate modeling happens in the *unit hypercube*: every parameter
knows how to map its values to ``[0, 1]`` and back.  Integer parameters
use half-open ``[low, high)`` ranges to match the paper's meta-description
convention (``lower_bound``/``upper_bound``); categorical parameters are
ordinally encoded (index mapped to the unit interval), which is what the
original GPTune implementation does for its LCM models.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "RealParameter",
    "IntegerParameter",
    "CategoricalParameter",
    "OutputParameter",
    "Space",
    "FixedSpace",
    "SpaceError",
]


class SpaceError(ValueError):
    """Raised for malformed parameters, spaces, or out-of-range values."""


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise SpaceError(f"parameter name must be a non-empty string, got {name!r}")
    return name


class Parameter(ABC):
    """A single named, typed tuning/task parameter.

    Subclasses implement the bijection between native values and the unit
    interval used by surrogate models, plus sampling and validation.
    """

    #: short type tag used in serialized meta descriptions
    type_tag: str = "abstract"

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)

    # -- mapping ---------------------------------------------------------
    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Map a native value into ``[0, 1]``."""

    @abstractmethod
    def from_unit(self, u: float) -> Any:
        """Map a unit-interval coordinate back to a native value."""

    # -- validation / sampling -------------------------------------------
    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Whether ``value`` is a legal value for this parameter."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one value uniformly at random."""

    @abstractmethod
    def grid(self, max_points: int = 64) -> list[Any]:
        """A representative finite set of values (for exhaustive sweeps)."""

    # -- serialization -----------------------------------------------------
    @abstractmethod
    def to_dict(self) -> dict[str, Any]:
        """Serialize to the paper's meta-description JSON form."""

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "Parameter":
        """Deserialize a parameter from a meta-description entry.

        Accepts the paper's field names: ``name``, ``type`` in
        ``{"integer", "real", "categorical"}``, ``lower_bound`` /
        ``upper_bound`` or ``categories``.
        """
        kind = doc.get("type", "real")
        name = doc.get("name")
        if name is None:
            raise SpaceError(f"parameter entry missing 'name': {doc!r}")
        if kind == "integer":
            return IntegerParameter(name, doc["lower_bound"], doc["upper_bound"])
        if kind == "real":
            return RealParameter(name, doc["lower_bound"], doc["upper_bound"])
        if kind == "categorical":
            return CategoricalParameter(name, doc["categories"])
        if kind == "output":
            return OutputParameter(name)
        raise SpaceError(f"unknown parameter type {kind!r} in {doc!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_dict()!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Parameter) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class RealParameter(Parameter):
    """A continuous parameter on the half-open interval ``[low, high)``."""

    type_tag = "real"

    def __init__(self, name: str, low: float, high: float) -> None:
        super().__init__(name)
        low, high = float(low), float(high)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise SpaceError(f"{name}: bounds must be finite, got [{low}, {high})")
        if not low < high:
            raise SpaceError(f"{name}: need low < high, got [{low}, {high})")
        self.low = low
        self.high = high

    def to_unit(self, value: Any) -> float:
        v = float(value)
        if not self.contains(v):
            raise SpaceError(f"{self.name}: value {v} outside [{self.low}, {self.high})")
        return (v - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> float:
        u = min(max(float(u), 0.0), 1.0)
        v = self.low + u * (self.high - self.low)
        # keep strictly inside the half-open interval
        return min(v, np.nextafter(self.high, self.low))

    def contains(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return self.low <= v < self.high or math.isclose(v, self.low)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def grid(self, max_points: int = 64) -> list[float]:
        pts = np.linspace(self.low, self.high, max_points, endpoint=False)
        return [float(p) for p in pts]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": "real",
            "lower_bound": self.low,
            "upper_bound": self.high,
        }


class IntegerParameter(Parameter):
    """An integer parameter on the half-open range ``[low, high)``.

    Matches the paper's meta-description convention: Table II's ``mb`` has
    range ``[1, 16)`` meaning values ``1..15``.
    """

    type_tag = "integer"

    def __init__(self, name: str, low: int, high: int) -> None:
        super().__init__(name)
        low_i, high_i = int(low), int(high)
        if low_i != low or high_i != high:
            raise SpaceError(f"{name}: integer bounds must be whole numbers")
        if not low_i < high_i:
            raise SpaceError(f"{name}: need low < high, got [{low_i}, {high_i})")
        self.low = low_i
        self.high = high_i

    @property
    def n_values(self) -> int:
        return self.high - self.low

    def to_unit(self, value: Any) -> float:
        v = int(value)
        if not self.contains(v):
            raise SpaceError(f"{self.name}: value {v} outside [{self.low}, {self.high})")
        if self.n_values == 1:
            return 0.5
        # center of the value's cell in [0, 1)
        return (v - self.low + 0.5) / self.n_values

    def from_unit(self, u: float) -> int:
        u = min(max(float(u), 0.0), 1.0)
        v = self.low + int(u * self.n_values)
        return min(v, self.high - 1)

    def contains(self, value: Any) -> bool:
        try:
            v = int(value)
        except (TypeError, ValueError):
            return False
        return v == value and self.low <= v < self.high

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high))

    def grid(self, max_points: int = 64) -> list[int]:
        if self.n_values <= max_points:
            return list(range(self.low, self.high))
        pts = np.unique(np.linspace(self.low, self.high - 1, max_points).astype(int))
        return [int(p) for p in pts]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": "integer",
            "lower_bound": self.low,
            "upper_bound": self.high,
        }


class CategoricalParameter(Parameter):
    """A categorical parameter over an explicit list of choices.

    Choices are ordinally encoded into the unit interval (each category
    owns an equal-width cell) so surrogate models see a single coordinate,
    matching GPTune's handling of categorical variables.
    """

    type_tag = "categorical"

    def __init__(self, name: str, categories: Sequence[Any]) -> None:
        super().__init__(name)
        cats = list(categories)
        if not cats:
            raise SpaceError(f"{name}: categorical parameter needs at least one choice")
        if len(set(map(str, cats))) != len(cats):
            raise SpaceError(f"{name}: duplicate categories in {cats!r}")
        self.categories = cats
        self._index = {c: i for i, c in enumerate(cats)}

    @property
    def n_values(self) -> int:
        return len(self.categories)

    def to_unit(self, value: Any) -> float:
        if value not in self._index:
            raise SpaceError(f"{self.name}: {value!r} not among {self.categories!r}")
        if self.n_values == 1:
            return 0.5
        return (self._index[value] + 0.5) / self.n_values

    def from_unit(self, u: float) -> Any:
        u = min(max(float(u), 0.0), 1.0)
        idx = min(int(u * self.n_values), self.n_values - 1)
        return self.categories[idx]

    def contains(self, value: Any) -> bool:
        return value in self._index

    def sample(self, rng: np.random.Generator) -> Any:
        return self.categories[int(rng.integers(0, self.n_values))]

    def grid(self, max_points: int = 64) -> list[Any]:
        return list(self.categories[:max_points])

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": "categorical",
            "categories": list(self.categories),
        }


class OutputParameter(Parameter):
    """An output (objective) value, e.g. measured runtime.

    Outputs are unbounded reals; they exist so output spaces serialize the
    same way input/parameter spaces do in the meta description.
    """

    type_tag = "output"

    def to_unit(self, value: Any) -> float:
        raise SpaceError("output parameters have no unit-cube embedding")

    def from_unit(self, u: float) -> Any:
        raise SpaceError("output parameters have no unit-cube embedding")

    def contains(self, value: Any) -> bool:
        try:
            return math.isfinite(float(value))
        except (TypeError, ValueError):
            return False

    def sample(self, rng: np.random.Generator) -> float:
        raise SpaceError("output parameters cannot be sampled")

    def grid(self, max_points: int = 64) -> list[Any]:
        raise SpaceError("output parameters have no grid")

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "type": "output"}


@dataclass(frozen=True)
class Space:
    """An ordered, named collection of parameters.

    Provides vectorized conversion between configuration dicts and points
    in the unit hypercube, uniform sampling, validation, and space surgery
    (:meth:`subspace` / :meth:`fix`) used by sensitivity-driven search-space
    reduction (paper Sec. VI-D/E).
    """

    parameters: tuple[Parameter, ...]

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        params = tuple(parameters)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate parameter names in {names}")
        object.__setattr__(self, "parameters", params)

    # -- basic introspection ----------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.parameters)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def __len__(self) -> int:
        return self.dim

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self.parameters)

    def __getitem__(self, key: str | int) -> Parameter:
        if isinstance(key, int):
            return self.parameters[key]
        for p in self.parameters:
            if p.name == key:
                return p
        raise KeyError(key)

    def __contains__(self, name: object) -> bool:
        return any(p.name == name for p in self.parameters)

    # -- conversion ---------------------------------------------------------
    def to_unit(self, config: Mapping[str, Any]) -> np.ndarray:
        """Map a configuration dict to a point in ``[0, 1]^dim``."""
        missing = [p.name for p in self.parameters if p.name not in config]
        if missing:
            raise SpaceError(f"configuration missing parameters {missing}")
        return np.array([p.to_unit(config[p.name]) for p in self.parameters])

    def from_unit(self, u: Sequence[float]) -> dict[str, Any]:
        """Map a unit-cube point back to a configuration dict."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise SpaceError(f"expected shape ({self.dim},), got {u.shape}")
        return {p.name: p.from_unit(ui) for p, ui in zip(self.parameters, u)}

    def to_unit_array(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Stack many configurations into an ``(n, dim)`` unit array."""
        if len(configs) == 0:
            return np.empty((0, self.dim))
        return np.vstack([self.to_unit(c) for c in configs])

    def from_unit_array(self, U: np.ndarray) -> list[dict[str, Any]]:
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return [self.from_unit(row) for row in U]

    # -- validation / sampling ------------------------------------------------
    def contains(self, config: Mapping[str, Any]) -> bool:
        return all(p.name in config and p.contains(config[p.name]) for p in self.parameters)

    def validate(self, config: Mapping[str, Any]) -> None:
        for p in self.parameters:
            if p.name not in config:
                raise SpaceError(f"configuration missing parameter {p.name!r}")
            if not p.contains(config[p.name]):
                raise SpaceError(
                    f"value {config[p.name]!r} invalid for parameter {p.name!r} ({p.to_dict()})"
                )

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """Draw one uniformly random configuration."""
        return {p.name: p.sample(rng) for p in self.parameters}

    # -- surgery ---------------------------------------------------------------
    def subspace(self, names: Sequence[str]) -> "Space":
        """The sub-space containing only the named parameters (in given order)."""
        unknown = [n for n in names if n not in self]
        if unknown:
            raise SpaceError(f"unknown parameters {unknown}; space has {self.names}")
        return Space([self[n] for n in names])

    def drop(self, names: Sequence[str]) -> "Space":
        """The sub-space excluding the named parameters."""
        names_set = set(names)
        unknown = names_set - set(self.names)
        if unknown:
            raise SpaceError(f"unknown parameters {sorted(unknown)}")
        return Space([p for p in self.parameters if p.name not in names_set])

    def fix(self, values: Mapping[str, Any]) -> "FixedSpace":
        """Pin some parameters to constants, tuning only the rest.

        This is the mechanism behind the paper's reduced tuning problems
        (Fig. 6 and Fig. 7): insensitive parameters are deactivated at
        default values while the remaining ones are tuned.
        """
        for name, value in values.items():
            if name not in self:
                raise SpaceError(f"cannot fix unknown parameter {name!r}")
            if not self[name].contains(value):
                raise SpaceError(f"fixed value {value!r} invalid for {name!r}")
        free = self.drop(list(values))
        return FixedSpace(free.parameters, dict(values))

    # -- serialization ------------------------------------------------------------
    def to_list(self) -> list[dict[str, Any]]:
        return [p.to_dict() for p in self.parameters]

    @staticmethod
    def from_list(docs: Sequence[Mapping[str, Any]]) -> "Space":
        return Space([Parameter.from_dict(d) for d in docs])


class FixedSpace(Space):
    """A :class:`Space` with some parameters pinned to constant values.

    Behaves as the free sub-space for modeling/sampling purposes, but
    configuration dicts produced by :meth:`from_unit` / :meth:`sample`
    include the pinned values so objectives always see full configurations.
    """

    fixed: dict[str, Any]

    def __init__(self, parameters: Iterable[Parameter], fixed: Mapping[str, Any]) -> None:
        super().__init__(parameters)
        object.__setattr__(self, "fixed", dict(fixed))

    def from_unit(self, u: Sequence[float]) -> dict[str, Any]:
        config = super().from_unit(u)
        config.update(self.fixed)
        return config

    def to_unit(self, config: Mapping[str, Any]) -> np.ndarray:
        # ignore pinned entries; only embed the free coordinates
        free = {k: v for k, v in config.items() if k not in self.fixed}
        return super().to_unit(free)

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        config = super().sample(rng)
        config.update(self.fixed)
        return config

    def contains(self, config: Mapping[str, Any]) -> bool:
        if not super().contains(config):
            return False
        return all(config.get(k) == v for k, v in self.fixed.items() if k in config)
