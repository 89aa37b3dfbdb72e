"""Transfer-learning autotuning (TLA): the paper's Table I pool.

Exposes the five TLA algorithms plus the three ensemble selectors, a
registry (:func:`get_strategy`, :func:`pool_table`) mirroring Table I, and
the :class:`StrategyProvider` that plugs a strategy into the tuning loop
(:class:`TransferTuner` is the sequential tuner built with it).
"""

from .base import TLAStrategy, combine_weighted, equal_weight_model, fit_source_gps
from .gptuneband import GPTuneBand, MultiFidelityObjective, halving_schedule
from .ensemble import EnsembleProb, EnsembleProposed, EnsembleToggling
from .multitask import MultitaskPS, MultitaskTS
from .stacking import Stacking
from .tuner import StrategyProvider, TransferTuner
from .weighted_sum import WeightedSumDynamic, WeightedSumStatic

__all__ = [
    "EnsembleProb",
    "EnsembleProposed",
    "EnsembleToggling",
    "GPTuneBand",
    "MultiFidelityObjective",
    "MultitaskPS",
    "MultitaskTS",
    "Stacking",
    "StrategyProvider",
    "TLAStrategy",
    "TransferTuner",
    "WeightedSumDynamic",
    "WeightedSumStatic",
    "combine_weighted",
    "equal_weight_model",
    "fit_source_gps",
    "halving_schedule",
    "get_strategy",
    "pool_table",
    "STRATEGY_REGISTRY",
]

#: Table I of the paper: name -> strategy class
STRATEGY_REGISTRY: dict[str, type[TLAStrategy]] = {
    "multitask-ps": MultitaskPS,
    "multitask-ts": MultitaskTS,
    "weighted-sum-equal": WeightedSumStatic,
    "weighted-sum-dynamic": WeightedSumDynamic,
    "stacking": Stacking,
    "ensemble-proposed": EnsembleProposed,
    "ensemble-toggling": EnsembleToggling,
    "ensemble-prob": EnsembleProb,
}


def get_strategy(key: str, **kwargs) -> TLAStrategy:
    """Instantiate a TLA strategy by registry key (see STRATEGY_REGISTRY)."""
    try:
        cls = STRATEGY_REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown TLA strategy {key!r}; choose from {sorted(STRATEGY_REGISTRY)}"
        )
    return cls(**kwargs)


def pool_table() -> list[dict[str, str]]:
    """The paper's Table I as data: name, description, provenance."""
    rows = []
    for key, cls in STRATEGY_REGISTRY.items():
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        rows.append(
            {
                "key": key,
                "name": cls.name,
                "description": doc,
                "first_autotuner": cls.provenance,
            }
        )
    return rows
