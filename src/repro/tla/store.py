"""Where a fitted source GP comes from (paper Sec. V).

Every strategy in the paper's Table I pool pre-trains one GP per source
dataset during :meth:`TLAStrategy.prepare`; :func:`fit_gp` is that fit.
A :class:`SourceModelStore` is the same call behind a content-keyed
cache: fitted GPs are kept under ``(counter, sha1(X, y), kernel,
max_fun)``, so any strategy (or repeat) asking for a surrogate of the
*same data with the same model settings, for the same role* gets the
already-fitted GP back instead of re-running the MLE.  Without one, an
``Ensemble(proposed)`` prepare fits every source four times (the shell
plus its three members) and a Table-I sweep once per strategy per
repeat; with one, once.  Fits and hits are counted per role
(``tla_source_fits`` / ``tla_source_cache_hits``).  The role keeps
Stacking's stack (``counter="stack"``) apart from the source fits: its
first entry is the raw largest source, the same data as that source's
fit, and is fitted from the stack's own seed as it is without a store.

The store decides nothing else: a fitted GP is *predicted* the same way
(its own ``predict``) with and without.

Determinism contract: callers draw the GP seed from their ``rng`` stream
*before* asking, so a store never shifts the random stream.  A cache hit
returns the GP fitted by the first requester, whose MLE used the first
requester's seed — the one way a store can change a result.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..core import perf
from ..core.gp import GaussianProcess
from ..core.kernels import kernel_from_name

__all__ = ["SourceModelStore", "fit_gp"]


def fit_gp(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    *,
    kernel: str = "rbf",
    max_fun: int = 80,
    counter: str = "source",
) -> GaussianProcess:
    """Fit a dense GP to ``(X, y)``, counted as ``tla_{counter}_fits``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gp = GaussianProcess(kernel_from_name(kernel, X.shape[1]), max_fun=max_fun, seed=seed)
    gp.fit(X, y)
    perf.incr(f"tla_{counter}_fits")
    return gp


def _data_key(X: np.ndarray, y: np.ndarray) -> bytes:
    """Content hash of a dataset (the cache key's data component)."""
    h = hashlib.sha1()
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
    h.update(str(X.shape).encode())
    h.update(X.tobytes())
    h.update(y.tobytes())
    return h.digest()


class SourceModelStore:
    """Content-keyed LRU cache of fitted source GPs (at most ``max_models``).

    Thread-safe for concurrent readers/writers (a lock guards the map;
    GP fitting itself happens outside the lock).
    """

    def __init__(self, *, max_models: int = 128) -> None:
        self.max_models = int(max_models)
        self._models: OrderedDict[tuple, GaussianProcess] = OrderedDict()
        self._lock = threading.Lock()

    # -- pickling (process-pool benchmarks ship stores to workers) --------
    def __getstate__(self):
        with self._lock:
            return {"max_models": self.max_models, "_models": OrderedDict(self._models)}

    def __setstate__(self, state):
        self.max_models = state["max_models"]
        self._models = state["_models"]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def fit_gp(
        self,
        X: np.ndarray,
        y: np.ndarray,
        seed: int,
        *,
        kernel: str = "rbf",
        max_fun: int = 80,
        counter: str = "source",
    ) -> GaussianProcess:
        """:func:`fit_gp`, reusing a cached fit of the same content asked
        for under the same ``counter``.

        ``seed`` must be drawn from the caller's rng *unconditionally*
        (also on what turns out to be a cache hit).  Hits are counted as
        ``tla_{counter}_cache_hits``.
        """
        key = (str(counter), _data_key(X, y), str(kernel), int(max_fun))
        with self._lock:
            gp = self._models.get(key)
            if gp is not None:
                self._models.move_to_end(key)
        if gp is not None:
            perf.incr(f"tla_{counter}_cache_hits")
            return gp
        gp = fit_gp(X, y, seed, kernel=kernel, max_fun=max_fun, counter=counter)
        with self._lock:
            self._models[key] = gp
            while len(self._models) > self.max_models:
                self._models.popitem(last=False)
            n_models = len(self._models)
        perf.gauge("tla_store_models", n_models)
        return gp
