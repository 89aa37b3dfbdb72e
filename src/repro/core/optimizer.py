"""Acquisition search: pick the next configuration to evaluate (system S4).

The search maximizes an acquisition over the unit cube with a candidate
sweep (quasi-random + perturbations of the incumbent) followed by local
refinement of the best continuous candidates.  Candidates that round to an
already-evaluated configuration are excluded so deterministic objectives
never re-measure a known point.

All scoring goes through one vectorized function (acquisition times
learned feasibility times failure damping), applied uniformly to the
candidate pool and to every refined point, and the local polish evaluates
whole probe batches per round instead of one row at a time — the
surrogate's ``predict`` is only ever called on batched inputs.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from . import perf
from .acquisition import Acquisition, PendingPenalty, PredictFn
from .gp import GPFitError
from .samplers import _config_key
from .space import Space

__all__ = ["LIE_STRATEGIES", "SearchOptions", "propose_batch"]

ScoreFn = Callable[[np.ndarray], np.ndarray]

#: Gaussian perturbations per polished candidate per local round
_LOCAL_PROBES = 8


class SearchOptions:
    """Knobs for the candidate search.

    ``n_candidates`` random probes; the ``n_local`` best candidates get a
    batched stochastic polish: ``local_iters`` rounds of Gaussian
    perturbations, with the step scale shrinking on rounds
    that fail to improve (cheap, derivative-free, robust for mixed spaces
    where the acquisition is piecewise constant along integer axes).
    """

    def __init__(
        self,
        n_candidates: int = 1024,
        n_local: int = 2,
        local_iters: int = 40,
        incumbent_fraction: float = 0.25,
        incumbent_scale: float = 0.08,
        failure_radius: float = 0.12,
    ) -> None:
        if n_candidates < 1:
            raise ValueError("n_candidates must be positive")
        self.n_candidates = n_candidates
        self.n_local = n_local
        self.local_iters = local_iters
        self.incumbent_fraction = incumbent_fraction
        self.incumbent_scale = incumbent_scale
        self.failure_radius = failure_radius


def reference_best(predict: PredictFn, X_obs: np.ndarray) -> float:
    """Model-based reference value for EI: min predicted mean at observed X.

    Using the model's own view of the best observation (rather than the
    raw noisy minimum) keeps EI consistent across the combined TLA
    surrogates, whose predictions may live in a transformed scale.
    """
    if X_obs.shape[0] == 0:
        return 0.0
    mean, _ = predict(X_obs)
    return float(np.min(mean))


def _make_scorer(
    predict: PredictFn,
    acquisition: Acquisition,
    y_ref: float,
    p_feasible: Callable[[np.ndarray], np.ndarray] | None,
    X_failed: np.ndarray | None,
    failure_radius: float,
) -> ScoreFn:
    """One vectorized scoring function for pool candidates and refinements.

    Combines the acquisition with the learned feasibility probability and
    the tabu damping around failed evaluations: failures carry no value
    for the surrogate (they are excluded from fitting, paper Sec. VI-C),
    so without damping the same failing region gets proposed repeatedly.
    """
    Xf = None
    if X_failed is not None and len(X_failed) > 0:
        Xf = np.atleast_2d(np.asarray(X_failed, dtype=float))
        Xf_sq = np.sum(Xf * Xf, axis=1)[None, :]

    def score(U: np.ndarray) -> np.ndarray:
        s = acquisition(predict, U, y_ref)
        if p_feasible is not None:
            s = s * p_feasible(U)
        if Xf is not None:
            d2 = np.sum(U * U, axis=1)[:, None] + Xf_sq - 2.0 * (U @ Xf.T)
            dist = np.sqrt(np.maximum(d2, 0.0)).min(axis=1)
            s = s * np.clip(dist / failure_radius, 0.0, 1.0)
        return s

    return score


def _refine_local(
    U: np.ndarray,
    scores: np.ndarray,
    top: np.ndarray,
    score: ScoreFn,
    rng: np.random.Generator,
    opts: SearchOptions,
) -> None:
    """Batched stochastic polish of the top candidates, in place.

    Every round perturbs *all* refined points at once and scores the whole
    probe batch in a single call, replacing the former per-point
    Nelder-Mead whose objective issued one-row ``predict`` calls.
    """
    if len(top) == 0 or opts.local_iters < 1:
        return
    dim = U.shape[1]
    best_u = U[top].copy()
    best_s = scores[top].copy()
    scale = np.full((len(top), 1, 1), 0.08)
    rows = np.arange(len(top))
    for _ in range(opts.local_iters):
        probes = best_u[:, None, :] + rng.normal(
            size=(len(top), _LOCAL_PROBES, dim)
        ) * scale
        np.clip(probes, 0.0, 1.0, out=probes)
        s = score(probes.reshape(-1, dim)).reshape(len(top), _LOCAL_PROBES)
        j = np.argmax(s, axis=1)
        s_round = s[rows, j]
        improved = s_round > best_s
        best_u[improved] = probes[rows, j][improved]
        best_s[improved] = s_round[improved]
        scale[~improved] *= 0.8  # anneal where the round stalled
    U[top] = best_u
    scores[top] = best_s


def search_next(
    predict: PredictFn,
    space: Space,
    acquisition: Acquisition,
    rng: np.random.Generator,
    *,
    X_obs: np.ndarray | None = None,
    evaluated: list[dict[str, Any]] | None = None,
    X_failed: np.ndarray | None = None,
    p_feasible: Callable[[np.ndarray], np.ndarray] | None = None,
    feasible: Callable[[dict[str, Any]], bool] | None = None,
    options: SearchOptions | None = None,
) -> dict[str, Any]:
    """Return the configuration maximizing the acquisition.

    Parameters
    ----------
    predict:
        ``predict(X) -> (mean, std)`` over unit-cube rows.
    space:
        Tuning space; the returned dict is a valid configuration in it.
    X_obs:
        Unit-cube array of successful observations (for the EI reference).
    evaluated:
        All previously attempted configurations (successes *and*
        failures); the search avoids re-proposing them.
    X_failed:
        Unit-cube points whose evaluation failed (OOM etc.); acquisition
        scores are damped within ``options.failure_radius`` of them.
    p_feasible:
        Optional learned probability-of-feasibility (see
        :class:`repro.core.feasibility.KnnFeasibility`); acquisition
        scores are multiplied by it.
    feasible:
        Optional cheap feasibility predicate (the tuning problem's known
        constraint, e.g. PDGEQRF's ``p <= total ranks``); infeasible
        candidates are skipped before spending an evaluation on them.
        When the space is exhausted, an already-evaluated *feasible*
        configuration is preferred over any infeasible one.
    """
    opts = options or SearchOptions()
    X_obs = np.empty((0, space.dim)) if X_obs is None else np.atleast_2d(X_obs)
    seen = {_config_key(c) for c in (evaluated or [])}

    # --- candidate pool: uniform + Gaussian perturbations of the incumbent
    n_inc = int(opts.n_candidates * opts.incumbent_fraction) if X_obs.shape[0] else 0
    n_uni = opts.n_candidates - n_inc
    cands = [rng.random((n_uni, space.dim))]
    if n_inc:
        mean_obs, _ = predict(X_obs)
        incumbent = X_obs[int(np.argmin(mean_obs))]
        local = incumbent + rng.normal(0.0, opts.incumbent_scale, (n_inc, space.dim))
        cands.append(np.clip(local, 0.0, 1.0))
    U = np.vstack(cands)

    if X_obs.shape[0] > 0:
        y_ref = reference_best(predict, X_obs)
    else:
        # no successful observation yet: anchor EI at an optimistic
        # quantile of the model's own candidate predictions.  (A zero
        # reference would degenerate EI into pure variance maximization,
        # which repeatedly probes unexplored failure corners.)
        mean_cands, _ = predict(U)
        y_ref = float(np.quantile(mean_cands, 0.05))

    score = _make_scorer(
        predict, acquisition, y_ref, p_feasible, X_failed, opts.failure_radius
    )
    scores = score(U)

    # --- local refinement of the top continuous candidates
    order = np.argsort(scores)[::-1]
    _refine_local(U, scores, order[: opts.n_local], score, rng, opts)

    # --- pick best not-yet-evaluated, feasible configuration
    order = np.argsort(scores)[::-1]
    for idx in order:
        config = space.from_unit(U[idx])
        if _config_key(config) in seen:
            continue
        if feasible is not None and not feasible(config):
            continue
        return config
    # all candidates collide with evaluated configs or are infeasible
    # (tiny discrete spaces): fall back to uniform resampling
    for _ in range(200):
        config = space.sample(rng)
        if _config_key(config) in seen:
            continue
        if feasible is not None and not feasible(config):
            continue
        return config
    # exhausted: accept a duplicate as last resort, but prefer the best
    # *feasible* candidate — re-proposing an evaluated configuration is
    # wasteful, returning an infeasible one breaks the contract above
    if feasible is not None:
        for idx in order:
            config = space.from_unit(U[idx])
            if feasible(config):
                return config
        for _ in range(200):
            config = space.sample(rng)
            if feasible(config):
                return config
    return space.from_unit(U[order[0]])


#: recognized fantasy-lie strategies for batch proposal
LIE_STRATEGIES = ("cl-min", "cl-mean", "cl-max", "kb")


def _lie_value(lie: str, predict: PredictFn, u: np.ndarray, y_obs: np.ndarray) -> float:
    """The fantasy observation assigned to a not-yet-evaluated point.

    Constant liar (``cl-*``) pretends the pending run returns the
    min/mean/max of the real observations; kriging believer (``kb``)
    pretends it returns the model's own posterior mean.
    """
    if lie == "cl-min":
        return float(np.min(y_obs))
    if lie == "cl-mean":
        return float(np.mean(y_obs))
    if lie == "cl-max":
        return float(np.max(y_obs))
    if lie == "kb":
        mean, _ = predict(np.atleast_2d(u))
        return float(np.asarray(mean).ravel()[0])
    raise ValueError(f"unknown lie strategy {lie!r}; choose from {LIE_STRATEGIES}")


def propose_batch(
    predict: PredictFn,
    space: Space,
    acquisition: Acquisition,
    rng: np.random.Generator,
    *,
    q: int,
    gp=None,
    X_obs: np.ndarray | None = None,
    y_obs: np.ndarray | None = None,
    X_pending: np.ndarray | None = None,
    evaluated: list[dict[str, Any]] | None = None,
    X_failed: np.ndarray | None = None,
    p_feasible: Callable[[np.ndarray], np.ndarray] | None = None,
    feasible: Callable[[dict[str, Any]], bool] | None = None,
    lie: str = "cl-min",
    options: SearchOptions | None = None,
) -> list[dict[str, Any]]:
    """Propose ``q`` diverse configurations for parallel evaluation.

    Sequential fantasizing: each pick is the :func:`search_next` argmax
    under a surrogate conditioned on *fantasy observations* at every
    point already in flight — the ``X_pending`` rows plus the picks made
    earlier in this call.  When ``gp`` is a fitted
    :class:`~repro.core.gp.Surrogate` the fantasies are exact
    conditioning via its incremental :meth:`update` (its fit state is put
    back before returning, so the caller's model is untouched).  For
    predictors without an update path (combined TLA surrogates) the
    fallback damps the acquisition around in-flight points instead
    (:class:`~repro.core.acquisition.PendingPenalty`).

    ``lie`` selects the fantasy value: ``cl-min`` / ``cl-mean`` /
    ``cl-max`` (constant liar on the observed minimum/mean/maximum) or
    ``kb`` (kriging believer, the posterior mean).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    evaluated = list(evaluated or [])
    X_pending = (
        np.empty((0, space.dim))
        if X_pending is None
        else np.atleast_2d(np.asarray(X_pending, dtype=float))
    )
    if q == 1 and X_pending.shape[0] == 0:
        # nothing in flight, one pick: plain sequential BO — the raw
        # acquisition on the caller's model, whose caches stay warm
        return [
            search_next(
                predict, space, acquisition, rng, X_obs=X_obs, evaluated=evaluated,
                X_failed=X_failed, p_feasible=p_feasible, feasible=feasible,
                options=options,
            )
        ]
    y_obs = np.empty(0) if y_obs is None else np.asarray(y_obs, dtype=float).ravel()
    use_gp = gp is not None and gp.fitted and y_obs.size
    proposals: list[dict[str, Any]] = []
    if not use_gp:
        # model-agnostic fallback: penalize in-flight neighborhoods
        pend = X_pending
        for _ in range(q):
            acq = PendingPenalty(acquisition, pend if pend.shape[0] else None)
            config = search_next(
                predict,
                space,
                acq,
                rng,
                X_obs=X_obs,
                evaluated=evaluated + proposals,
                X_failed=X_failed,
                p_feasible=p_feasible,
                feasible=feasible,
                options=options,
            )
            proposals.append(config)
            pend = np.vstack([pend, space.to_unit_array([config])])
        return proposals

    # every Surrogate's fit state is replaced, never mutated, by update():
    # the held reference is the snapshot the fantasies are undone with
    saved_state = gp._state
    n_fantasies = 0
    try:
        if X_pending.shape[0]:
            lies = [_lie_value(lie, gp.predict, u, y_obs) for u in X_pending]
            try:
                gp.update(X_pending, np.asarray(lies))
                n_fantasies += X_pending.shape[0]
            except GPFitError:  # degenerate fantasy: fall back to penalties
                perf.incr("fantasy_update_failures")
                gp._state = saved_state
                return propose_batch(
                    predict, space, acquisition, rng, q=q, X_obs=X_obs,
                    y_obs=y_obs, X_pending=X_pending, evaluated=evaluated,
                    X_failed=X_failed, p_feasible=p_feasible,
                    feasible=feasible, lie=lie, options=options,
                )
        X_aug = np.vstack([X_obs, X_pending]) if X_obs is not None else X_pending
        for i in range(q):
            config = search_next(
                gp.predict,
                space,
                acquisition,
                rng,
                X_obs=X_aug if X_aug.shape[0] else None,
                evaluated=evaluated + proposals,
                X_failed=X_failed,
                p_feasible=p_feasible,
                feasible=feasible,
                options=options,
            )
            proposals.append(config)
            if i + 1 == q:
                break  # no fantasy needed after the last pick
            u = space.to_unit_array([config])
            try:
                gp.update(u, np.array([_lie_value(lie, gp.predict, u[0], y_obs)]))
                n_fantasies += 1
            except GPFitError:
                perf.incr("fantasy_update_failures")
                break  # keep the picks made so far; stop fantasizing
            X_aug = np.vstack([X_aug, u])
        if len(proposals) < q:
            # finish the batch with penalty-based picks
            pend = np.vstack([X_pending, space.to_unit_array(proposals)]) if (
                X_pending.shape[0] or proposals
            ) else None
            for _ in range(q - len(proposals)):
                acq = PendingPenalty(acquisition, pend)
                config = search_next(
                    predict, space, acq, rng, X_obs=X_obs,
                    evaluated=evaluated + proposals, X_failed=X_failed,
                    p_feasible=p_feasible, feasible=feasible, options=options,
                )
                proposals.append(config)
                u = space.to_unit_array([config])
                pend = u if pend is None else np.vstack([pend, u])
    finally:
        # the fantasies must never leak into the caller's model
        gp._state = saved_state
    if n_fantasies:
        perf.incr("fantasy_updates", n_fantasies)
    return proposals
