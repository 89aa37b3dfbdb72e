"""Cross-cutting property-based tests (hypothesis).

Each class pins an invariant that must hold for *arbitrary* inputs, not
just the examples unit tests chose: parser round-trips, estimator
inequalities, distribution-law identities, conservation properties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CategoricalParameter,
    GaussianProcess,
    IntegerParameter,
    KnnFeasibility,
    RealParameter,
    Space,
)
from repro.crowd.database import Collection
from repro.crowd.query import SqlQuery
from repro.hpc import NetworkModel, block_cyclic_rows
from repro.sensitivity import saltelli_sample, sobol_indices

from .crowd import row_oracle

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_idents = st.sampled_from(["x", "y", "task.m", "output", "owner"])
_numbers = st.integers(-1000, 1000) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False
).map(lambda v: round(v, 4))
_strings = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
    min_size=0,
    max_size=8,
)


def _comparison():
    ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    values = _numbers | _strings
    return st.tuples(_idents, ops, values)


class TestSqlParserProperties:
    @given(st.lists(_comparison(), min_size=1, max_size=4), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_conjunctions_roundtrip(self, comparisons, use_or):
        """Any AND/OR chain of rendered comparisons parses cleanly and
        preserves the comparison count."""
        joiner = " OR " if use_or else " AND "
        rendered = []
        for field, op, value in comparisons:
            lit = f"'{value}'" if isinstance(value, str) else repr(value)
            rendered.append(f"{field} {op} {lit}")
        q = SqlQuery.parse("SELECT * WHERE " + joiner.join(rendered))
        flt = q.filter
        if len(comparisons) == 1:
            assert isinstance(flt, dict) and not flt.keys() & {"$and", "$or"}
        else:
            key = "$or" if use_or else "$and"
            assert len(flt[key]) == len(comparisons)

    @given(_numbers)
    @settings(max_examples=40, deadline=None)
    def test_parsed_filter_equivalent_to_python(self, threshold):
        docs = [{"v": i} for i in range(-5, 6)]
        c = Collection("t")
        c.insert_many(docs)
        q = SqlQuery.parse(f"SELECT * WHERE v <= {threshold!r}")
        got = {d["v"] for d in c.find(q.filter)}
        expect = {d["v"] for d in docs if d["v"] <= threshold}
        assert got == expect


class TestDocumentStoreProperties:
    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=30),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_update_then_query_consistent(self, values, needle, replacement):
        c = Collection("t")
        c.insert_many([{"v": v} for v in values])
        n_updated = c.update({"v": needle}, {"v": replacement})
        assert n_updated == values.count(needle)
        if replacement != needle:
            assert c.count({"v": needle}) == 0
        assert c.count({}) == len(values)

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_delete_is_complement_of_find(self, values):
        c = Collection("t")
        c.insert_many([{"v": v} for v in values])
        matching = len(c.find({"v": {"$gte": 5}}))
        deleted = c.delete({"v": {"$gte": 5}})
        assert deleted == matching
        assert c.count({}) == len(values) - deleted


# the filter grammar: every comparator, nested logic, awkward arguments
_NAN = float("nan")
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**53 + 1, 2**60, 2**60 + 1]),
    st.floats(-3, 3, allow_nan=False).map(lambda v: round(v, 1)),
    st.sampled_from(["", "a", "ab", "b"]),
)
_containers = st.sampled_from([[], [1], [1, 2], ["a"], {"k": 1}, {"k": [1]}])
_sortable = _scalars | _containers
_values = _sortable | st.just(_NAN)
_paths = st.sampled_from(["a", "b", "n.k", "missing"])
_operators = st.one_of(
    st.tuples(st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]), _values),
    st.tuples(st.sampled_from(["$in", "$nin"]), st.lists(_values, max_size=4)),
    st.tuples(st.just("$exists"), st.booleans()),
    st.tuples(st.just("$regex"), st.sampled_from(["^a", "b$", "", "a|b", "."])),
)
_conditions = _values | st.lists(_operators, min_size=1, max_size=2).map(dict)
_leaves = st.dictionaries(_paths, _conditions, max_size=2)
_filters = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda subs: {"$and": subs}),
        st.lists(inner, min_size=1, max_size=3).map(lambda subs: {"$or": subs}),
        inner.map(lambda sub: {"$not": sub}),
        st.tuples(_leaves, inner).map(lambda pair: {**pair[0], "$or": [pair[1]]}),
    ),
    max_leaves=6,
)
_documents = st.fixed_dictionaries(
    {"s": _sortable},  # the sort field: NaN has no place in a total order
    optional={
        "a": _values,
        "b": _values,
        "n": _values | st.fixed_dictionaries({"k": _values}),
    },
)


class TestFilterCompilerProperties:
    @given(
        st.lists(_documents, max_size=12),
        _filters,
        st.booleans(),
        st.booleans(),
        st.none() | st.integers(-1, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiler_agrees_with_the_row_oracle(
        self, docs, flt, sorted_, descending, limit
    ):
        c = Collection("t")
        c.insert_many(docs)
        stored = c.find({}, frozen=True)
        kwargs = {"sort": "s" if sorted_ else None, "descending": descending}
        got = c.find(flt, limit=limit, **kwargs)
        want = row_oracle.find(stored, flt, limit=limit, **kwargs)
        assert [d["_id"] for d in got] == [d["_id"] for d in want]
        assert c.count(flt) == len(row_oracle.find(stored, flt))


class TestSaltelliSobolProperties:
    @given(st.integers(2, 6), st.integers(4, 7))
    @settings(max_examples=20, deadline=None)
    def test_additive_indices_sum_to_one(self, dim, log_n):
        """For an additive function, sum(S1) == sum(ST) == 1 (up to QMC
        estimation error)."""
        n = 2**log_n * 16
        design = saltelli_sample(n, dim, seed=0)
        w = np.arange(1, dim + 1, dtype=float)
        values = design.stacked() @ w
        res = sobol_indices(design, values, n_bootstrap=0)
        assert np.sum(res.S1) == pytest.approx(1.0, abs=0.15)
        assert np.sum(res.ST) == pytest.approx(1.0, abs=0.15)

    @given(st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_st_at_least_s1(self, dim):
        """ST_i >= S1_i for any function (interactions add, never
        subtract), modulo estimator noise."""
        design = saltelli_sample(512, dim, seed=1)
        U = design.stacked()
        values = np.prod(1.0 + U, axis=1)  # interaction-rich
        res = sobol_indices(design, values, n_bootstrap=0)
        assert np.all(res.ST >= res.S1 - 0.05)


class TestBlockCyclicProperties:
    @given(st.integers(0, 500), st.integers(1, 64), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_rows_conserved(self, m, mb, p):
        total = sum(block_cyclic_rows(m, mb, p, r) for r in range(p))
        assert total == m

    @given(st.integers(1, 500), st.integers(1, 64), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_first_rank_gets_most(self, m, mb, p):
        counts = [block_cyclic_rows(m, mb, p, r) for r in range(p)]
        assert counts[0] == max(counts)


class TestNetworkProperties:
    @given(
        st.floats(1e-7, 1e-4),
        st.floats(1e-12, 1e-8),
        st.integers(2, 1024),
        st.floats(1.0, 1e8),
    )
    @settings(max_examples=80, deadline=None)
    def test_collectives_dominate_p2p(self, alpha, beta, p, nbytes):
        """Any collective over p >= 2 ranks costs at least one message."""
        net = NetworkModel("t", alpha=alpha, beta=beta)
        floor = net.alpha  # at minimum one latency
        for op in (net.bcast, net.reduce, net.allreduce):
            assert op(nbytes, p) >= floor * 0.99

    @given(st.floats(1.0, 1e7), st.integers(2, 256))
    @settings(max_examples=60, deadline=None)
    def test_bcast_monotone_in_bytes(self, nbytes, p):
        net = NetworkModel("t", alpha=1e-6, beta=1e-9)
        assert net.bcast(2 * nbytes, p) >= net.bcast(nbytes, p)


class TestFeasibilityProperties:
    @given(st.integers(1, 40), st.integers(0, 40), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_probabilities_bounded(self, n_ok, n_fail, dim):
        rng = np.random.default_rng(n_ok * 100 + n_fail)
        model = KnnFeasibility(rng.random((n_ok, dim)), rng.random((n_fail, dim)))
        p = model.predict_proba(rng.random((20, dim)))
        assert np.all((p >= 0.0) & (p <= 1.0))

    @given(st.integers(3, 30), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_all_ok_means_all_feasible(self, n_ok, dim):
        rng = np.random.default_rng(n_ok)
        model = KnnFeasibility(rng.random((n_ok, dim)), np.empty((0, dim)))
        assert np.allclose(model.predict_proba(rng.random((10, dim))), 1.0)


class TestGPProperties:
    @given(st.integers(3, 25), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_posterior_std_zero_at_training_points(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        X = rng.random((n, d))
        y = np.sin(X.sum(axis=1) * 3.0)
        gp = GaussianProcess(optimize=False, noise_variance=1e-8).fit(X, y)
        _, std = gp.predict(X)
        assert np.all(std < 0.1)

    @given(st.integers(3, 20))
    @settings(max_examples=20, deadline=None)
    def test_prediction_invariant_to_y_shift(self, n):
        """Standardization: shifting targets shifts predictions exactly."""
        rng = np.random.default_rng(n)
        X = rng.random((n, 2))
        y = rng.random(n)
        Xq = rng.random((5, 2))
        gp1 = GaussianProcess(optimize=False).fit(X, y)
        gp2 = GaussianProcess(optimize=False).fit(X, y + 100.0)
        assert np.allclose(
            gp2.predict_mean(Xq), gp1.predict_mean(Xq) + 100.0, atol=1e-6
        )


class TestSpaceProperties:
    @given(
        st.lists(st.floats(0, 1), min_size=4, max_size=4),
        st.integers(2, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_arbitrary_space(self, coords, n_cats):
        space = Space(
            [
                RealParameter("a", -3.0, 9.0),
                IntegerParameter("b", -5, 17),
                CategoricalParameter("c", [f"v{i}" for i in range(n_cats)]),
                RealParameter("d", 0.0, 1e-3),
            ]
        )
        cfg = space.from_unit(coords)
        assert space.contains(cfg)
        # second roundtrip is exactly stable (idempotence)
        cfg2 = space.from_unit(space.to_unit(cfg))
        assert cfg2["b"] == cfg["b"] and cfg2["c"] == cfg["c"]
        assert cfg2["a"] == pytest.approx(cfg["a"], abs=1e-9)
