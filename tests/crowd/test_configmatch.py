"""Tests for tag-name matching of machine/software configurations."""

from __future__ import annotations

import pytest

from repro.crowd.configmatch import TagMatcher, default_matcher


class TestTagMatcher:
    def test_exact_canonical(self):
        m = default_matcher()
        assert m.match_machine("Cori") == "Cori"

    def test_alias_hits(self):
        m = default_matcher()
        assert m.match_machine("cori-haswell") == "Cori"
        assert m.match_machine("NERSC Cori") == "Cori"

    def test_case_and_separator_insensitive(self):
        m = default_matcher()
        assert m.match_machine("CORI_HASWELL") == "Cori"
        assert m.match_machine("cori haswell") == "Cori"

    def test_fuzzy_near_miss(self):
        m = default_matcher()
        assert m.match_machine("corri-haswell") == "Cori"  # typo

    def test_unknown_returns_none(self):
        m = default_matcher()
        assert m.match_machine("Fugaku") is None
        assert m.match_machine("") is None

    def test_software_aliases(self):
        m = default_matcher()
        assert m.match_software("SuperLU_DIST") == "superlu-dist"
        assert m.match_software("ScaLAPACK") == "scalapack"
        assert m.match_software("craympich") == "cray-mpich"

    def test_custom_entries(self):
        m = TagMatcher()
        m.add_machine("MyCluster", aliases=["mc1"], site="here")
        assert m.match_machine("mc1") == "MyCluster"
        assert m.machine_info("MyCluster")["site"] == "here"
        assert m.machines() == ["MyCluster"]

    def test_normalize_machine_configuration(self):
        m = default_matcher()
        config = {"cori_knl": {"knl": {"nodes": 32}}, "Unknown9000": {"x": 1}}
        out = m.normalize_machine_configuration(config)
        assert "Cori" in out and out["Cori"] == {"knl": {"nodes": 32}}
        assert "Unknown9000" in out  # unmatched names pass through

    def test_default_matcher_knows_paper_software(self):
        m = default_matcher()
        for package in ("scalapack", "superlu-dist", "hypre", "nimrod", "gcc"):
            assert m.match_software(package) == package


def _scan_match(name, entries, cutoff):
    """The matcher as it was before the lookup tables: scan every entry,
    normalizing its aliases on the way (kept as the oracle)."""
    import difflib

    from repro.crowd.configmatch import _normalize

    if not name:
        return None
    norm = _normalize(name)
    for entry in entries.values():
        if norm in entry.all_names():
            return entry.canonical
    universe = {n: e.canonical for e in entries.values() for n in e.all_names()}
    close = difflib.get_close_matches(norm, universe, n=1, cutoff=cutoff)
    return universe[close[0]] if close else None


class TestLookupTables:
    def test_default_matcher_resolves_as_the_scan_did(self):
        m = default_matcher()
        for entries, match in (
            (m._machines, m.match_machine),
            (m._software, m.match_software),
        ):
            names = [n for e in entries.values() for n in (e.canonical, *e.aliases)]
            probes = []
            for n in names:
                probes += [n, n.upper(), n.lower(), f"  {n} ", n.replace("-", "_"),
                           n.replace("_", " "), n.replace("-", "."), n + "x", n[1:]]
            probes += ["Fugaku", "Unknown9000", "", "intel-mpi", "c"]
            for probe in probes:
                assert match(probe) == _scan_match(probe, entries, m.fuzzy_cutoff), probe
            for n in names:
                assert match(n) is not None

    def test_unknown_names_pass_through(self):
        out = default_matcher().normalize_machine_configuration({"Fugaku": {"n": 1}})
        assert out == {"Fugaku": {"n": 1}}

    def test_first_registered_entry_keeps_a_shared_alias(self):
        m = TagMatcher()
        m.add_software("first", aliases=["shared-name"])
        m.add_software("second", aliases=["shared_name"])
        assert m.match_software("Shared Name") == "first"

    def test_reregistration_replaces_aliases(self):
        m = TagMatcher()
        m.add_machine("Box", aliases=["old-alias"])
        m.add_machine("Box", aliases=["new-alias"])
        assert m.match_machine("new_alias") == "Box"
        assert m.match_machine("zzz-old-alias-zzz") is None
        assert m._machine_table[0] == {"box": "Box", "newalias": "Box"}

    def test_registration_invalidates_remembered_answers(self):
        m = TagMatcher()
        m.add_software("gcc")
        assert m.match_machine("Frontier-GPU") is None  # remembered
        assert m.match_software("gnu") is None
        m.add_machine("Frontier", aliases=["frontier-gpu"])
        assert m.match_machine("Frontier-GPU") == "Frontier"
        assert m.match_software("gnu") is None  # the other table kept its memo
        m.add_software("gcc", aliases=["gnu"])
        assert m.match_software("gnu") == "gcc"

    def test_memo_is_bounded_and_answers_as_before(self, monkeypatch):
        from repro.crowd import configmatch

        monkeypatch.setattr(configmatch, "_MEMO_MAX", 4)
        m = default_matcher()
        names = [f"cori-{i}" for i in range(10)] + ["Cori-Haswell", "perlmuter"]
        first = [m.match_machine(n) for n in names]
        assert len(m._machine_table[1]) <= 4
        assert [m.match_machine(n) for n in names] == first
        assert first == [_scan_match(n, m._machines, m.fuzzy_cutoff) for n in names]

    def test_non_string_names_fail_as_before(self):
        m = default_matcher()
        for bad in (["cori"], 5):
            with pytest.raises(AttributeError):
                m.match_machine(bad)
