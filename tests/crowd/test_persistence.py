"""Full-crowd persistence: a durable node's ``data_dir`` is its save, and
two sites' records federate into one node."""

from __future__ import annotations

import pytest

from repro.core.problem import Evaluation
from repro.crowd import UserRegistry
from repro.service import CrowdShard, RemoteRepository
from tests.conftest import register


@pytest.fixture
def populated(tmp_path):
    """A durable node's directory, five of alice's records acknowledged,
    and its accounts (credentials never reach the disk)."""
    users = UserRegistry()
    with CrowdShard("a", tmp_path / "site_a", users=users) as node:
        key = register(users, "alice")
        remote = RemoteRepository(node)
        for i in range(5):
            remote.upload(key, "p", Evaluation({"m": 1}, {"x": i / 10}, float(i)), {}, {})
    return tmp_path / "site_a", users


class TestMergeFrom:
    def test_merges_all_collections(self, populated):
        """A restart recovers every collection the node journaled: the
        records and the client id their uploads were named under."""
        path, users = populated
        with CrowdShard("a", path, users=users) as node:
            assert node.count() == 5
            assert node.client_ids == 1

    def test_federating_two_sites(self, populated, tmp_path):
        """Federating two sites into one node keeps both sites' records,
        though each site named its first upload with the same uid."""
        path, users = populated
        with CrowdShard("b", tmp_path / "site_b", users=users) as site_b:
            key_b = register(users, "carol")
            evaluation = Evaluation({"m": 2}, {"x": 0.9}, 7.0)
            RemoteRepository(site_b).upload(key_b, "q", evaluation, {}, {})
            combined = CrowdShard("c", users=users)
            with CrowdShard("a", path, users=users) as site_a:
                read = {"route": "query", "api_key": key_b, "require_success": False}
                answers = [site.handle(read)["records"] for site in (site_a, site_b)]
        assert answers[0][0]["uid"] == answers[1][0]["uid"]
        assert [combined.federate(records)["applied"] for records in answers] == [5, 1]
        # federating a site again stores nothing twice
        assert combined.federate(answers[1])["applied"] == 0
        key = register(users, "dan")
        assert combined.count() == 6
        assert sorted(RemoteRepository(combined).problems(key)) == ["p", "q"]

    def test_load_records_still_works(self, populated):
        path, users = populated
        with CrowdShard("a", path, users=users) as node:
            key = register(users, "erin")
            records = RemoteRepository(node).query(key, problem_name="p")
        assert [r.output for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert {r.owner for r in records} == {"alice"}
