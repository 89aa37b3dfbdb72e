#!/usr/bin/env python3
"""Crowd-tuning walkthrough: the shared repository end to end.

Recreates the paper's Fig. 1 workflow with two users:

* **user_A** tunes ScaLAPACK's PDGEQRF on 8 Cori-Haswell nodes and
  syncs every evaluation to the shared repository (with automatic
  Slurm/Spack environment parsing attached to each record);
* **user_B** later needs to tune a *different matrix size*.  Their meta
  description queries user_A's records (restricted by machine and
  software version), groups them into source tasks, and transfer-tunes
  with Multitask(TS) — reaching a good configuration in a handful of
  evaluations;
* finally the repository is queried with the SQL-like interface.

The shared repository is one durable crowd node (``CrowdShard``): both
users reach it through its routes, and its data directory (journal +
snapshots) is the persistence — a restart recovers every record.

Run:  python examples/crowd_repository.py
"""

from __future__ import annotations

import shutil
import tempfile

from repro.apps import PDGEQRF
from repro.crowd import CrowdClient, MetaDescription
from repro.hpc import SlurmSim, cori_haswell
from repro.service import CrowdShard
from repro.tla import MultitaskTS


def register(node: CrowdShard, username: str) -> str:
    request = {"route": "register", "username": username, "email": f"{username}@lab.gov"}
    return node.handle(request)["api_key"]


def main() -> None:
    machine = cori_haswell(8)
    app = PDGEQRF(machine)
    problem = app.make_problem(run=0)

    # --- stand up the shared repository and register both users --------
    data_dir = tempfile.mkdtemp(prefix="gptunecrowd_demo_")
    node = CrowdShard("crowd", data_dir)
    key_a, key_b = register(node, "user_A"), register(node, "user_B")

    # --- user_A tunes m=n=10000 and shares everything ------------------
    # the Slurm allocation and Spack spec are parsed automatically and
    # recorded with every sample (paper Sec. IV-A)
    job = SlurmSim(machine).salloc(8, ntasks_per_node=32)
    meta_a = MetaDescription.from_dict(
        {
            "api_key": key_a,
            "tuning_problem_name": app.name,
            "problem_space": problem.describe(),
            "machine_configuration": {
                "machine_name": "cori-haswell",  # normalized to "Cori"
                "slurm": "yes",
                "slurm_environment": job.environment(),
            },
            "software_configuration": {"spack": "scalapack@2.1.0%gcc@8.3.0"},
            "sync_crowd_repo": "yes",
        }
    )
    client_a = CrowdClient(node, meta_a)
    result_a = client_a.tune(problem, {"m": 10000, "n": 10000}, 25, seed=1)
    print(f"user_A tuned PDGEQRF: best {result_a.best_output:.2f} s "
          f"({result_a.history.n_failures} failed configs)")
    print(f"repository now holds {node.count()} records")

    # --- user_B transfers to a different task --------------------------
    # the configuration_space restricts the query exactly like the
    # paper's meta-description example: Cori/haswell + gcc 8.x only
    meta_b = MetaDescription.from_dict(
        {
            "api_key": key_b,
            "tuning_problem_name": app.name,
            "problem_space": problem.describe(),
            "configuration_space": {
                "machine_configurations": [{"Cori": {"haswell": {}}}],
                "software_configurations": [
                    {"gcc": {"version_from": [8, 0, 0], "version_to": [9, 0, 0]}}
                ],
                "user_configurations": ["user_A"],
            },
            "sync_crowd_repo": "yes",
        }
    )
    client_b = CrowdClient(node, meta_b)
    sources = client_b.query_source_data(problem.parameter_space)
    print(f"\nuser_B queried {sum(s.n for s in sources)} samples across "
          f"{len(sources)} source task(s)")
    # the Spack spec's %gcc@8.3.0 is recorded as gcc software of its own,
    # so the gcc clause selects user_A's task
    if len(sources) != 1:
        raise SystemExit(f"expected user_A's task as the one source, got {len(sources)}")

    strategy = MultitaskTS()
    result_b = client_b.tune(problem, {"m": 8000, "n": 8000}, 8, strategy=strategy, seed=2)
    print(f"user_B transfer-tuned m=n=8000 with {result_b.tuner_name}: "
          f"best {result_b.best_output:.2f} s in 8 evaluations")
    if result_b.tuner_name != strategy.name:
        raise SystemExit(f"user_B fell back to {result_b.tuner_name}: no transfer")

    # --- browse, then restart the node from its data directory ----------
    fastest = client_b.repository.query_sql(
        key_b,
        "SELECT * WHERE output != null AND task_parameters.m = 10000 "
        "ORDER BY output ASC LIMIT 3",
    )
    print("\nfastest shared m=10000 records (SQL-like query):")
    for rec in fastest:
        print(f"  {rec.output:7.2f} s  {rec.tuning_parameters}  by {rec.owner}")

    node.close()
    with CrowdShard("crowd", data_dir, users=node.repository.users) as restarted:
        print(f"\nrestarted from its data directory: {restarted.count()} records recovered")
    shutil.rmtree(data_dir)


if __name__ == "__main__":
    main()
