"""Cross-engine integration: every sound engine tracks the oracle through
deterministic update sequences on the workload families."""

from repro.bench.harness import compare_engines
from repro.core.registry import SOUND_ENGINE_NAMES
from repro.workloads.families import (
    access_control,
    bill_of_materials,
    reachability,
    review_pipeline,
)
from repro.workloads.paper import pods
from repro.workloads.updates import asserted_facts, flip_sequence


def assert_all_consistent(program, updates):
    """Every sound engine tracks the oracle after every update."""
    runs = compare_engines(program, updates, SOUND_ENGINE_NAMES, verify=True)
    for run in runs:
        assert run.consistent, f"{run.engine} diverged {run.divergences}x"
    return runs


class TestFamilies:
    def test_review_pipeline(self):
        program = review_pipeline(papers=10, committee=3, seed=4)
        updates = flip_sequence(
            asserted_facts(program, ["submitted"])[:4], seed=4, count=8
        )
        assert_all_consistent(program, updates)

    def test_reachability(self):
        program = reachability(nodes=7, seed=11)
        updates = flip_sequence(
            asserted_facts(program, ["link"])[:5], seed=11, count=10
        )
        assert_all_consistent(program, updates)

    def test_bill_of_materials(self):
        from repro.datalog.atoms import fact

        program = bill_of_materials(assemblies=4, depth=3, seed=3)
        # toggle missing-part exceptions
        updates = [
            ("insert_fact", fact("missing", "part1")),
            ("insert_fact", fact("missing", "part3")),
            ("delete_fact", fact("missing", "part1")),
        ]
        assert_all_consistent(program, updates)

    def test_access_control(self):
        from repro.datalog.atoms import fact

        program = access_control(users=8, roles=3, resources=4, seed=6)
        updates = [
            ("insert_fact", fact("revoked", "user1", "res1")),
            ("insert_fact", fact("revoked", "user2", "res2")),
            ("delete_fact", fact("revoked", "user1", "res1")),
            ("insert_fact", fact("member", "user9", "role2")),
        ]
        assert_all_consistent(program, updates)


class TestMigrationOrdering:
    """The paper's central comparative claim, pinned on a deterministic
    workload: static ≥ dynamic ≥ sets-of-sets ≥ cascade ≥ fact-level = 0."""

    def test_ordering_on_review_pipeline(self):
        from repro.datalog.atoms import fact

        program = review_pipeline(papers=15, committee=3, seed=1)
        updates = [
            ("insert_fact", fact("negative_review", "pc1", 1)),
            ("insert_fact", fact("negative_review", "pc2", 2)),
            ("delete_fact", fact("negative_review", "pc1", 1)),
            ("insert_fact", fact("negative_review", "pc3", 3)),
        ]
        names = ["static", "dynamic", "setofsets-paired", "cascade", "factlevel"]
        runs = compare_engines(program, updates, names, verify=True)
        migrations = {run.engine: run.migrated for run in runs}
        assert migrations["static"] >= migrations["dynamic"]
        assert migrations["dynamic"] >= migrations["setofsets-paired"]
        assert migrations["setofsets-paired"] >= migrations["cascade"]
        assert migrations["cascade"] >= migrations["factlevel"]
        assert migrations["factlevel"] == 0


class TestRuleUpdateEquivalence:
    def test_rule_updates_across_engines(self):
        program = pods(l=8, accepted=(2, 4, 6))
        updates = [
            ("insert_rule", "pending(X) :- submitted(X), not accepted(X), not rejected(X)."),
            ("insert_fact", "accepted(1)"),
            ("delete_rule", "pending(X) :- submitted(X), not accepted(X), not rejected(X)."),
            ("delete_fact", "accepted(1)"),
        ]
        from repro.datalog.parser import parse_clause, parse_fact

        parsed = []
        for operation, subject in updates:
            if "rule" in operation:
                parsed.append((operation, parse_clause(subject)))
            else:
                parsed.append((operation, parse_fact(subject)))
        assert_all_consistent(program, parsed)
