"""Tests for the fact-level no-migration solution (section 5.2 discussion)."""

from test_arena import index_gaps, recount

from repro.core.factlevel_engine import FactLevelEngine
from repro.core.supports import FactRecord
from repro.datalog.atoms import fact
from repro.obs import OBS, telemetry
from repro.workloads.paper import meet, negation_chain, pods


def assert_bookkeeping(engine):
    """Oracle model, complete citation index, exact entry total."""
    assert engine.is_consistent()
    assert not index_gaps(engine._arena, engine._table)
    assert engine.support_entry_count() == recount(
        engine._arena, engine._table
    )


class TestZeroMigration:
    def test_pods_insert(self):
        engine = FactLevelEngine(pods(l=5, accepted=(2, 4)))
        result = engine.insert_fact("accepted(1)")
        assert not result.migrated
        assert result.removed == {fact("rejected", 1)}
        assert engine.is_consistent()

    def test_pods_delete(self):
        engine = FactLevelEngine(pods(l=5, accepted=(2, 4)))
        result = engine.delete_fact("accepted(4)")
        assert not result.migrated
        assert result.removed == {fact("accepted", 4)}
        assert result.added == {fact("rejected", 4)}
        assert engine.is_consistent()

    def test_meet_insert(self):
        engine = FactLevelEngine(meet(l=3))
        result = engine.insert_fact("rejected(1)")
        assert not result.migrated
        assert fact("accepted", 1) in engine.model
        assert engine.is_consistent()

    def test_chain_flip(self):
        engine = FactLevelEngine(negation_chain(6))
        result = engine.insert_fact("p0")
        assert not result.migrated
        assert engine.is_consistent()

    def test_migration_zero_across_sequence(self):
        from repro.workloads.families import reachability
        from repro.workloads.updates import asserted_facts, flip_sequence

        program = reachability(nodes=6, seed=7)
        engine = FactLevelEngine(program)
        for operation, subject in flip_sequence(
            asserted_facts(program, ["link"])[:5], seed=2, count=10
        ):
            result = engine.apply(operation, subject)
            assert not result.migrated
            assert engine.is_consistent()


class TestRecords:
    def test_every_deduction_kept(self):
        engine = FactLevelEngine(meet(l=3))
        records = engine.records_of(fact("accepted", 1))
        assert len(records) == 2  # default deduction + PC-author deduction

    def test_assertion_record(self):
        engine = FactLevelEngine(pods(l=3, accepted=(2,)))
        assert FactRecord.assertion() in engine.records_of(fact("accepted", 2))

    def test_records_store_ground_facts(self):
        engine = FactLevelEngine(pods(l=3, accepted=(2,)))
        [record] = engine.records_of(fact("rejected", 1))
        assert record.positive_facts == frozenset({fact("submitted", 1)})
        assert record.negative_facts == frozenset({fact("accepted", 1)})


class TestWellFoundedness:
    CYCLE = """
    spark(1).
    on(X) :- spark(X).
    on(X) :- relay(X).
    relay(X) :- on(X).
    """

    def test_positive_cycle_with_external_support(self):
        engine = FactLevelEngine(self.CYCLE)
        assert fact("on", 1) in engine.model
        assert fact("relay", 1) in engine.model

    def test_cycle_dies_when_external_support_removed(self):
        # on(1) and relay(1) support each other; deleting spark(1) must kill
        # both despite the mutual records (the groundedness check).
        engine = FactLevelEngine(self.CYCLE)
        result = engine.delete_fact("spark(1)")
        assert fact("on", 1) not in engine.model
        assert fact("relay", 1) not in engine.model
        assert not result.migrated
        assert engine.is_consistent()

    def test_cycle_survives_via_second_external_support(self):
        engine = FactLevelEngine(self.CYCLE)
        engine.insert_fact("relay(1)")  # now externally asserted
        engine.delete_fact("spark(1)")
        assert fact("on", 1) in engine.model
        assert engine.is_consistent()


    def test_bare_cycle_loses_its_only_external_support(self):
        engine = FactLevelEngine("e. q :- e. p :- q. q :- p.")
        result = engine.delete_fact("e")
        assert result.removed == {fact("e"), fact("p"), fact("q")}
        assert not engine.model.as_set()
        assert engine.support_entry_count() == 0
        assert_bookkeeping(engine)

    def test_bare_cycle_keeps_a_second_external_support(self):
        engine = FactLevelEngine("e. f. q :- e. q :- f. p :- q. q :- p.")
        result = engine.delete_fact("e")
        assert result.removed == {fact("e")}
        assert {fact("p"), fact("q")} <= engine.model.as_set()
        assert_bookkeeping(engine)
        engine.delete_fact("f")
        assert not engine.model.as_set()
        assert_bookkeeping(engine)


class TestCone:
    """The cases the full-stratum sweep used to get right by brute
    force: the kill pass and the groundedness check now only see what
    the citation index reaches from the changed atoms."""

    def test_one_record_shared_by_two_heads(self):
        # {e(1,2), e(2,1)} is the positive set of p(1,2)'s *and* p(2,1)'s
        # firing: one record slot, two heads.
        engine = FactLevelEngine(
            "e(1, 2). e(2, 1). p(X, Y) :- e(X, Y), e(Y, X)."
        )
        heads = [engine._arena.atom_id(fact("p", *xy)) for xy in ((1, 2), (2, 1))]
        [record] = engine._table.get(heads[0])
        assert engine._table.get(heads[1]) == {record}
        assert sorted(engine._arena.fact_record_heads(record)) == sorted(heads)
        result = engine.delete_fact("e(1, 2)")
        assert result.removed == {
            fact("e", 1, 2), fact("p", 1, 2), fact("p", 2, 1)
        }
        assert_bookkeeping(engine)

    def test_kill_restore_delete_again(self):
        # A record killed after a checkpoint comes back with restore();
        # the next delete must still find it — the index is append-only.
        engine = FactLevelEngine("e(1). f(1). q(X) :- e(X). q(X) :- f(X).")
        checkpoint = engine.checkpoint()
        engine.delete_fact("e(1)")
        assert len(engine.records_of(fact("q", 1))) == 1
        engine.restore(checkpoint)
        assert len(engine.records_of(fact("q", 1))) == 2
        assert_bookkeeping(engine)
        engine.delete_fact("e(1)")
        assert len(engine.records_of(fact("q", 1))) == 1
        engine.delete_fact("f(1)")
        assert fact("q", 1) not in engine.model
        assert_bookkeeping(engine)

    def test_restratifying_rule_insert_then_fact_delete(self):
        # The inserted rule lifts t (and u above it) one stratum; records
        # interned under the old stratification must still be found.
        engine = FactLevelEngine(
            """
            a(1). a(2). b(2). c(1). c(2).
            s(X) :- a(X), not b(X).
            t(X) :- c(X).
            u(X) :- t(X), a(X).
            """
        )
        before = engine.db.stratum_of("t")
        engine.insert_rule("t(X) :- c(X), not s(X).")
        assert engine.db.stratum_of("t") > before
        assert_bookkeeping(engine)
        for subject in ("c(1)", "a(2)", "b(2)"):
            result = engine.delete_fact(subject)
            assert not result.migrated
            assert_bookkeeping(engine)
        assert engine.model.as_set() == {
            fact("a", 1), fact("c", 2), fact("s", 1), fact("t", 2)
        }

    def test_delete_rule_seeds_the_check_with_its_heads(self):
        engine = FactLevelEngine(TestWellFoundedness.CYCLE)
        result = engine.delete_rule("on(X) :- spark(X).")
        assert result.removed == {fact("on", 1), fact("relay", 1)}
        assert_bookkeeping(engine)

    def test_removal_span_is_split_into_kill_and_well_founded(self):
        engine = FactLevelEngine(pods(l=5, accepted=(2, 4)))
        with telemetry():
            engine.delete_fact("accepted(4)")
            root = OBS.tracer.traces[-1]

        def spans(node, name):
            found = [node] if node.name == name else []
            for child in node.children:
                found += spans(child, name)
            return found

        removals = spans(root, "phase:removal")
        assert removals and all("evicted" in r.attrs for r in removals)
        kills = [k for r in removals for k in spans(r, "phase:kill")]
        checks = [c for r in removals for c in spans(r, "phase:well_founded")]
        assert len(kills) == len(spans(root, "phase:kill")) >= len(removals)
        assert all({"visited", "killed"} <= set(k.attrs) for k in kills)
        assert all(
            {"seeds", "suspects", "evicted"} <= set(c.attrs) for c in checks
        )
        # accepted(4) loses its assertion and goes; nothing cited it
        # positively, so it is the only suspect of the whole update.
        assert [c.attrs["suspects"] for c in checks] == [1]
        assert sum(r.attrs["evicted"] for r in removals) == 1


class TestDeletionWithRemainingSupport:
    def test_fact_survives_deletion_when_derivable(self):
        program = """
        e(1).
        q(X) :- e(X).
        q(1).
        """
        engine = FactLevelEngine(program)
        result = engine.delete_fact("q(1)")
        assert fact("q", 1) in engine.model
        assert not result.removed
        assert engine.is_consistent()


class TestRuleUpdates:
    def test_insert_rule_no_migration(self):
        engine = FactLevelEngine(pods(l=4, accepted=(2,)))
        result = engine.insert_rule(
            "maybe(X) :- submitted(X), not accepted(X)."
        )
        assert not result.migrated
        assert engine.model.count_of("maybe") == 3
        assert engine.is_consistent()

    def test_delete_rule_no_migration(self):
        engine = FactLevelEngine(meet(l=3))
        result = engine.delete_rule(
            "accepted(Y) :- author(X, Y), in_program_committee(X)."
        )
        assert not result.migrated
        assert fact("accepted", 1) in engine.model  # other deduction holds
        assert engine.is_consistent()


class TestBookkeepingCost:
    def test_supports_grow_with_facts(self):
        small = FactLevelEngine(pods(l=5, accepted=(2,)))
        large = FactLevelEngine(pods(l=50, accepted=(2,)))
        assert large.support_entry_count() > small.support_entry_count() * 5
