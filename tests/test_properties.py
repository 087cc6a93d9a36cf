"""Property-based tests (hypothesis) for the core invariants.

The properties mirror the paper's theorems:

* M(P) is a model of P, is supported, and equals the JTMS well-founded
  labelling (Theorem ii/iii and the belief-revision framing);
* M(P) does not depend on the stratification (Theorem i) nor on the
  saturation strategy (the [RLK] delta-driven mechanism is exact);
* every sound maintenance engine tracks the recompute oracle through
  arbitrary update sequences;
* the paper-mode sets-of-sets engine is exact for a *single* update on a
  freshly built model (the actual scope of Lemma 2);
* the fact-level engine never migrates anything (section 5.2's claim);
* each support-carrying engine's table is what the paper says it records:
  all firing ground instances (fact-level), a valid rule-pointer cover
  (cascade), ⊆-minimal non-empty covers (sets of sets).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_arena import index_gaps, recount

from repro.analysis.fuzz import _validate_rule_records
from repro.core.registry import SOUND_ENGINE_NAMES, create_engine
from repro.core.supports import FactRecord, prune_to_minimal
from repro.datalog.evaluation import compute_model, iter_derivations
from repro.datalog.plan import Planner
from repro.tms.bridge import standard_model_via_jtms
from repro.workloads.synthetic import SyntheticSpec, generate
from repro.workloads.updates import mixed_updates, random_updates

SMALL = SyntheticSpec(
    levels=2,
    relations_per_level=2,
    rules_per_relation=2,
    edb_relations=2,
    edb_facts_per_relation=4,
    domain_size=4,
)

seeds = st.integers(min_value=0, max_value=10_000)
common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def is_model_of(program, model) -> bool:
    """No rule instance is violated: body satisfied ⟹ head present."""
    return all(
        derivation.head in model
        for clause in program
        for derivation in iter_derivations(clause, model)
    )


def is_supported(program, model) -> bool:
    """Every fact has an explanation (Theorem iii)."""
    explained = {
        derivation.head
        for clause in program
        for derivation in iter_derivations(clause, model)
    }
    return set(model.facts()) <= explained


class TestModelSemantics:
    @given(seed=seeds)
    @common
    def test_standard_model_is_a_model(self, seed):
        program = generate(seed, SMALL).program
        model = compute_model(program)
        assert is_model_of(program, model)

    @given(seed=seeds)
    @common
    def test_standard_model_is_supported(self, seed):
        program = generate(seed, SMALL).program
        model = compute_model(program)
        assert is_supported(program, model)

    @given(seed=seeds)
    @common
    def test_naive_equals_delta_driven(self, seed):
        program = generate(seed, SMALL).program
        assert compute_model(program, method="naive") == compute_model(
            program, method="seminaive"
        )

    @given(seed=seeds)
    @common
    def test_planned_execution_is_exact(self, seed):
        # The selectivity-ordered join plans must not change the model nor
        # the set of reported derivations, for either saturation method,
        # against the naive left-to-right baseline.
        program = generate(seed, SMALL).program

        def run(method, planner):
            derivations = set()
            model = compute_model(
                program,
                method=method,
                listener=lambda d, is_new, plan: derivations.add(d),
                planner=planner,
            )
            return model, derivations

        baseline = run("naive", Planner(reorder=False))
        assert run("naive", Planner()) == baseline
        assert run("seminaive", Planner()) == baseline
        # the legacy estimator and the single-column intersection path
        # must agree too — they only change the join order / probe cost
        assert run("seminaive", Planner(estimator="heuristic")) == baseline
        assert run("seminaive", Planner(composite=False)) == baseline

    @given(seed=seeds)
    @common
    def test_stratification_independence(self, seed):
        program = generate(seed, SMALL).program
        assert compute_model(program, granularity="level") == compute_model(
            program, granularity="scc"
        )

    @given(seed=seeds)
    @common
    def test_equals_jtms_well_founded_labelling(self, seed):
        program = generate(seed, SMALL).program
        assert standard_model_via_jtms(program) == compute_model(
            program
        ).as_set()

    @given(seed=seeds)
    @common
    def test_minimality_spot_check(self, seed):
        # Removing any single derived fact breaks supportedness-or-modelhood
        # of the remainder set (a practical slice of Theorem ii).
        program = generate(seed, SMALL).program
        model = compute_model(program)
        asserted = {c.head for c in program if not c.body}
        derived = [f for f in model.facts() if f not in asserted][:5]
        for fact_ in derived:
            smaller = model.copy()
            smaller.discard(fact_)
            assert not is_model_of(program, smaller) or not is_supported(
                program, smaller
            )


class TestRelationStatistics:
    """The planner's cardinality statistics must be *exact*, not decayed
    approximations: distinct-value counts after any interleaving of
    add/discard/clear equal the counts recomputed from the tuples."""

    ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("add"),
                st.integers(0, 5),
                st.integers(0, 3),
            ),
            st.tuples(
                st.just("discard"),
                st.integers(0, 5),
                st.integers(0, 3),
            ),
            st.tuples(st.just("clear"), st.just(0), st.just(0)),
        ),
        min_size=0,
        max_size=60,
    )

    @given(ops=ops)
    @common
    def test_distinct_counts_stay_exact(self, ops):
        from repro.datalog.relations import Relation

        relation = Relation("p", 2)
        list(relation.select({0: 0, 1: 0}))  # keep a composite index live
        for op, a, b in ops:
            if op == "add":
                relation.add((a, b))
            elif op == "discard":
                relation.discard((a, b))
            else:
                relation.clear()
        for column in (0, 1):
            expected = len({row[column] for row in relation.tuples})
            assert relation.distinct_count(column) == expected
        # the composite index kept in step with the mutations too
        expected_rows = {
            row for row in relation.tuples if row[0] == 1 and row[1] == 1
        }
        assert set(relation.select({0: 1, 1: 1})) == expected_rows
        assert relation.estimated_matches((0, 1)) >= 0.0

    @given(seed=seeds)
    @common
    def test_statistics_survive_snapshot_round_trip(self, seed):
        # A restored engine re-adds the snapshot facts tuple by tuple, so
        # the maintained statistics must come back exactly — the planner
        # on a reopened store orders joins like the live engine did.
        from repro.core.registry import engine_from_state
        from repro.store import serialize

        program = generate(seed, SMALL).program
        engine = create_engine("cascade", program)
        state = serialize.loads(serialize.dumps(engine.state_dict()))
        restored = engine_from_state("cascade", state)
        assert restored.model == engine.model
        for name in engine.model.relation_names():
            live = engine.model.relation(name)
            back = restored.model.relation(name)
            assert back.distinct_counts() == live.distinct_counts()
            assert len(back) == len(live)


class TestEngineEquivalence:
    @given(seed=seeds, n_updates=st.integers(min_value=1, max_value=6))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sound_engines_track_the_oracle(self, seed, n_updates):
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, seed=seed,
        )
        for name in SOUND_ENGINE_NAMES:
            engine = create_engine(name, syn.program)
            for operation, subject in updates:
                engine.apply(operation, subject)
                oracle = compute_model(engine.db.program)
                assert engine.model == oracle, (
                    f"{name} diverged after {operation} {subject}"
                )

    @given(seed=seeds, n_updates=st.integers(min_value=2, max_value=6))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sound_engines_survive_rule_updates(self, seed, n_updates):
        # Rule deletions and re-insertions exercise restratification and
        # the rule procedures of every solution.
        syn = generate(seed, SMALL)
        updates = mixed_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, rule_ratio=0.5, seed=seed,
        )
        for name in ("static", "dynamic", "cascade", "factlevel"):
            engine = create_engine(name, syn.program)
            for operation, subject in updates:
                engine.apply(operation, subject)
            assert engine.model == compute_model(engine.db.program), (
                f"{name} diverged after rule-update sequence"
            )

    @given(seed=seeds, n_updates=st.integers(min_value=1, max_value=6))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cascade_batch_equals_oracle(self, seed, n_updates):
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, seed=seed,
        )
        engine = create_engine("cascade", syn.program)
        engine.apply_batch(updates)
        assert engine.model == compute_model(engine.db.program)

    @given(seed=seeds)
    @common
    def test_setofsets_paper_mode_exact_for_single_update(self, seed):
        # Lemma 2's scope: one update on a freshly built model.
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=1, seed=seed,
        )
        engine = create_engine("setofsets", syn.program)
        for operation, subject in updates:
            engine.apply(operation, subject)
        assert engine.model == compute_model(engine.db.program)

    @given(seed=seeds, n_updates=st.integers(min_value=1, max_value=6))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_factlevel_never_migrates(self, seed, n_updates):
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, seed=seed,
        )
        engine = create_engine("factlevel", syn.program)
        for operation, subject in updates:
            result = engine.apply(operation, subject)
            assert not result.migrated

    @given(seed=seeds)
    @common
    def test_update_then_inverse_restores_model(self, seed):
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=1, seed=seed,
        )
        [(operation, subject)] = updates
        inverse = {
            "insert_fact": "delete_fact",
            "delete_fact": "insert_fact",
        }[operation]
        for name in ("cascade", "dynamic", "setofsets", "setofsets-paired"):
            engine = create_engine(name, syn.program)
            before = engine.model.as_set()
            engine.apply(operation, subject)
            engine.apply(inverse, subject)
            assert engine.model.as_set() == before


def firing_instances(engine):
    """Test-only reference for section 5.2's "keeping all possible original
    deductions": one FactRecord per ground instance of a program clause
    that fires against the engine's current model."""
    expected = {}
    for clause in engine.db.program.clauses:
        for derivation in iter_derivations(clause, engine.model):
            record = (
                FactRecord(
                    clause,
                    frozenset(derivation.positive_facts),
                    frozenset(derivation.negative_atoms),
                )
                if clause.body
                else FactRecord.assertion()
            )
            expected.setdefault(derivation.head, set()).add(record)
    return expected


def revisions(name, seed, n_updates, rule_ratio=0.0):
    """Drive engine *name* through a random update sequence, yielding it
    after every update — once the update's delta was checked against the
    model diff and (for the sound engines) the model against the oracle.
    The fact-level engine's citation index and entry total are checked
    against the live table at every step too. A positive *rule_ratio*
    mixes rule deletions and re-insertions in (restratification)."""
    syn = generate(seed, SMALL)
    if rule_ratio:
        updates = mixed_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, rule_ratio=rule_ratio, seed=seed,
        )
    else:
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, seed=seed,
        )
    engine = create_engine(name, syn.program)
    for operation, subject in updates:
        before = engine.model.as_set()
        result = engine.apply(operation, subject)
        after = engine.model.as_set()
        assert result.added - result.removed == after - before
        assert result.removed - result.added == before - after
        if name in SOUND_ENGINE_NAMES:
            assert engine.is_consistent(), (
                f"{name} diverged after {operation} {subject}"
            )
        if name == "factlevel":
            assert not index_gaps(engine._arena, engine._table)
            assert engine.support_entry_count() == recount(
                engine._arena, engine._table
            )
        yield engine


def decoded_supports(engine, key="records"):
    """The engine's whole support table, decoded to supports.py objects."""
    return engine.state_dict()["supports"][key].to_record_state()


sequence_lengths = st.integers(min_value=1, max_value=6)


class TestSupportSpecs:
    """What each support-carrying engine's bookkeeping must *be* after
    every update, stated on the decoded ``repro.core.supports`` objects
    the paper defines — not relative to a second implementation."""

    @given(seed=seeds, n_updates=sequence_lengths)
    @common
    def test_factlevel_keeps_all_firing_instances(self, seed, n_updates):
        for engine in revisions("factlevel", seed, n_updates):
            expected = firing_instances(engine)
            assert decoded_supports(engine) == expected
            for fact_, records in expected.items():
                assert engine.records_of(fact_) == records

    @given(seed=seeds, n_updates=st.integers(min_value=2, max_value=8))
    @common
    def test_factlevel_spec_holds_across_rule_updates(self, seed, n_updates):
        # Rule deletions and re-insertions restratify between fact
        # updates; records interned under an older stratification must
        # still be reached from the changed atoms.
        for engine in revisions("factlevel", seed, n_updates, rule_ratio=0.5):
            assert decoded_supports(engine) == firing_instances(engine)

    @given(seed=seeds, n_updates=sequence_lengths)
    @common
    def test_factlevel_restore_resurrects_killed_records(self, seed, n_updates):
        # Run the sequence, roll back, run it again: every record killed
        # the first time is live again and must be found the second time.
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=n_updates, seed=seed,
        )
        engine = create_engine("factlevel", syn.program)
        checkpoint = engine.checkpoint()
        for _ in range(2):
            for operation, subject in updates:
                engine.apply(operation, subject)
                assert decoded_supports(engine) == firing_instances(engine)
                assert not index_gaps(engine._arena, engine._table)
            engine.restore(checkpoint)
            assert engine.support_entry_count() == recount(
                engine._arena, engine._table
            )

    @given(seed=seeds, n_updates=sequence_lengths)
    @common
    def test_cascade_entry_total_equals_recount(self, seed, n_updates):
        for name in ("cascade", "cascade-paper"):
            for engine in revisions(name, seed, n_updates):
                assert engine.support_entry_count() == sum(
                    len(records) for records in engine._table.values()
                )

    @given(seed=seeds, n_updates=sequence_lengths)
    @common
    def test_cascade_table_is_a_valid_support_cover(self, seed, n_updates):
        for name in ("cascade", "cascade-paper"):
            for engine in revisions(name, seed, n_updates):
                table = decoded_supports(engine)
                assert _validate_rule_records(
                    engine, {"records": table}, set(engine.db.program.facts)
                ) is None
                assert engine.support_entry_count() == sum(
                    len(records) for records in table.values()
                )
                for fact_, records in table.items():
                    assert engine.records_of(fact_) == records

    @given(seed=seeds, n_updates=sequence_lengths)
    @common
    def test_setofsets_supports_stay_minimal_covers(self, seed, n_updates):
        # Exactly the model facts carry supports, no side is empty, each
        # side is a ⊆-antichain (supports.prune_to_minimal is the paper's
        # object-level definition), and the entry count is the decoded
        # supports' size.
        for engine in revisions("setofsets", seed, n_updates):
            table = decoded_supports(engine, "supports")
            assert set(table) == engine.model.as_set()
            for fact_, support in table.items():
                assert engine.support_of(fact_) == support
                assert support.pos and support.neg
                assert prune_to_minimal(set(support.pos)) == support.pos
                assert prune_to_minimal(set(support.neg)) == support.neg
            assert engine.support_entry_count() == sum(
                support.size() for support in table.values()
            )

    @given(seed=seeds, n_updates=sequence_lengths)
    @common
    def test_paired_records_stay_minimal_covers(self, seed, n_updates):
        for engine in revisions("setofsets-paired", seed, n_updates):
            table = decoded_supports(engine)
            assert set(table) == engine.model.as_set()
            for fact_, records in table.items():
                assert records and engine.records_of(fact_) == records
                assert not any(
                    a != b and a.pos <= b.pos and a.neg <= b.neg
                    for a in records
                    for b in records
                ), f"{fact_} keeps a dominated record"
            assert engine.support_entry_count() == sum(
                record.size()
                for records in table.values()
                for record in records
            )


class TestSupportInvariants:
    @given(seed=seeds)
    @common
    def test_every_model_fact_has_supports(self, seed):
        syn = generate(seed, SMALL)
        cascade = create_engine("cascade", syn.program)
        for fact_ in cascade.model.facts():
            assert cascade.records_of(fact_), f"{fact_} lacks records"
        factlevel = create_engine("factlevel", syn.program)
        for fact_ in factlevel.model.facts():
            assert factlevel.records_of(fact_)

    @given(seed=seeds)
    @common
    def test_migration_well_ordered(self, seed):
        # migrated ⊆ removed ∩ added, and the final model contains every
        # migrated fact (they were put back).
        syn = generate(seed, SMALL)
        updates = random_updates(
            syn.program, syn.edb_relations, syn.arities, syn.domain,
            count=3, seed=seed,
        )
        engine = create_engine("cascade", syn.program)
        for operation, subject in updates:
            result = engine.apply(operation, subject)
            assert result.migrated <= result.removed
            assert result.migrated <= result.added
            for fact_ in result.migrated:
                assert fact_ in engine.model
