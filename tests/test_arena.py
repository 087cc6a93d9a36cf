"""Unit tests for repro.core.arena — interned columnar support storage.

The arena is a pure runtime representation: every test here checks either
an internal invariant (interning, copy-on-write isolation, canonical
renumbering) or round-trip equality with the record-object forms the rest
of the test suite pins down.
"""

import json

import pytest

from repro.core import create_engine
from repro.core.arena import (
    ASSERTION,
    Arena,
    ArenaFactRecords,
    ArenaPairedRecords,
    ArenaRuleRecords,
    ArenaSosSupports,
    EMPTY_ELEMENT,
    SupportTable,
    canonical_parts,
    from_canonical_parts,
)
from repro.core.supports import (
    FactRecord,
    PairedRecord,
    RuleRecord,
    SetOfSetsSupport,
    Signed,
)
from repro.datalog.atoms import fact
from repro.datalog.parser import parse_clause, parse_program
from repro.store.serialize import (
    decode_compact,
    dumps,
    encode_compact_tabled,
    loads,
)

RULE = parse_clause("p(X) :- q(X), not r(X).")
OTHER_RULE = parse_clause("p(X) :- s(X).")


def index_gaps(arena: Arena, table: SupportTable) -> list:
    """The live ``(head, record)`` pairs the citation index does not
    fully know — empty when the index invariant holds: the head is among
    the record's heads and the record among the citers of every atom of
    its positive and negative sets."""
    gaps = []
    for head, records in table.items():
        for record in records:
            if record == ASSERTION:
                continue
            if (
                head not in arena.fact_record_heads(record)
                or any(
                    record not in arena.fact_citers(atom, True)
                    for atom in arena.fact_pos[record]
                )
                or any(
                    record not in arena.fact_citers(atom, False)
                    for atom in arena.fact_neg[record]
                )
            ):
                gaps.append((head, record))
    return gaps


def recount(arena: Arena, table: SupportTable) -> int:
    """``support_entry_count`` the slow way: one pass over the table."""
    return sum(
        arena.fact_record_size(record)
        for records in table.values()
        for record in records
    )


class TestInterning:
    def test_atoms_intern_to_stable_slots(self):
        arena = Arena()
        a = arena.intern_atom(fact("q", 1))
        b = arena.intern_atom(fact("q", 2))
        assert a != b
        assert arena.intern_atom(fact("q", 1)) == a
        assert arena.atom_of(a) == fact("q", 1)
        assert arena.atom_id(fact("q", 2)) == b
        assert arena.atom_id(fact("q", 3)) is None

    def test_sentinel_slots(self):
        arena = Arena()
        # slot 0 of each table is pre-interned: no rule, the empty
        # element, and the assertion/trivial record.
        assert arena.intern_rule(None) == 0
        assert arena.intern_element(frozenset()) == EMPTY_ELEMENT
        assert (
            arena.intern_fact_record(0, frozenset(), frozenset())
            == ASSERTION
        )
        assert arena.intern_rule_record(None) == ASSERTION
        assert (
            arena.intern_paired_record(EMPTY_ELEMENT, EMPTY_ELEMENT)
            == ASSERTION
        )

    def test_fact_records_dedupe(self):
        arena = Arena()
        rule = arena.intern_rule(RULE)
        body = frozenset({arena.intern_atom(fact("q", 1))})
        first = arena.intern_fact_record(rule, body, frozenset())
        assert arena.intern_fact_record(rule, body, frozenset()) == first
        decoded = arena.decode_fact_record(first)
        assert decoded == FactRecord(
            RULE, frozenset({fact("q", 1)}), frozenset()
        )

    def test_elements_union_in_id_space(self):
        arena = Arena()
        left = arena.intern_element_entries({"q", Signed("-", "r")})
        right = arena.intern_element_entries({"s"})
        union = arena.union_elements((left, right))
        assert arena.decode_element(union) == frozenset(
            {"q", "s", Signed("-", "r")}
        )
        # ∅ is the neutral element
        assert arena.union_elements((left, EMPTY_ELEMENT)) == left


class TestSupportTable:
    def test_copy_isolation_both_directions(self):
        table = SupportTable()
        table.replace(1, {10, 11})
        table.replace(2, {20})
        dup = table.copy()
        table.add(1, 12)
        dup.discard(2, 20)
        assert table.get(1) == {10, 11, 12}
        assert dup.get(1) == {10, 11}
        assert table.get(2) == {20}
        assert not dup.get(2)

    def test_copy_stays_reusable(self):
        table = SupportTable()
        table.replace(1, {10})
        frozen = table.copy()
        table.pop(1)
        table.replace(3, {30})
        assert frozen.get(1) == {10}
        assert frozen.get(3) is None
        again = frozen.copy()
        again.add(1, 11)
        assert frozen.get(1) == {10}

    def test_discard_many_and_len(self):
        table = SupportTable()
        table.replace(1, {10, 11, 12})
        table.discard_many(1, {10, 12})
        assert table.get(1) == {11}
        assert len(table) == 1
        assert 1 in table and 2 not in table


    def test_total_follows_every_mutator_and_copy(self):
        weights = [1, 3, 2, 5]  # per record slot, as Arena.fact_size
        for column in (None, weights):
            def weigh(records, column=column):
                return sum(1 if column is None else column[r] for r in records)

            table = SupportTable(column)
            table.replace(7, {1, 2})
            table.add(7, 3)
            table.add(7, 3)  # already there: counted once
            table.add(8, 0)
            assert table.total == weigh([1, 2, 3, 0])
            frozen = table.copy()
            table.discard(7, 2)
            table.discard(7, 2)  # already gone
            table.discard_many(7, {1, 9})  # 9 was never there
            table.replace(8, {1, 2})
            table.pop(9)  # absent slot
            assert table.total == weigh([3, 1, 2])
            table.pop(7)
            assert table.total == weigh([1, 2])
            assert frozen.total == weigh([1, 2, 3, 0])
            assert frozen.copy().total == frozen.total


class TestCitationIndex:
    def test_citers_and_heads_of_a_record(self):
        arena = Arena()
        table = SupportTable(arena.fact_size)
        q1, r1, p1 = (arena.intern_atom(fact(n, 1)) for n in "qrp")
        record = arena.intern_fact_record(
            arena.intern_rule(RULE), frozenset({q1}), frozenset({r1})
        )
        assert arena.fact_citers(q1, True) == (record,)
        assert arena.fact_citers(r1, False) == (record,)
        assert not arena.fact_citers(q1, False)
        assert not arena.fact_record_heads(record)  # interned, not attached
        arena.attach_fact_record(table, p1, record)
        arena.attach_fact_record(table, p1, record)  # idempotent
        assert arena.fact_record_heads(record) == (p1,)
        assert table.get(p1) == {record}
        assert table.total == arena.fact_record_size(record) == 3

    def test_single_entries_grow_into_lists(self):
        arena = Arena()
        table = SupportTable(arena.fact_size)
        q1 = arena.intern_atom(fact("q", 1))
        one = arena.intern_fact_record(
            arena.intern_rule(RULE), frozenset({q1}), frozenset()
        )
        two = arena.intern_fact_record(
            arena.intern_rule(OTHER_RULE), frozenset({q1}), frozenset()
        )
        assert list(arena.fact_citers(q1, True)) == [one, two]
        heads = [arena.intern_atom(fact("p", i)) for i in (1, 2, 3)]
        for head in heads:
            arena.attach_fact_record(table, head, one)
        assert list(arena.fact_record_heads(one)) == heads

    def test_index_never_shrinks_and_assertion_is_not_indexed(self):
        arena = Arena()
        table = SupportTable(arena.fact_size)
        q1, p1 = arena.intern_atom(fact("q", 1)), arena.intern_atom(fact("p", 1))
        record = arena.intern_fact_record(
            arena.intern_rule(RULE), frozenset({q1}), frozenset()
        )
        arena.attach_fact_record(table, p1, record)
        arena.attach_fact_record(table, q1, ASSERTION)
        table.discard(p1, record)
        table.pop(q1)
        assert arena.fact_citers(q1, True) == (record,)
        assert arena.fact_record_heads(record) == (p1,)
        assert not arena.fact_record_heads(ASSERTION)

    def test_loaders_fill_the_index(self):
        state = _sample_fact_state()  # from_records: the v1 / legacy load
        assert not index_gaps(state.arena, state.table)
        assert state.table.total == recount(state.arena, state.table)
        parts = canonical_parts(state)
        rebuilt = from_canonical_parts(
            parts.kind, parts.atoms, parts.rules, parts.entries,
            parts.elements, parts.records, parts.table,
        )
        assert len(rebuilt.table) == len(state.table)
        assert not index_gaps(rebuilt.arena, rebuilt.table)
        assert rebuilt.table.total == state.table.total


class TestPruning:
    def test_prune_element_ids_matches_record_form(self):
        arena = Arena()
        a = arena.intern_element_entries({"a"})
        ab = arena.intern_element_entries({"a", "b"})
        c = arena.intern_element_entries({"c"})
        assert arena.prune_element_ids({a, ab, c}) == {a, c}
        assert arena.prune_element_ids({EMPTY_ELEMENT, a}) == {
            EMPTY_ELEMENT
        }

    def test_prune_paired_ids_dominates_on_both_sides(self):
        arena = Arena()
        small = arena.intern_paired_record(
            arena.intern_element_entries({"a"}),
            arena.intern_element_entries({Signed("+", "r")}),
        )
        bigger = arena.intern_paired_record(
            arena.intern_element_entries({"a", "b"}),
            arena.intern_element_entries({Signed("+", "r")}),
        )
        crossed = arena.intern_paired_record(
            arena.intern_element_entries({"a", "b"}),
            arena.intern_element_entries({Signed("+", "s")}),
        )
        # bigger is dominated by small; crossed is incomparable (its neg
        # side differs) and must survive.
        assert arena.prune_paired_ids({small, bigger, crossed}) == {
            small,
            crossed,
        }
        assert arena.prune_paired_ids({ASSERTION, small}) == {ASSERTION}


def _sample_fact_state() -> ArenaFactRecords:
    records = {
        fact("p", 1): {
            FactRecord(RULE, frozenset({fact("q", 1)}), frozenset()),
            FactRecord.assertion(),
        },
        fact("q", 1): {FactRecord.assertion()},
    }
    return ArenaFactRecords.from_records(records)


class TestCanonicalParts:
    def test_round_trip_every_kind(self):
        states = [
            _sample_fact_state(),
            ArenaRuleRecords.from_records(
                {
                    fact("p", 1): {
                        RuleRecord.of_rule(RULE),
                        RuleRecord.assertion(),
                    }
                }
            ),
            ArenaPairedRecords.from_records(
                {
                    fact("p", 1): {
                        PairedRecord(
                            frozenset({"q", Signed("-", "r")}),
                            frozenset({Signed("+", "r")}),
                        ),
                        PairedRecord.trivial(),
                    }
                }
            ),
            ArenaSosSupports.from_records(
                {
                    fact("p", 1): SetOfSetsSupport(
                        {frozenset({"q"})}, {frozenset({Signed("+", "r")})}
                    )
                }
            ),
        ]
        for state in states:
            parts = canonical_parts(state)
            rebuilt = from_canonical_parts(
                parts.kind,
                parts.atoms,
                parts.rules,
                parts.entries,
                parts.elements,
                parts.records,
                parts.table,
            )
            assert rebuilt.to_record_state() == state.to_record_state()

    def test_canonical_image_drops_garbage(self):
        # Records superseded during the session stay in the append-only
        # arena but must not reach the snapshot.
        arena = Arena()
        table = SupportTable()
        stale = arena.intern_fact_record(
            arena.intern_rule(OTHER_RULE),
            frozenset({arena.intern_atom(fact("s", 9))}),
            frozenset(),
        )
        live = arena.intern_fact_record(
            arena.intern_rule(RULE),
            frozenset({arena.intern_atom(fact("q", 1))}),
            frozenset(),
        )
        table.replace(arena.intern_atom(fact("p", 1)), {live})
        parts = canonical_parts(ArenaFactRecords(arena, table))
        assert fact("s", 9) not in parts.atoms
        assert OTHER_RULE not in parts.rules
        assert stale != live  # sanity: the stale slot existed

    def test_slot_order_does_not_change_bytes(self):
        # Two arenas that grew in different orders hold the same state;
        # their canonical encodings must be byte-identical.
        records = _sample_fact_state().to_record_state()
        reordered = dict(reversed(list(records.items())))
        one = encode_compact_tabled(ArenaFactRecords.from_records(records))
        two = encode_compact_tabled(
            ArenaFactRecords.from_records(reordered)
        )
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )


class TestSerialization:
    def test_compact_round_trip(self):
        state = _sample_fact_state()
        payload = encode_compact_tabled({"records": state})
        decoded = decode_compact(
            json.loads(json.dumps(payload, sort_keys=True))
        )
        rebuilt = decoded["records"]
        assert isinstance(rebuilt, ArenaFactRecords)
        assert rebuilt.to_record_state() == state.to_record_state()

    def test_dumps_expands_to_record_bytes(self):
        # The v1/object codec has no arena notion: an arena-backed state
        # and its record expansion must serialize to the same bytes, and
        # load back as the plain record mapping.
        state = _sample_fact_state()
        assert dumps({"records": state}) == dumps(
            {"records": state.to_record_state()}
        )
        assert loads(dumps({"records": state})) == {
            "records": state.to_record_state()
        }

    def test_live_arena_encodes_like_rebuilt(self):
        # Snapshot encode reads the live intern tables; the bytes must not
        # depend on the arena's private growth history.
        program = parse_program(
            """
            q(1). q(2). r(2).
            p(X) :- q(X), not r(X).
            """
        )
        engine = create_engine("factlevel", program)
        engine.apply("insert_fact", fact("r", 1))
        engine.apply("delete_fact", fact("r", 1))
        live = engine._support_state()["records"]
        rebuilt = ArenaFactRecords.from_records(live.to_record_state())
        assert json.dumps(
            encode_compact_tabled(live), sort_keys=True
        ) == json.dumps(encode_compact_tabled(rebuilt), sort_keys=True)


class TestEngineIntegration:
    PROGRAM = parse_program(
        """
        q(1). q(2). r(2). s(3).
        p(X) :- q(X), not r(X).
        p(X) :- s(X).
        """
    )

    def test_record_object_state_loads(self):
        # v1 snapshots and legacy states carry the object-level mappings;
        # load_state interns them into a fresh arena.
        for name in (
            "factlevel",
            "cascade",
            "cascade-paper",
            "setofsets",
            "setofsets-paired",
        ):
            source = create_engine(name, self.PROGRAM)
            source.apply("insert_fact", fact("r", 1))
            state = source.state_dict()
            state["supports"] = {
                key: value.to_record_state() if value else value
                for key, value in state["supports"].items()
            }
            target = create_engine(name, self.PROGRAM, build=False)
            target.load_state(state)
            assert target.model == source.model
            assert target.state_dict()["supports"] == source.state_dict()[
                "supports"
            ]
            assert (
                target.support_entry_count()
                == source.support_entry_count()
            )
            target.apply("delete_fact", fact("r", 1))
            assert target.is_consistent()

    def test_checkpoint_restore_is_reusable(self):
        for name in ("factlevel", "cascade", "setofsets-paired"):
            engine = create_engine(name, self.PROGRAM)
            checkpoint = engine.checkpoint()
            model_before = engine.model.as_set()
            count_before = engine.support_entry_count()
            for _ in range(2):
                engine.apply("insert_fact", fact("r", 1))
                engine.apply("delete_fact", fact("q", 2))
                engine.restore(checkpoint)
                assert engine.model.as_set() == model_before
                assert engine.support_entry_count() == count_before
            # the restored engine keeps revising correctly
            engine.apply("insert_fact", fact("r", 1))
            assert engine.is_consistent()

    def test_restore_reproduces_clause_order_and_bytes(self):
        # Delete-then-reinsert leaves the same clause *set* with q(1)
        # moved to the end; restore must bring back the checkpoint's
        # exact tuple, because state_dict serializes the program in order.
        for name in ("factlevel", "cascade", "setofsets-paired", "dynamic"):
            engine = create_engine(name, self.PROGRAM)
            before = dumps(engine.state_dict())
            checkpoint = engine.checkpoint()
            engine.apply("delete_fact", fact("q", 1))
            engine.apply("insert_fact", fact("q", 1))
            assert engine.db.program.clauses != checkpoint["program"]
            assert set(engine.db.program.clauses) == set(
                checkpoint["program"]
            )
            engine.restore(checkpoint)
            assert engine.db.program.clauses == checkpoint["program"]
            assert dumps(engine.state_dict()) == before

    def test_factlevel_index_survives_restore_and_both_snapshot_forms(self):
        engine = create_engine("factlevel", self.PROGRAM)
        checkpoint = engine.checkpoint()
        engine.apply("insert_fact", fact("r", 1))  # kills p(1)'s record
        engine.restore(checkpoint)  # ... and brings it back
        assert not index_gaps(engine._arena, engine._table)
        assert engine.support_entry_count() == recount(
            engine._arena, engine._table
        )
        state = engine.state_dict()
        v2 = create_engine("factlevel", self.PROGRAM, build=False)
        v2.load_state(  # the compact codec's "A" node: from_canonical_parts
            {**state, "supports": decode_compact(
                json.loads(json.dumps(encode_compact_tabled(state["supports"])))
            )}
        )
        v1 = create_engine("factlevel", self.PROGRAM, build=False)
        v1.load_state(loads(dumps(state)))  # record objects: from_records
        for loaded in (v2, v1):
            assert not index_gaps(loaded._arena, loaded._table)
            assert loaded.support_entry_count() == engine.support_entry_count()
            loaded.apply("insert_fact", fact("r", 1))
            assert fact("p", 1) not in loaded.model
            assert loaded.is_consistent()
            assert not index_gaps(loaded._arena, loaded._table)

    def test_arena_is_not_an_option(self):
        for name in ("factlevel", "recompute"):
            with pytest.raises(TypeError):
                create_engine(name, self.PROGRAM, arena=False)
