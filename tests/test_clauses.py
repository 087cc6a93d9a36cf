"""Unit tests for repro.datalog.clauses."""

import pytest

from repro.datalog.atoms import Atom, atom, neg, pos
from repro.datalog.clauses import Clause, Program, rule
from repro.datalog.errors import SafetyError
from repro.datalog.terms import Variable

X = Variable("X")
Y = Variable("Y")


class TestClause:
    def test_fact_detection(self):
        assert Clause(Atom("p", (1,))).is_fact
        assert not Clause(Atom("p", (X,)), (pos("q", X),)).is_fact

    def test_body_partition(self):
        c = rule(atom("p", X), pos("q", X), neg("r", X), pos("s", X))
        assert [l.relation for l in c.positive_body] == ["q", "s"]
        assert [l.relation for l in c.negative_body] == ["r"]

    def test_body_relations_signed(self):
        c = rule(atom("p", X), pos("q", X), neg("r", X))
        assert list(c.body_relations()) == [("q", True), ("r", False)]

    def test_str_roundtrip_shape(self):
        c = rule(atom("p", X), pos("q", X), neg("r", X))
        assert str(c) == "p(X) :- q(X), not r(X)."
        assert str(Clause(atom("p", 1))) == "p(1)."

    def test_equality(self):
        a = rule(atom("p", X), pos("q", X))
        b = rule(atom("p", X), pos("q", X))
        assert a == b and hash(a) == hash(b)


class TestSafety:
    def test_unbound_head_variable(self):
        with pytest.raises(SafetyError):
            rule(atom("p", X, Y), pos("q", X)).check_safety()

    def test_unbound_negative_variable(self):
        with pytest.raises(SafetyError):
            rule(atom("p", X), pos("q", X), neg("r", Y)).check_safety()

    def test_negative_literal_cannot_bind(self):
        with pytest.raises(SafetyError):
            rule(atom("p", X), neg("q", X)).check_safety()

    def test_ground_negative_literal_is_safe(self):
        rule(atom("p", X), pos("q", X), neg("r", 1)).check_safety()

    def test_bodiless_clause_must_be_ground(self):
        with pytest.raises(SafetyError):
            Clause(atom("p", X)).check_safety()


class TestProgram:
    def _program(self):
        return Program(
            [
                Clause(atom("e", 1)),
                Clause(atom("e", 2)),
                rule(atom("p", X), pos("e", X)),
                rule(atom("q", X), pos("p", X), neg("r", X)),
            ]
        )

    def test_deduplication(self):
        program = Program()
        assert program.add(Clause(atom("e", 1)))
        assert not program.add(Clause(atom("e", 1)))
        assert len(program) == 1

    def test_add_checks_safety(self):
        with pytest.raises(SafetyError):
            Program().add(rule(atom("p", X)))

    def test_remove(self):
        program = self._program()
        assert program.remove(Clause(atom("e", 1)))
        assert not program.remove(Clause(atom("e", 1)))
        assert len(program) == 3

    def test_remove_keeps_the_order_of_the_rest(self):
        # Snapshot bytes follow this order: removing from the middle and
        # re-adding moves the clause to the end, nothing else shifts.
        program = self._program()
        first, second, third, fourth = program.clauses
        program.remove(second)
        assert program.clauses == (first, third, fourth)
        assert list(program) == [first, third, fourth]
        assert second not in program and third in program
        program.add(second)
        assert program.clauses == (first, third, fourth, second)
        assert program.copy().clauses == program.clauses

    def test_remove_does_not_compare_clauses(self, monkeypatch):
        # O(1): the removed clause is found by hash (membership, then
        # deletion) and compared with no other clause; list.remove used
        # to scan the program.
        program = Program(Clause(atom("e", i)) for i in range(50))
        compared = []
        original = Clause.__eq__
        monkeypatch.setattr(
            Clause, "__eq__",
            lambda self, other: compared.append(self) or original(self, other),
        )
        assert program.remove(Clause(atom("e", 49)))
        assert len(compared) <= 2

    def test_facts_and_rules(self):
        program = self._program()
        assert {str(f) for f in program.facts} == {"e(1)", "e(2)"}
        assert len(program.rules) == 2

    def test_relations(self):
        assert self._program().relations() == {"e", "p", "q", "r"}

    def test_definitions(self):
        defs = self._program().definitions()
        assert len(defs["e"]) == 2
        assert len(defs["p"]) == 1
        assert defs["r"] == ()

    def test_extensional_vs_intensional(self):
        program = self._program()
        # r is mentioned only in a body: extensional with no facts yet.
        assert program.extensional_relations() == {"e", "r"}
        assert program.intensional_relations() == {"p", "q"}

    def test_copy_is_independent(self):
        program = self._program()
        dup = program.copy()
        dup.remove(Clause(atom("e", 1)))
        assert len(program) == 4 and len(dup) == 3

    def test_iteration_preserves_insertion_order(self):
        program = self._program()
        heads = [clause.head.relation for clause in program]
        assert heads == ["e", "e", "p", "q"]
