"""Unit tests for repro.datalog.stratify."""

import pytest

from repro.datalog.clauses import Clause
from repro.datalog.errors import StratificationError
from repro.datalog.parser import parse_clause, parse_program
from repro.datalog.stratify import check_stratified_with, stratify


class TestLevels:
    def test_edb_at_level_one(self):
        s = stratify(parse_program("e(1). p(X) :- e(X)."))
        assert s.stratum_of("e") == 1
        assert s.stratum_of("p") == 1  # positive dependency stays level 1

    def test_negation_bumps_level(self):
        s = stratify(parse_program("e(1). p(X) :- e(X), not q(X)."))
        assert s.stratum_of("q") == 1
        assert s.stratum_of("p") == 2

    def test_chain_levels(self):
        s = stratify(parse_program("p1 :- not p0. p2 :- not p1. p3 :- not p2."))
        assert [s.stratum_of(f"p{i}") for i in range(4)] == [1, 2, 3, 4]

    def test_mutually_recursive_share_stratum(self):
        s = stratify(parse_program("p(X) :- q(X). q(X) :- p(X). p(X) :- e(X)."))
        assert s.stratum_of("p") == s.stratum_of("q")

    def test_unknown_relation_defaults_to_one(self):
        s = stratify(parse_program("e(1)."))
        assert s.stratum_of("never_seen") == 1

    def test_not_stratified_raises(self):
        with pytest.raises(StratificationError):
            stratify(parse_program("p(X) :- e(X), not q(X). q(X) :- p(X)."))


class TestStrataContents:
    def test_clauses_assigned_to_head_stratum(self):
        program = parse_program(
            "e(1). e(2). p(X) :- e(X), not q(X). q(X) :- e(X), not r(X)."
        )
        s = stratify(program)
        q_stratum = s.stratum_of("q")
        clauses = s.clauses_at(q_stratum)
        assert all(c.head.relation in s.relations_at(q_stratum) for c in clauses)

    def test_every_clause_in_exactly_one_stratum(self):
        program = parse_program(
            "e(1). p(X) :- e(X). q(X) :- p(X), not p2(X). p2(X) :- e(X)."
        )
        s = stratify(program)
        total = sum(len(stratum.clauses) for stratum in s)
        assert total == len(program)

    def test_negative_references_strictly_lower(self):
        program = parse_program(
            "e(1). a(X) :- e(X), not b(X). b(X) :- e(X), not c(X). c(X) :- e(X)."
        )
        s = stratify(program)
        for stratum in s:
            for clause in stratum.clauses:
                for lit in clause.negative_body:
                    assert s.stratum_of(lit.relation) < stratum.index

    def test_positive_references_lower_or_equal(self):
        program = parse_program("e(1). p(X) :- e(X). q(X) :- p(X), q(X).")
        s = stratify(program)
        for stratum in s:
            for clause in stratum.clauses:
                for lit in clause.positive_body:
                    assert s.stratum_of(lit.relation) <= stratum.index


class TestSccGranularity:
    def test_scc_granularity_refines_levels(self):
        program = parse_program(
            "e(1). f(2). p(X) :- e(X). q(X) :- f(X)."
        )
        coarse = stratify(program, granularity="level")
        fine = stratify(program, granularity="scc")
        assert len(fine) >= len(coarse)

    def test_scc_granularity_keeps_ordering_constraints(self):
        program = parse_program(
            "e(1). a(X) :- e(X), not b(X). b(X) :- e(X), not c(X). c(X) :- e(X)."
        )
        s = stratify(program, granularity="scc")
        assert s.stratum_of("c") < s.stratum_of("b") < s.stratum_of("a")

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            stratify(parse_program("e(1)."), granularity="bogus")


class TestAdmission:
    def test_check_stratified_with_accepts(self):
        program = parse_program("e(1). p(X) :- e(X), not q(X).")
        check_stratified_with(program, [parse_clause("q(X) :- e(X).")])

    def test_check_stratified_with_rejects(self):
        program = parse_program("e(1). p(X) :- e(X), not q(X).")
        with pytest.raises(StratificationError):
            check_stratified_with(program, [parse_clause("q(X) :- p(X).")])


class TestClauseSync:
    def test_add_and_remove_clause(self):
        program = parse_program("e(1). p(X) :- e(X).")
        s = stratify(program)
        extra = Clause(parse_clause("e(9).").head)
        s.add_clause(extra)
        assert extra in s.clauses_at(s.stratum_of("e"))
        s.remove_clause(extra)
        assert extra not in s.clauses_at(s.stratum_of("e"))

    def test_add_clause_idempotent(self):
        program = parse_program("e(1).")
        s = stratify(program)
        extra = parse_clause("e(7).")
        s.add_clause(extra)
        s.add_clause(extra)
        assert s.clauses_at(1).count(extra) == 1

    def test_discard_keeps_order_and_compares_nothing(self, monkeypatch):
        program = parse_program(" ".join(f"e({i})." for i in range(40)))
        stratum = stratify(program).strata[0]
        clauses = stratum.clauses
        compared = []
        original = Clause.__eq__
        monkeypatch.setattr(
            Clause, "__eq__",
            lambda self, other: compared.append(self) or original(self, other),
        )
        stratum.discard(parse_clause("e(39)."))
        stratum.discard(parse_clause("e(3)."))
        assert len(compared) <= 4  # two hash hits each, no scan
        monkeypatch.undo()
        assert stratum.clauses == clauses[:3] + clauses[4:39]
        stratum.add(parse_clause("e(3)."))
        assert stratum.clauses[-1] == parse_clause("e(3).")
