"""Stratification of programs.

A program P is *stratified* when there is a partition P = P1 ∪ ... ∪ Pn such
that a relation occurring positively in a clause of Pi has its definition in
⋃ Pj for j ≤ i, and one occurring negatively has it in ⋃ Pj for j < i —
equivalently, when no cycle of the dependency graph contains a negative arc.

This module computes the canonical finest stratification by assigning each
SCC of the dependency graph the least level compatible with the two
conditions (positive arcs may stay on the same level, negative arcs must go
strictly down). A coarser stratification can be requested for testing the
paper's Theorem (i): the model does not depend on the stratification.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .clauses import Clause, Program
from .dependency import Arc, DependencyGraph, format_witness
from .errors import StratificationError


def _locate_negative_arc(
    clauses: Iterable[Clause], arc: Arc
) -> tuple[int, int]:
    """Source position of a clause contributing *arc* as a negative reference.

    Returns (0, 0) when no clause carries a position (programmatic input).
    """
    for clause in clauses:
        if clause.head.relation != arc.source:
            continue
        for lit in clause.body:
            if not lit.positive and lit.relation == arc.target:
                line = lit.line or clause.line
                column = lit.column or clause.column
                if line:
                    return line, column
    return 0, 0


def unstratifiable_error(
    graph: DependencyGraph, clauses: Iterable[Clause], context: str
) -> StratificationError:
    """Build the witness-carrying error for an unstratifiable graph."""
    witness = graph.negative_cycle_witness()
    offending = witness[0]
    line, column = _locate_negative_arc(clauses, offending)
    return StratificationError(
        f"{context}: negative arc {offending.source} -> {offending.target} "
        f"lies on the cycle {format_witness(witness)}",
        witness=witness,
        line=line,
        column=column,
    )


class Stratum:
    """One element P_i of the partition: its index, relations and clauses.

    The clause sequence is kept in sync with the program by the owning
    :class:`~repro.datalog.database.StratifiedDatabase` when facts are
    asserted or retracted (rule updates rebuild the whole stratification).
    The clauses are the keys of an insertion-ordered dict and the exposed
    tuple is cached, so registering or retracting an asserted fact costs
    O(1) however many facts the stratum holds — every transaction
    rollback re-syncs its fact diff on restore.
    """

    __slots__ = ("index", "relations", "_clauses", "_tuple", "_rules")

    def __init__(
        self, index: int, relations: frozenset[str], clauses: tuple[Clause, ...]
    ) -> None:
        self.index = index  # 1-based, as in the paper
        self.relations = relations
        self._clauses: dict[Clause, None] = dict.fromkeys(clauses, None)
        self._tuple: tuple[Clause, ...] | None = tuple(self._clauses)
        self._rules: tuple[Clause, ...] | None = None

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._tuple is None:
            self._tuple = tuple(self._clauses)
        return self._tuple

    @property
    def rules(self) -> tuple[Clause, ...]:
        """The stratum's clauses with bodies (asserted facts excluded).

        Fact churn leaves this tuple alone — asserting a fact is a
        bodiless clause — so per-update passes that only consult rules
        stay O(rules) however many facts accumulate.
        """
        if self._rules is None:
            self._rules = tuple(c for c in self._clauses if c.body)
        return self._rules

    def add(self, clause: Clause) -> None:
        if clause not in self._clauses:
            self._clauses[clause] = None
            self._tuple = None
            if clause.body:
                self._rules = None

    def discard(self, clause: Clause) -> None:
        if clause in self._clauses:
            del self._clauses[clause]
            self._tuple = None
            if clause.body:
                self._rules = None

    def __repr__(self) -> str:
        return (
            f"Stratum({self.index}, relations={sorted(self.relations)}, "
            f"{len(self._clauses)} clauses)"
        )


class Stratification:
    """A stratification P1 ∪ ... ∪ Pn of a program."""

    def __init__(self, strata: Sequence[Stratum], level_of: dict[str, int]) -> None:
        self._strata = tuple(strata)
        self._level_of = dict(level_of)

    @property
    def strata(self) -> tuple[Stratum, ...]:
        return self._strata

    def __len__(self) -> int:
        return len(self._strata)

    def __iter__(self) -> Iterator[Stratum]:
        return iter(self._strata)

    def stratum_of(self, relation: str) -> int:
        """1-based stratum index of *relation* (1 for unknown relations).

        Unknown relations arise when a fact about a brand-new extensional
        relation is inserted; such a relation can occur in no rule body yet,
        so placing it at the bottom is always consistent.
        """
        return self._level_of.get(relation, 1)

    def relations_at(self, index: int) -> frozenset[str]:
        return self._strata[index - 1].relations

    def clauses_at(self, index: int) -> tuple[Clause, ...]:
        return self._strata[index - 1].clauses

    def level_map(self) -> dict[str, int]:
        return dict(self._level_of)

    def add_clause(self, clause: Clause) -> None:
        """Register a clause of an already-known relation in its stratum."""
        self._strata[self.stratum_of(clause.head.relation) - 1].add(clause)

    def remove_clause(self, clause: Clause) -> None:
        """Unregister a clause from its stratum (no-op when absent)."""
        self._strata[self.stratum_of(clause.head.relation) - 1].discard(
            clause
        )


def _scc_levels(
    graph: DependencyGraph, clauses: Iterable[Clause] = ()
) -> dict[str, int]:
    """Assign each relation the least admissible level (1-based)."""
    sccs = graph.sccs()  # dependencies come before dependents
    component_of: dict[str, int] = {}
    for i, component in enumerate(sccs):
        for relation in component:
            component_of[relation] = i
    level_of_component = [1] * len(sccs)
    for i, component in enumerate(sccs):
        level = 1
        for relation in component:
            for succ in graph.successors(relation):
                j = component_of[succ]
                arc = graph.arc(relation, succ)
                if j == i:
                    if arc.negative:
                        raise unstratifiable_error(
                            graph,
                            clauses,
                            "recursion through negation: "
                            f"{relation} negatively depends on {succ}",
                        )
                    continue
                needed = level_of_component[j] + (1 if arc.negative else 0)
                if arc.positive:
                    needed = max(needed, level_of_component[j])
                level = max(level, needed)
        level_of_component[i] = level
    return {
        relation: level_of_component[component_of[relation]]
        for relation in graph.relations
    }


def stratify(
    program: Program, granularity: str = "level"
) -> Stratification:
    """Compute a stratification of *program*.

    ``granularity="level"`` groups relations by their least admissible
    level — the canonical stratification of [ABW] with as few strata as the
    levels allow. ``granularity="scc"`` gives the finest partition: one
    stratum per SCC of the dependency graph, in topological order, which the
    paper calls a *maximal* stratification (no stratum can be further
    decomposed). The standard model is the same either way (Theorem i).

    Raises :class:`StratificationError` when the program is not stratified.
    """
    graph = DependencyGraph(program)
    levels = _scc_levels(graph, program)  # raises on recursion through negation

    if granularity == "level":
        level_of = levels
    elif granularity == "scc":
        # SCCs arrive dependencies-first; ordering them by (level, position)
        # keeps every arc pointing to a strictly lower stratum index.
        level_of = {}
        sccs = graph.sccs()
        ordered = sorted(
            range(len(sccs)),
            key=lambda i: (min(levels[r] for r in sccs[i]), i),
        )
        for rank, i in enumerate(ordered, start=1):
            for relation in sccs[i]:
                level_of[relation] = rank
    else:
        raise ValueError(f"unknown granularity {granularity!r}")

    definitions = program.definitions()
    max_level = max(level_of.values(), default=1)
    strata: list[Stratum] = []
    for index in range(1, max_level + 1):
        relations = frozenset(
            relation for relation, level in level_of.items() if level == index
        )
        clauses = tuple(
            clause
            for relation in sorted(relations)
            for clause in definitions.get(relation, ())
        )
        strata.append(Stratum(index, relations, clauses))
    return Stratification(strata, level_of)


def check_stratified_with(
    program: Program, extra_clauses: Iterable[Clause]
) -> None:
    """Raise unless *program* plus *extra_clauses* is still stratified.

    This is the admission test the paper requires before a rule insertion:
    "each new arc obtained from the rule does not create in the dependency
    graph a cycle containing a negative arc".
    """
    extra = tuple(extra_clauses)
    graph = DependencyGraph(program)
    for clause in extra:
        graph.add_clause(clause)
    if not graph.is_stratified():
        raise unstratifiable_error(
            graph,
            tuple(program) + extra,
            "rule insertion would break stratification",
        )
