"""Clauses (rules) and programs.

A :class:`Clause` is ``head :- body`` where the body is a sequence of
literals; a clause with an empty body asserts its (ground) head — that is
how extensional facts live inside a program, exactly as in the paper where
the database ``P`` "is divided into a set of ground atoms defining
extensional relations [and] a set of clauses defining intentional
relations".

A :class:`Program` is an ordered collection of clauses with the derived
views used everywhere else: the set of asserted facts, the definitions map
(relation -> clauses concluding it), and the safety check.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .atoms import Atom, Literal
from .errors import SafetyError
from .terms import Variable


class Clause:
    """A rule ``head :- L1, ..., Lk`` (k may be 0, making it a fact).

    ``line``/``column`` locate the clause in its source text when it was
    parsed (1-based; 0/0 for programmatically built clauses). They default
    to the head atom's position, are provenance only, and take no part in
    equality or hashing.
    """

    __slots__ = ("head", "body", "_hash", "line", "column")

    def __init__(
        self,
        head: Atom,
        body: Sequence[Literal] = (),
        *,
        line: int = 0,
        column: int = 0,
    ) -> None:
        self.head = head
        self.body = tuple(body)
        self._hash = hash((head, self.body))
        self.line = line or head.line
        self.column = column or head.column

    @property
    def is_fact(self) -> bool:
        """True for a bodiless clause with a ground head."""
        return not self.body and self.head.is_ground()

    @property
    def positive_body(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.body if lit.positive)

    @property
    def negative_body(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.body if not lit.positive)

    def body_relations(self) -> Iterator[tuple[str, bool]]:
        """Yield ``(relation, positive)`` for every body literal."""
        for lit in self.body:
            yield lit.relation, lit.positive

    def head_variables(self) -> set[Variable]:
        return set(self.head.variables())

    def unsafe_variables(
        self,
    ) -> tuple[tuple[Variable, ...], tuple[tuple[Literal, tuple[Variable, ...]], ...]]:
        """The range-restriction violations of the clause, if any.

        Returns ``(head_unbound, negative_unbound)``: the head variables not
        bound by any positive body literal (sorted by name, deduplicated),
        and for each offending negative literal the tuple of its unbound
        variables. Both are empty exactly when the clause is safe. This is
        the single computation behind :meth:`check_safety` (the raising
        enforcement path) and the analyzer's ``DL001`` diagnostic.
        """
        bound = {
            var
            for lit in self.body
            if lit.positive
            for var in lit.variables()
        }
        head_unbound = tuple(
            sorted(
                {var for var in self.head.variables() if var not in bound},
                key=lambda var: var.name,
            )
        )
        negative_unbound = []
        for lit in self.body:
            if lit.positive:
                continue
            unbound = tuple(
                sorted(
                    {var for var in lit.variables() if var not in bound},
                    key=lambda var: var.name,
                )
            )
            if unbound:
                negative_unbound.append((lit, unbound))
        return head_unbound, tuple(negative_unbound)

    def check_safety(self) -> None:
        """Raise :class:`SafetyError` unless the clause is range-restricted.

        Safety demands that every variable of the head and of every negative
        body literal also occurs in some positive body literal. Bodiless
        clauses must therefore have ground heads. The raised error carries
        diagnostic code ``DL001`` and the clause's source position when it
        was parsed from text.
        """
        head_unbound, negative_unbound = self.unsafe_variables()
        if head_unbound:
            names = ", ".join(var.name for var in head_unbound)
            raise SafetyError(
                f"unsafe clause {self}: head variable(s) {names} do not occur "
                "in a positive body literal",
                line=self.line,
                column=self.column,
            )
        if negative_unbound:
            lit, unbound = negative_unbound[0]
            names = ", ".join(var.name for var in unbound)
            raise SafetyError(
                f"unsafe clause {self}: variable(s) {names} of negative "
                f"literal {lit} do not occur in a positive body literal",
                line=lit.line or self.line,
                column=lit.column or self.column,
            )

    def __repr__(self) -> str:
        return f"Clause({self.head!r}, {self.body!r})"

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        rendered = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {rendered}."

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Clause)
            and other._hash == self._hash
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self) -> int:
        return self._hash


def rule(head: Atom, *body: Literal) -> Clause:
    """Convenience constructor: ``rule(atom("p", X), pos("q", X))``."""
    return Clause(head, body)


class Program:
    """An ordered, duplicate-free collection of clauses.

    The order is preserved for reproducibility (the model does not depend on
    it, but iteration order of dict/set operations downstream does, and we
    want runs to be deterministic).
    """

    __slots__ = ("_clauses", "_tuple")

    def __init__(self, clauses: Iterable[Clause] = ()) -> None:
        # An insertion-ordered dict: membership and removal are O(1) and
        # iteration keeps the order snapshot bytes depend on.
        self._clauses: dict[Clause, None] = {}
        self._tuple: tuple[Clause, ...] | None = None
        for clause in clauses:
            self.add(clause)

    def add(self, clause: Clause) -> bool:
        """Add *clause* unless already present. Return True when added."""
        if clause in self._clauses:
            return False
        clause.check_safety()
        self._clauses[clause] = None
        self._tuple = None
        return True

    def remove(self, clause: Clause) -> bool:
        """Remove *clause* if present. Return True when removed."""
        if clause not in self._clauses:
            return False
        del self._clauses[clause]
        self._tuple = None
        return True

    def __contains__(self, clause: Clause) -> bool:
        return clause in self._clauses

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._tuple is None:
            self._tuple = tuple(self._clauses)
        return self._tuple

    @property
    def rules(self) -> tuple[Clause, ...]:
        """The clauses with non-empty bodies (the intentional part)."""
        return tuple(clause for clause in self._clauses if clause.body)

    @property
    def facts(self) -> tuple[Atom, ...]:
        """The heads of the bodiless clauses (the extensional part)."""
        return tuple(
            clause.head for clause in self._clauses if not clause.body
        )

    def relations(self) -> set[str]:
        """Every relation name occurring anywhere in the program."""
        names: set[str] = set()
        for clause in self._clauses:
            names.add(clause.head.relation)
            for lit in clause.body:
                names.add(lit.relation)
        return names

    def definitions(self) -> Mapping[str, tuple[Clause, ...]]:
        """Map each relation to its definition.

        The *definition* of a relation is "the set of clauses using it in
        its conclusion" (section 2 of the paper). Relations that occur only
        in bodies map to an empty tuple.
        """
        result: dict[str, list[Clause]] = {name: [] for name in self.relations()}
        for clause in self._clauses:
            result[clause.head.relation].append(clause)
        return {name: tuple(defs) for name, defs in result.items()}

    def extensional_relations(self) -> set[str]:
        """Relations defined exclusively by ground facts (the EDB)."""
        edb: set[str] = set()
        idb: set[str] = set()
        for clause in self._clauses:
            target = idb if clause.body else edb
            target.add(clause.head.relation)
        for clause in self._clauses:
            for lit in clause.body:
                if lit.relation not in edb and lit.relation not in idb:
                    edb.add(lit.relation)  # mentioned but never concluded
        return edb - idb

    def intensional_relations(self) -> set[str]:
        """Relations concluded by at least one proper rule (the IDB)."""
        return {clause.head.relation for clause in self._clauses if clause.body}

    def copy(self) -> "Program":
        return Program(self._clauses)

    def __repr__(self) -> str:
        return f"Program({len(self._clauses)} clauses)"

    def __str__(self) -> str:
        return "\n".join(str(clause) for clause in self._clauses)
