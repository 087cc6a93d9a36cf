"""Section 4.2 — the dynamic solution with one (Pos, Neg) pair per fact.

The supports are computed *during* saturation, so they record the
dependencies actually used rather than all potential ones (which is what
saves Example 1's ``accepted(l+1)`` from migrating: an asserted fact has the
trivial support and never fails a removal test).

Negative hypotheses are the subtle part. Recording the negated relations
plainly is **incorrect** (the paper's Example 2: the chain ``p1 :- not p0``,
``p2 :- not p1``, ``p3 :- not p2`` loses the crucial dependency of ``p3`` on
``p0``). The fix keeps *signed* entries (``-r`` in Pos, ``+r`` in Neg) which
the removal phase expands through the static closures into the paper's
``Pos'``/``Neg'`` (Lemma 2). Both variants are implemented —
``signed_statics=False`` reproduces the incorrect one for experiment E3.

Only one support is kept per fact; when another deduction yields a pairwise
smaller pair it replaces the old one (Example 3 / CONGRESS; disable with
``keep_smaller=False`` for the E4 ablation). Keeping just one support is
also why Example 4 (MEET) still migrates — fixed by the sets-of-sets
solution of section 4.3.
"""

from __future__ import annotations

from ..datalog.atoms import Atom
from ..datalog.clauses import Clause
from ..datalog.evaluation import Derivation
from ..obs import OBS
from .base import MaintenanceEngine
from .supports import (
    PairSupport,
    expand_neg_element,
    expand_pos_element,
    pair_support_of_derivation,
    plain_relations,
)


class DynamicEngine(MaintenanceEngine):
    """The dynamic solution of section 4.2."""

    name = "dynamic"

    def __init__(
        self,
        program,
        *,
        signed_statics: bool = True,
        keep_smaller: bool = True,
        **kwargs,
    ):
        self.signed_statics = signed_statics
        self.keep_smaller = keep_smaller
        self._supports: dict[Atom, PairSupport] = {}
        super().__init__(program, **kwargs)

    # ------------------------------------------------------------------
    # Support construction
    # ------------------------------------------------------------------

    def _reset_supports(self) -> None:
        self._supports.clear()

    def _build_listener(self):
        def listener(derivation: Derivation, is_new: bool, plan) -> None:
            self._derivations_fired += 1
            self._note_deduction(derivation, plan)

        return listener

    def _base_pair(self, clause) -> PairSupport:
        """The clause-level contribution to a deduction's (Pos, Neg) pair.

        Depends only on the rule's body relations, so it is built once per
        clause and attached to the plan as a support template; per
        derivation only the body facts' supports are unioned in.
        """
        return pair_support_of_derivation(
            (),
            (lit.relation for lit in clause.positive_body),
            (lit.relation for lit in clause.negative_body),
        )

    def _base_plain(self, clause) -> PairSupport:
        # The paper's first, incorrect attempt: negated relations are
        # recorded plainly and dependencies through them are lost.
        return PairSupport(
            frozenset(lit.relation for lit in clause.positive_body),
            frozenset(lit.relation for lit in clause.negative_body),
        )

    def _note_deduction(self, derivation: Derivation, plan) -> None:
        base: PairSupport = plan.support_template(
            "pair_signed" if self.signed_statics else "pair_plain",
            self._base_pair if self.signed_statics else self._base_plain,
        )
        pos: set = set(base.pos)
        neg: set = set(base.neg)
        for fact in derivation.positive_facts:
            body = self._supports[fact]
            pos |= body.pos
            neg |= body.neg
        support = PairSupport(frozenset(pos), frozenset(neg))
        existing = self._supports.get(derivation.head)
        if existing is None:
            self._supports[derivation.head] = support
        elif self.keep_smaller and support.pairwise_smaller(existing):
            self._supports[derivation.head] = support

    def _register_assertion(self, fact: Atom) -> None:
        trivial = PairSupport.trivial()
        existing = self._supports.get(fact)
        if existing is None or (
            self.keep_smaller and trivial.pairwise_smaller(existing)
        ):
            self._supports[fact] = trivial

    def support_of(self, fact: Atom) -> PairSupport:
        """The current support of *fact* (KeyError when absent)."""
        return self._supports[fact]

    def support_entry_count(self) -> int:
        return sum(support.size() for support in self._supports.values())

    def _support_state(self) -> dict:
        # PairSupport is immutable; copying the dict is a deep copy.
        return {"supports": dict(self._supports)}

    def _load_support_state(self, state: dict) -> None:
        self._supports = dict(state["supports"])

    # ------------------------------------------------------------------
    # Removal phases
    # ------------------------------------------------------------------

    def _expanded_neg(self, support: PairSupport) -> set[str]:
        if self.signed_statics:
            return expand_neg_element(support.neg, self.db.statics)
        return plain_relations(support.neg)

    def _expanded_pos(self, support: PairSupport) -> set[str]:
        if self.signed_statics:
            return expand_pos_element(support.pos, self.db.statics)
        return plain_relations(support.pos)

    def _evict(self, fact: Atom) -> None:
        self.model.discard(fact)
        self._supports.pop(fact, None)

    def _remove_by_neg(self, relation: str) -> set[Atom]:
        """Evict facts whose Neg' contains *relation* (insertion case)."""
        with OBS.span("phase:removal") as span:
            doomed = [
                fact
                for fact, support in self._supports.items()
                if relation in self._expanded_neg(support)
            ]
            for fact in doomed:
                self._evict(fact)
            if span:
                span.set("evicted", len(doomed))
        return set(doomed)

    def _remove_by_pos(self, relation: str) -> set[Atom]:
        """Evict facts whose Pos' contains *relation* (deletion case)."""
        with OBS.span("phase:removal") as span:
            doomed = [
                fact
                for fact, support in self._supports.items()
                if relation in self._expanded_pos(support)
            ]
            for fact in doomed:
                self._evict(fact)
            if span:
                span.set("evicted", len(doomed))
        return set(doomed)

    # ------------------------------------------------------------------
    # Update procedures
    # ------------------------------------------------------------------

    def _apply_insert_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        removed = self._remove_by_neg(fact.relation)
        self.model.add(fact)
        self._supports[fact] = PairSupport.trivial()
        added = self._resaturate_from(
            self.db.stratum_of(fact.relation), self._build_listener()
        )
        return removed, added | {fact}

    def _apply_delete_fact(self, fact: Atom) -> tuple[set[Atom], set[Atom]]:
        removed = self._remove_by_pos(fact.relation)
        if fact in self.model:
            self._evict(fact)
            removed.add(fact)
        added = self._resaturate_from(
            self.db.stratum_of(fact.relation), self._build_listener()
        )
        return removed, added

    def _apply_insert_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        head = rule.head.relation
        removed = self._remove_by_neg(head)
        added = self._resaturate_from(
            self.db.stratum_of(head), self._build_listener()
        )
        return removed, added

    def _apply_delete_rule(self, rule: Clause) -> tuple[set[Atom], set[Atom]]:
        head = rule.head.relation
        removed = self._remove_by_pos(head)
        # Facts of the head relation may have been produced by the deleted
        # rule; the relation-level support cannot tell which, so every
        # non-asserted fact of the relation is evicted and re-derivation
        # sorts it out (the asserted ones keep their trivial support).
        for fact in list(self.model.facts_of(head)):
            if not self.db.is_asserted(fact):
                self._evict(fact)
                removed.add(fact)
        added = self._resaturate_from(
            self.db.stratum_of(head), self._build_listener()
        )
        return removed, added
