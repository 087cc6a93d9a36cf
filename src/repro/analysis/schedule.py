"""Transaction commutation certificates: conflict graphs and batch schedules.

The admission question of ROADMAP item 1 — *which pending transactions may
be applied in any order, or concurrently?* — reduced to statics. A
**transaction** here is a named set of ground insertions and deletions; its
:class:`TransactionSummary` carries the union of the argument-level pattern
cones (:mod:`repro.analysis.update_cones`) of its updates. Two
transactions commute when neither one's write cone overlaps the other's
read cone — checked pattern-wise, so two transactions updating the *same*
relations under different keys still certify.

The :class:`ConflictGraph` over a batch records, per non-commuting pair,
:class:`ConflictArc` edges with a concrete witness in the DL002
negative-cycle style: the overlapping write/read pattern pair plus the
dependency-arc path along which the update's delta reaches the conflicting
relation. :meth:`ConflictGraph.commuting_batches` then greedily colors the
conflict graph, partitioning the batch into groups safe to apply in any
order or concurrently; the graph also feeds three diagnostics —

* **DL011** one warning per non-commuting pair (with witness),
* **DL012** hotspot relations read by *every* transaction (static
  contention: no split separates them),
* **DL013** negation-sensitive reordering hazards — an insertion whose
  cone crosses an odd number of negative arcs into another transaction's
  reads, the class where reordering changes which facts survive.

Certificates are only as trustworthy as their falsifier:
:mod:`repro.analysis.fuzz` replays certified-commuting pairs in both
orders on engine checkpoints and asserts identical models and support
states across every engine.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence, Union

from ..datalog.atoms import Atom
from ..datalog.dependency import format_witness
from ..datalog.parser import parse_fact
from .diagnostics import Diagnostic, make
from .update_cones import (
    EMPTY_CONE,
    Pattern,
    PatternCone,
    UpdateConeAnalyzer,
    UpdateCones,
    _CanonConst,
)

#: A ground update: ("insert_fact" | "delete_fact", fact).
Update = tuple[str, Atom]

_OP_ALIASES = {
    "insert_fact": "insert_fact",
    "insert": "insert_fact",
    "+": "insert_fact",
    "delete_fact": "delete_fact",
    "delete": "delete_fact",
    "-": "delete_fact",
}


def _normalize_op(operation: str) -> str:
    try:
        return _OP_ALIASES[operation]
    except KeyError:
        raise ValueError(
            f"unknown update operation {operation!r} "
            f"(expected insert_fact/delete_fact)"
        ) from None


def _render_update(operation: str, fact: Atom) -> str:
    sign = "+" if operation == "insert_fact" else "-"
    return f"{sign}{fact}"


class TransactionSummary:
    """The read/write pattern cones of one named transaction."""

    __slots__ = ("name", "updates", "cones", "writes", "reads", "hazards")

    def __init__(
        self,
        name: str,
        updates: tuple[Update, ...],
        cones: tuple[UpdateCones, ...],
    ) -> None:
        self.name = name
        self.updates = updates
        self.cones = cones
        writes = EMPTY_CONE
        reads = EMPTY_CONE
        hazards = EMPTY_CONE  # insertions' negation-sensitive writes
        for (operation, _), cone in zip(updates, cones):
            writes = writes | cone.writes
            reads = reads | cone.reads
            if operation == "insert_fact":
                hazards = hazards | cone.negation_sensitive
        self.writes = writes
        self.reads = reads
        self.hazards = hazards

    @classmethod
    def from_updates(
        cls,
        analyzer: UpdateConeAnalyzer,
        name: str,
        updates: Iterable[tuple[str, Union[Atom, str]]],
    ) -> "TransactionSummary":
        normalized: list[Update] = []
        cones: list[UpdateCones] = []
        for operation, subject in updates:
            fact = (
                parse_fact(subject) if isinstance(subject, str) else subject
            )
            normalized.append((_normalize_op(operation), fact))
            cones.append(analyzer.cones(fact))
        return cls(name, tuple(normalized), tuple(cones))

    def render_updates(self) -> str:
        return " ".join(
            _render_update(operation, fact)
            for operation, fact in self.updates
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "updates": [
                _render_update(operation, fact)
                for operation, fact in self.updates
            ],
            "writes": self.writes.to_dict(),
            "reads": self.reads.to_dict(),
            "negation_sensitive": self.hazards.to_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"TransactionSummary({self.name}: {self.render_updates()})"
        )


class CommutationOracle:
    """Memoized pairwise commutation verdicts for batch scheduling.

    The full :class:`ConflictGraph` recomputes cone unions and overlap
    witnesses per batch — right for diagnostics, wasteful for the service
    hot path, where every round carries the same *shape* of transactions
    with fresh payload constants. Commutation is invariant under renaming
    constants the rule set never mentions (the closure and the overlap
    checks compare such constants only for equality), so the oracle keys
    each **pair** of transactions by a joint canonical form: rule
    constants stay literal, every other constant becomes a
    first-appearance placeholder shared across the pair — which preserves
    exactly the equality pattern within and *between* the two
    transactions. Isomorphic pairs share one cached verdict; steady
    keyed traffic schedules by dictionary lookup, falling back to the
    summary-level overlap check only on a miss.
    """

    def __init__(
        self, analyzer: UpdateConeAnalyzer, max_entries: int = 65536
    ) -> None:
        self.analyzer = analyzer
        self._fixed = analyzer.rule_constants
        self._verdicts: dict[tuple, bool] = {}
        self._max_entries = max_entries

    def _pair_key(
        self, first: tuple[Update, ...], second: tuple[Update, ...]
    ) -> tuple:
        mapping: dict = {}
        fixed = self._fixed

        def canon(updates: tuple[Update, ...]) -> tuple:
            rows = []
            for operation, fact in updates:
                args = []
                for arg in fact.args:
                    if arg in fixed:
                        args.append(arg)
                    else:
                        placeholder = mapping.get(arg)
                        if placeholder is None:
                            placeholder = _CanonConst(len(mapping))
                            mapping[arg] = placeholder
                        args.append(placeholder)
                rows.append((operation, fact.relation, tuple(args)))
            return tuple(rows)

        return canon(first), canon(second)

    def commuting_groups(
        self,
        batch: Sequence[tuple[str, tuple[Update, ...]]],
        preserve_order: bool = True,
    ) -> tuple[tuple[str, ...], ...]:
        """Partition *batch* like :meth:`ConflictGraph.commuting_batches`.

        Same greedy strategies over the same commutation relation — the
        verdicts just come from the pair cache when they can.
        """
        summaries: dict[str, TransactionSummary] = {}

        def summary(name: str, updates: tuple[Update, ...]):
            cached = summaries.get(name)
            if cached is None:
                cached = summaries[name] = TransactionSummary(
                    name, updates, tuple(map(self.analyzer.cones, (
                        fact for _, fact in updates
                    )))
                )
            return cached

        def commutes(
            a: tuple[str, tuple[Update, ...]],
            b: tuple[str, tuple[Update, ...]],
        ) -> bool:
            key = self._pair_key(a[1], b[1])
            verdict = self._verdicts.get(key)
            if verdict is None:
                first = summary(*a)
                second = summary(*b)
                verdict = (
                    first.writes.overlap_witness(second.reads) is None
                    and second.writes.overlap_witness(first.reads) is None
                )
                if len(self._verdicts) < self._max_entries:
                    self._verdicts[key] = verdict
            return verdict

        if preserve_order:
            level: dict[str, int] = {}
            leveled: list[list[str]] = []
            for position, transaction in enumerate(batch):
                slot = 0
                for earlier in batch[:position]:
                    if not commutes(transaction, earlier):
                        slot = max(slot, level[earlier[0]] + 1)
                level[transaction[0]] = slot
                if slot == len(leveled):
                    leveled.append([])
                leveled[slot].append(transaction[0])
            return tuple(tuple(group) for group in leveled)
        groups: list[list[str]] = []
        members: list[list[tuple[str, tuple[Update, ...]]]] = []
        for transaction in batch:
            for group, present in zip(groups, members):
                if all(commutes(transaction, other) for other in present):
                    group.append(transaction[0])
                    present.append(transaction)
                    break
            else:
                groups.append([transaction[0]])
                members.append([transaction])
        return tuple(tuple(group) for group in groups)


class ConflictArc:
    """One dependency-witnessed conflict between two transactions.

    *writer*'s update ``update`` transmits a delta to ``write_pattern``
    (along ``path``, a dependency-arc chain rendered in the DL002 witness
    style), which overlaps *reader*'s ``read_pattern``.
    """

    __slots__ = (
        "writer",
        "reader",
        "update",
        "write_pattern",
        "read_pattern",
        "kind",
        "path",
        "negation_sensitive",
    )

    def __init__(
        self,
        writer: str,
        reader: str,
        update: str,
        write_pattern: Pattern,
        read_pattern: Pattern,
        kind: str,
        path: str,
        negation_sensitive: bool,
    ) -> None:
        self.writer = writer
        self.reader = reader
        self.update = update
        self.write_pattern = write_pattern
        self.read_pattern = read_pattern
        self.kind = kind
        self.path = path
        self.negation_sensitive = negation_sensitive

    @property
    def relation(self) -> str:
        return self.write_pattern.relation

    def render(self) -> str:
        text = (
            f"{self.writer} writes {self.write_pattern.render()} "
            f"(from {self.update} via {self.path}), {self.reader} reads "
            f"{self.read_pattern.render()} [{self.kind}]"
        )
        if self.negation_sensitive:
            text += " [negation-sensitive]"
        return text

    def to_dict(self) -> dict:
        return {
            "writer": self.writer,
            "reader": self.reader,
            "update": self.update,
            "write_pattern": self.write_pattern.render(),
            "read_pattern": self.read_pattern.render(),
            "relation": self.relation,
            "kind": self.kind,
            "path": self.path,
            "negation_sensitive": self.negation_sensitive,
        }

    def __repr__(self) -> str:
        return f"ConflictArc({self.render()})"


class ConflictGraph:
    """The pairwise conflict structure of one transaction batch."""

    def __init__(
        self,
        analyzer: UpdateConeAnalyzer,
        transactions: Sequence[TransactionSummary],
    ) -> None:
        names = [transaction.name for transaction in transactions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate transaction names in {names}")
        self.analyzer = analyzer
        self.transactions = tuple(transactions)
        self._by_name = {
            transaction.name: transaction for transaction in transactions
        }
        self._edges: dict[tuple[str, str], tuple[ConflictArc, ...]] = {}
        for i, first in enumerate(self.transactions):
            for second in self.transactions[i + 1 :]:
                arcs = self._conflict_arcs(first, second)
                if arcs:
                    self._edges[(first.name, second.name)] = arcs

    @classmethod
    def of_batch(
        cls,
        analyzer: UpdateConeAnalyzer,
        batch: Iterable[
            tuple[str, Iterable[tuple[str, Union[Atom, str]]]]
        ],
    ) -> "ConflictGraph":
        return cls(
            analyzer,
            [
                TransactionSummary.from_updates(analyzer, name, updates)
                for name, updates in batch
            ],
        )

    # ------------------------------------------------------------------
    # Conflict detection
    # ------------------------------------------------------------------

    def _conflict_arcs(
        self, first: TransactionSummary, second: TransactionSummary
    ) -> tuple[ConflictArc, ...]:
        arcs: list[ConflictArc] = []
        seen: set[tuple[str, str, str, str]] = set()
        for writer, reader in ((first, second), (second, first)):
            for (operation, fact), cone in zip(
                writer.updates, writer.cones
            ):
                witness = cone.writes.overlap_witness(reader.reads)
                if witness is None:
                    continue
                write_pattern, read_pattern = witness
                key = (
                    writer.name,
                    reader.name,
                    write_pattern.render(),
                    read_pattern.render(),
                )
                if key in seen:
                    continue
                seen.add(key)
                arcs.append(
                    self._arc(
                        writer,
                        reader,
                        operation,
                        fact,
                        cone,
                        write_pattern,
                        read_pattern,
                    )
                )
        return tuple(arcs)

    def _arc(
        self,
        writer: TransactionSummary,
        reader: TransactionSummary,
        operation: str,
        fact: Atom,
        cone: UpdateCones,
        write_pattern: Pattern,
        read_pattern: Pattern,
    ) -> ConflictArc:
        graph = self.analyzer.relation_report.graph
        path_arcs = graph.arc_path(write_pattern.relation, fact.relation)
        path = (
            format_witness(path_arcs)
            if path_arcs
            else write_pattern.relation
        )
        write_write = any(
            write_pattern.overlaps(theirs)
            for theirs in reader.writes.patterns(write_pattern.relation)
        )
        hazard = operation == "insert_fact" and any(
            mine.overlaps(theirs)
            for mine in cone.negation_sensitive.patterns(
                write_pattern.relation
            )
            for theirs in reader.reads.patterns(write_pattern.relation)
        )
        return ConflictArc(
            writer.name,
            reader.name,
            _render_update(operation, fact),
            write_pattern,
            read_pattern,
            "write/write" if write_write else "write/read",
            path,
            hazard,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(
            transaction.name for transaction in self.transactions
        )

    def transaction(self, name: str) -> TransactionSummary:
        return self._by_name[name]

    def conflicts(self, a: str, b: str) -> tuple[ConflictArc, ...]:
        if a == b:
            return ()
        return self._edges.get((a, b)) or self._edges.get((b, a)) or ()

    def commutes(self, a: str, b: str) -> bool:
        return not self.conflicts(a, b)

    def edges(self) -> Iterator[tuple[str, str, tuple[ConflictArc, ...]]]:
        for (a, b), arcs in self._edges.items():
            yield a, b, arcs

    def commuting_batches(
        self, preserve_order: bool = False
    ) -> tuple[tuple[str, ...], ...]:
        """Partition the batch into groups safe to apply in any order.

        Greedy first-fit coloring in batch order: each transaction joins
        the first group it commutes with entirely, else opens a new
        group. Transactions inside one group pairwise commute, so a group
        may be applied in any order — or concurrently — without changing
        the final belief state; distinct groups must still be serialized
        against each other.

        First-fit may *reorder* conflicting transactions: a late
        transaction can slot into an earlier group than a conflicting
        predecessor, so executing groups in sequence realizes a serial
        order different from submission order. With ``preserve_order``
        every transaction lands strictly after its conflicting
        predecessors (longest-conflict-chain leveling), so group-by-group
        execution is equivalent to the submission-order serial replay —
        the contract the service's batch executor journals under.
        """
        if preserve_order:
            level: dict[str, int] = {}
            leveled: list[list[str]] = []
            for position, transaction in enumerate(self.transactions):
                slot = 0
                for earlier in self.transactions[:position]:
                    if not self.commutes(transaction.name, earlier.name):
                        slot = max(slot, level[earlier.name] + 1)
                level[transaction.name] = slot
                if slot == len(leveled):
                    leveled.append([])
                leveled[slot].append(transaction.name)
            return tuple(tuple(group) for group in leveled)
        groups: list[list[str]] = []
        for transaction in self.transactions:
            for group in groups:
                if all(
                    self.commutes(transaction.name, member)
                    for member in group
                ):
                    group.append(transaction.name)
                    break
            else:
                groups.append([transaction.name])
        return tuple(tuple(group) for group in groups)

    def hotspots(self) -> tuple[str, ...]:
        """Relations where *every* pair of transactions meets.

        A relation is a hotspot when it appears in every transaction's
        read cone **and** the read patterns overlap for every pair — so
        whatever the batch split, any two transactions contend on it (no
        grouping separates them on that relation). A relation merely
        *named* by every cone under disjoint keys is not a hotspot: the
        keys keep the transactions apart. Sorted for stable output.
        """
        if len(self.transactions) < 2:
            return ()
        shared: set[str] | None = None
        for transaction in self.transactions:
            relations = set(transaction.reads.relations)
            shared = relations if shared is None else shared & relations
        hotspots = []
        for relation in sorted(shared or ()):
            if all(
                any(
                    mine.overlaps(theirs)
                    for mine in first.reads.patterns(relation)
                    for theirs in second.reads.patterns(relation)
                )
                for i, first in enumerate(self.transactions)
                for second in self.transactions[i + 1 :]
            ):
                hotspots.append(relation)
        return tuple(hotspots)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def diagnostics(self) -> list[Diagnostic]:
        """DL011/DL012/DL013 findings for this batch."""
        findings: list[Diagnostic] = []
        for a, b, arcs in self.edges():
            witness = arcs[0]
            findings.append(
                make(
                    "DL011",
                    f"transactions {a!r} and {b!r} do not commute: "
                    f"{witness.render()}",
                    hint=(
                        "serialize the pair, or re-key the updates so "
                        "their pattern cones separate"
                    ),
                )
            )
            for arc in arcs:
                if arc.negation_sensitive:
                    findings.append(
                        make(
                            "DL013",
                            f"insertion {arc.update} of {arc.writer!r} "
                            f"reaches {arc.write_pattern.render()} through "
                            f"an odd number of negations and "
                            f"{arc.reader!r} reads "
                            f"{arc.read_pattern.render()}: reordering can "
                            f"change which facts survive",
                            hint=(
                                "apply the inserting transaction last, "
                                "or serialize the pair explicitly"
                            ),
                        )
                    )
        for relation in self.hotspots():
            findings.append(
                make(
                    "DL012",
                    f"relation {relation!r} is in every transaction's "
                    f"read cone ({len(self.transactions)} transactions): "
                    f"static contention point",
                    hint=(
                        "shard the relation by key, or move it out of "
                        "the shared rule chain"
                    ),
                )
            )
        return findings

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "transactions": [
                transaction.to_dict()
                for transaction in self.transactions
            ],
            "conflicts": [
                {
                    "pair": [a, b],
                    "arcs": [arc.to_dict() for arc in arcs],
                }
                for a, b, arcs in self.edges()
            ],
            "commuting_batches": [
                list(group) for group in self.commuting_batches()
            ],
            "hotspots": list(self.hotspots()),
        }

    def summary(self) -> str:
        total = len(self.transactions)
        pairs = total * (total - 1) // 2
        batches = self.commuting_batches()
        lines = [
            f"{total} transaction(s), {pairs - len(self._edges)}/{pairs} "
            f"pairs commute, {len(batches)} commuting batch(es)"
        ]
        for i, group in enumerate(batches, start=1):
            lines.append(f"  batch {i}: {', '.join(group)}")
        for a, b, arcs in self.edges():
            lines.append(f"  conflict {a} ~ {b}: {arcs[0].render()}")
        hotspots = self.hotspots()
        if hotspots:
            lines.append(f"  hotspots: {', '.join(hotspots)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ConflictGraph({len(self.transactions)} transactions, "
            f"{len(self._edges)} conflicting pairs)"
        )


# ----------------------------------------------------------------------
# Batch text format
# ----------------------------------------------------------------------

_NAME_PREFIX = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*")
_UPDATE = re.compile(
    r"([+-]?)\s*([A-Za-z_]\w*(?:\([^()]*\))?)\s*\.?"
)


def parse_transactions(
    text: str,
) -> list[tuple[str, list[tuple[str, Atom]]]]:
    """Parse a transaction batch from text, one transaction per line.

    Format: ``name: +fact(a, b). -other(c).`` — ``+`` inserts (and is the
    default when the sign is omitted), ``-`` deletes. The ``name:`` prefix
    is optional; unnamed transactions are numbered ``t1, t2, ...`` in
    order. Blank lines and ``%``/``#`` comment lines are skipped.
    """
    batch: list[tuple[str, list[tuple[str, Atom]]]] = []
    counter = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        prefixed = _NAME_PREFIX.match(line)
        if prefixed:
            name = prefixed.group(1)
            line = line[prefixed.end() :]
        else:
            counter += 1
            name = f"t{counter}"
        updates: list[tuple[str, Atom]] = []
        for sign, rendered in _UPDATE.findall(line):
            operation = "delete_fact" if sign == "-" else "insert_fact"
            updates.append((operation, parse_fact(rendered)))
        if not updates:
            raise ValueError(f"transaction {name!r} has no updates: {raw!r}")
        batch.append((name, updates))
    return batch
