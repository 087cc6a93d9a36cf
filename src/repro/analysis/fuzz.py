"""Differential commutation fuzzer: the certifier's falsifier.

The pattern-cone certificates of :mod:`repro.analysis.update_cones` and
:mod:`repro.analysis.schedule` are only trustworthy because this harness
cannot falsify them: for random stratified programs (and the keyed ledger
workload) it draws update pairs, asks the analyzer which pairs commute,
and **replays every certified pair in both orders** on engine
checkpoints — asserting the final model *and* support state are
identical, across every registered engine. A certified pair whose two
orders disagree anywhere is an unsound certificate, reported with the
program seed and the offending pair.

The *deduction-log* support forms get a weaker-but-still-checked
treatment: the rule-pointer records of section 5.1 (``cascade`` /
``cascade-paper``) and the set-of-sets elements of section 4.3
(``setofsets`` / ``setofsets-paired``) accumulate one entry per
deduction that fired, and the sweeps that prune them test body relation
**names** — so an update under one key can evict (and saturation not
re-add, or re-add extra) entries on a *different* key of the same
relation. Those states are genuinely history-dependent even when the
models commute; demanding bitwise equality would reject certificates
that are sound for everything the supports exist to serve. Instead:

* rule-record tables are checked to be a *valid support cover* of each
  order's final state — every model fact carries at least one record, no
  evicted fact keeps one, every assertion record points at a
  currently-asserted fact, and every rule pointer re-fires against the
  final model;
* every engine, after every order, takes an **undo probe**: the pair's
  inverse updates are applied and the model must land exactly back on
  the base model — a divergent-but-healthy support state passes, a
  rotten one (wrongly retained or evicted facts waiting to happen) is a
  violation.

Support forms that are functions of the current state (the signed and
unsigned single supports of section 4.2, fact-level records) are still
compared strictly between the two orders.

Both pool entries are valid against the base state independently and
address distinct facts, so each order is a legal revision sequence; the
replay runs on ``engine.checkpoint()``/``restore()`` (copy-on-write since
the arena PR), so a fuzz round costs little more than the revisions
themselves.

Run as a module for the CI smoke job::

    python -m repro.analysis.fuzz --seeds 4 --pairs 30

exits non-zero if any certified pair fails the differential replay.
"""

from __future__ import annotations

import argparse
import random
from typing import Sequence

from ..core.base import MaintenanceEngine
from ..core.registry import ENGINE_NAMES, create_engine
from ..core.supports import RuleRecord
from ..datalog.atoms import Atom
from ..datalog.clauses import Clause, Program
from ..datalog.evaluation import iter_derivations
from .update_cones import UpdateConeAnalyzer

#: A ground update as the engines consume it.
Update = tuple[str, Atom]


class FuzzViolation:
    """One unsound certificate: a certified pair with divergent orders."""

    __slots__ = ("label", "engine", "first", "second", "detail")

    def __init__(
        self,
        label: str,
        engine: str,
        first: Sequence[Update],
        second: Sequence[Update],
        detail: str,
    ) -> None:
        self.label = label
        self.engine = engine
        self.first = tuple(first)
        self.second = tuple(second)
        self.detail = detail

    def render(self) -> str:
        def updates(seq: Sequence[Update]) -> str:
            return " ".join(
                ("+" if op == "insert_fact" else "-") + str(fact)
                for op, fact in seq
            )

        return (
            f"{self.label} [{self.engine}]: certified-commuting pair "
            f"({updates(self.first)}) / ({updates(self.second)}) "
            f"diverges: {self.detail}"
        )

    def __repr__(self) -> str:
        return f"FuzzViolation({self.render()})"


class FuzzReport:
    """Tally of one fuzz run."""

    def __init__(self) -> None:
        self.programs = 0
        self.pairs_drawn = 0
        self.certified_relation = 0
        self.certified_pattern_only = 0
        self.replays = 0
        self.record_validations = 0
        self.service_batches = 0
        self.commuting_groups = 0
        self.violations: list[FuzzViolation] = []

    @property
    def certified(self) -> int:
        return self.certified_relation + self.certified_pattern_only

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"{self.programs} program(s), {self.pairs_drawn} pair(s) "
            f"drawn, {self.certified} certified "
            f"({self.certified_relation} relation-level, "
            f"{self.certified_pattern_only} pattern-only), "
            f"{self.replays} differential replay(s), "
            f"{self.record_validations} record validation(s), "
            f"{len(self.violations)} violation(s)"
        ]
        if self.service_batches:
            lines.append(
                f"service: {self.service_batches} batch(es) executed, "
                f"{self.commuting_groups} commuting group(s) scheduled"
            )
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"FuzzReport({self.summary().splitlines()[0]})"


def _edb_facts(program: Program, edb_relations: Sequence[str]) -> list[Atom]:
    wanted = set(edb_relations)
    return [
        clause.head
        for clause in program
        if not clause.body and clause.head.relation in wanted
    ]


def _update_pool(
    program: Program,
    edb_relations: Sequence[str],
    arities: dict[str, int],
    domain: Sequence[object],
    rng: random.Random,
    size: int,
) -> list[Update]:
    """Updates each valid against the base state, with distinct subjects.

    Deletions target asserted EDB facts; insertions target fresh rows.
    Because validity is judged against the *base* state and no two pool
    entries share a subject atom, any two entries can be applied in
    either order.
    """
    asserted = _edb_facts(program, edb_relations)
    present = set(asserted)
    pool: list[Update] = []
    subjects: set[Atom] = set()
    for fact in rng.sample(asserted, min(size // 2, len(asserted))):
        pool.append(("delete_fact", fact))
        subjects.add(fact)
    values = list(domain) or [0, 1]
    relations = [name for name in edb_relations if name in arities]
    attempts = 0
    while len(pool) < size and relations and attempts < size * 20:
        attempts += 1
        name = rng.choice(relations)
        row = tuple(
            rng.choice(values) for _ in range(arities[name])
        )
        fresh = Atom(name, row)
        if fresh in present or fresh in subjects:
            continue
        pool.append(("insert_fact", fresh))
        subjects.add(fresh)
    return pool


def _signature(
    engine: MaintenanceEngine,
) -> tuple[object, dict[str, object], dict[str, dict[Atom, set[RuleRecord]]]]:
    """(model, canonical supports, rule-record tables) of the live state.

    The deduction-log support forms are split out of the strict
    comparison (see the module docstring): rule-pointer tables
    (``kind == "rule"``) are returned decoded for the validity check,
    and set-of-sets element tables (``kind`` in ``sos``/``paired``) are
    dropped — their health is probed behaviorally by the undo probe.
    """
    state = engine.state_dict()
    canonical: dict[str, object] = {}
    records: dict[str, dict[Atom, set[RuleRecord]]] = {}
    for key, value in state["supports"].items():
        kind = getattr(value, "kind", None)
        if kind == "rule":
            records[key] = value.to_record_state()
        elif kind not in ("sos", "paired"):
            canonical[key] = value
    return state["model"], canonical, records


def _validate_rule_records(
    engine: MaintenanceEngine,
    tables: dict[str, dict[Atom, set[RuleRecord]]],
    asserted: set[Atom],
) -> str | None:
    """Check a live rule-record state is a valid support cover.

    Every model fact must carry at least one record, no non-model fact may
    keep one, assertion records must point at currently-asserted facts,
    and every rule pointer must re-fire against the final model. Returns
    a description of the first defect, or None when the state is valid.
    """
    model = engine.model
    model_facts = set(model)
    firing: dict[Clause, set[Atom]] = {}
    for key, table in tables.items():
        recorded = {fact for fact, records in table.items() if records}
        for fact in model_facts - recorded:
            return f"{key}: model fact {fact} has no support record"
        for fact in recorded - model_facts:
            return f"{key}: evicted fact {fact} still has records"
        for fact, records in table.items():
            for record in records:
                if record.rule is None:
                    if fact not in asserted:
                        return (
                            f"{key}: {fact} carries an assertion record "
                            "but is not asserted"
                        )
                    continue
                heads = firing.get(record.rule)
                if heads is None:
                    heads = {
                        derivation.head
                        for derivation in iter_derivations(
                            record.rule, model
                        )
                    }
                    firing[record.rule] = heads
                if fact not in heads:
                    return (
                        f"{key}: record '{record}' on {fact} does not "
                        "fire against the final model"
                    )
    return None


def _replay_both_orders(
    label: str,
    program: Program,
    engines: dict[str, MaintenanceEngine],
    first: Sequence[Update],
    second: Sequence[Update],
    report: FuzzReport,
) -> None:
    asserted = {clause.head for clause in program if not clause.body}
    for operation, fact in list(first) + list(second):
        if operation == "insert_fact":
            asserted.add(fact)
        else:
            asserted.discard(fact)

    def inverse(updates: Sequence[Update]) -> list[Update]:
        flip = {"insert_fact": "delete_fact", "delete_fact": "insert_fact"}
        return [
            (flip[operation], fact)
            for operation, fact in reversed(list(updates))
        ]

    for name, engine in engines.items():
        defects: list[str] = []
        base = engine.checkpoint()
        base_model = engine.state_dict()["model"]

        def replay(
            updates: Sequence[Update], order: str
        ) -> tuple[object, dict[str, object], dict]:
            for operation, fact in updates:
                engine.apply(operation, fact)
            signature = _signature(engine)
            if signature[2]:
                report.record_validations += 1
                defect = _validate_rule_records(
                    engine, signature[2], asserted
                )
                if defect is not None:
                    defects.append(f"after {order} order, {defect}")
            # undo probe: the inverses must land exactly back on the
            # base model, whatever the support state looks like.
            for operation, fact in inverse(updates):
                engine.apply(operation, fact)
            if engine.state_dict()["model"] != base_model:
                defects.append(
                    f"undoing the {order} order does not restore the "
                    "base model"
                )
            return signature

        try:
            forward = replay(list(first) + list(second), "first")
            engine.restore(base)
            backward = replay(list(second) + list(first), "second")
        finally:
            engine.restore(base)
        report.replays += 1
        if forward[0] != backward[0]:
            report.violations.append(
                FuzzViolation(
                    label, name, first, second, "final models differ"
                )
            )
        elif forward[1] != backward[1]:
            report.violations.append(
                FuzzViolation(
                    label, name, first, second, "support states differ"
                )
            )
        else:
            report.violations.extend(
                FuzzViolation(label, name, first, second, defect)
                for defect in defects
            )


def _fuzz_program(
    label: str,
    program: Program,
    edb_relations: Sequence[str],
    arities: dict[str, int],
    domain: Sequence[object],
    *,
    pairs: int,
    engine_names: Sequence[str],
    rng: random.Random,
    report: FuzzReport,
) -> None:
    analyzer = UpdateConeAnalyzer(program)
    pool = _update_pool(
        program, edb_relations, arities, domain, rng, max(4, pairs // 2)
    )
    if len(pool) < 2:
        return
    report.programs += 1
    engines: dict[str, MaintenanceEngine] | None = None
    for _ in range(pairs):
        first, second = rng.sample(pool, 2)
        report.pairs_drawn += 1
        fact_a, fact_b = first[1], second[1]
        if not analyzer.commutes(fact_a, fact_b):
            continue
        if analyzer.relation_report.commutes(
            fact_a.relation, fact_b.relation
        ):
            report.certified_relation += 1
        else:
            report.certified_pattern_only += 1
        if engines is None:
            engines = {
                name: create_engine(name, program)
                for name in engine_names
            }
        _replay_both_orders(
            label, program, engines, [first], [second], report
        )


def fuzz_commutation(
    seeds: Sequence[int] = range(4),
    *,
    pairs: int = 30,
    engine_names: Sequence[str] = ENGINE_NAMES,
    include_sharded: bool = True,
    rng_seed: int = 0,
) -> FuzzReport:
    """Fuzz certified update pairs across programs and engines.

    One random stratified program per seed (plus the keyed ledger
    workload), ``pairs`` update pairs drawn per program; every pair the
    analyzer certifies is replayed in both orders on every engine.
    """
    rng = random.Random(rng_seed)
    report = FuzzReport()
    for label, program, edb, arities, domain in _program_suite(
        seeds, include_sharded
    ):
        _fuzz_program(
            label,
            program,
            edb,
            arities,
            domain,
            pairs=pairs,
            engine_names=engine_names,
            rng=rng,
            report=report,
        )
    return report


def _program_suite(
    seeds: Sequence[int], include_sharded: bool
) -> list[tuple[str, Program, tuple[str, ...], dict[str, int], list]]:
    from ..workloads.families import sharded_by_key
    from ..workloads.synthetic import generate

    suite: list = []
    for seed in seeds:
        synthetic = generate(seed)
        suite.append(
            (
                f"synthetic(seed={seed})",
                synthetic.program,
                tuple(synthetic.edb_relations),
                dict(synthetic.arities),
                list(synthetic.domain),
            )
        )
    if include_sharded:
        keys = [f"acct{i}" for i in range(1, 9)]
        suite.append(
            (
                "sharded_by_key",
                sharded_by_key(),
                ("account", "deposit", "withdrawal", "voided", "whitelisted"),
                {
                    "account": 1,
                    "deposit": 2,
                    "withdrawal": 2,
                    "voided": 2,
                    "whitelisted": 1,
                },
                keys + list(range(10, 100, 17)),
            )
        )
    return suite


def fuzz_service_batches(
    seeds: Sequence[int] = range(2),
    *,
    transactions: int = 8,
    per_transaction: int = 2,
    engine_names: Sequence[str] = ENGINE_NAMES,
    include_sharded: bool = True,
    rng_seed: int = 0,
) -> FuzzReport:
    """Service mode: scheduled batches vs submission-order serial replay.

    For each program a transaction batch is drawn from the update pool
    and pushed through the revision service's
    :class:`~repro.service.executor.BatchExecutor` — scheduled into
    commuting groups, every transaction applied on one engine under its
    own checkpoint. One *inadmissible* transaction (the delete of a fact
    nothing ever asserted) sits mid-batch so the per-transaction rollback
    runs on every engine: it must be the only rejection. The resulting
    model and canonical supports must equal a fresh engine's
    submission-order serial replay of the accepted transactions;
    rule-record tables (history-dependent by design, see the module
    docstring) are instead validated as a support cover of the final
    state.
    """
    # Lazy import: repro.service imports this package's scheduler.
    from ..service.executor import BatchExecutor

    rng = random.Random(rng_seed)
    report = FuzzReport()
    for label, program, edb, arities, domain in _program_suite(
        seeds, include_sharded
    ):
        pool = _update_pool(
            program, edb, arities, domain, rng,
            transactions * per_transaction + 1,
        )
        # A pool insertion targets a row that is neither asserted nor the
        # subject of any other entry: turned into a deletion, it is
        # inadmissible wherever it lands in the batch.
        fresh = [update for update in pool if update[0] == "insert_fact"]
        if len(pool) < 2 * per_transaction + 1 or not fresh:
            continue
        pool.remove(fresh[-1])
        inadmissible = ("txn_bad", [("delete_fact", fresh[-1][1])])
        report.programs += 1
        accepted = [
            (f"txn{i}", pool[start : start + per_transaction])
            for i, start in enumerate(range(0, len(pool), per_transaction))
        ]
        batch = list(accepted)
        batch.insert(len(batch) // 2, inadmissible)
        all_updates = [u for _, updates in accepted for u in updates]
        asserted = {clause.head for clause in program if not clause.body}
        for operation, fact in all_updates:
            if operation == "insert_fact":
                asserted.add(fact)
            else:
                asserted.discard(fact)
        for name in engine_names:
            serial = create_engine(name, program)
            for operation, fact in all_updates:
                serial.apply(operation, fact)
            expected = _signature(serial)
            engine = create_engine(name, program)
            result = BatchExecutor(engine).execute(batch)
            report.replays += 1
            report.service_batches += 1
            report.commuting_groups += result.parallel_groups
            rejected = [o.name for o in result.outcomes if not o.committed]
            actual = _signature(engine)
            if rejected != [inadmissible[0]]:
                detail = f"transactions rejected: {rejected}"
            elif actual[0] != expected[0]:
                detail = "scheduled batch model differs from serial replay"
            elif actual[1] != expected[1]:
                detail = (
                    "scheduled batch canonical supports differ from "
                    "serial replay"
                )
            else:
                detail = None
                if actual[2]:
                    report.record_validations += 1
                    defect = _validate_rule_records(
                        engine, actual[2], asserted
                    )
                    if defect is not None:
                        detail = f"after scheduled batch, {defect}"
            if detail is not None:
                report.violations.append(
                    FuzzViolation(label, name, all_updates, [], detail)
                )
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.fuzz",
        description=(
            "Differential commutation fuzzer: replay certified-commuting "
            "update pairs in both orders on every engine."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=4, help="synthetic program seeds"
    )
    parser.add_argument(
        "--pairs", type=int, default=30, help="update pairs per program"
    )
    parser.add_argument(
        "--rng-seed", type=int, default=0, help="pair-drawing seed"
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help=(
            "also run the service mode: scheduled batch execution "
            "through the revision service's executor vs serial replay"
        ),
    )
    args = parser.parse_args(argv)
    report = fuzz_commutation(
        range(args.seeds), pairs=args.pairs, rng_seed=args.rng_seed
    )
    print(report.summary())
    ok = report.ok
    if args.service:
        service = fuzz_service_batches(
            range(args.seeds), rng_seed=args.rng_seed
        )
        print(service.summary())
        ok = ok and service.ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
