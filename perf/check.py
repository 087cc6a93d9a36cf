"""The correctness gate: run on every round, fatal when it fails.

A number from a run whose outputs are wrong is worthless, so every round
ends here and a failed check makes the whole run exit non-zero; the failed
checks are counted among the failed operations.

* **Durability** — the driver reopens the round's store directory the way
  a new process would. Every acknowledged transaction must be there
  (``revision`` equals the acknowledged count) and the reopened model must
  equal a from-scratch ``recompute`` of the program the driver *expects*:
  the initial program plus the acknowledged updates, tracked by the driver,
  not read back from the store.
* **Serial equivalence** (``batch_*``) — the canonical snapshot of the
  reopened store is byte-identical to the snapshot of a second store that
  admitted the same transactions one by one through ``Store.transaction``.

Structural expectations (parallel groups on ``batch_commuting``, none on
``batch_conflicting``), engine-vs-oracle equality on ``engines_sweep`` and
the stationarity guard sit with the workloads and the aggregation, next to
the numbers they protect.
"""

from __future__ import annotations

from repro import Clause, create_engine, open_store


def expected_program(program, accepted):
    """*program* after the acknowledged *accepted* transactions."""
    final = program.copy()
    for updates in accepted:
        for operation, fact in updates:
            if operation == "insert_fact":
                final.add(Clause(fact))
            else:
                final.remove(Clause(fact))
    return final


def durability(result, reopened, program, accepted) -> None:
    result.expect(
        reopened.revision == len(accepted),
        f"reopened at revision {reopened.revision}, "
        f"{len(accepted)} transactions were acknowledged",
    )
    oracle = create_engine("recompute", expected_program(program, accepted))
    result.expect(
        reopened.model == oracle.model,
        "reopened model differs from recompute on the expected program",
    )


def serial_replay(result, reopened, program_text, accepted, directory, engine):
    serial = open_store(directory, program=program_text, engine=engine)
    try:
        for updates in accepted:
            with serial.transaction():
                for operation, fact in updates:
                    serial.apply(operation, fact)
        expected = serial.snapshot().read_bytes()
    finally:
        serial.close()
    snapshot = reopened.snapshot()
    result.snapshot_bytes = snapshot.stat().st_size
    result.snapshot_facts = len(reopened.model)
    result.expect(
        snapshot.read_bytes() == expected,
        "canonical snapshot differs from the serial Store.transaction replay",
    )
