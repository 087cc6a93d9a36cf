"""Interactive console for a maintained stratified database.

    python -m repro [program.dl] [--engine cascade]

Commands (also shown by ``help``)::

    + accepted(7).                insert a fact
    - accepted(7).                delete a fact
    + p(X) :- q(X), not r(X).     insert a rule (stratification-checked)
    - p(X) :- q(X), not r(X).     delete a rule
    ? accepted(X), not late(X)    query the maintained model
    check [json]                  static diagnostics for the program
    independence [json]           which relation updates commute
    why accepted(7)               a non-circular proof tree
    whynot accepted(9)            why an atom is absent
    model [relation]              show the model (or one relation)
    supports accepted(7)          the engine's support structures
    engine [name]                 show or switch the engine
    stats [json]                  totals for this session (json for scripts)
    telemetry [on|off]            toggle metrics + trace collection
    metrics                       Prometheus-style text exposition
    trace [json|chrome]           the last recorded update trace
    plan p(X) :- q(X), r(X).      a clause's join plan, estimated vs observed
    open DIR                      attach a durable store (journals updates)
    commit                        checkpoint the store (snapshot)
    undo [N] / redo [N]           rewind / re-apply N revisions
    log [json]                    the store's revision history
    close                         detach the store
    save FILE                     write the current program to FILE
    help / quit

Every update prints its UpdateResult summary, so the non-monotonic
consequences (insertions deleting, deletions inserting) are visible live.
With a store attached (``open``), every update is write-ahead journaled
and the session survives restarts: ``repro --store DIR`` reopens it.
``commit`` checkpoints through the v2 snapshot codec (columnar facts,
compact state) and reopening bulk-loads the model per relation, so
save/open round-trips scale with data volume, not per-tuple overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .analysis import (
    ConflictGraph,
    Report,
    UpdateConeAnalyzer,
    analyze_program,
    analyze_source,
    independence_report,
    parse_transactions,
)
from .core.explain import ExplanationError, explain, explain_absence
from .core.registry import ENGINE_NAMES, create_engine
from .datalog.errors import DatalogError
from .datalog.parser import parse_atom, parse_clause
from .datalog.query import query as run_query
from .obs import OBS
from .store import StoreError, open_store


class Console:
    """State and command dispatch of the interactive session."""

    def __init__(
        self,
        program_text: str = "",
        engine_name: str = "cascade",
        store_path: Optional[str] = None,
    ):
        self.engine_name = engine_name
        self.store = None
        if store_path is not None:
            self.store = open_store(
                store_path, program=program_text, engine=engine_name
            )
            self.engine = self.store.engine
            # An existing store keeps its creation engine regardless of
            # the flag; reflect what is actually running.
            self.engine_name = self.store.engine_name
        else:
            self.engine = create_engine(engine_name, program_text)

    # each handler returns the text to print ------------------------------

    def do_update(self, line: str) -> str:
        target = self.store if self.store is not None else self.engine
        sign, body = line[0], line[1:].strip()
        if ":-" in body or "<-" in body:
            clause = parse_clause(body if body.endswith(".") else body + ".")
            if sign == "+":
                result = target.insert_rule(clause)
            else:
                result = target.delete_rule(clause)
        else:
            fact = parse_atom(body.rstrip("."))
            if sign == "+":
                result = target.insert_fact(fact)
            else:
                result = target.delete_fact(fact)
        return result.summary()

    def do_query(self, body: str) -> str:
        rows = run_query(self.engine.model, body)
        if not rows:
            return "no"
        if rows == [()]:
            return "yes"
        lines = [", ".join(repr(value) for value in row) for row in rows]
        return "\n".join(lines) + f"\n({len(rows)} rows)"

    def do_why(self, body: str) -> str:
        try:
            return explain(self.engine, body.rstrip(".")).pretty()
        except ExplanationError as error:
            return str(error)

    def do_whynot(self, body: str) -> str:
        atom = parse_atom(body.rstrip("."))
        if atom in self.engine.model:
            return f"{atom} IS in the model; use `why`"
        reasons = explain_absence(self.engine, atom)
        if not reasons:
            return f"no rule concludes {atom.relation}, and it is not asserted"
        return "\n".join(reason.pretty() for reason in reasons)

    def do_model(self, body: str) -> str:
        if body:
            facts = sorted(
                str(fact) for fact in self.engine.model.facts_of(body.strip())
            )
            return "\n".join(facts) if facts else f"({body.strip()} is empty)"
        return self.engine.model.pretty() or "(empty model)"

    def do_supports(self, body: str) -> str:
        atom = parse_atom(body.rstrip("."))
        if atom not in self.engine.model:
            return f"{atom} is not in the model"
        for accessor in ("records_of", "support_of"):
            method = getattr(self.engine, accessor, None)
            if method is not None:
                try:
                    value = method(atom)
                except KeyError:
                    continue
                if isinstance(value, (set, frozenset)):
                    return "\n".join(sorted(map(str, value)))
                return str(value)
        return f"the {self.engine.name} engine keeps no per-fact supports"

    def do_engine(self, body: str) -> str:
        name = body.strip()
        if not name:
            return (
                f"current: {self.engine_name}; available: "
                + ", ".join(ENGINE_NAMES)
            )
        if name not in ENGINE_NAMES:
            return f"unknown engine {name!r}; available: " + ", ".join(
                ENGINE_NAMES
            )
        if self.store is not None:
            return (
                "a store is attached; its engine is fixed at creation "
                "(`close` first)"
            )
        self.engine = create_engine(name, self.engine.db.program)
        self.engine_name = name
        return f"switched to {name} ({len(self.engine.model)} facts)"

    def do_stats(self, body: str) -> str:
        totals = self.engine.totals.as_dict()
        if body.strip() == "json":
            return json.dumps(
                {
                    "engine": self.engine_name,
                    "totals": totals,
                    "support_entries": self.engine.support_entry_count(),
                    "model_size": len(self.engine.model),
                },
                sort_keys=True,
            )
        rendered = ", ".join(f"{key}={value}" for key, value in totals.items())
        return (
            f"{rendered}\nsupport entries: "
            f"{self.engine.support_entry_count()}, model: "
            f"{len(self.engine.model)} facts"
        )

    # telemetry commands --------------------------------------------------

    def do_telemetry(self, body: str) -> str:
        choice = body.strip().lower()
        if choice == "on":
            OBS.enable()
            return "telemetry on"
        if choice == "off":
            OBS.disable()
            return "telemetry off"
        if choice:
            return "usage: telemetry [on|off]"
        return f"telemetry {'on' if OBS.enabled else 'off'}"

    def do_metrics(self, body: str) -> str:
        text = OBS.exposition()
        if not text:
            return "(no metrics recorded; `telemetry on` first)"
        return text.rstrip("\n")

    def do_trace(self, body: str) -> str:
        last = OBS.tracer.last
        if last is None:
            return "(no trace recorded; `telemetry on`, then run an update)"
        mode = body.strip().lower()
        if mode == "json":
            return json.dumps(last.to_dict(), sort_keys=True)
        if mode == "chrome":
            return json.dumps({"traceEvents": OBS.tracer.chrome_events()})
        if mode:
            return "usage: trace [json|chrome]"
        return last.pretty()

    def do_plan(self, body: str) -> str:
        text = body.strip()
        if not text:
            return "usage: plan HEAD :- BODY."
        clause = parse_clause(text if text.endswith(".") else text + ".")
        return self.engine.planner.explain(clause, self.engine.model)

    def do_check(self, body: str) -> str:
        report = self.engine.check()
        if body.strip() == "json":
            return report.to_json("<session>")
        return report.render("<session>")

    def do_independence(self, body: str) -> str:
        report = independence_report(self.engine.db.graph)
        if body.strip() == "json":
            return json.dumps(report.to_dict(), sort_keys=True)
        return report.summary()

    def do_save(self, body: str) -> str:
        path = body.strip()
        if not path:
            return "usage: save FILE"
        # Pin UTF-8: the store layer writes programs as UTF-8, and `save`
        # must round-trip non-ASCII constants under any locale.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.engine.db.source_text())
        return f"wrote {len(self.engine.db.program)} clauses to {path}"

    # store commands ------------------------------------------------------

    def do_open(self, body: str) -> str:
        path = body.strip()
        if not path:
            return "usage: open DIR"
        if self.store is not None:
            return f"a store is already attached at {self.store.path}; `close` first"
        self.store = open_store(
            path,
            program=self.engine.db.source_text(),
            engine=self.engine_name,
        )
        self.engine = self.store.engine
        self.engine_name = self.store.engine_name
        return (
            f"store at {self.store.path}: engine {self.store.engine_name}, "
            f"revision {self.store.revision}, {len(self.engine.model)} facts"
        )

    def _need_store(self) -> Optional[str]:
        if self.store is None:
            return "no store attached; use `open DIR`"
        return None

    def do_commit(self, body: str) -> str:
        missing = self._need_store()
        if missing:
            return missing
        path = self.store.snapshot()
        return f"snapshot at revision {self.store.revision}: {path.name}"

    def do_undo(self, body: str) -> str:
        missing = self._need_store()
        if missing:
            return missing
        count = int(body.strip() or "1")
        revision = self.store.undo(count)
        self.engine = self.store.engine
        return f"at revision {revision} ({len(self.engine.model)} facts)"

    def do_redo(self, body: str) -> str:
        missing = self._need_store()
        if missing:
            return missing
        count = int(body.strip() or "1")
        revision = self.store.redo(count)
        self.engine = self.store.engine
        return f"at revision {revision} ({len(self.engine.model)} facts)"

    def do_log(self, body: str) -> str:
        missing = self._need_store()
        if missing:
            return missing
        if body.strip() == "json":
            return json.dumps(
                list(self.store.journal.records), sort_keys=True
            )
        lines = self.store.log()
        if not lines:
            return "(empty journal)"
        return "\n".join(lines)

    def do_close(self, body: str) -> str:
        missing = self._need_store()
        if missing:
            return missing
        path = self.store.path
        self.store.close()
        self.store = None
        return f"detached store at {path} (state stays in memory)"

    def do_help(self, body: str) -> str:
        return __doc__.split("Commands", 1)[1].split("::", 1)[1].strip("\n")

    def dispatch(self, line: str) -> Optional[str]:
        """Handle one input line; None means quit."""
        line = line.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            return ""
        if line in ("quit", "exit"):
            return None
        if line.startswith(("+", "-")):
            return self.do_update(line)
        if line.startswith("?"):
            return self.do_query(line[1:].strip())
        command, _, rest = line.partition(" ")
        handler = getattr(self, f"do_{command}", None)
        if handler is None:
            return f"unknown command {command!r}; try `help`"
        return handler(rest)


def run_check(argv) -> int:
    """The ``repro check`` verb: lint programs, lint-style exit codes.

    Exit 0 when every target is clean (info diagnostics allowed), 1 when
    warnings were reported, 2 on errors (including unreadable files and
    parse failures, which surface as ``DL000``). ``--workloads`` self-lints
    every built-in :mod:`repro.workloads` program against its
    ``EXPECTED_DIAGNOSTICS`` annotation — a code that fires unexpectedly
    *or* an annotated code that no longer fires both fail the lint.
    """
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Static analysis of Datalog programs (codes DL000-DL013)",
    )
    parser.add_argument("files", nargs="*", help="program files to lint")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--workloads",
        action="store_true",
        help="self-lint the built-in repro.workloads programs",
    )
    parser.add_argument(
        "--independence",
        action="store_true",
        help="also print the revision-independence report per target",
    )
    parser.add_argument(
        "--schedule",
        metavar="BATCH",
        default=None,
        help=(
            "transaction batch file (one `name: +fact(a). -fact(b).` "
            "line each): admit it against every checked program, adding "
            "the DL011-DL013 commutation diagnostics"
        ),
    )
    args = parser.parse_args(argv)
    if not args.files and not args.workloads:
        parser.error("nothing to check: give program files or --workloads")

    batch = None
    if args.schedule is not None:
        try:
            with open(args.schedule, encoding="utf-8") as handle:
                batch = parse_transactions(handle.read())
        except OSError as error:
            print(
                f"error: cannot read {args.schedule}: {error}",
                file=sys.stderr,
            )
            return 2
        except (DatalogError, ValueError) as error:
            print(
                f"error: bad batch file {args.schedule}: {error}",
                file=sys.stderr,
            )
            return 2

    targets: list[tuple[str, object, tuple]] = []  # (name, text-or-program, ignore)
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                targets.append((path, handle.read(), ()))
        except OSError as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
    stale_annotations: list[str] = []
    if args.workloads:
        from .workloads import EXPECTED_DIAGNOSTICS, named_programs

        for name, program in named_programs().items():
            expected = EXPECTED_DIAGNOSTICS.get(name, ())
            report = analyze_program(program)
            missing = sorted(set(expected) - set(report.codes()))
            if missing:
                stale_annotations.append(
                    f"{name}: annotated {', '.join(missing)} no longer fire"
                )
            targets.append((f"workload:{name}", program, expected))

    exit_code = 0
    payload = []
    for name, source, ignore in targets:
        if isinstance(source, str):
            report = analyze_source(source, ignore=ignore)
        else:
            report = analyze_program(source, ignore=ignore)
        graph = None
        if batch is not None and report.ok:
            try:
                graph = ConflictGraph.of_batch(
                    UpdateConeAnalyzer(source), batch
                )
            except (DatalogError, ValueError) as error:
                print(
                    f"error: cannot admit batch against {name}: {error}",
                    file=sys.stderr,
                )
                return 2
            report = Report(
                list(report.diagnostics) + graph.diagnostics()
            )
        if report.errors:
            exit_code = 2
        elif report.warnings and exit_code == 0:
            exit_code = 1
        if args.json:
            entry = report.to_dict(name)
            if args.independence:
                entry["independence"] = independence_report(source).to_dict()
            if graph is not None:
                entry["schedule"] = graph.to_dict()
            payload.append(entry)
        else:
            print(report.render(name))
            if args.independence:
                print(independence_report(source).summary())
            if graph is not None:
                print(graph.summary())
    if stale_annotations:
        exit_code = max(exit_code, 1)
        for line in stale_annotations:
            print(f"stale annotation — {line}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    return exit_code


def run_independence(argv) -> int:
    """The ``repro independence`` verb: commutation reports from a shell.

    Without ``--updates``, prints the relation-level
    :class:`~repro.analysis.IndependenceReport` of the program (cones,
    commuting pairs, negation-sensitive pairs, conflict witnesses,
    shards). With ``--updates BATCH`` — a transaction batch file, one
    ``name: +fact(a). -fact(b).`` line per transaction — prints the
    argument-level :class:`~repro.analysis.ConflictGraph` instead:
    pattern cones per transaction, witnessed conflicts, and the
    commuting-batch partition. Exit 0 when everything commutes, 1 when
    conflicts were found, 2 on unreadable or unparsable input.
    """
    parser = argparse.ArgumentParser(
        prog="repro independence",
        description=(
            "Revision-independence and transaction-commutation reports"
        ),
    )
    parser.add_argument("file", help="program file")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--updates",
        metavar="BATCH",
        default=None,
        help=(
            "transaction batch file: report argument-level commutation "
            "of the batch instead of the relation-level view"
        ),
    )
    args = parser.parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    try:
        if args.updates is None:
            report = independence_report(text)
            if args.json:
                print(json.dumps(report.to_dict(), sort_keys=True))
            else:
                print(report.summary())
            return 0
        with open(args.updates, encoding="utf-8") as handle:
            batch = parse_transactions(handle.read())
        graph = ConflictGraph.of_batch(UpdateConeAnalyzer(text), batch)
    except OSError as error:
        print(f"error: cannot read {args.updates}: {error}", file=sys.stderr)
        return 2
    except (DatalogError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(graph.to_dict(), sort_keys=True))
    else:
        print(graph.summary())
        for diagnostic in graph.diagnostics():
            print(diagnostic.render(args.file))
    return 0 if all(
        graph.commutes(a, b)
        for i, a in enumerate(graph.names)
        for b in graph.names[i + 1 :]
    ) else 1


def run_serve(argv) -> int:
    """The ``repro serve`` verb: the concurrent revision service.

    Opens (or creates) a durable store and listens on a TCP port for
    newline-JSON sessions — see :mod:`repro.service.server` for the
    protocol. Many sessions submit transactions concurrently; the
    micro-batching writer admits them through the commutation scheduler
    and group-commits each batch with one journal fsync. Prints one
    ``serving on HOST:PORT`` line once the socket is bound (port 0 picks
    an ephemeral port), then runs until a ``shutdown`` op arrives.
    """
    import asyncio

    from .service import RevisionService
    from .service.server import serve
    from .store import open_store

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve one maintained store to many concurrent sessions",
    )
    parser.add_argument(
        "--store", required=True, metavar="DIR", help="durable store directory"
    )
    parser.add_argument(
        "--program",
        default=None,
        help="program file (required when creating a new store)",
    )
    parser.add_argument(
        "--engine",
        default="cascade",
        choices=ENGINE_NAMES,
        help="maintenance engine for a newly created store",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="micro-batch gathering pause (0 disables)",
    )
    parser.add_argument(
        "--telemetry", action="store_true", help="collect metrics and traces"
    )
    args = parser.parse_args(argv)

    if args.telemetry:
        OBS.enable()
    text = ""
    if args.program:
        try:
            with open(args.program, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            print(f"error: cannot read {args.program}: {error}", file=sys.stderr)
            return 2
    try:
        store = open_store(args.store, program=text, engine=args.engine)
    except (DatalogError, StoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    def ready(server) -> None:
        print(f"serving on {server.host}:{server.port}", flush=True)

    with RevisionService(store) as service:
        try:
            asyncio.run(
                serve(
                    service,
                    host=args.host,
                    port=args.port,
                    batch_window=args.batch_window,
                    ready=ready,
                )
            )
        except KeyboardInterrupt:
            pass
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        return run_check(argv[1:])
    if argv and argv[0] == "independence":
        return run_independence(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maintained stratified database console (Apt & Pugin 1987)",
    )
    parser.add_argument("program", nargs="?", help="program file to load")
    parser.add_argument(
        "--engine",
        default="cascade",
        choices=ENGINE_NAMES,
        help="maintenance engine (default: cascade)",
    )
    parser.add_argument(
        "--command",
        "-c",
        action="append",
        default=None,
        help="run a command and exit (repeatable)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="attach a durable store (created from the program when new)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect metrics and traces from the start of the session",
    )
    args = parser.parse_args(argv)

    if args.telemetry:
        OBS.enable()

    text = ""
    if args.program:
        with open(args.program, encoding="utf-8") as handle:
            text = handle.read()
    try:
        console = Console(text, args.engine, store_path=args.store)
    except (DatalogError, StoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"repro console — {console.engine_name} engine, "
        f"{len(console.engine.model)} facts; `help` for commands"
    )

    if args.command:
        for command in args.command:
            try:
                output = console.dispatch(command)
            except (DatalogError, StoreError, ValueError, LookupError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            if output:
                print(output)
        return 0

    while True:
        try:
            line = input("db> ")
        except EOFError:
            print()
            return 0
        try:
            output = console.dispatch(line)
        except (DatalogError, StoreError) as error:
            print(f"error: {error}")
            continue
        except (ValueError, LookupError) as error:
            print(f"error: {error}")
            continue
        if output is None:
            return 0
        if output:
            print(output)


if __name__ == "__main__":
    sys.exit(main())
