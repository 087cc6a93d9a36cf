"""Stable JSON encoding of the engine state: terms, clauses, supports.

Snapshots and journal records must round-trip *exactly* — restoring a
snapshot has to yield the very model and support structures the live engine
held — and must be byte-deterministic, so that two equal states produce
identical files. Both properties come from one tagged encoding:

* every composite object becomes a JSON object whose ``"$"`` key names its
  type (atom, clause, support record, set, tuple, ...);
* scalars (str, int, float, bool, None) pass through unchanged — the
  constants of the function-free language are exactly the JSON scalars plus
  arbitrary hashables, and the uncommon hashables (tuples) are tagged;
* unordered containers (sets, frozensets, dicts with atom keys) are written
  sorted by their members' canonical JSON dump.

The codec knows every support form of the paper's solutions
(:mod:`repro.core.supports`), so one pair of functions serves all engines.

Derived per-relation state — hash indexes and the planner's per-column
distinct-value statistics — is deliberately *not* serialized: a snapshot
records the sorted fact rows only, and restoring bulk-loads each relation
(:meth:`~repro.datalog.relations.Relation.bulk_load`), which rebuilds the
statistics deterministically in one batched pass (indexes refill lazily on
first probe). The property tests assert the restored distinct counts equal
the live engine's, so a reopened store starts from the same per-column
estimates the live one computed. (Composite-index key counts — the exact
combination cardinalities ``estimated_matches`` prefers once an index is
live — return only after the first probe rebuilds the index.)

Format version 2 stores the model *columnar*: one ``[relation, arity,
[row, row, ...]]`` block per relation (:func:`encode_relations`) instead of
one tagged atom object per fact — most rows are plain JSON arrays of
scalars, so the dominant part of a snapshot skips the tagged-object decode
entirely (the E15/E18 restore-path bottleneck). Version-1 snapshots remain
readable: :mod:`repro.store.snapshot` converts their flat fact tuple back
into the columnar form on read.
"""

from __future__ import annotations

import json
from typing import Any

from ..core.arena import (
    ArenaSupportState,
    canonical_parts,
    from_canonical_parts,
)
from ..core.supports import (
    FactRecord,
    PairSupport,
    PairedRecord,
    RuleRecord,
    SetOfSetsSupport,
    Signed,
)
from ..datalog.atoms import Atom, Literal
from ..datalog.clauses import Clause
from ..datalog.terms import Variable

FORMAT_VERSION = 2

_SCALARS = (str, int, float, bool, type(None))


class SerializationError(ValueError):
    """Raised when a value cannot be encoded or decoded."""


def encode(obj: Any) -> Any:
    """Turn *obj* into a JSON-serializable structure (deterministically).

    The flat form: every occurrence is expanded in place. For large
    structures with shared substructure use :func:`encode_tabled`.
    """
    return _encode_with_refs(obj, _NO_INTERNING)


_NO_INTERNING: dict = {}  # the empty ref table: nothing is shared


def _canon(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True)


_CONSTRUCTORS = {
    "var": lambda d: Variable(d["name"]),
    "atom": lambda d: Atom(d["rel"], tuple(d["args"])),
    "lit": lambda d: Literal(d["atom"], d["pos"]),
    "clause": lambda d: Clause(d["head"], tuple(d["body"])),
    "signed": lambda d: Signed(d["sign"], d["rel"]),
    "pair": lambda d: PairSupport(d["pos"], d["neg"]),
    "sos": lambda d: SetOfSetsSupport(d["pos"], d["neg"]),
    "paired": lambda d: PairedRecord(d["pos"], d["neg"]),
    "rule_record": lambda d: RuleRecord(d["rule"], d["pos"], d["neg"]),
    "fact_record": lambda d: FactRecord(d["rule"], d["pos"], d["neg"]),
    "tuple": lambda d: tuple(d["items"]),
    "fset": lambda d: frozenset(d["items"]),
    "set": lambda d: set(d["items"]),
    "list": lambda d: d["items"],
    "map": lambda d: {key: value for key, value in d["items"]},
}


def decode(data: Any, _table=None) -> Any:
    """Inverse of :func:`encode` / :func:`encode_tabled`.

    Children are decoded first, then the ``"$"`` tag picks the
    constructor; a ``ref`` node resolves through the enclosing ``tabled``
    wrapper's table.
    """
    if isinstance(data, _SCALARS):
        return data
    if isinstance(data, list):  # only produced inside tagged containers
        return [decode(item, _table) for item in data]
    if isinstance(data, dict):
        tag = data.get("$")
        if tag == "tabled":
            table = [decode(entry) for entry in data["table"]]
            return decode(data["root"], table)
        if tag == "ref":
            if _table is None:
                raise SerializationError("ref outside a tabled document")
            return _table[data["i"]]
        constructor = _CONSTRUCTORS.get(tag)
        if constructor is None:
            raise SerializationError(f"unknown tag {tag!r} in {data!r}")
        children = {
            key: decode(value, _table)
            for key, value in data.items()
            if key != "$"
        }
        return constructor(children)
    raise SerializationError(f"cannot decode {data!r}")


# ----------------------------------------------------------------------
# Interned encoding: share repeated substructures through a table
# ----------------------------------------------------------------------
#
# Engine states repeat the same immutable objects thousands of times — a
# cascade snapshot holds one RuleRecord (with its full clause) per
# (fact, rule) pair, a fact-level snapshot cites the same body atoms in
# record after record. ``encode_tabled`` counts repeated hashable objects,
# expands each distinct one exactly once in a content-sorted table, and
# replaces every occurrence in the body with ``{"$": "ref", "i": k}``.
# Because the table is sorted by its entries' canonical expansion, equal
# states still produce identical bytes.

_INTERNABLE = (
    Atom,
    Literal,
    Clause,
    Signed,
    PairSupport,
    PairedRecord,
    RuleRecord,
    FactRecord,
    frozenset,
)


def _collect(obj: Any, counts: dict, expand_supports: bool = True) -> None:
    """Count occurrences of internable objects reachable from *obj*.

    *expand_supports* decides what an arena-backed support state contributes:
    the v1/object codec expands it to the classic record mapping (so its
    atoms and records intern alongside everything else and the bytes are
    the ones v1 stores already hold), while the compact codec writes a
    self-contained canonical payload and skips it here.
    """
    if isinstance(obj, _INTERNABLE):
        seen = counts.get(obj, 0)
        counts[obj] = seen + 1
        if seen:  # children already counted on first encounter
            return
    if isinstance(obj, _SCALARS) or isinstance(obj, Variable):
        return
    if isinstance(obj, Atom):
        for term in obj.args:
            _collect(term, counts, expand_supports)
    elif isinstance(obj, Literal):
        _collect(obj.atom, counts, expand_supports)
    elif isinstance(obj, Clause):
        _collect(obj.head, counts, expand_supports)
        for lit in obj.body:
            _collect(lit, counts, expand_supports)
    elif isinstance(obj, Signed):
        pass
    elif isinstance(obj, (PairSupport, PairedRecord)):
        _collect(obj[0], counts, expand_supports)
        _collect(obj[1], counts, expand_supports)
    elif isinstance(obj, SetOfSetsSupport):
        _collect(obj.pos, counts, expand_supports)
        _collect(obj.neg, counts, expand_supports)
    elif isinstance(obj, (RuleRecord, FactRecord)):
        if obj.rule is not None:
            _collect(obj.rule, counts, expand_supports)
        _collect(obj[1], counts, expand_supports)
        _collect(obj[2], counts, expand_supports)
    elif isinstance(obj, ArenaSupportState):
        if expand_supports:
            _collect(obj.to_record_state(), counts, expand_supports)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            _collect(item, counts, expand_supports)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _collect(key, counts, expand_supports)
            _collect(value, counts, expand_supports)
    else:
        raise SerializationError(
            f"cannot encode {type(obj).__name__}: {obj!r}"
        )


def _encode_with_refs(obj: Any, index: dict) -> Any:
    """Like :func:`encode`, but table objects become references."""
    if isinstance(obj, _INTERNABLE):
        slot = index.get(obj)
        if slot is not None:
            return {"$": "ref", "i": slot}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float)):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, Variable):
        return {"$": "var", "name": obj.name}
    if isinstance(obj, Atom):
        return {
            "$": "atom",
            "rel": obj.relation,
            "args": [_encode_with_refs(t, index) for t in obj.args],
        }
    if isinstance(obj, Literal):
        return {
            "$": "lit",
            "atom": _encode_with_refs(obj.atom, index),
            "pos": obj.positive,
        }
    if isinstance(obj, Clause):
        return {
            "$": "clause",
            "head": _encode_with_refs(obj.head, index),
            "body": [_encode_with_refs(lit, index) for lit in obj.body],
        }
    if isinstance(obj, Signed):
        return {"$": "signed", "sign": obj.sign, "rel": obj.relation}
    if isinstance(obj, PairSupport):
        return {
            "$": "pair",
            "pos": _encode_with_refs(obj.pos, index),
            "neg": _encode_with_refs(obj.neg, index),
        }
    if isinstance(obj, SetOfSetsSupport):
        return {
            "$": "sos",
            "pos": _encode_with_refs(obj.pos, index),
            "neg": _encode_with_refs(obj.neg, index),
        }
    if isinstance(obj, PairedRecord):
        return {
            "$": "paired",
            "pos": _encode_with_refs(obj.pos, index),
            "neg": _encode_with_refs(obj.neg, index),
        }
    if isinstance(obj, RuleRecord):
        return {
            "$": "rule_record",
            "rule": _encode_with_refs(obj.rule, index),
            "pos": _encode_with_refs(obj.positive_relations, index),
            "neg": _encode_with_refs(obj.negated_relations, index),
        }
    if isinstance(obj, FactRecord):
        return {
            "$": "fact_record",
            "rule": _encode_with_refs(obj.rule, index),
            "pos": _encode_with_refs(obj.positive_facts, index),
            "neg": _encode_with_refs(obj.negative_facts, index),
        }
    if isinstance(obj, ArenaSupportState):
        # The v1/object codec has no arena notion: expand to the classic
        # record mapping, the form v1 stores already hold.
        return _encode_with_refs(obj.to_record_state(), index)
    if isinstance(obj, tuple):
        return {
            "$": "tuple",
            "items": [_encode_with_refs(item, index) for item in obj],
        }
    if isinstance(obj, frozenset):
        return {
            "$": "fset",
            "items": sorted(
                (_encode_with_refs(v, index) for v in obj), key=_canon
            ),
        }
    if isinstance(obj, set):
        return {
            "$": "set",
            "items": sorted(
                (_encode_with_refs(v, index) for v in obj), key=_canon
            ),
        }
    if isinstance(obj, list):
        return {
            "$": "list",
            "items": [_encode_with_refs(item, index) for item in obj],
        }
    if isinstance(obj, dict):
        items = [
            [_encode_with_refs(k, index), _encode_with_refs(v, index)]
            for k, v in obj.items()
        ]
        items.sort(key=lambda pair: _canon(pair[0]))
        return {"$": "map", "items": items}
    raise SerializationError(f"cannot encode {type(obj).__name__}: {obj!r}")


def encode_tabled(obj: Any) -> Any:
    """Encode *obj* with repeated substructures interned into a table.

    The result is ``{"$": "tabled", "table": [...], "root": ...}`` where
    table entries are fully expanded (no references) and sorted by their
    canonical encoding; the root refers to entry *k* as
    ``{"$": "ref", "i": k}``. Decodes via :func:`decode`.
    """
    counts: dict = {}
    _collect(obj, counts)
    repeated = [value for value, count in counts.items() if count > 1]
    expanded = sorted(
        ((encode(value), value) for value in repeated),
        key=lambda pair: _canon(pair[0]),
    )
    index = {value: slot for slot, (_, value) in enumerate(expanded)}
    return {
        "$": "tabled",
        "table": [entry for entry, _ in expanded],
        "root": _encode_with_refs(obj, index),
    }


def dumps(obj: Any) -> str:
    """Canonical one-line JSON text of *obj* (interned encoding)."""
    return json.dumps(
        encode_tabled(obj), sort_keys=True, separators=(",", ":")
    )


def loads(text: str) -> Any:
    return decode(json.loads(text))


# ----------------------------------------------------------------------
# Compact array-tagged encoding (snapshot format v2 state section)
# ----------------------------------------------------------------------
#
# The object-tagged encoding above is the canonical in-memory codec
# (``dumps``/``loads``) and the v1 file format, but on support-heavy
# snapshots (the fact-level engine's per-deduction records) the JSON
# *objects* themselves are the restore bottleneck: every node costs a
# dict with string keys both to parse and to walk. The compact form
# writes each tagged node as a JSON array ``[tag, field, field, ...]``
# with positional fields and one-character tags — scalars still pass
# through untouched, and interning works the same way (``["r", k]`` is a
# table reference). Arrays parse several times faster than objects and
# the decoder indexes positionally instead of building a children dict,
# which is what lets a fact-level snapshot restore beat its rebuild
# (experiment E15).

_COMPACT_TABLED = "T"


def _encode_compact(obj: Any, index: dict) -> Any:
    """The array-tagged mirror of :func:`_encode_with_refs`."""
    if isinstance(obj, _INTERNABLE):
        slot = index.get(obj)
        if slot is not None:
            return ["r", slot]
    if isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, Variable):
        return ["v", obj.name]
    if isinstance(obj, Atom):
        return [
            "a",
            obj.relation,
            [_encode_compact(term, index) for term in obj.args],
        ]
    if isinstance(obj, Literal):
        return ["L", _encode_compact(obj.atom, index), obj.positive]
    if isinstance(obj, Clause):
        return [
            "c",
            _encode_compact(obj.head, index),
            [_encode_compact(lit, index) for lit in obj.body],
        ]
    if isinstance(obj, Signed):
        return ["g", obj.sign, obj.relation]
    if isinstance(obj, PairSupport):
        return [
            "p",
            _encode_compact(obj.pos, index),
            _encode_compact(obj.neg, index),
        ]
    if isinstance(obj, SetOfSetsSupport):
        return [
            "S",
            _encode_compact(obj.pos, index),
            _encode_compact(obj.neg, index),
        ]
    if isinstance(obj, PairedRecord):
        return [
            "P",
            _encode_compact(obj.pos, index),
            _encode_compact(obj.neg, index),
        ]
    if isinstance(obj, RuleRecord):
        return _compact_record("R", obj.rule, obj.positive_relations,
                               obj.negated_relations, index)
    if isinstance(obj, FactRecord):
        return _compact_record("F", obj.rule, obj.positive_facts,
                               obj.negative_facts, index)
    if isinstance(obj, ArenaSupportState):
        return _encode_arena_state(obj)
    if isinstance(obj, tuple):
        return ["t", [_encode_compact(item, index) for item in obj]]
    if isinstance(obj, frozenset):
        return [
            "f",
            sorted((_encode_member(v, index) for v in obj), key=_canon),
        ]
    if isinstance(obj, set):
        return [
            "s",
            sorted((_encode_member(v, index) for v in obj), key=_canon),
        ]
    if isinstance(obj, list):
        return ["l", [_encode_compact(item, index) for item in obj]]
    if isinstance(obj, dict):
        items = [
            [_encode_member(k, index), _encode_compact(v, index)]
            for k, v in obj.items()
        ]
        items.sort(key=lambda pair: _canon(pair[0]))
        return ["m", items]
    raise SerializationError(f"cannot encode {type(obj).__name__}: {obj!r}")


def _encode_member(obj: Any, index: dict) -> Any:
    """Encode a set member / map key, where refs shrink to bare slots.

    Set items and map keys are overwhelmingly interned objects (the body
    atoms of support records, the fact keys of support maps), so at those
    positions a plain int *is* a table reference and a literal int
    constant takes the ``["i", n]`` escape instead. Everything else
    encodes as usual.
    """
    if isinstance(obj, _INTERNABLE):
        slot = index.get(obj)
        if slot is not None:
            return slot
    if type(obj) is int:
        return ["i", obj]
    return _encode_compact(obj, index)


def _compact_record(tag: str, rule, pos, neg, index: dict) -> list:
    """Support records dominate heavy snapshots, so their encoding is
    extra-lean: an interned rule is a plain table slot (an int can only
    be a slot there — the rule field otherwise holds None or a clause
    node), and an empty negative set is simply omitted."""
    slot = None if rule is None else index.get(rule)
    node = [
        tag,
        slot if slot is not None else _encode_compact(rule, index),
        _encode_compact(pos, index),
    ]
    if neg:
        node.append(_encode_compact(neg, index))
    return node


def _encode_arena_state(state: ArenaSupportState) -> list:
    """One arena-backed support state as a self-contained ``"A"`` node.

    The canonical image (:func:`~repro.core.arena.canonical_parts`) is
    built straight off the live intern tables — atoms, rules and entries
    are each written exactly once, in canonical order, and every other
    section is plain int rows over those positions. Renumbering makes the
    node deterministic: a state freshly rebuilt from records encodes to
    the same bytes as the live arena it came from, whatever slot order
    the arena grew in, and unreachable (superseded) slots are dropped.
    """
    parts = canonical_parts(state)
    return [
        "A",
        parts.kind,
        [_encode_compact(atom, _NO_INTERNING) for atom in parts.atoms],
        [_encode_compact(rule, _NO_INTERNING) for rule in parts.rules],
        [_encode_compact(entry, _NO_INTERNING) for entry in parts.entries],
        parts.elements,
        parts.records,
        parts.table,
    ]


def encode_compact_tabled(obj: Any) -> list:
    """Compact counterpart of :func:`encode_tabled`:
    ``["T", [table...], root]``, table entries fully expanded and sorted
    by their canonical compact dump, refs as ``["r", k]``. Arena-backed
    support states become self-contained ``"A"`` nodes (their canonical
    payload carries its own object tables, so they stay out of the shared
    intern table)."""
    counts: dict = {}
    _collect(obj, counts, expand_supports=False)
    repeated = [value for value, count in counts.items() if count > 1]
    expanded = sorted(
        ((_encode_compact(value, _NO_INTERNING), value) for value in repeated),
        key=lambda pair: _canon(pair[0]),
    )
    index = {value: slot for slot, (_, value) in enumerate(expanded)}
    return [
        _COMPACT_TABLED,
        [entry for entry, _ in expanded],
        _encode_compact(obj, index),
    ]


def _decode_record(constructor, data: list, table):
    rule = data[1]
    if type(rule) is int:
        rule = table[rule]
    elif rule is not None:
        rule = _decode_compact(rule, table)
    neg = (
        _decode_compact(data[3], table) if len(data) > 3 else frozenset()
    )
    return constructor(rule, _decode_compact(data[2], table), neg)


def _decode_compact(data: Any, table) -> Any:
    # Scalars pass through; every composite is a tagged array. The inner
    # comprehensions repeat the scalar check inline so the (overwhelmingly
    # common) scalar members skip the function call.
    if type(data) is not list:
        return data
    tag = data[0]
    if tag == "r":
        if table is None:
            raise SerializationError("ref outside a tabled document")
        return table[data[1]]
    if tag == "a":
        return Atom(
            data[1],
            tuple(
                t if type(t) is not list else _decode_compact(t, table)
                for t in data[2]
            ),
        )
    if tag == "f":
        return frozenset(
            table[v] if type(v) is int
            else v if type(v) is not list
            else _decode_compact(v, table)
            for v in data[1]
        )
    if tag == "F":
        return _decode_record(FactRecord, data, table)
    if tag == "t":
        return tuple(
            v if type(v) is not list else _decode_compact(v, table)
            for v in data[1]
        )
    if tag == "s":
        return {
            table[v] if type(v) is int
            else v if type(v) is not list
            else _decode_compact(v, table)
            for v in data[1]
        }
    if tag == "l":
        return [
            v if type(v) is not list else _decode_compact(v, table)
            for v in data[1]
        ]
    if tag == "m":
        return {
            (
                table[k] if type(k) is int
                else k if type(k) is not list
                else _decode_compact(k, table)
            ): (
                v if type(v) is not list else _decode_compact(v, table)
            )
            for k, v in data[1]
        }
    if tag == "i":
        return data[1]  # literal int at a member position
    if tag == "v":
        return Variable(data[1])
    if tag == "L":
        return Literal(_decode_compact(data[1], table), data[2])
    if tag == "c":
        return Clause(
            _decode_compact(data[1], table),
            tuple(_decode_compact(lit, table) for lit in data[2]),
        )
    if tag == "g":
        return Signed(data[1], data[2])
    if tag == "p":
        return PairSupport(
            _decode_compact(data[1], table), _decode_compact(data[2], table)
        )
    if tag == "S":
        return SetOfSetsSupport(
            _decode_compact(data[1], table), _decode_compact(data[2], table)
        )
    if tag == "P":
        return PairedRecord(
            _decode_compact(data[1], table), _decode_compact(data[2], table)
        )
    if tag == "R":
        return _decode_record(RuleRecord, data, table)
    if tag == "A":
        return from_canonical_parts(
            data[1],
            [_decode_compact(atom, None) for atom in data[2]],
            [_decode_compact(rule, None) for rule in data[3]],
            [_decode_compact(entry, None) for entry in data[4]],
            data[5],
            data[6],
            data[7],
        )
    raise SerializationError(f"unknown compact tag {tag!r} in {data!r}")


def decode_compact(data: Any) -> Any:
    """Inverse of :func:`encode_compact_tabled` (also accepts bare
    compact nodes without a table wrapper)."""
    if type(data) is list and data and data[0] == _COMPACT_TABLED:
        table = [_decode_compact(entry, None) for entry in data[1]]
        return _decode_compact(data[2], table)
    return _decode_compact(data, None)


# ----------------------------------------------------------------------
# Columnar fact encoding (snapshot format v2)
# ----------------------------------------------------------------------
#
# The model dominates most snapshots, and in the v1 encoding every fact
# cost one tagged atom object (plus a tagged tuple per row). The columnar
# form writes one block per relation and one plain JSON array per row;
# scalar constants — the overwhelmingly common case — pass through both
# ways without touching the tagged codec.


def encode_relations(data: Any) -> list:
    """Compact encoding of ``Model.relation_data()``: one
    ``[name, arity, [rows...]]`` block per relation, rows as JSON arrays
    of encoded terms. Deterministic because the input is sorted."""
    return [
        [
            name,
            arity,
            [
                [
                    term
                    if isinstance(term, _SCALARS)
                    else _encode_with_refs(term, _NO_INTERNING)
                    for term in row
                ]
                for row in rows
            ],
        ]
        for name, arity, rows in data
    ]


def decode_relations(payload: Any) -> list:
    """Inverse of :func:`encode_relations` — back to relation_data form
    (rows become tuples)."""
    return [
        (
            name,
            arity,
            [
                tuple(
                    term if isinstance(term, _SCALARS) else decode(term)
                    for term in row
                )
                for row in rows
            ],
        )
        for name, arity, rows in payload
    ]


def relation_data_to_facts(data: Any) -> tuple:
    """Flatten relation_data into the v1 sorted fact tuple — byte-compatible
    with what pre-v2 ``state_dict`` recorded, because relation_data keeps
    the same (relation name, row repr) order."""
    return tuple(
        Atom(name, row) for name, _arity, rows in data for row in rows
    )


def facts_to_relation_data(facts: Any) -> list:
    """Group a v1 flat fact tuple back into relation_data form.

    The v1 tuple is sorted by (relation, row repr) already, so plain
    grouping preserves the canonical order.
    """
    data: list = []
    for fact in facts:
        if data and data[-1][0] == fact.relation:
            data[-1][2].append(fact.args)
        else:
            data.append([fact.relation, fact.arity, [fact.args]])
    return [(name, arity, rows) for name, arity, rows in data]
