"""Engine-generic state deltas: extract, conflict-check, merge, apply.

A worker executes one transaction against a restored checkpoint and comes
back with a :class:`StateDelta` — the *net* difference between its final
state and the checkpoint it started from:

* **model delta** — facts added / removed, folded from the transaction's
  :class:`~repro.core.metrics.UpdateResult` stream (O(changed), never a
  model scan);
* **support delta** — per *leaf table* (a copy-on-write
  :class:`~repro.core.arena.SupportTable` or a plain ``{fact: value}``
  dict), the slots rewritten or removed. Arena tables descend from the
  checkpoint's tables via ``copy()``, so their privatized-slot sets give
  the delta in O(slots written) — see :meth:`SupportTable.delta_from`.

Merging deltas from one commuting group is optimistic: the scheduler
certifies the *pattern cones* disjoint, which makes model deltas provably
non-conflicting, but history-dependent support sweeps (the cascade
engines rewrite same-relation neighbours) can still touch one slot from
two workers. :func:`merge_deltas` detects any overlapping slot with
unequal values and reports the collision; the executor then re-runs that
group serially instead of merging. Equal values merge silently — the
common case for redundant sweeps.

Applying a merged delta to the authoritative engine mirrors the
transactions' assertions into its database, bulk-applies the model delta,
and round-trips the support state through the engine's own
``_support_state()`` / ``_load_support_state()`` pair — every table copy
in that round trip is O(1) copy-on-write.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..core.arena import ArenaSosSupports, ArenaSupportState, SupportTable
from ..core.base import MaintenanceEngine
from ..core.metrics import UpdateResult
from ..datalog.atoms import Atom

#: A path naming one leaf table inside a support state dict.
LeafPath = Tuple[str, ...]

#: Per-leaf slot changes; ``None`` marks a removed slot.
LeafDelta = Dict[object, Optional[object]]


class MergeConflict(Exception):
    """Two workers' deltas disagree on one slot — the group must serialize."""


class StateDelta:
    """The net state change of one transaction against its checkpoint."""

    __slots__ = ("name", "added", "removed", "supports")

    def __init__(
        self,
        name: str,
        added: frozenset,
        removed: frozenset,
        supports: Dict[LeafPath, LeafDelta],
    ) -> None:
        self.name = name
        self.added = added
        self.removed = removed
        self.supports = supports

    def __repr__(self) -> str:
        slots = sum(len(leaf) for leaf in self.supports.values())
        return (
            f"StateDelta({self.name}: +{len(self.added)} -{len(self.removed)}"
            f" facts, {slots} support slots)"
        )


def fold_results(
    results: Iterable[UpdateResult], base_model
) -> tuple[set, set]:
    """Net (added, removed) facts of a sequential result stream.

    Within one result ``removed & added`` are migrated facts — removed
    and re-derived by the same update, so present afterwards. Across
    results the *last* verdict per fact wins. The survivors are filtered
    against the checkpoint's model, because the deletion algorithms of
    some engines report every re-derived fact as ``added`` even when it
    never left the model; without the filter that over-report would both
    pollute the delta and mask a later genuine removal of the same fact.
    """
    present: dict = {}
    for result in results:
        for fact in result.added:
            present[fact] = True
        for fact in result.removed - result.added:
            present[fact] = False
    added = {
        fact
        for fact, held in present.items()
        if held and fact not in base_model
    }
    removed = {
        fact
        for fact, held in present.items()
        if not held and fact in base_model
    }
    return added, removed


# ----------------------------------------------------------------------
# Support state flattening
# ----------------------------------------------------------------------


def support_leaves(state: dict) -> Dict[LeafPath, object]:
    """Flatten a support state into ``{path: leaf}``.

    A leaf is either a :class:`SupportTable` (arena engines) or a plain
    ``{fact: value}`` dict (the dynamic engine's pair supports). The
    paths are stable across `_support_state()` calls of one engine, so a
    delta computed against a checkpoint's leaves applies to a later
    state's leaves by path.
    """
    leaves: Dict[LeafPath, object] = {}
    for key, value in state.items():
        if isinstance(value, ArenaSosSupports):
            leaves[(key, "pos")] = value.pos_table
            leaves[(key, "neg")] = value.neg_table
        elif isinstance(value, ArenaSupportState):
            leaves[(key, "table")] = value.table
        else:
            leaves[(key,)] = value
    return leaves


def arenas_of(state: dict) -> Iterator:
    """The arena objects referenced by a support state (deduplicated)."""
    seen: set[int] = set()
    for value in state.values():
        if isinstance(value, ArenaSupportState):
            if id(value.arena) not in seen:
                seen.add(id(value.arena))
                yield value.arena


def _dict_delta(live: dict, base: dict) -> LeafDelta:
    delta: LeafDelta = {}
    for key in base.keys() - live.keys():
        delta[key] = None
    for key, value in live.items():
        if base.get(key) != value:
            delta[key] = value
    return delta


def extract_delta(
    name: str,
    engine: MaintenanceEngine,
    base_model,
    base_supports: dict,
    results: Sequence[UpdateResult],
) -> StateDelta:
    """The transaction's :class:`StateDelta` against its checkpoint.

    Must run *before* the engine's state is copied or restored again:
    the arena fast path reads the live tables' privatized-slot sets,
    which a ``copy()`` resets.

    The net model change is folded against the checkpoint's model (O(1)
    membership per changed fact — see :func:`fold_results`), which is
    what makes two commuting transactions' deltas disjoint.
    """
    added, removed = fold_results(results, base_model)
    live_leaves = support_leaves(engine._live_support_state())
    base_leaves = support_leaves(base_supports)
    supports: Dict[LeafPath, LeafDelta] = {}
    for path, live_leaf in live_leaves.items():
        base_leaf = base_leaves.get(path)
        if isinstance(live_leaf, SupportTable):
            base_table = (
                base_leaf
                if isinstance(base_leaf, SupportTable)
                else SupportTable()
            )
            leaf_delta = live_leaf.delta_from(base_table)
        else:
            leaf_delta = _dict_delta(live_leaf, base_leaf or {})
        if leaf_delta:
            supports[path] = leaf_delta
    return StateDelta(
        name, frozenset(added), frozenset(removed), supports
    )


# ----------------------------------------------------------------------
# Merge + apply
# ----------------------------------------------------------------------


def merge_deltas(
    deltas: Sequence[StateDelta],
) -> tuple[set, set, Dict[LeafPath, LeafDelta]]:
    """Union the group's deltas; raise :class:`MergeConflict` on collision.

    Model facts collide when one transaction adds what another removes
    (the certificates make this impossible, so it is treated as a
    certificate bug and surfaced loudly via the serial fallback). Support
    slots collide when two deltas rewrite one slot to *different* values;
    equal rewrites merge.
    """
    added: set = set()
    removed: set = set()
    supports: Dict[LeafPath, LeafDelta] = {}
    for delta in deltas:
        if (delta.added & removed) or (delta.removed & added):
            raise MergeConflict(
                f"model delta of {delta.name!r} collides with the group"
            )
        added |= delta.added
        removed |= delta.removed
        for path, leaf_delta in delta.supports.items():
            target = supports.setdefault(path, {})
            for slot, value in leaf_delta.items():
                if slot in target and target[slot] != value:
                    raise MergeConflict(
                        f"support slot {slot!r} at {'/'.join(path)} "
                        f"rewritten divergently by {delta.name!r}"
                    )
                target[slot] = value
    return added, removed, supports


def apply_merged(
    engine: MaintenanceEngine,
    updates: Sequence[Tuple[str, Atom]],
    added: set,
    removed: set,
    supports: Dict[LeafPath, LeafDelta],
) -> None:
    """Install a merged group delta into the authoritative engine.

    *updates* are every merged transaction's fact updates in submission
    order — they replay against the database's asserted program (the
    workers only mutated their own copies). The support round trip
    (``_support_state`` → mutate copies → ``_load_support_state``) costs
    O(slots changed) thanks to the copy-on-write tables.
    """
    for operation, subject in updates:
        if operation == "insert_fact":
            engine.db.assert_fact(subject)
        elif operation == "delete_fact":
            engine.db.retract_fact(subject)
        else:  # pragma: no cover - rule ops never reach the merge path
            raise ValueError(f"cannot merge {operation!r}")
    if removed:
        engine.model.discard_many(removed)
    if added:
        engine.model.add_many(added)
    if supports:
        state = engine._support_state()
        leaves = support_leaves(state)
        for path, leaf_delta in supports.items():
            leaf = leaves[path]
            if isinstance(leaf, SupportTable):
                for slot, value in leaf_delta.items():
                    if value is None:
                        leaf.pop(slot)  # type: ignore[arg-type]
                    else:
                        leaf.replace(slot, set(value))  # type: ignore[arg-type]
            else:
                for key, value in leaf_delta.items():
                    if value is None:
                        leaf.pop(key, None)  # type: ignore[union-attr]
                    else:
                        leaf[key] = value  # type: ignore[index]
        engine._load_support_state(state)
