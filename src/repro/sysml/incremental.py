"""Incremental model loading: merge edited sources into a live model.

A :class:`ModelSession` holds one resolved model plus the bookkeeping
needed to absorb source edits without a cold reload:

1. comparing each source text with the previous revision's decides
   which sources even need reparsing (the parse cache absorbs repeats
   of previously-seen text);
2. changed sources are parsed into fresh element fragments and
   **merged** into the live model — elements whose subtree fingerprint
   is unchanged are *kept by identity*, so resolved references from the
   rest of the model stay valid;
3. the merge is the change detector: it measures, under their keys,
   the deep fingerprints of the anchors and the scope fingerprints of
   the namespaces it touches — kept, taken, dropped and re-keyed
   elements, before and after — and never walks what it left alone.
   Where the two measurements differ, plus the recorded dependency
   graph, yields the **dirty anchor set**;
4. only elements anchored in dirty subtrees — found by walking down
   from each dirty anchor's path, never over the whole model — get
   their resolved state cleared and re-resolved
   (:meth:`Resolver.resolve_only`); a fixpoint
   loop catches second-order effects (an element whose *resolution*
   changed without its syntax changing — e.g. through new shadowing —
   re-dirties its consumers).

Which fields of an element are syntax and which ones the resolver
writes is stated once per element class, as ``syntax_fields`` and
``resolved_fields`` in :mod:`repro.sysml.elements`. The merge compares
(:func:`~repro.sysml.depgraph.own_signature`) and copies the first; the
reset and the semantic snapshot of step 4 read the second (:func:`clear_resolved_state`, :func:`_semantic_state`).

Changed sources are parsed before the merge starts: a revision that
does not lex or parse raises its error with the session untouched.
Any later failure mid-update falls back to a cold rebuild, so the
session is never left half-merged; the fallback bumps
``incremental.session_fallbacks.<Exception>`` and names the exception
on the ``incremental-update`` span. If the *cold* rebuild also fails
the error propagates exactly as a fresh :func:`load_model` would have
raised it, and the next update rebuilds cold as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gcpolicy import gc_window
from ..obs import METRICS, span as _span
from .depgraph import (_ANCHOR_ATTR, _DEEP_ATTR, _KEY_ATTR, _SCOPE_ATTR,
                       NodeKey, _name_of, anchor_key, deep_fingerprint,
                       elements_anchored_in, is_anchor, node_key,
                       own_signature, scope_fingerprint,
                       subtree_anchor_keys, DepGraph, DepRecorder)
from .elements import (Connector, Element, Model, Namespace, Package,
                       RedefinitionUsage)
from .resolver import (Resolver, _load_sources, _parse_sources,
                       _stdlib_prefixed, model_fingerprint)

#: Second-order re-resolution rounds before giving up on convergence
#: and falling back to a cold rebuild.
_MAX_SEMANTIC_ROUNDS = 8


class IncrementalFallback(Exception):
    """Raised internally when an update cannot be applied incrementally."""


@dataclass(frozen=True)
class ModelUpdate:
    """What one :meth:`ModelSession.update` actually did."""

    #: Filenames of sources whose text changed (and were re-merged).
    changed_sources: tuple[str, ...] = ()
    #: Anchors whose subtrees were re-resolved (syntactically changed,
    #: affected through the dependency graph, or semantically re-dirtied
    #: by the fixpoint) — the engine's unit of downstream invalidation.
    dirty_anchors: frozenset = frozenset()
    #: Anchors present before the update and gone after it.
    removed_anchors: frozenset = frozenset()
    #: Anchors whose subtree content *locally* changed (head edits, new
    #: or removed members) — unlike :attr:`dirty_anchors` this excludes
    #: ancestors that are dirty only because a nested anchor changed,
    #: so it is the precise set for artifact invalidation.
    edited_anchors: frozenset = frozenset()
    #: Anchors holding elements whose *resolution* changed (possibly
    #: without any syntactic change under them — shadowing effects).
    semantic_anchors: frozenset = frozenset()
    #: Elements whose references were re-resolved (over all rounds).
    reresolved_elements: int = 0
    #: Semantic-propagation rounds it took to converge (0 = no dirt).
    rounds: int = 0
    #: True when the update was applied as a cold rebuild instead
    #: (first load, fallback, or a structural change too broad to chase).
    full_rebuild: bool = False

    @property
    def clean(self) -> bool:
        """No semantic change at all — every artifact may be reused."""
        return (not self.full_rebuild and not self.dirty_anchors
                and not self.removed_anchors and not self.edited_anchors
                and not self.semantic_anchors)

    @property
    def changed_anchors(self) -> frozenset:
        """Anchors whose derived artifacts cannot be reused: locally
        edited, removed, or semantically re-resolved differently."""
        return self.edited_anchors | self.semantic_anchors \
            | self.removed_anchors


def clear_resolved_state(element: Element) -> None:
    """Reset every resolver-written field of *element* (its class's
    ``resolved_fields``) to its freshly-built state; syntactic fields
    are untouched."""
    for field in type(element).resolved_fields:
        setattr(element, field,
                [] if isinstance(getattr(element, field), list) else None)
    if isinstance(element, RedefinitionUsage) and element.redefinition_names:
        # the resolver re-derives the name from the redefined feature
        element.name = None


def _semantic_state(element: Element) -> tuple:
    """Identity snapshot of every resolved pointer of *element* — two
    states compare equal exactly when re-resolution landed on the same
    objects."""
    state: list[object] = []
    for field in type(element).resolved_fields:
        value = getattr(element, field)
        state.append(tuple(map(id, value)) if isinstance(value, list)
                     else id(value))
    return tuple(state)


# -- structural merge --------------------------------------------------------

def _match_key(element: Element) -> tuple | None:
    """Pairing key for named elements (None → pair by content hash)."""
    name = _name_of(element)
    if not name:
        return None
    if isinstance(element, Connector):
        return (type(element).__name__, element.connector_kind, name)
    return (type(element).__name__, name)


def _clear_keys_deep(element: Element) -> None:
    element.__dict__.pop(_KEY_ATTR, None)
    element.__dict__.pop(_ANCHOR_ATTR, None)
    for child in element.owned_elements:
        _clear_keys_deep(child)


class _Fingerprints:
    """Anchor deep and namespace scope fingerprints, by key, of the
    elements one merge measured."""

    def __init__(self) -> None:
        self.deep: dict[NodeKey, str] = {}
        self.scope: dict[NodeKey, str] = {}

    def measure(self, element: Element, subtree: bool = False) -> None:
        if is_anchor(element):
            self.deep[node_key(element)] = deep_fingerprint(element)
        if isinstance(element, Namespace):
            self.scope[node_key(element)] = scope_fingerprint(element)
        if subtree:
            for child in element.owned_elements:
                self.measure(child, subtree)


def _changed(before: dict[NodeKey, str], after: dict[NodeKey, str]
             ) -> set[NodeKey]:
    """Keys whose value differs, including keys on one side only."""
    return {key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)}


class _Merger:
    """One-shot structural merge of fragment subtrees into a live model.

    It is also the session's change detector: it measures what it
    touches before the merge (kept elements, dropped subtrees,
    anonymous subtrees whose position moved) and after it (kept
    elements, taken and moved subtrees, the root scope). What it
    leaves alone keeps its key and fingerprints, so the two partial
    maps differ exactly where whole-model snapshots would.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        #: Old subtrees replaced or removed — kept alive until the
        #: semantic fixpoint is done comparing object identities.
        self.dropped: list[Element] = []
        #: Elements whose content locally changed: head-edited kept
        #: elements, newly-taken subtrees, and parents whose member
        #: list changed. Their anchors form ``edited_anchors``.
        self.changed: list[Element] = []
        #: Subtrees taken wholesale from a fragment. Every element in
        #: them is fresh and unresolved, even where its deep hash equals
        #: that of a dropped element (a package moved between sources).
        self.taken: list[Element] = []
        #: Old anonymous subtrees kept at a new position: their
        #: positional (``#ordinal``) keys moved.
        self.shifted: list[Element] = []
        self.before = _Fingerprints()
        self.before.measure(model)
        self.after = _Fingerprints()

    def drop(self, elements: list[Element]) -> None:
        for element in elements:
            self.before.measure(element, subtree=True)
            self.dropped.append(element)

    def shift_moved(self, old_list: list[Element],
                    merged: list[Element]) -> None:
        """Re-key the anonymous subtrees of *old_list* that *merged*
        keeps at another position (measured first, under the old key,
        while *old_list* still gives their old ordinals)."""
        old_positions = {id(old): index for index, old in enumerate(old_list)}
        for index, kept in enumerate(merged):
            if old_positions.get(id(kept), index) != index \
                    and _match_key(kept) is None:
                self.before.measure(kept, subtree=True)
                self.shifted.append(kept)
                _clear_keys_deep(kept)

    def changes(self) -> tuple[set[NodeKey], set[NodeKey], frozenset]:
        """``(deep_changed, scope_changed, removed)`` once the merge is
        complete."""
        for element in self.taken + self.shifted:
            self.after.measure(element, subtree=True)
        self.after.measure(self.model)
        before, after = self.before, self.after
        return (_changed(before.deep, after.deep),
                _changed(before.scope, after.scope),
                frozenset(before.deep.keys() - after.deep.keys()))

    def merge_lists(self, old_list: list[Element], new_list: list[Element],
                    parent: Element) -> tuple[list[Element], bool, bool]:
        """Merge children lists; returns ``(merged, list_changed,
        any_changed)`` where *list_changed* covers identity/order and
        *any_changed* additionally covers in-place subtree edits."""
        named: dict[tuple, list[Element]] = {}
        anonymous: dict[str, list[Element]] = {}
        for old in old_list:
            key = _match_key(old)
            if key is not None:
                named.setdefault(key, []).append(old)
            else:
                anonymous.setdefault(deep_fingerprint(old), []).append(old)

        merged: list[Element] = []
        any_changed = False
        for new in new_list:
            key = _match_key(new)
            if key is not None and named.get(key):
                old = named[key].pop(0)
                if self.merge_element(old, new):
                    any_changed = True
                merged.append(old)
                continue
            if key is None:
                queue = anonymous.get(deep_fingerprint(new))
                if queue:
                    merged.append(queue.pop(0))
                    continue
            # no counterpart: take the new subtree wholesale
            new.owner = parent
            merged.append(new)
            self.changed.append(new)
            self.taken.append(new)
            any_changed = True

        for leftovers in named.values():
            self.drop(leftovers)
        for leftovers in anonymous.values():
            self.drop(leftovers)

        list_changed = len(merged) != len(old_list) or any(
            kept is not old for kept, old in zip(merged, old_list))
        if list_changed:
            any_changed = True
            self.changed.append(parent)
            # a root slice is only part of the root's list: the session
            # re-keys root children once the whole list is merged
            if parent is not self.model:
                self.shift_moved(old_list, merged)
        return merged, list_changed, any_changed

    def merge_element(self, old: Element, new: Element) -> bool:
        """Merge *new* into the kept *old* object; True if anything in
        the subtree changed."""
        self.before.measure(old)
        head_changed = own_signature(old) != own_signature(new)
        if head_changed:
            # carry the new declaration onto the kept object, so
            # references *to* it stay valid while its content tracks
            # the edit
            old.location = new.location
            for field in type(old).syntax_fields:
                setattr(old, field, getattr(new, field))
            self.changed.append(old)
        merged, list_changed, children_changed = self.merge_lists(
            old.owned_elements, new.owned_elements, old)
        if list_changed:
            for child in merged:
                if child.owner is not old:
                    child.owner = old
            old.owned_elements = merged
        if head_changed or children_changed:
            old.__dict__.pop(_DEEP_ATTR, None)
        if head_changed or list_changed:
            old.__dict__.pop(_SCOPE_ATTR, None)
        # a named element keeps its key, and its subtree is final now
        self.after.measure(old)
        return head_changed or children_changed


def _unlink_untaken(elements: list[Element], taken: set[int]) -> None:
    """Unlink the subtrees of *elements* a merge did not take (by
    ``id`` in *taken*): the parsed elements it left over and the old
    ones it dropped. Reference counting then frees them at once; each
    would otherwise sit in an ``owner`` cycle until a full
    collection."""
    for element in elements:
        if id(element) in taken:
            continue
        _unlink_untaken(element.owned_elements, taken)
        element.owned_elements = []
        element.owner = None


# -- the session -------------------------------------------------------------

class ModelSession:
    """A resolved model that absorbs source edits incrementally.

    Construction runs :func:`load_model`'s front end with dependency
    recording; :meth:`update` merges a new revision of the
    sources and returns a :class:`ModelUpdate` describing how little
    work that took. The live model object is stable across updates —
    only dirty subtrees are re-resolved in place.
    """

    def __init__(self, *texts: str, filenames: list[str] | None = None,
                 include_stdlib: bool = True, cache=None):
        self.include_stdlib = include_stdlib
        self.cache = cache
        self.model: Model = None  # type: ignore[assignment]
        self.graph: DepGraph = None  # type: ignore[assignment]
        self._sources: list[str] = []
        self._names: list[str] = []
        self._slice_counts: list[int] = []
        self._half_merged = False
        with gc_window():
            self._load_cold(texts, filenames)

    # -- cold path -----------------------------------------------------------

    def _load_cold(self, texts, filenames: list[str] | None) -> None:
        graph = DepGraph()
        model, sources, names, counts = _load_sources(
            texts, filenames, include_stdlib=self.include_stdlib,
            cache=self.cache, recorder=DepRecorder(graph))
        self.model = model
        self.graph = graph
        self._sources = sources
        self._names = names
        self._slice_counts = counts

    # -- incremental path ----------------------------------------------------

    def update(self, *texts: str,
               filenames: list[str] | None = None) -> ModelUpdate:
        """Absorb a new revision of the sources; falls back to a cold
        rebuild on any incremental failure.

        A source that does not lex or parse raises before anything
        changes: the session stays on its previous revision."""
        with gc_window():
            return self._update(texts, filenames)

    def _update(self, texts: tuple[str, ...],
                filenames: list[str] | None) -> ModelUpdate:
        sources, names = _stdlib_prefixed(
            texts, filenames, include_stdlib=self.include_stdlib)
        previous = self._sources
        changed = [index for index in range(len(sources))
                   if index >= len(previous)
                   or sources[index] != previous[index]]
        with _span("incremental-update") as s:
            trees = self._parse_changed(sources, names, changed)
            try:
                if self._half_merged:
                    raise IncrementalFallback("last update failed mid-merge")
                return self._update_incremental(sources, names, changed,
                                                trees)
            except Exception as exc:  # noqa: BLE001 - safety valve
                # a bug must not pass for a slow edit: say which one
                reason = type(exc).__name__
                s.set("fallback", reason)
                METRICS.counter(
                    f"incremental.session_fallbacks.{reason}").inc()
        # Cold rebuild; if the *sources* are broken this raises the
        # same error a fresh load would. A failed merge may already have
        # changed the live model, so until a cold rebuild succeeds every
        # update takes this path.
        self._half_merged = True
        self._load_cold(texts, filenames)
        self._half_merged = False
        return ModelUpdate(
            changed_sources=tuple(names[1:]
                                  if self.include_stdlib else names),
            full_rebuild=True)

    def _update_incremental(self, sources: list[str], names: list[str],
                            changed: list[int],
                            trees: dict[int, object]) -> ModelUpdate:
        removed_slices = len(self._sources) > len(sources)
        if not changed and not removed_slices:
            # filenames feed the model fingerprint even when no text
            # changed; with both unchanged it is the one already set
            if names != self._names:
                self.model.content_fingerprint = model_fingerprint(
                    sources, names, include_stdlib=self.include_stdlib)
            self._sources = sources
            self._names = names
            return ModelUpdate()

        changed_names = tuple(names[index] for index in changed
                              if index < len(names))
        merger = _Merger(self.model)
        self._merge_root(trees, changed, len(sources), merger)
        # anchors inside wholesale-taken subtrees count as edited even
        # when their deep hash is unchanged: their objects are new and
        # unresolved, and consumers still point at the dropped ones
        taken: set[NodeKey] = set()
        for element in merger.taken:
            taken |= subtree_anchor_keys(element)
        edited = frozenset(taken.union(anchor_key(element)
                                       for element in merger.changed))

        deep_changed, scope_changed, removed = merger.changes()
        deep_changed |= taken
        self.graph.drop_consumers(removed)

        dirty_now = (deep_changed | self.graph.consumers_affected(
            deep_changed, scope_changed)) - removed

        all_dirty: set[NodeKey] = set()
        semantic: set[NodeKey] = set()
        reresolved = 0
        rounds = 0
        while dirty_now:
            rounds += 1
            if rounds > _MAX_SEMANTIC_ROUNDS:
                raise IncrementalFallback(
                    "semantic propagation did not converge")
            elements = elements_anchored_in(self.model, dirty_now)
            before = {id(e): _semantic_state(e) for e in elements}
            for element in elements:
                clear_resolved_state(element)
            self.graph.drop_consumers(dirty_now)
            Resolver(self.model,
                     recorder=DepRecorder(self.graph)).resolve_only(elements)
            reresolved += len(elements)
            all_dirty |= dirty_now

            sem_changed = [e for e in elements
                           if _semantic_state(e) != before[id(e)]]
            deep2 = {anchor_key(e) for e in sem_changed}
            scope2 = {node_key(e) for e in sem_changed}
            semantic |= deep2
            dirty_now = self.graph.consumers_affected(deep2, scope2) \
                - removed - all_dirty

        self.model.content_fingerprint = model_fingerprint(
            sources, names, include_stdlib=self.include_stdlib)
        self._sources = sources
        self._names = names
        taken_ids = {id(element) for element in merger.taken}
        for tree in trees.values():
            _unlink_untaken(tree.members, taken_ids)
        # `merger` kept the dropped subtrees alive while the fixpoint
        # compared object identities above; nothing in them is taken
        _unlink_untaken(merger.dropped, taken_ids)
        return ModelUpdate(changed_sources=changed_names,
                           dirty_anchors=frozenset(all_dirty),
                           removed_anchors=removed,
                           edited_anchors=edited,
                           semantic_anchors=frozenset(semantic),
                           reresolved_elements=reresolved, rounds=rounds)

    def _parse_changed(self, sources: list[str], names: list[str],
                       changed: list[int]) -> dict[int, object]:
        parsed = _parse_sources([sources[i] for i in changed],
                                [names[i] for i in changed],
                                cache=self.cache)
        return dict(zip(changed, parsed))

    def _merge_root(self, trees: dict[int, object], changed: list[int],
                    source_count: int, merger: _Merger) -> None:
        old_slices = self._slices()
        merged_root: list[Element] = []
        counts: list[int] = []
        root_changed = False
        for index in range(source_count):
            old_slice = old_slices[index] if index < len(old_slices) else []
            if index in trees:
                new_elements = trees[index].members
                if self.include_stdlib and index == 0:
                    for element in new_elements:
                        if isinstance(element, Package):
                            element.is_library = True
                merged, _list_changed, slice_changed = merger.merge_lists(
                    old_slice, new_elements, self.model)
                root_changed = root_changed or slice_changed
            else:
                merged = old_slice
            merged_root.extend(merged)
            counts.append(len(merged))
        for index in range(source_count, len(old_slices)):
            merger.drop(old_slices[index])
            root_changed = True

        if root_changed:
            self.model.__dict__.pop(_SCOPE_ATTR, None)
        if merged_root != self.model.owned_elements:
            merger.shift_moved(self.model.owned_elements, merged_root)
            for element in merged_root:
                if element.owner is not self.model:
                    element.owner = self.model
            self.model.owned_elements = merged_root
        self._slice_counts = counts

    def _slices(self) -> list[list[Element]]:
        slices: list[list[Element]] = []
        position = 0
        for count in self._slice_counts:
            slices.append(self.model.owned_elements[position:position + count])
            position += count
        return slices
