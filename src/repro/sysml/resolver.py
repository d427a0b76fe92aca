"""Name resolution for SysML v2 models.

Two passes:

1. **Type resolution** — specializations (``:>``), feature typings
   (``: T`` / ``: ~T``), connector types, and imports. After this pass
   the specialization lattice is complete, so inherited members work.
2. **Feature resolution** — redefinitions (``:>>``), binding connector
   ends, connection/interface ends, perform targets, and assignment
   value references, all of which need inherited-member lookup.

Lookup rules (simplified from the KerML spec, sufficient for the
methodology's models): a simple name is searched in the local namespace,
then in inherited members (when the scope is a type), then in wildcard
imports of enclosing namespaces, then outward through the owner chain.
Qualified names resolve their first segment that way and descend through
(effective) members.

Lookups run through per-resolve memo tables (member, inherited and
root-scope tables with fine-grained invalidation), with or without a
recorder. With a :class:`~repro.sysml.depgraph.DepRecorder` attached,
every lookup additionally records *which namespaces it consulted* and
*what it finally resolved to* into a dependency graph — the raw
material of incremental re-resolution (see
:mod:`repro.sysml.incremental`); a root-scope memo hit replays the
scopes its scan consulted, so the graph is the one an unmemoized
lookup would record. :meth:`Resolver.resolve_only` reruns the same
passes over an explicit subset of elements, which is how dirty
subtrees are re-resolved without touching the rest of the model.

:func:`load_model` and :class:`~repro.sysml.incremental.ModelSession`
share one cold front end, :func:`_load_sources`: stdlib prefix, parse,
build, library marking, content fingerprint, resolve.
"""

from __future__ import annotations

from typing import Iterable

from ..gcpolicy import gc_window
from ..obs import span as _span
from .ast_nodes import FeatureChain, QualifiedName
from .elements import (Alias, Assignment, BindingConnector, Connector,
                       Definition, Element, Import, Model, Namespace,
                       PerformAction, RedefinitionUsage, Type, Usage)
from .errors import ResolutionError


class Resolver:
    """Resolves all by-name references in a model, in place."""

    def __init__(self, model: Model, recorder=None):
        self.model = model
        #: Optional :class:`~repro.sysml.depgraph.DepRecorder`; when set,
        #: lookups record scope consultations and resolution targets.
        self.recorder = recorder
        # -- lookup memoization --------------------------------------------
        # Member tables, inherited-member tables and root-scope scans are
        # rebuilt from the element tree on every lookup (see
        # repro.sysml.elements), which makes resolution quadratic in deep
        # category nesting and machine count at mega-factory scale. The
        # resolver memoizes them per element, with *fine-grained*
        # invalidation at the only mutation sites that can change a
        # lookup's answer mid-resolve:
        #
        # * a name change (the ``:>> x = v`` shorthand adopts the
        #   redefined feature's name) invalidates the owner's member
        #   table and inherited tables built over it;
        # * a lattice change (``specializations``/``typ``/``redefines``)
        #   invalidates the element's inherited table and — through the
        #   ``_inh_deps`` reverse index recorded at build time — every
        #   cached table whose supertype closure touches the element;
        # * an alias retarget invalidates root-scope scans (the only
        #   cache that stores dereferenced alias targets).
        #
        # Memo hits record the same dependencies as a fresh build: every
        # member/inherited-table lookup is preceded by an explicit
        # ``_consulted`` call, and a root-scan entry stores, next to its
        # answer, the scopes the scan consulted (the model root and the
        # stdlib packages it searched), which each hit replays.
        self._members_memo: dict[int, tuple[Element,
                                            dict[str, Element]]] = {}
        self._inherited_memo: dict[int, tuple[Type,
                                              dict[str, Element]]] = {}
        #: id(element) -> ids of types whose cached inherited table was
        #: built over that element (supertype closure + redefines chains)
        self._inh_deps: dict[int, set[int]] = {}
        self._root_memo: dict[str, tuple[Element | None,
                                         tuple[Element, ...]]] = {}
        #: per-scope Import children — pure tree structure, which never
        #: changes during resolution, so entries are valid for the whole
        #: resolve (targets on the Import objects are read live)
        self._imports_memo: dict[int, tuple[Element, list[Import]]] = {}

    def resolve(self) -> Model:
        with _span("resolve") as s:
            self._run_passes(lambda: list(self.model.all_elements()))
            if s.enabled:
                s.set("passes", 4)
                s.set("elements",
                      sum(1 for _ in self.model.all_elements()))
        return self.model

    def resolve_only(self, elements: list[Element]) -> None:
        """Rerun all passes restricted to *elements* (pre-order list).

        Callers must first clear stale resolved state on those elements
        (:func:`~repro.sysml.incremental.clear_resolved_state`); lookup
        still sees the whole model, so references out of the subset
        resolve against already-resolved surroundings.
        """
        with _span("resolve-incremental") as s:
            self._run_passes(lambda: elements)
            if s.enabled:
                s.set("elements", len(elements))

    def _run_passes(self, elements: "callable") -> None:
        with _span("imports"):
            self._resolve_imports(elements())
        with _span("aliases"):
            self._resolve_aliases(elements())
        with _span("types"):
            self._resolve_types(elements())
        with _span("features"):
            self._resolve_features(elements())

    # -- recording ------------------------------------------------------------

    def _as_consumer(self, element: Element) -> None:
        if self.recorder is not None:
            self.recorder.set_consumer(element)

    def _consulted(self, scope: Element) -> None:
        if self.recorder is not None:
            self.recorder.consulted(scope)

    def _consulted_subtree(self, scope: Element) -> None:
        if self.recorder is not None:
            self.recorder.consulted_subtree(scope)

    def _resolved(self, element: Element | None) -> None:
        if self.recorder is not None:
            self.recorder.resolved(element)

    # -- memoized member tables ------------------------------------------------

    def _name_changed(self, element: Element) -> None:
        """An element's *name* changed: drop the owner's member table,
        every inherited table built over the owner, and (if the change
        is visible from the root scope) the root-scan memo."""
        owner = element.owner
        if owner is not None:
            self._members_memo.pop(id(owner), None)
            self._drop_inherited_dependents(id(owner))
        if owner is None or owner is self.model:
            self._root_memo.clear()

    def _lattice_changed(self, element: Element) -> None:
        """*element*'s supertype closure changed (``specializations``,
        ``typ`` or ``redefines`` mutated): drop its inherited table and
        every cached table whose closure walked through it."""
        self._inherited_memo.pop(id(element), None)
        self._drop_inherited_dependents(id(element))

    def _drop_inherited_dependents(self, key: int) -> None:
        for dependent in self._inh_deps.pop(key, ()):
            self._inherited_memo.pop(dependent, None)

    def _member_table(self, element: Element) -> dict[str, Element]:
        """Own-member table of *element*, memoized per owner.

        Matches :meth:`Namespace.member` exactly — first child wins and
        empty-string names participate (hostile corpus models use the
        quoted empty name ``''``), unlike the ``members`` property which
        drops falsy names. Invalidated by :meth:`_name_changed` on the
        owner; the element tree itself never gains or loses children
        during resolution.
        """
        entry = self._members_memo.get(id(element))
        if entry is not None:
            return entry[1]
        table: dict[str, Element] = {}
        for child in element.owned_elements:
            name = child.name
            if name is not None and name not in table:
                table[name] = child
        # the entry keeps a strong reference to the element so the
        # ``id()`` key cannot be recycled under the memo
        self._members_memo[id(element)] = (element, table)
        return table

    def _inherited(self, typ: Type) -> dict[str, Element]:
        """Inherited-member table of *typ*, invalidation-memoized.

        Built via :meth:`Type.inherited_members` (``members`` property
        semantics — falsy names excluded). At build time the supertype
        closure is registered in the ``_inh_deps`` reverse index so a
        later lattice or name mutation on any element the closure
        touched invalidates exactly the affected tables. The
        registration walks ``all_supertypes()`` *plus* the transitive
        ``redefines`` chains of every usage in it: ``effective_type()``
        follows redefines through intermediate usages that never appear
        in the supertype list themselves, yet whose typing still feeds
        the closure.
        """
        entry = self._inherited_memo.get(id(typ))
        if entry is not None:
            return entry[1]
        table = typ.inherited_members()
        key = id(typ)
        seen: set[int] = set()
        stack: list[Element] = [typ, *typ.all_supertypes()]
        while stack:
            dep = stack.pop()
            dep_id = id(dep)
            if dep_id in seen:
                continue
            seen.add(dep_id)
            if dep is not typ:
                self._inh_deps.setdefault(dep_id, set()).add(key)
            if isinstance(dep, Usage):
                stack.extend(dep.redefines)
        self._inherited_memo[key] = (typ, table)
        return table

    def _member_of(self, element: Element, name: str, *,
                   include_self: bool = False) -> Element | None:
        """Find *name* among the (effective) members of *element*:
        own members first, then inherited ones when it is a type.

        Aliases are transparent: looking up an alias name yields its
        target.
        """
        if include_self and element.name == name:
            return element
        found: Element | None = None
        if isinstance(element, Type):
            found = self._member_table(element).get(name)
            if found is None:
                found = self._inherited(element).get(name)
        elif isinstance(element, Namespace):
            found = self._member_table(element).get(name)
        if isinstance(found, Alias):
            return found.target
        return found

    # -- pass 0a: imports ------------------------------------------------------

    def _resolve_imports(self, elements: Iterable[Element]) -> None:
        for imp in elements:
            if not isinstance(imp, Import):
                continue
            self._as_consumer(imp)
            scope = imp.owner or self.model
            target = self._lookup_qualified(imp.target_name, scope,
                                            use_imports=False)
            if target is None:
                raise ResolutionError(
                    f"cannot resolve import target '{imp.target_name}'",
                    imp.target_name.location)
            # import targets are consulted live (never cached), so
            # setting one invalidates nothing
            imp.target = target
            self._resolved(target)

    # -- pass 0b: aliases ------------------------------------------------------

    def _resolve_aliases(self, elements: Iterable[Element]) -> None:
        for alias in elements:
            if not isinstance(alias, Alias):
                continue
            self._as_consumer(alias)
            scope = alias.owner or self.model
            target = self._lookup_qualified(alias.target_name, scope)
            if target is None:
                raise ResolutionError(
                    f"cannot resolve alias target '{alias.target_name}'",
                    alias.target_name.location)
            if isinstance(target, Alias):
                target = target.target or target
            alias.target = target
            # root scans are the one cache that stores *dereferenced*
            # alias targets; member tables keep the Alias and deref live
            self._root_memo.clear()
            self._resolved(target)

    # -- pass 1: types ---------------------------------------------------------

    def _resolve_types(self, elements: Iterable[Element]) -> None:
        for element in elements:
            if isinstance(element, Type):
                self._as_consumer(element)
                self._resolve_type_clauses(element)
            if isinstance(element, Connector) and element.type_name is not None:
                self._as_consumer(element)
                resolved = self._require(element.type_name, element)
                if not isinstance(resolved, Definition):
                    raise ResolutionError(
                        f"connector type '{element.type_name}' is not a "
                        f"definition", element.type_name.location)
                element.typ = resolved
                self._lattice_changed(element)
                self._resolved(resolved)

    def _resolve_type_clauses(self, element: Type) -> None:
        for general_name in element.specialization_names:
            general = self._require(general_name, element)
            if not isinstance(general, Type):
                raise ResolutionError(
                    f"'{general_name}' is not a type and cannot be "
                    f"specialized", general_name.location)
            if general not in element.specializations:
                element.specializations.append(general)
                self._lattice_changed(element)
            self._resolved(general)
        if isinstance(element, Usage) and element.type_name is not None:
            typ = self._require(element.type_name, element)
            if not isinstance(typ, (Definition, Usage)):
                raise ResolutionError(
                    f"'{element.type_name}' cannot type a usage",
                    element.type_name.location)
            element.typ = typ
            self._lattice_changed(element)
            self._resolved(typ)

    # -- pass 2: features --------------------------------------------------------

    def _resolve_features(self, elements: Iterable[Element]) -> None:
        pending = list(elements)
        for element in pending:
            if isinstance(element, Usage) and element.redefinition_names:
                self._as_consumer(element)
                self._resolve_redefinitions(element)
        for element in pending:
            self._as_consumer(element)
            if isinstance(element, BindingConnector):
                element.left = self._resolve_chain(element.left_chain, element)
                element.right = self._resolve_chain(element.right_chain, element)
                self._resolved(element.left)
                self._resolved(element.right)
            elif isinstance(element, Connector):
                element.source = self._resolve_chain(element.source_chain,
                                                     element)
                element.target = self._resolve_chain(element.target_chain,
                                                     element)
                self._resolved(element.source)
                self._resolved(element.target)
            elif isinstance(element, PerformAction):
                element.target = self._resolve_chain(element.target_chain,
                                                     element)
                self._resolved(element.target)
            elif isinstance(element, Assignment):
                self._resolve_assignment(element)

    def _resolve_redefinitions(self, usage: Usage) -> None:
        scope = usage.owner
        if scope is None:
            raise ResolutionError("redefinition outside any scope",
                                  usage.location)
        for target_name in usage.redefinition_names:
            target = self._lookup_feature_name(target_name, scope,
                                               exclude=usage)
            if target is None:
                raise ResolutionError(
                    f"cannot resolve redefined feature '{target_name}' "
                    f"from {scope.qualified_name}", target_name.location)
            if not isinstance(target, Usage):
                raise ResolutionError(
                    f"'{target_name}' does not name a feature usage",
                    target_name.location)
            usage.redefines.append(target)
            self._lattice_changed(usage)
            self._resolved(target)
        if isinstance(usage, RedefinitionUsage) and usage.redefines:
            # The shorthand ':>> x = v;' takes its name and kind from the
            # redefined feature.
            if usage.name is None:
                usage.name = usage.redefines[0].name
                self._name_changed(usage)

    def _resolve_assignment(self, assignment: Assignment) -> None:
        from .ast_nodes import FeatureRefExpr
        if isinstance(assignment.value, FeatureRefExpr):
            scope = assignment.owner
            resolved = None
            if scope is not None:
                try:
                    resolved = self._resolve_chain(assignment.value.chain,
                                                   assignment)
                except ResolutionError:
                    resolved = None
            assignment.resolved_value = resolved
            self._resolved(resolved)

    # -- lookup machinery ------------------------------------------------------

    def _require(self, name: QualifiedName, context: Element) -> Element:
        found = self._lookup_qualified(name, context)
        if found is None:
            raise ResolutionError(
                f"cannot resolve name '{name}' from "
                f"{context.qualified_name}", name.location)
        return found

    def _lookup_qualified(self, name: QualifiedName, scope: Element,
                          *, use_imports: bool = True) -> Element | None:
        current = self._lookup_simple(name.parts[0], scope,
                                      use_imports=use_imports)
        if current is None:
            return None
        for part in name.parts[1:]:
            self._consulted(current)
            current = self._member_of(current, part)
            if current is None:
                return None
        return current

    def _lookup_simple(self, name: str, scope: Element, *,
                       use_imports: bool = True) -> Element | None:
        node: Element | None = scope
        while node is not None and node is not self.model:
            self._consulted(node)
            found = self._member_of(node, name, include_self=True)
            if found is not None:
                return found
            if use_imports:
                found = self._lookup_in_imports(name, node)
                if found is not None:
                    return found
            node = node.owner
        return self._lookup_root(name)

    def _lookup_root(self, name: str) -> Element | None:
        """Root-scope lookup, memoized per name (misses included).

        At mega-factory scale the model root owns thousands of machine
        packages, and every unqualified name that escapes its owner
        chain rescans them — memoizing by name makes the root scan
        amortized O(1) instead of O(packages) per lookup. Invalidated
        wholesale on alias retargets and root-visible name changes.
        Every hit replays the scopes its scan consulted, so a recorded
        dependency graph does not depend on which lookup came first.
        """
        entry = self._root_memo.get(name)
        if entry is None:
            entry = self._root_memo[name] = self._scan_root(name)
        found, consulted = entry
        if self.recorder is not None:
            for scope in consulted:
                self.recorder.consulted(scope)
        return found

    def _scan_root(self, name: str
                   ) -> tuple[Element | None, tuple[Element, ...]]:
        """The root-scope answer for *name* plus the scopes consulted."""
        # the model root (library packages resolve only by qualified name
        # or through the implicit-import fallback below)
        for child in self.model.owned_elements:
            if child.name == name and not _is_library_package(child):
                return _deref_alias(child), (self.model,)
        for child in self.model.owned_elements:
            if child.name == name:
                return _deref_alias(child), (self.model,)
        from .stdlib import IMPLICIT_LIBRARY_PACKAGES
        consulted: list[Element] = [self.model]
        for package_name in IMPLICIT_LIBRARY_PACKAGES:
            package = self.model.member(package_name)
            if package is not None:
                consulted.append(package)
                found = self._member_of(package, name)
                if found is not None:
                    return found, tuple(consulted)
        return None, tuple(consulted)

    def _imports_of(self, scope: Element) -> list[Import]:
        entry = self._imports_memo.get(id(scope))
        if entry is not None:
            return entry[1]
        imports = [child for child in scope.owned_elements
                   if isinstance(child, Import)]
        self._imports_memo[id(scope)] = (scope, imports)
        return imports

    def _lookup_in_imports(self, name: str, scope: Element) -> Element | None:
        for child in self._imports_of(scope):
            if child.target is None:
                continue
            target = child.target
            self._consulted(target)
            if child.wildcard:
                found = self._member_of(target, name)
                if found is not None:
                    return found
                if child.recursive and isinstance(target, Namespace):
                    # A recursive wildcard can match *anywhere* in the
                    # target subtree, so the dependency is on its whole
                    # content, not just its member table.
                    self._consulted_subtree(target)
                    for descendant in target.descendants():
                        if descendant.name == name:
                            return descendant
            elif target.name == name:
                return target
        return None

    def _lookup_feature_name(self, name: QualifiedName, scope: Element,
                             *, exclude: Element | None = None) -> Element | None:
        """Resolve a (usually simple) redefinition target.

        Redefinitions refer to features of the *context type* — the
        supertypes / typing of the owning usage — so inherited members of
        the owner are searched first. The redefining usage itself (and
        same-named own members, which merely shadow) never match.
        """
        if len(name.parts) == 1 and isinstance(scope, Type):
            self._consulted(scope)
            found = self._inherited(scope).get(name.parts[0])
            if found is not None and found is not exclude:
                return found
            found = self._member_table(scope).get(name.parts[0])
            if found is not None and found is not exclude:
                return found
        found = self._lookup_qualified(name, scope)
        if found is exclude:
            return None
        return found

    def _resolve_chain(self, chain: FeatureChain, context: Element) -> Element:
        scope = context.owner or self.model
        current = self._lookup_simple(chain.parts[0], scope)
        if current is None:
            raise ResolutionError(
                f"cannot resolve '{chain.parts[0]}' (in chain '{chain}') "
                f"from {scope.qualified_name}", chain.location)
        for part in chain.parts[1:]:
            self._consulted(current)
            nxt = self._member_of(current, part)
            if nxt is None:
                raise ResolutionError(
                    f"'{current.qualified_name}' has no member '{part}' "
                    f"(in chain '{chain}')", chain.location)
            current = nxt
        return current


def _is_library_package(element: Element) -> bool:
    from .elements import Package
    return isinstance(element, Package) and element.is_library


def _deref_alias(element: Element) -> Element:
    if isinstance(element, Alias) and element.target is not None:
        return element.target
    return element


def resolve_model(model: Model) -> Model:
    """Resolve all references in *model* (in place) and return it."""
    return Resolver(model).resolve()


def _parse_sources(sources: list[str], names: list[str], *,
                   cache=None) -> list:
    """Parse every source, reusing cached trees (pickled root elements).

    Cache keys cover the source text *and* its filename (parse trees
    embed source locations), salted with
    :data:`repro.fingerprint.PARSE_TREE_SALT`.
    """
    from ..fingerprint import PARSE_TREE_SALT, fingerprint
    from ..obs import span as _obs_span
    from .parser import parse

    trees = []
    for text, name in zip(sources, names):
        key = tree = None
        if cache is not None:
            key = fingerprint(text, name, salt=PARSE_TREE_SALT)
            tree = cache.get_object(key)
        if tree is not None:
            with _obs_span("parse", file=name, cached=True):
                pass
        else:
            tree = parse(text, name)
            if cache is not None:
                cache.put_object(key, tree)
        trees.append(tree)
    return trees


def model_fingerprint(sources: list[str], names: list[str], *,
                      include_stdlib: bool) -> str:
    """The whole-model content fingerprint of a source set.

    *sources*/*names* must already include the stdlib prefix when
    *include_stdlib* is true (exactly what :func:`load_model` hashes),
    so incremental reloads can reproduce the cold fingerprint.
    """
    from ..fingerprint import MODEL_SALT, fingerprint
    return fingerprint([include_stdlib], *sources, *names, salt=MODEL_SALT)


def _stdlib_prefixed(texts, filenames: list[str] | None, *,
                     include_stdlib: bool) -> tuple[list[str], list[str]]:
    """The sources and names a load of *texts* actually reads: default
    ``<modelN>`` names, and the stdlib source first unless excluded."""
    names = list(filenames or [f"<model{i}>" for i in range(len(texts))])
    sources = list(texts)
    if include_stdlib:
        from .stdlib import SCALAR_VALUES_SOURCE
        sources.insert(0, SCALAR_VALUES_SOURCE)
        names.insert(0, "<stdlib>")
    return sources, names


def content_fingerprint_of_sources(
        sources: list[str], filenames: list[str] | None = None, *,
        include_stdlib: bool = True) -> str:
    """What ``load_model(*sources).content_fingerprint`` would be.

    A pure function of the source texts — no lexing, parsing or
    resolution happens. The sharded serving router uses it to derive
    the same shard-affinity key a worker derives after actually
    loading the model, so routing costs a hash, not a parse.
    """
    texts, names = _stdlib_prefixed(sources, filenames,
                                    include_stdlib=include_stdlib)
    return model_fingerprint(texts, names, include_stdlib=include_stdlib)


def _load_sources(texts, filenames: list[str] | None, *,
                  include_stdlib: bool, cache=None, recorder=None
                  ) -> tuple[Model, list[str], list[str], list[int]]:
    """Parse and resolve *texts*: the one cold front end.

    Returns the resolved model, the stdlib-prefixed sources and names
    it was loaded from, and how many root elements each source
    contributed. *recorder* (a
    :class:`~repro.sysml.depgraph.DepRecorder`) is handed to the
    resolver.
    """
    from .elements import Package
    from .parser import build_model
    from .stdlib import IMPLICIT_LIBRARY_PACKAGES

    sources, names = _stdlib_prefixed(texts, filenames,
                                      include_stdlib=include_stdlib)
    trees = _parse_sources(sources, names, cache=cache)
    counts = [len(tree.members) for tree in trees]
    model = build_model(*trees)
    if include_stdlib:
        for element in model.owned_elements[:counts[0]]:
            if isinstance(element, Package):
                element.is_library = True
    else:
        # re-parsing a printed model: recognize the embedded library
        # packages by name so round trips stay stable
        for element in model.owned_elements:
            if isinstance(element, Package) and \
                    element.name in IMPLICIT_LIBRARY_PACKAGES:
                element.is_library = True
    model.content_fingerprint = model_fingerprint(
        sources, names, include_stdlib=include_stdlib)
    Resolver(model, recorder=recorder).resolve()
    return model, sources, names, counts


def load_model(*texts: str, filenames: list[str] | None = None,
               include_stdlib: bool = True, cache=None) -> Model:
    """Parse and resolve one or more textual-notation sources.

    The miniature standard library (``ScalarValues``, ``Base``) is
    prepended unless *include_stdlib* is False. With a *cache*
    (:class:`~repro.cache.ArtifactCache`) per-source parse trees are
    reused across runs, keyed on the source text.

    A model that absorbs later source edits comes from
    :class:`~repro.sysml.ModelSession` instead, which runs the same
    front end and also records the resolution dependency graph.
    """
    with gc_window():
        return _load_sources(texts, filenames,
                             include_stdlib=include_stdlib, cache=cache)[0]
