"""Trace-driven AST-to-model transformation and its reverse.

build_plan turns a derivation trace plus the two metamodels into a
TransformPlan: per image class, the prototype to instantiate and one
instruction per feature (copy-attribute, map-containment, or resolve-cross
with the recorded textual type), copies first and the rest in the order a
meta.Tree walks the prototype's features. transform_ast_to_model runs the
plan in two passes. Pass one creates prototype instances in builders
generated per AST class from its instructions (_BuildSource), copying
attributes and containment and making one ResolutionContext per textual
reference; a builder that has children yields their builders to the
grammar's trampoline, so depth costs no Python stack. The build makes the
target in preorder, binds each named object in its scope as it makes it, and
tests each value it writes as validate_model would, from a mapped root and
from a consume-only root whose root constructor and placers are the builtin
ones namespace_registry proved; after user ones, one walk of the target tree
(a meta.Tree) binds the names. Pass two hands each context to a resolver
callback that returns the target object, returns DEFER to be asked once more
with the same context after every other reference (the one way to wait for
a name that a resolver defines later), or reports the name unresolved. A
Tree is built only to locate failed references and to validate a target the
build could not vouch for. Created (syntax-only) classes produce nothing
themselves: their instances are either consumed as reference payloads or,
for structures like rule blocks, handed to a placement callback that decides
which manually constructed container receives their children.

Resolvers are registered at runtime in a ResolverRegistry; the builtin
qualified-name resolver (namespace_registry) is configured from a small
key-value file and covers both shipped examples without user code. A
registry is immutable once built and produces a fresh seeded Namespace per
run, copied from bindings it seeds once, so distinct runs may execute
concurrently.

transform_model_to_ast walks the opposite direction over one meta.Tree of
the target model, the Tree's preorder being its explicit stack: prototype
instances yield image instances, slots are read through the target feature
and written through the image feature each instruction holds, and cross
references are serialized back into textual payloads by a naming callback.
Neither direction checks its model before its walk, which only detects a
value that does not fit or an object reached twice (meta.rejecting).
"""

from __future__ import annotations

import sys
import weakref
from collections import deque
from dataclasses import dataclass

from .diagnostics import Diagnostic, DiagnosticError, SourceLocation, error, raise_any
from .grammar import _GENERATING, _compiled, _run
from .meta import (
    UNBOUNDED, Classifier, MetaAttribute, MetaClass, MetaDataType, MetaFeature, Metamodel,
    Model, ModelObject, Tree, _fit_rows, _unset_fits, _unset_value, _validate, builtin_ecore,
    classifier_object, is_subtype, rejecting, resolve_classifier, validate_model, value_fits,
)
from .xf import Trace

DEFER = object()  # resolver result: retry after every object exists


# ---------------------------------------------------------------------------
# Plan


@dataclass
class Instruction:
    kind: str  # copy | containment | cross
    image_feature: object
    target_feature: object
    textual: Classifier | None = None
    # for a cross reference whose textual type is a class: the features that
    # carry a qualified name's head segment and its tail (see build_payload_tree)
    head: MetaFeature | None = None
    tail: MetaFeature | None = None


class TransformPlan:
    def __init__(self, target: Metamodel, ast: Metamodel):
        self.target = target
        self.ast = ast
        self.proto_for_image: dict[str, MetaClass] = {}
        self.image_for_proto: dict[str, MetaClass] = {}
        # AST class name -> one instruction per feature that has one, in the
        # order the build writes them: copies, then the prototype's features
        # in all_features order (the order of a meta.Tree and of dump_model),
        # then target features the prototype lacks (features inherited from
        # created classes have none)
        self.instructions: dict[str, tuple[Instruction, ...]] = {}
        self.consume_only: set[str] = set()
        self.skipped: set[str] = set()
        # AST class name -> its generated builder, made on its first build (_BuildSource)
        self.builders: dict[str, object] = {}

    def is_mapped(self, cls: MetaClass) -> bool:
        return cls.name in self.proto_for_image

    def is_consume_only(self, cls: MetaClass) -> bool:
        return cls.name in self.consume_only

    def instructions_for(self, cls: MetaClass) -> tuple[Instruction, ...]:
        return self.instructions.get(cls.name, ())

    def builder(self, name: str):
        """The builder of mapped AST class ``name``, generated on its first call."""
        with _GENERATING:  # the first thread generates; the others wait and take its builder
            if name not in self.builders:
                source = _BuildSource(self, name)
                names = dict(source.names, __name__=__name__)
                exec(_compiled("forward", name, source.text), names)
                self.builders[name] = names["build"]
            return self.builders[name]


def build_plan(trace: Trace, target: Metamodel, ast: Metamodel) -> TransformPlan:
    """Resolve a trace against the metamodels it was derived from. A trace
    that does not line up with them (stale files) is an error, as is a
    copied cross reference, which no instruction kind can execute. So is
    each shape that no derivation writes and that would keep the build from
    making the target in preorder or that the reverse would lose values
    (plan-stale): an AST feature onto a target feature of the other
    multiplicity (many onto single, or single onto many), two features of
    one AST class onto one target feature, a copied containment onto a
    feature that is no containment, and a translated feature onto a
    containment."""
    plan = TransformPlan(target, ast)
    diags: list[Diagnostic] = []

    def stale(msg):
        diags.append(error("transformation", "plan-stale", msg))

    by_feature: dict[MetaFeature, Instruction] = {}
    records = {}
    for r in trace.feature_records:
        records[(r.image_class, r.image_feature)] = r

    for r in trace.class_records:
        proto = resolve_classifier(r.proto, target)
        if not isinstance(proto, MetaClass):
            stale(f"trace names unknown target class {r.proto!r}")
            continue
        if r.status == "skipped":
            plan.skipped.add(proto.name)
            continue
        image = ast.classifier(r.image)
        if not isinstance(image, MetaClass):
            stale(f"trace names unknown AST class {r.image!r}")
            continue
        plan.proto_for_image[image.name] = proto
        plan.image_for_proto[proto.name] = image
        for f in image.features:
            rec = records.pop((image.name, f.name), None)
            if rec is None:
                stale(f"trace has no record for feature {image.name}.{f.name}")
                continue
            pf = proto.find_feature(rec.proto_feature)
            if pf is None:
                stale(f"trace names unknown target feature {proto.name}.{rec.proto_feature}")
                continue
            if f.many != pf.many:
                one, other = ("many", "single") if f.many else ("single", "many")
                stale(f"{one}-valued {image.name}.{f.name} maps onto {other}-valued "
                      f"{proto.name}.{pf.name}")
            elif rec.mode == "copied":
                if isinstance(f, MetaAttribute):
                    by_feature[f] = Instruction("copy", f, pf)
                elif not f.containment:
                    diags.append(error("transformation", "plan-untranslated",
                                       f"{image.name}.{f.name} is a cross reference that was "
                                       f"never translated"))
                elif pf.containment:
                    by_feature[f] = Instruction("containment", f, pf)
                else:
                    stale(f"containment {image.name}.{f.name} maps onto {proto.name}.{pf.name}, "
                          f"which is no containment")
            elif pf.containment:
                stale(f"translated {image.name}.{f.name} maps onto containment "
                      f"{proto.name}.{pf.name}")
            else:
                textual = ast.classifier(rec.textual)
                if textual is None:
                    textual = builtin_ecore().classifier(rec.textual)
                if textual is None:
                    stale(f"trace names unknown textual type {rec.textual!r}")
                    continue
                carrier = _payload_features(textual) if textual.is_class else (None, None)
                by_feature[f] = Instruction("cross", f, pf, textual, *carrier)

    for (icls, fname) in records:
        stale(f"trace records feature {icls}.{fname}, which the AST metamodel lacks")

    for name in trace.created:
        if ast.classifier(name) is None:
            stale(f"created class {name!r} is missing from the AST metamodel")
        plan.consume_only.add(name)

    for cls in ast.classes():
        proto = plan.proto_for_image.get(cls.name)
        order = {} if proto is None else {f.name: k for k, f in enumerate(proto.all_features())}
        instrs = plan.instructions[cls.name] = tuple(sorted(
            (by_feature[f] for f in cls.all_features() if f in by_feature),
            key=lambda i: -1 if i.kind == "copy" else order.get(i.target_feature.name, len(order))))
        written = [i.target_feature.name for i in instrs]
        for name in sorted({n for n in written if written.count(n) > 1}):
            stale(f"two features of {cls.name} map onto target feature {name!r}")
    raise_any(diags)
    return plan


def _class_checks(plan: TransformPlan, name: str) -> tuple | None:
    """What the build of mapped class ``name`` checks as it writes, or None
    if the class is not sound: sound, its prototype fits _fit_rows, of the
    target's and ecore's classifiers and the target features its
    instructions write, and has each of those features. Per instruction:
    whether _validate accepts its target feature unset, the counts a write
    must lie within (or None), and the test of a value written: a copied
    value's type and whether exactly, or the prototypes of the images whose
    objects fit a containment."""
    proto, instrs = plan.proto_for_image[name], plan.instructions.get(name, ())
    rows = _fit_rows(proto, (*plan.target.classifiers, *builtin_ecore().classifiers),
                     {i.target_feature.name for i in instrs})
    if rows is not None and all(i.target_feature in rows for i in instrs):
        return tuple(_write_check(plan, i, rows[i.target_feature]) for i in instrs)
    return None


def _write_check(plan: TransformPlan, instr: Instruction, row) -> tuple:
    """``checks``'s entry for ``instr``, whose target feature's row is ``row``."""
    tf = instr.target_feature
    bounds = (tf.lower, sys.maxsize if tf.upper is UNBOUNDED else tf.upper) if row[4] else None
    if instr.kind == "copy":
        test = row[5:]
    elif instr.kind == "containment":
        test = {image: p for image, p in plan.proto_for_image.items() if is_subtype(p, tf.type)}
    else:
        test = None
    return _unset_fits(row), bounds, test


# ---------------------------------------------------------------------------
# Hierarchical namespace


class Scope:
    def __init__(self, name: str, parent: "Scope | None" = None):
        self.name = name
        # the parent holds its children, so the link up is weak: a namespace
        # is freed as soon as its run drops it
        self._parent = None if parent is None else weakref.ref(parent)
        self.bindings: dict[str, object] = {}
        self.children: dict[str, "Scope"] = {}

    @property
    def parent(self) -> "Scope | None":
        return None if self._parent is None else self._parent()

    def child(self, name: str) -> "Scope":
        if name not in self.children:
            self.children[name] = Scope(name, self)
        return self.children[name]

    def path(self) -> str:
        """'::'-joined scope names from the root down, leading empty ones left out."""
        names, scope = [], self
        while scope.parent is not None:
            names.append(scope.name)
            scope = scope.parent
        while names and not names[-1]:
            names.pop()
        return "::".join(reversed(names))


class Namespace:
    """Scope tree with qualified-name resolution: simple names search the
    context scope then enclosing scopes outward; qualified names resolve
    segment by segment from the innermost scope where the first segment
    binds. A name that is not bound yet resolves to None; a resolver that
    expects a later define to bind it returns DEFER and is asked again once
    every object exists. ``diagnostics`` collects conflicting defines."""

    def __init__(self):
        self.root = Scope("")
        self.diagnostics: list[Diagnostic] = []

    def scope(self, path) -> Scope:
        scope = self.root
        for seg in path:
            scope = scope.child(seg)
        return scope

    def define(self, scope_path, name: str, obj) -> bool:
        scope = self.scope(scope_path)
        if name in scope.bindings:
            if scope.bindings[name] is not obj:
                self.diagnostics.append(error(
                    "resolve", "name-duplicate",
                    f"{name!r} is already defined in scope '{scope.path() or '<root>'}'"))
            return False
        scope.bindings[name] = obj
        return True

    def resolve(self, context: Scope | None, segments):
        segments = tuple(segments)
        if not segments:
            return None
        scope = context or self.root
        while scope is not None:
            if segments[0] in scope.bindings or segments[0] in scope.children:
                break
            scope = scope.parent
        if scope is None:
            return None
        for seg in segments[:-1]:
            scope = scope.children.get(seg)
            if scope is None:
                return None
        return scope.bindings.get(segments[-1])


# ---------------------------------------------------------------------------
# Resolution context and registry


@dataclass
class ResolutionContext:
    """One textual reference as its resolver sees it. The forward's build
    makes one per reference; ``target_root`` and ``scope`` (where the target
    object is bound) are filled in once names are bound, and a DEFERred
    reference is asked again with the same context."""
    ast_object: ModelObject
    target_object: ModelObject
    target_feature: object
    payload: object  # string or consumed created-class subtree
    textual: Classifier | None
    namespace: Namespace
    target_root: ModelObject | None = None
    scope: Scope | None = None

    def segments(self) -> list[str]:
        return flatten_payload(self.payload)


def flatten_payload(payload) -> list[str]:
    """Qualified-name segments of a textual reference payload: strings split
    on '::'; created-class trees flatten head-first (string attributes, then
    the nested tail). A tail that leads back into the tree raises TypeError."""
    if payload is None:
        return []
    if isinstance(payload, str):
        return [s for s in payload.split("::") if s]
    segs: list[str] = []
    obj, seen = payload, set()
    while isinstance(obj, ModelObject):
        if obj in seen:
            raise TypeError(obj)
        seen.add(obj)
        slots = obj.slots
        heads, tails = _payload_names(obj.cls)
        for name in heads:
            if name in slots:
                segs.append(slots[name])
        obj = None
        for name in tails:
            if name in slots:
                obj = slots[name]
                break
    return segs


def _payload_names(cls: MetaClass) -> tuple:
    """flatten_payload's reading of ``cls``, kept on its tables: the names of
    its single-valued string attributes, and of its single-valued
    containments last first (the tail is the last one set)."""
    t = cls.tables()
    if t.payload is None:
        t.payload = (
            tuple(f.name for f in t.features
                  if f.is_attribute and f.type.kind == "string" and not f.many),
            tuple(f.name for f in reversed(t.containments) if not f.many))
    return t.payload


def _payload_features(cls: MetaClass) -> tuple:
    """The features of a qualified-name-shaped created class: its first
    single-valued string attribute (the head segment) and its first
    single-valued containment of its own type (the tail); None where missing."""
    head = next((f for f in cls.all_features()
                 if f.is_attribute and f.type.kind == "string" and not f.many), None)
    tail = next((f for f in cls.containments()
                 if not f.many and is_subtype(cls, f.type)), None)
    return head, tail


def build_payload_tree(cls: MetaClass, head: MetaFeature | None, tail: MetaFeature | None,
                       segments) -> ModelObject:
    """Inverse of flatten_payload for a qualified-name-shaped created class
    whose _payload_features are ``head`` and ``tail``: one object per segment,
    each the tail of the one before."""
    if head is None or (len(segments) > 1 and tail is None):
        raise DiagnosticError([error("resolve", "reverse-unsupported",
                                     f"class {cls.name!r} cannot carry a qualified name")])
    root = obj = ModelObject(cls)
    obj.slots[head.name] = segments[0]
    for seg in segments[1:]:
        obj.slots[tail.name] = obj = ModelObject(cls)
        obj.slots[head.name] = seg
    return root


class ResolverRegistry:
    """Resolution behaviour for one language: resolver callbacks per
    translated feature plus a default, placement callbacks for consume-only
    classes, an optional root constructor for skipped roots, and the
    namespace seeding recipe. Immutable once built; make_namespace() hands
    each run its own scope tree. A resolver returns an object (or None, or
    DEFER) and edits no containment: what a run found of its target before
    it asked any resolver, as it built or bound it, still holds after."""

    def __init__(self, name_attribute: str = "name"):
        self.name_attribute = name_attribute
        self.resolvers: dict[tuple[str, str], object] = {}
        self.default_resolver = default_namespace_resolver
        self.placers: dict[str, object] = {}
        self.root_constructor = None
        # namespace_registry's proof (binds_placed): the root constructor (key
        # None) and placers it proved, by identity; the target they write, and
        # whether placed children bind in a scope of their own
        self._proven: dict = {}
        self._proof: tuple | None = None
        self.scope_classes: set[str] = set()
        self._seed_metamodels: list[tuple[str, Metamodel]] = []
        self._seeded: Namespace | None = None  # the seeded bindings (make_namespace)
        self.default_namer = default_namer

    def on(self, image_class: str, feature: str, resolver) -> "ResolverRegistry":
        self.resolvers[(image_class, feature)] = resolver
        return self

    def place(self, created_class: str, placer) -> "ResolverRegistry":
        self.placers[created_class] = placer
        return self

    def seed(self, kind: str, mm: Metamodel) -> "ResolverRegistry":
        self._seed_metamodels.append((kind, mm))
        self._seeded = None
        return self

    def resolver_for(self, owner: MetaClass, feature_name: str):
        for cls in (owner, *owner.all_supertypes()):
            r = self.resolvers.get((cls.name, feature_name))
            if r is not None:
                return r
        return self.default_resolver

    def binds_placed(self, plan: TransformPlan) -> bool:
        """Whether a run of ``plan`` from the root constructor may bind and
        check its target as it builds it: the root constructor and placers
        are the ones namespace_registry proved for ``plan.target`` (_proven),
        and binding in consume order gives a Tree's first-wins bindings,
        since placed children bind in their container's own scope or no
        prototype of the plan binds a name."""
        proven, (target, scoped) = self._proven, self._proof or (None, False)
        if plan.target is not target or self.root_constructor is not proven.get(None) or \
                len(self.placers) + 1 != len(proven) or \
                any(self.placers.get(n) is not p for n, p in proven.items() if n is not None):
            return False
        return scoped or not any(isinstance(p.find_feature(self.name_attribute), MetaAttribute)
                                 for p in plan.proto_for_image.values())

    def make_namespace(self) -> Namespace:
        """A fresh namespace with the seeded classifiers bound; the first
        binding of a name wins. The bindings are made once per seeding, in
        a namespace kept as ``_seeded`` (which seals the seeded
        metamodels), and each namespace gets copies of them."""
        if self._seeded is None:
            seeded = Namespace()
            for kind, mm in self._seed_metamodels:
                mm.by_name()  # seals mm.classifiers, so these bindings stay in step with them
                scopes = (seeded.root, seeded.root.child("ecore")) if kind == "ecore" else \
                    (seeded.root,)
                for c in mm.classifiers:
                    for scope in scopes:
                        scope.bindings.setdefault(c.name, classifier_object(c))
            self._seeded = seeded
        ns = Namespace()
        ns.root.bindings = dict(self._seeded.root.bindings)
        for name, scope in self._seeded.root.children.items():
            ns.root.child(name).bindings = dict(scope.bindings)
        return ns


def default_namespace_resolver(ctx: ResolutionContext):
    segs = ctx.segments()
    if not segs:
        return None
    return ctx.namespace.resolve(ctx.scope, segs)


_ECORE_CLASSIFIERS = frozenset(builtin_ecore().classifiers)


def default_namer(obj: ModelObject, registry: ResolverRegistry, tree: Tree) -> list[str] | None:
    """Textual reference for a target object: classifier stand-ins become
    their (ecore-qualified) names; model objects contribute their name
    attribute prefixed by the names of their scope-opening containers, read
    up the container chain of ``tree``, the target model's Tree. The name
    attribute is read from the slots, and looked up in the class's name
    table only for an object that has that slot set."""
    if obj.represents is not None:
        if obj.represents in _ECORE_CLASSIFIERS:
            return ["ecore", obj.represents.name]
        return [obj.represents.name]
    attr, slots = registry.name_attribute, obj.slots
    if attr not in slots or attr not in obj.cls.tables().by_name:
        return None
    segs = [slots[attr]]
    scope_classes = registry.scope_classes
    container = tree.container(obj)
    while container is not None:
        if container.cls.name in scope_classes and attr in container.slots:
            segs.append(container.slots[attr])
        container = tree.container(container)
    segs.reverse()
    return segs


# ---------------------------------------------------------------------------
# Forward: AST model -> target model


@rejecting
def transform_ast_to_model(ast_model: Model, plan: TransformPlan,
                           registry: ResolverRegistry) -> tuple[Model, list[Diagnostic]]:
    """The target model of ``ast_model``, with its resolution's and validation's diagnostics."""
    diags: list[Diagnostic] = []
    root = ast_model.root
    run, bound = _Forward(plan, registry), plan.is_mapped(root.cls)
    ns, entered = run.ns, run.entered

    # Root: a mapped root transforms to the target root, and its build binds
    # each named object as it makes it; a consume-only root (compilation
    # unit) passes the torch to its single mapped subtree, or to the
    # configured root constructor when it has none, after which the build
    # binds too if the constructor and placers are proven (binds_placed).
    root_candidate: ModelObject | None = None
    consume_queue: deque[ModelObject] = deque()
    if bound:
        troot = run.build(root, ns.root)
    elif plan.is_consume_only(root.cls):
        mapped_children = [c for f in root.cls.containments() for c in root.values_of(f)
                           if plan.is_mapped(c.cls)]
        if len(mapped_children) == 1:
            root_candidate = mapped_children[0]
            troot = run.build(root_candidate)
        elif not mapped_children and registry.root_constructor is not None:
            troot = registry.root_constructor()
            if bound := registry.binds_placed(plan):
                run.scopes[troot] = ns.root
        else:
            raise DiagnosticError([error(
                "resolve", "resolve-root",
                f"consume-only root {root.cls.name!r} has {len(mapped_children)} mapped "
                f"subtree(s) and no root constructor covers this case")])
        consume_queue.append(root)
    else:
        raise DiagnosticError([error("resolve", "resolve-root",
                                     f"AST root class {root.cls.name!r} is not in the plan")])

    # Remaining consume-only structure: place mapped children via placers. A
    # proven placer's children bind in their container's scope as they are
    # built, and each is tested against the type of the slot it goes in.
    while consume_queue:
        ast_obj = consume_queue.popleft()
        if ast_obj in entered:  # reached twice, which no valid AST is
            raise TypeError(ast_obj)
        entered.add(ast_obj)
        placer = registry.placers.get(ast_obj.cls.name)
        placement = None  # computed lazily, once per consume-only object
        for f in ast_obj.cls.containments():
            for child in ast_obj.values_of(f):
                if child is root_candidate:
                    continue  # already transformed as the root
                if plan.is_consume_only(child.cls):
                    consume_queue.append(child)
                elif plan.is_mapped(child.cls):
                    if placer is None:
                        diags.append(error(
                            "resolve", "resolve-no-rule",
                            f"no placement for {child.cls.name} objects under consume-only "
                            f"{ast_obj.cls.name}", path="/"))
                        continue
                    if placement is None:
                        placement = placer(_PlacementContext(ast_obj, troot, ns, diags)) or False
                        if placement:
                            placement = run.place(*placement) if bound else (*placement, None, None)
                    if placement is False:
                        continue  # the placer reported why
                    container, feature_name, inner, accepts = placement
                    made = run.build(child, inner)
                    if accepts is not None and not is_subtype(made.cls, accepts):
                        run.detected = True
                    # validate_model reports a feature name the container lacks
                    container.slots.setdefault(feature_name, []).append(made)

    # After user placers or a user root constructor, bind named target
    # objects on one Tree so resolvers can look them up; scope classes open
    # nested scopes for their subtrees.
    tree = None if bound else run.bind(troot)

    # Ask each reference's resolver in the order build met them, then once
    # more each that returned DEFER, with the same context.
    contexts = run.contexts
    resolved: list = [None] * len(contexts)
    deferred, failed = [], []  # (resolver, index); (target object, code, message)
    for tobj, _, resolver, start, stop in run.slots:
        scope = run.scopes.get(tobj, ns.root)
        for i in range(start, stop):
            ctx = contexts[i]
            ctx.target_root, ctx.scope = troot, scope
            result = resolver(ctx)
            if result is DEFER:
                deferred.append((resolver, i))
            else:
                resolved[i] = _settle(ctx, result, failed)
    for resolver, i in deferred:  # one retry once every object exists
        result = resolver(contexts[i])
        resolved[i] = _settle(contexts[i], None if result is DEFER else result, failed)
    if failed:
        tree = tree or Tree(troot)
        diags.extend(error("resolve", code, message, path=tree.path(tobj) or "/")
                     for tobj, code, message in failed)

    # After a build that bound its target and detected nothing, _validate
    # would find nothing, unless a resolved object lies outside the built
    # target and stands for no classifier (model-dangling).
    built, valid = run.scopes, bound and not run.detected
    for tobj, tf, _, start, stop in run.slots:
        values = [v for v in resolved[start:stop] if v is not None]
        if values:
            tobj.slots[tf.name] = values if tf.many else values[0]
            if valid and not all(v in built or v.represents is not None for v in values):
                valid = False

    diags.extend(ns.diagnostics)
    model = Model(troot, plan.target)
    if not any(d.severity == "error" for d in diags):
        # resolvers edit no containment, so bind's Tree still holds
        if not valid and (problems := _validate(model, tree or Tree(troot))):
            raise_any(validate_model(ast_model))  # an invalid AST explains an invalid target
            diags.extend(problems)
    return model, diags


class _Forward:
    """The state of one transform_ast_to_model run: the namespace, the
    ResolutionContext of each reference in build order, the cross slots
    they fill (target object, feature, resolver, range in ``contexts``),
    the scope each target object was bound in, the resolver of each (AST
    class, feature) looked up so far and the AST objects entered. The
    builders' generators wait on the trampoline, not here. ``detected``: a
    write met a value that _validate may reject."""

    __slots__ = ("plan", "registry", "ns", "contexts", "slots", "scopes", "resolvers",
                 "entered", "detected", "named")

    def __init__(self, plan: TransformPlan, registry: ResolverRegistry):
        self.plan = plan
        self.registry = registry
        self.ns = registry.make_namespace()
        self.contexts: list[ResolutionContext] = []
        self.slots: list[tuple[ModelObject, MetaFeature, object, int, int]] = []
        self.scopes: dict[ModelObject, Scope] = {}
        self.resolvers: dict[tuple[MetaClass, str], object] = {}
        self.entered: set[ModelObject] = set()
        self.detected = False
        # per class: whether the name attribute names its objects, and whether they open a scope
        self.named: dict[MetaClass, tuple] = {}

    def build(self, ast_root: ModelObject, scope: Scope | None = None) -> ModelObject:
        """The target image of ``ast_root``'s subtree: the builder of its AST
        class (_BuildSource) fills it, run on the grammar's trampoline
        (grammar._run). A builder calls its children's builders in turn and
        yields those that are generators, so each child's subtree is made
        before its parent goes on, and references get their contexts in the
        order a recursive walk would meet them. An object built from a scope
        binds in it (bind_object) and hands its children the scope its
        contents bind in; a build from ``scope`` None binds nothing."""
        plan, name = self.plan, ast_root.cls.name
        troot = ModelObject(plan.proto_for_image[name])
        _run((plan.builders.get(name) or plan.builder(name))(ast_root, troot, scope, self))
        return troot

    def bind_object(self, obj: ModelObject, scope: Scope) -> Scope:
        """Bind ``obj`` in ``scope``, where its container's contents bind,
        unless a name is bound there already; the scope its own contents
        bind in, a child scope if ``obj`` is a named scope-class object."""
        self.scopes[obj] = scope
        name = obj.slots.get(self.registry.name_attribute)
        if name is not None:
            facts = self.named.get(obj.cls)
            if facts is None:
                feat = obj.cls.find_feature(self.registry.name_attribute)
                facts = self.named[obj.cls] = (feat is not None and feat.is_attribute,
                                               obj.cls.name in self.registry.scope_classes)
            if facts[0]:
                scope.bindings.setdefault(name, obj)
                if facts[1]:
                    return scope.child(name)
        return scope

    def place(self, container: ModelObject, feature_name: str) -> tuple:
        """A proven placer's placement, then the scope its children bind in
        and the type they must have. ``container`` binds in the namespace
        root as a Tree binds it, after its placer defined its name there;
        a name of a type that _validate rejects is detected."""
        name = container.cls.find_feature(self.registry.name_attribute)
        if not value_fits(container.slots[name.name], name.type):
            self.detected = True
        return (container, feature_name, self.bind_object(container, self.ns.root),
                container.cls.find_feature(feature_name).type)

    def resolver(self, cls: MetaClass, name: str):
        """The resolver of AST class ``cls``'s feature ``name``, looked up once per run."""
        resolver = self.resolvers.get((cls, name))
        if resolver is None:
            resolver = self.resolvers[cls, name] = self.registry.resolver_for(cls, name)
        return resolver

    def bind(self, troot: ModelObject) -> Tree:
        """Bind every named object below ``troot`` in its container's scope,
        in preorder (bind_object), on one Tree of it."""
        tree = Tree(troot)
        inner: dict[ModelObject, Scope] = {}  # the scope an object's contents bind in
        for obj in tree.objects:
            container = tree.container(obj)
            inner[obj] = self.bind_object(obj, self.ns.root if container is None
                                          else inner[container])
        return tree


# Statements that make an object of prototype ``p`` in ``o``, without ModelObject's __init__
_MAKE = "o = NEW(ModelObject); o.cls = p; o.slots = {}; o.represents = None"


class _BuildSource:
    """The source of mapped AST class ``name``'s builder (``text``) and its
    constants (``names``): Futamura's first projection of the build on the
    plan, as _Code is of the grammar's parser. ``build(a, t, inner, run)``
    fills target object ``t`` from AST object ``a`` through the class's
    instructions in the plan's order, feature names as literals, in straight
    lines: a containment instruction makes its children's images, then
    calls each child's builder and yields what is a generator to the
    trampoline (grammar._run), which finishes that child's subtree before
    the builder goes on. So a builder is a generator iff its class has a
    containment instruction. Once its copies are written, and so its name,
    ``t`` binds in scope ``inner`` unless that is None, and ``inner``
    becomes the scope its contents bind in. Only the children in a
    containment slot of ``t``'s prototype, the slots a meta.Tree walks, get
    that scope; the others bind nowhere. So a build from a scope binds its
    target in preorder, as Tree does.
    A sound class's builder tests each value it writes as _validate would
    (_class_checks), and sets ``run.detected`` where one may fail; the
    builder of a class that is not sound sets it at once. A child entered
    before, or a many-valued slot without a list, raises TypeError."""

    def __init__(self, plan: TransformPlan, name: str):
        instrs, checks = plan.instructions.get(name, ()), _class_checks(plan, name)
        self.names = {"NEW": ModelObject.__new__, "ModelObject": ModelObject,
                      "PROTO": plan.proto_for_image, "CTX": ResolutionContext,
                      "B": plan.builders, "GEN": plan.builder}
        # the containment slots a meta.Tree walks, and whether each is many-valued
        self.walked = {f.name: f.many for f in plan.proto_for_image[name].containments()}
        lines = ["def build(a, t, inner, run):", "    s = a.slots", "    ts = t.slots",
                 *["    run.detected = True"] * (checks is None)]
        bind = "    if inner is not None: inner = run.bind_object(t, inner)"
        copies = sum(i.kind == "copy" for i in instrs)  # the plan puts them first
        for k, instr in enumerate(instrs):
            if k == copies:
                lines.append(bind)
            lines += ["    " + x for x in self.write(k, instr, checks and checks[k])]
        if copies == len(instrs):
            lines.append(bind)
        self.text = "\n".join(lines) + "\n"

    def write(self, k: int, instr: Instruction, check) -> list[str]:
        """The statements of instruction ``k``: read its slot, then write,
        test and count what it holds, or test the unset target slot."""
        f = instr.image_feature
        unset = _unset_value(f)
        if f.many or unset is None:
            read = f"v = s.get({f.name!r})"
        else:
            self.names[f"U{k}"] = unset
            read = f"v = s.get({f.name!r}, U{k})"
        ok, bounds, test = check or (True, None, None)
        body = getattr(self, instr.kind)(k, instr, test)
        # a write leaves as many values as ``v`` holds, or one
        if bounds is not None and f.many:
            body.append(f"if not {bounds[0]} <= len(v) <= {bounds[1]}: run.detected = True")
        elif bounds is not None and not bounds[0] <= 1 <= bounds[1]:
            body.append("run.detected = True")
        unset_ok = ["else: run.detected = True"] * (not ok)
        if not f.many:
            return [read, "if v is not None:", *["    " + x for x in body], *unset_ok]
        return [read, "if v:", "    if type(v) is not list: raise TypeError(v)",
                *["    " + x for x in body],
                "elif v is not None and type(v) is not list and v != (): raise TypeError(v)",
                *unset_ok]

    def copy(self, k, instr, test) -> list[str]:
        f, tf = instr.image_feature, instr.target_feature
        out = [f"ts[{tf.name!r}] = v = list(v)" if f.many else f"ts[{tf.name!r}] = v"]
        if test is not None:
            tp, exact = test
            self.names[f"T{k}"] = tp
            bad = (lambda x: f"type({x}) is not T{k}") if exact else \
                (lambda x: f"not isinstance({x}, T{k})")
            if f.many:
                out += ["for x in v:", f"    if {bad('x')}: run.detected = True; break"]
            else:
                out.append(f"if {bad('v')}: run.detected = True")
        return out

    def containment(self, k, instr, test) -> list[str]:
        f, tf = instr.image_feature, instr.target_feature
        # children in a slot that a Tree walks bind in ``t``'s inner scope
        inner = "inner" if self.walked.get(tf.name) == tf.many else "None"
        if test is not None:
            self.names[f"P{k}"] = test
            proto = [f"p = P{k}.get(c.cls.name)",
                     "if p is None: p = PROTO[c.cls.name]; run.detected = True"]
        else:
            proto = ["p = PROTO[c.cls.name]"]
        return ["v = (v,)"] * (not f.many) + [
            "E = run.entered", "n = len(E)", "E.update(v)",
            "if len(E) != n + len(v): raise TypeError(v)", "made = []", "for c in v:",
            *["    " + x for x in proto], "    " + _MAKE, "    made.append(o)",
            f"ts[{tf.name!r}] = {'made' if tf.many else 'made[0]'}",
            "for c, o in zip(v, made):",
            f"    r = (B.get(c.cls.name) or GEN(c.cls.name))(c, o, {inner}, run)",
            "    if r is not None: yield r"]

    def cross(self, k, instr, test) -> list[str]:
        f = instr.image_feature
        self.names[f"F{k}"], self.names[f"X{k}"] = instr.target_feature, instr.textual
        made = f"C.append(CTX(a, t, F{k}, v, X{k}, run.ns))" if not f.many else \
            f"C += [CTX(a, t, F{k}, p, X{k}, run.ns) for p in v]"
        return [f"r = run.resolver(a.cls, {f.name!r})", "C = run.contexts", "start = len(C)",
                made, f"run.slots.append((t, F{k}, r, start, len(C)))"]


def _settle(ctx: ResolutionContext, result, failed: list):
    """``result`` if it is an object that fits ``ctx``'s target feature;
    otherwise None, and ``failed`` gets the code and message of why."""
    tobj, tf = ctx.target_object, ctx.target_feature
    if result is None:
        name = "::".join(flatten_payload(ctx.payload)) or "<empty>"
        failed.append((tobj, "resolve-unresolved",
                       f"unresolved reference '{name}' in {tobj.cls.name}.{tf.name}"))
    elif not isinstance(result, ModelObject) or not is_subtype(result.cls, tf.type):
        got = result.cls.name if isinstance(result, ModelObject) else type(result).__name__
        failed.append((tobj, "resolve-type",
                       f"resolved object of class {got} does not conform to {tf.type.name}"))
    else:
        return result
    return None


@dataclass
class _PlacementContext:
    ast_object: ModelObject
    target_root: ModelObject
    namespace: Namespace
    diagnostics: list


# ---------------------------------------------------------------------------
# Reverse: target model -> AST model


@rejecting
def transform_model_to_ast(m: Model, plan: TransformPlan,
                           registry: ResolverRegistry) -> tuple[Model, list[Diagnostic]]:
    """The AST image of target model ``m``, with the diagnostics of what has
    none. The walk is the preorder of one meta.Tree of ``m``, which the namer
    also reads: a containment instruction makes each child's image, and the
    walk fills it on reaching the child, so depth costs no Python stack.
    Slots are read through ``values_of`` (the effective value). ``m`` need
    not be valid: a value of a containment or cross slot that is no object,
    an object contained twice, or a many-valued slot that holds no list
    raises validate_model's diagnostics for ``m`` (meta.rejecting)."""
    root_image = plan.image_for_proto.get(m.root.cls.name)
    if root_image is None:
        raise DiagnosticError([error(
            "resolve", "reverse-unsupported",
            f"root class {m.root.cls.name!r} has no AST image; this model cannot be "
            f"rendered back to text")])

    diags: list[Diagnostic] = []
    tree, namer = Tree(m.root), registry.default_namer
    image_for_proto, skipped = plan.image_for_proto, plan.skipped
    iroot = ModelObject(root_image)
    images = {m.root: iroot}  # target object -> its image, made but maybe not filled yet

    def report(code, message, tobj):
        diags.append(error("resolve", code, message, path=tree.path(tobj)))

    for tobj in tree.objects:
        iobj = images.get(tobj)
        if iobj is None:
            continue  # in no instruction's slot, or below an object that has no image
        islots = iobj.slots
        for instr in plan.instructions_for(iobj.cls):
            f, tf = instr.image_feature, instr.target_feature
            values = tobj.values_of(tf)
            if tf.many and type(values) is not list and values != ():
                raise TypeError(values)
            if not values:
                continue
            if instr.kind == "copy":
                islots[f.name] = list(values) if f.many else values[0]
                continue
            out = []
            for v in values:
                if not isinstance(v, ModelObject):
                    raise TypeError(v)
                elif instr.kind == "containment":
                    if v.cls.name in skipped:
                        continue  # skipped classes have no syntax
                    image = image_for_proto.get(v.cls.name)
                    if image is None:
                        report("reverse-unsupported", f"class {v.cls.name!r} has no AST image", v)
                    elif v in images:
                        raise TypeError(v)  # contained twice
                    else:
                        images[v] = child = ModelObject(image)
                        out.append(child)
                elif not (segs := namer(v, registry, tree)):
                    report("reverse-unnamed",
                           f"no unique textual reference for the {v.cls.name} object in "
                           f"{tobj.cls.name}.{tf.name}", tobj)
                elif isinstance(instr.textual, MetaDataType):
                    out.append("::".join(segs))
                else:
                    out.append(build_payload_tree(instr.textual, instr.head, instr.tail, segs))
            if out:
                islots[f.name] = out if f.many else out[0]
    return Model(iroot, plan.ast), diags


# ---------------------------------------------------------------------------
# Builtin registry from a key-value config file


def parse_config(text: str, file: str = "<config>") -> dict[str, str]:
    """``key = value`` lines; blank lines and ``#`` comments are skipped.
    Every other line is an error located at ``file:line:1``."""
    out: dict[str, str] = {}
    diags: list[Diagnostic] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            diags.append(error("resolve", "config", f"expected 'key = value', got {line!r}",
                               location=SourceLocation(file, n, 1)))
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    raise_any(diags)
    return out


def namespace_registry(config: dict[str, str], target: Metamodel,
                       ast: Metamodel) -> ResolverRegistry:
    """Build the builtin qualified-name resolver registry from config keys:

    - ``name.attribute``: the attribute naming objects (default ``name``)
    - ``scope.classes``: target classes whose instances open nested scopes
    - ``seed.metamodels``: any of ``ecore``, ``target``, ``ast``; their
      classifiers are bound as instance-level stand-ins
    - ``root.class``: target class constructed when a consume-only AST root
      has no mapped subtree
    - ``place.<Cls>.{ensure,key,collection,children}``: placement of mapped
      children under consume-only ``<Cls>`` objects into a deduplicated,
      manually constructed container

    The root constructor and placers it makes are proved here, once: if
    root.class and every placer pass _fit_rows and _proves, they are kept
    in ``_proven`` and a run from them binds and checks in its build
    (binds_placed).
    """
    diags: list[Diagnostic] = []
    reg = ResolverRegistry(name_attribute=config.get("name.attribute", "name"))

    def names(key):
        raw = config.get(key, "")
        return [p.strip() for p in raw.split(",") if p.strip()]

    for cname in names("scope.classes"):
        if not isinstance(target.classifier(cname), MetaClass):
            diags.append(error("resolve", "config",
                               f"scope.classes names unknown target class {cname!r}"))
        reg.scope_classes.add(cname)

    for kind in names("seed.metamodels"):
        if kind == "ecore":
            reg.seed("ecore", builtin_ecore())
        elif kind == "target":
            reg.seed("target", target)
        elif kind == "ast":
            reg.seed("ast", ast)
        else:
            diags.append(error("resolve", "config",
                               f"seed.metamodels entries must be ecore, target or ast; "
                               f"got {kind!r}"))

    root_class = config.get("root.class")
    root = target.classifier(root_class) if root_class else None
    if root_class and (not isinstance(root, MetaClass) or root.abstract):
        diags.append(error("resolve", "config",
                           f"root.class names unknown or abstract class {root_class!r}"))
    elif root_class:
        reg.root_constructor = lambda: ModelObject(root)

    proofs = []  # per placer: its AST class, ensure class, key, collection and children
    for created in sorted({key.split(".")[1] for key in config if key.startswith("place.")}):
        spec = [config.get(f"place.{created}.{k}") for k in ("key", "collection", "children")]
        ensure = config.get(f"place.{created}.ensure")
        ensure_cls = target.classifier(ensure) if ensure else None
        if None in spec or not isinstance(ensure_cls, MetaClass):
            diags.append(error("resolve", "config",
                               f"place.{created} needs ensure/key/collection/children keys "
                               f"naming real classes and features"))
            continue
        if ast.classifier(created) is None:
            diags.append(error("resolve", "config",
                               f"place.{created} names unknown AST class {created!r}"))
            continue
        reg.place(created, _make_placer(ensure_cls, *spec, reg.name_attribute))
        proofs.append((ast.classifier(created), ensure_cls, *spec))

    raise_any(diags)
    # The proof (binds_placed): the builtin root constructor and placers
    # write only what _validate accepts, but for values tested as placed.
    if root is not None and _fit_rows(root, target.classifiers, ()) is not None and all(
            _proves(root, target, *p, reg.name_attribute) for p in proofs):
        reg._proven = {None: reg.root_constructor, **reg.placers}
        reg._proof = target, len(proofs) < 2 and all(p[1].name in reg.scope_classes
                                                    for p in proofs)
    return reg


def _proves(root: MetaClass, target: Metamodel, created, ensure: MetaClass, key: str,
            collection: str, children: str, name: str) -> bool:
    """Whether _make_placer's placer of ``created`` objects, under a root
    of class ``root``, writes what _validate accepts: ``ensure`` fits
    _fit_rows, of ``target``'s classifiers and the name, and is no ecore
    class, which a seeded stand-in could be; the name is a single-valued
    attribute of the kind of the key's attribute; and the root's
    collection, of a type that takes ``ensure``, and the ensure class's
    children are containments without bounds."""
    k = created.find_feature(key) if created.is_class else None
    n, c, h = ensure.find_feature(name), root.find_feature(collection), \
        ensure.find_feature(children)
    return _fit_rows(ensure, target.classifiers, {name}) is not None and \
        ensure not in _ECORE_CLASSIFIERS and None not in (k, n, c, h) and \
        k.is_attribute and n.is_attribute and not k.many and n.lower <= 1 == n.upper and \
        k.type.kind == n.type.kind and is_subtype(ensure, c.type) and \
        all(f.containment and not f.lower and f.upper is UNBOUNDED for f in (c, h))


def _make_placer(ensure_cls: MetaClass, key_attr: str, collection: str,
                 children: str, name_attribute: str):
    """The builtin placer: the ``ensure_cls`` object bound in the namespace
    root under the key's value, else a new one, named by it, added to the
    root's ``collection`` and defined there before any child is built; its
    ``children`` slot takes the children."""
    def placer(ctx: _PlacementContext):
        try:  # the config may name features the classes lack
            key = ctx.ast_object.get(key_attr)
            if not key:
                ctx.diagnostics.append(error(
                    "resolve", "resolve-unresolved",
                    f"{ctx.ast_object.cls.name}.{key_attr} is unset; cannot place children",
                    path="/"))
                return None
            existing = ctx.namespace.resolve(ctx.namespace.root, [key])
            if isinstance(existing, ModelObject) and existing.cls is ensure_cls:
                return existing, children
            container = ModelObject(ensure_cls)
            container.set(name_attribute, key)
            ctx.target_root.add(collection, container)
        except LookupError as exc:
            ctx.diagnostics.append(error("resolve", "config", f"cannot place the children of "
                                         f"{ctx.ast_object.cls.name}: {exc}", path="/"))
            return None
        ctx.namespace.define([], key, container)
        return container, children

    return placer
