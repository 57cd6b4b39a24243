"""EMF-like metamodel and model-instance layer.

A Metamodel owns an ordered list of classifiers: MetaClass (with attributes,
containment references and cross references) and MetaDataType (String,
boolean, int). Models are single-rooted containment trees of ModelObject
instances with cross links inside the tree.

Every lookup asks a MetaClass for its derived facts: the transitive
supertypes (a tuple and a set, so ``is_subtype`` is one set test), the
``all_features`` tuple, its ``containments`` (the containment references
among them, in order) and a name -> feature table in which the first
feature of ``all_features`` with a name wins. A class builds these tables
on its first lookup and keeps them until its own or a supertype's
``supertypes`` or ``features`` list is edited, in place or by assignment;
its next lookup then builds them again. That keeps lookups correct while a
metamodel is being built or rewired (``derive_ast_metamodel`` edits classes
between its phases) and makes them one dictionary or set access afterwards.
Editing a MetaFeature in place (its name, say) is not seen: replace the
feature in its class's list instead. Once built, a metamodel can be shared
freely across threads; a Model is single-writer.

A ``Tree`` is one walk of a containment tree with an explicit stack: its
objects in preorder, and each object's container and path without a search.
``iter_tree``, ``validate_model``, ``transform``'s diagnostics and namers, and
the walk of ``transform_model_to_ast`` each read one Tree; a forward transform
binds names and validates its result on the same one.

The builtin ``ecore`` package provides the reflective classifiers user
metamodels may reference (EClassifier, EClass, EDataType, ...). Metamodel
classifiers can also appear at the instance level: `classifier_object`
returns a shared EClass/EDataType instance standing for a classifier, so
that models may cross-reference classes the way transformation scripts do.
Such stand-ins live outside any containment tree, carry `represents`, and
are kept on the classifier they stand for, so they live exactly as long.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import total_ordering

from .diagnostics import Diagnostic, error


@total_ordering
class _Unbounded:
    """Upper bound '*'; compares greater than every integer."""

    def __repr__(self):
        return "UNBOUNDED"

    def __lt__(self, other):
        return False


UNBOUNDED = _Unbounded()

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_identifier(name: str) -> bool:
    """An ASCII letter or '_', then ASCII letters, digits and '_'."""
    return _IDENTIFIER.fullmatch(name) is not None


@dataclass(eq=False)
class MetaDataType:
    name: str
    kind: str  # string | boolean | integer
    _standin = None  # see classifier_object
    is_class = False


@dataclass(eq=False)
class MetaFeature:
    name: str
    lower: int = 0
    upper: object = 1  # int or UNBOUNDED

    def __post_init__(self):
        # a bound is set once, at construction: nothing edits ``upper`` later
        self.many = self.upper is UNBOUNDED or self.upper > 1


@dataclass(eq=False)
class MetaAttribute(MetaFeature):
    type: MetaDataType = None
    default: object = None
    is_attribute = True
    containment = False


@dataclass(eq=False)
class MetaReference(MetaFeature):
    type: "MetaClass" = None
    containment: bool = False
    is_attribute = False
    default = None


# Edits to any class's supertypes or features, counted after they are made:
# build or edit a metamodel in one thread, then share it. Each list keeps the
# count of its last edit, so a class's tables see the edits of its own lists
# and of its supertypes' lists, and no others.
_edits = 0


class _ClassList(list):
    """The ``supertypes`` or ``features`` list of a MetaClass, stamped with
    the edit count at which it was made or last edited in place."""

    __slots__ = ("edited",)

    def append(self, item):  # the common edit, kept cheap
        global _edits
        list.append(self, item)
        _edits += 1
        self.edited = _edits


def _marks_stale(edit):
    def edited(self, *args, **kwargs):
        global _edits
        result = edit(self, *args, **kwargs)
        _edits += 1
        self.edited = _edits
        return result
    return edited


for _edit in ("__init__", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
              "__setitem__", "__delitem__", "__iadd__", "__imul__"):
    setattr(_ClassList, _edit, _marks_stale(getattr(list, _edit)))


class _Tables:
    """A class's derived facts, current at edit count ``edits``: no list of
    the class or of a supertype was edited after that count."""

    __slots__ = ("edits", "supertypes", "supertype_set", "features", "by_name",
                 "containments", "bounded", "id_names", "layout", "checks", "payload")

    def __init__(self, cls: "MetaClass"):
        self.edits = _edits
        # depth-first preorder over supertype edges, deduplicated; a class on
        # an inheritance cycle appears among its own supertypes
        supers: list[MetaClass] = []
        seen: set[MetaClass] = set()
        stack = [iter(cls.supertypes)]
        while stack:
            for s in stack[-1]:
                if s not in seen:
                    seen.add(s)
                    supers.append(s)
                    stack.append(iter(s.supertypes))
                    break
            else:
                stack.pop()
        self.supertypes = tuple(supers)
        self.supertype_set = frozenset(supers)
        # inherited first, each feature once where it first appears
        self.features = tuple(dict.fromkeys(
            [f for c in reversed(supers) for f in c.features] + cls.features))
        # first match wins: later duplicates are written first, then overwritten
        self.by_name = {f.name: f for f in reversed(self.features)}
        self.containments = tuple(
            f for f in self.features if isinstance(f, MetaReference) and f.containment)
        # the features whose effective value count can break their bounds
        self.bounded = tuple(
            f for f in self.features if f.lower or (f.many and f.upper is not UNBOUNDED))
        # filled on first use by their readers: by_name as load_model reads it,
        # dump_model's layout, validate_model's checks, flatten_payload's names
        self.id_names = self.layout = self.checks = self.payload = None


class MetaClass:
    """A class of a metamodel. ``supertypes`` and ``features`` may be edited
    in place or assigned; either marks the tables of the class and of its
    subclasses stale."""

    is_class = True

    def __init__(self, name: str, abstract: bool = False,
                 supertypes: list["MetaClass"] | None = None,
                 features: list[MetaFeature] | None = None):
        self.name = name
        self.abstract = abstract
        self._supertypes = _ClassList(supertypes or ())
        self._features = _ClassList(features or ())
        self._tables: _Tables | None = None
        self._standin = None  # see classifier_object

    def __repr__(self):
        return f"MetaClass({self.name!r})"

    @property
    def supertypes(self) -> list["MetaClass"]:
        return self._supertypes

    @supertypes.setter
    def supertypes(self, value):
        self._supertypes = _ClassList(value)

    @property
    def features(self) -> list[MetaFeature]:
        return self._features

    @features.setter
    def features(self, value):
        self._features = _ClassList(value)

    def tables(self) -> _Tables:
        t = self._tables
        if t is None or t.edits != _edits:
            if t is None or any(c._supertypes.edited > t.edits or c._features.edited > t.edits
                                for c in (self, *t.supertypes)):
                t = self._tables = _Tables(self)
            t.edits = _edits  # no list the tables were built from was edited since
        return t

    def all_supertypes(self) -> tuple["MetaClass", ...]:
        """Transitive supertypes, depth-first, deduplicated, cycle-safe."""
        return self.tables().supertypes

    def all_features(self) -> tuple[MetaFeature, ...]:
        """Inherited features first (supertype declaration order), then own."""
        return self.tables().features

    def find_feature(self, name: str) -> MetaFeature | None:
        """The first feature of ``all_features`` named ``name``."""
        return self.tables().by_name.get(name)

    def containments(self) -> tuple[MetaReference, ...]:
        """The containment references of ``all_features``, in its order."""
        return self.tables().containments


Classifier = MetaClass | MetaDataType


@dataclass(eq=False)
class Metamodel:
    name: str
    classifiers: list[Classifier] = field(default_factory=list)

    def classifier(self, name: str) -> Classifier | None:
        for c in self.classifiers:
            if c.name == name:
                return c
        return None

    def classes(self) -> list[MetaClass]:
        return [c for c in self.classifiers if isinstance(c, MetaClass)]

    def datatypes(self) -> list[MetaDataType]:
        return [c for c in self.classifiers if isinstance(c, MetaDataType)]


def is_subtype(sub: MetaClass, sup: MetaClass) -> bool:
    """Reflexive-transitive reachability over supertype edges."""
    return sub is sup or sup in sub.tables().supertype_set


# ---------------------------------------------------------------------------
# Builtin ecore package


def _build_ecore() -> Metamodel:
    string = MetaDataType("String", "string")
    boolean = MetaDataType("boolean", "boolean")
    integer = MetaDataType("int", "integer")
    # Named elements need a name attribute so qualified-name lookup can
    # address classifier stand-ins at the instance level.
    eclassifier = MetaClass("EClassifier", abstract=True,
                            features=[MetaAttribute("name", 0, 1, type=string)])
    eclass = MetaClass("EClass", supertypes=[eclassifier])
    edatatype = MetaClass("EDataType", supertypes=[eclassifier])
    efeature = MetaClass("EStructuralFeature", abstract=True,
                         features=[MetaAttribute("name", 0, 1, type=string)])
    eattribute = MetaClass("EAttribute", supertypes=[efeature])
    ereference = MetaClass("EReference", supertypes=[efeature])
    return Metamodel("ecore", [
        eclassifier, eclass, edatatype,
        efeature, eattribute, ereference,
        string, boolean, integer,
    ])


_ECORE = _build_ecore()


def builtin_ecore() -> Metamodel:
    """The fixed builtin `ecore` metamodel (shared, do not mutate)."""
    return _ECORE


def resolve_classifier(name: str, mm: Metamodel | None) -> Classifier | None:
    """Resolve a possibly ``ecore::``-qualified name against mm, then builtin."""
    if name.startswith("ecore::"):
        return _ECORE.classifier(name.split("::", 1)[1])
    if mm is not None:
        c = mm.classifier(name)
        if c is not None:
            return c
    return _ECORE.classifier(name)


# ---------------------------------------------------------------------------
# Instance layer

_INTRINSIC_DEFAULTS = {"string": None, "boolean": False, "integer": 0}


def _unset_value(f: MetaFeature):
    """The effective value of a slot of feature ``f`` that is not set."""
    if f.many:
        return []
    if f.default is not None or not f.is_attribute:
        return f.default
    return _INTRINSIC_DEFAULTS[f.type.kind]


class ModelObject:
    """An instance of a MetaClass. Slots are keyed by feature name; single
    valued slots hold a scalar or object, multi-valued slots hold a list."""

    __slots__ = ("cls", "slots", "represents")

    def __init__(self, cls: MetaClass, represents: Classifier | None = None, **slots):
        self.cls = cls
        self.slots: dict[str, object] = {}
        self.represents = represents
        for name, value in slots.items():
            self.set(name, value)

    def __repr__(self):
        return f"<{self.cls.name} {self.slots.get('name', '')!r}>"

    def _feature(self, name: str) -> MetaFeature:
        f = self.cls.find_feature(name)
        if f is None:
            raise LookupError(f"class {self.cls.name} has no feature {name!r}")
        return f

    def set(self, name: str, value):
        f = self._feature(name)
        if value is None:
            self.slots.pop(name, None)
        elif f.many:
            self.slots[name] = list(value)
        else:
            self.slots[name] = value

    def add(self, name: str, value):
        f = self._feature(name)
        if not f.many:
            raise LookupError(f"feature {self.cls.name}.{name} is single-valued")
        self.slots.setdefault(name, []).append(value)

    def get(self, name: str):
        """Effective value: the slot if set, else the declared default, else
        the intrinsic default of the datatype (0 / false / unset)."""
        if name in self.slots:
            return self.slots[name]
        return _unset_value(self._feature(name))

    def values(self, name: str) -> list:
        """Slot content as a list regardless of multiplicity (effective)."""
        f = self._feature(name)
        v = self.slots[name] if name in self.slots else _unset_value(f)
        return [] if v is None else (list(v) if f.many else [v])

    def values_of(self, f: MetaFeature):
        """``values(f.name)`` read through ``f`` itself, without a copy."""
        v = self.slots[f.name] if f.name in self.slots else _unset_value(f)
        return () if v is None else (v if f.many else (v,))

    def is_set(self, name: str) -> bool:
        return name in self.slots


@dataclass(eq=False)
class Model:
    root: ModelObject
    metamodel: Metamodel


def classifier_object(c: Classifier) -> ModelObject:
    """Shared instance-level stand-in for a metamodel classifier: classes
    appear as EClass instances, datatypes as EDataType instances. The result
    is kept on the classifier and must not be mutated."""
    obj = c._standin
    if obj is None:
        meta = _ECORE.classifier("EClass" if isinstance(c, MetaClass) else "EDataType")
        obj = ModelObject(meta, represents=c)
        obj.set("name", c.name)
        c._standin = obj
    return obj


def classifier_qname(c: Classifier, home: Metamodel | None) -> str:
    if home is not None and home.name:
        return f"{home.name}::{c.name}"
    return c.name


def find_classifier_home(c: Classifier, metamodels) -> Metamodel | None:
    for mm in metamodels:
        if mm is not None and any(x is c for x in mm.classifiers):
            return mm
    return None


# ---------------------------------------------------------------------------
# Validation


def validate_metamodel(mm: Metamodel) -> list[Diagnostic]:
    diags = []

    def err(c, code, message):
        # the path names the classifier, so a parser can locate its declaration
        diags.append(error("metamodel", code, message, path=f"/{mm.name}/{c.name}"))

    seen_names = set()
    for c in mm.classifiers:
        if not is_identifier(c.name):
            err(c, "mm-identifier", f"classifier name {c.name!r} is not a valid identifier")
        if c.name in seen_names:
            err(c, "mm-duplicate-classifier", f"duplicate classifier name {c.name!r}")
        seen_names.add(c.name)

    legal = {id(c) for c in mm.classifiers} | {id(c) for c in _ECORE.classifiers}

    for c in mm.classes():
        for s in c.supertypes:
            if id(s) not in legal:
                err(c, "mm-bad-supertype",
                    f"class {c.name} extends {s.name}, which is not in this metamodel or ecore")
        if c in c.all_supertypes():
            err(c, "mm-inheritance-cycle", f"class {c.name} is its own transitive supertype")
            continue
        fnames = set()
        for f in c.all_features():
            if not is_identifier(f.name):
                err(c, "mm-identifier",
                    f"feature name {f.name!r} on {c.name} is not a valid identifier")
            if f.name in fnames:
                err(c, "mm-duplicate-feature", f"class {c.name} has two features named {f.name!r}")
            fnames.add(f.name)
        for f in c.features:
            if not (isinstance(f.lower, int) and f.lower >= 0):
                err(c, "mm-bounds",
                    f"{c.name}.{f.name}: lower bound must be a non-negative integer")
            if f.upper is not UNBOUNDED and not (isinstance(f.upper, int) and f.upper >= 1):
                err(c, "mm-bounds",
                    f"{c.name}.{f.name}: upper bound must be positive or unbounded")
            elif f.upper is not UNBOUNDED and isinstance(f.lower, int) and f.lower > f.upper:
                err(c, "mm-bounds", f"{c.name}.{f.name}: lower bound exceeds upper bound")
            if isinstance(f, MetaAttribute):
                if not isinstance(f.type, MetaDataType):
                    err(c, "mm-bad-type", f"{c.name}.{f.name}: attribute type must be a datatype")
                elif f.default is not None and not value_fits(f.default, f.type):
                    err(c, "mm-bad-default",
                        f"{c.name}.{f.name}: default {f.default!r} does not fit type {f.type.name}")
                elif f.default is not None and f.many:
                    err(c, "mm-bad-default",
                        f"{c.name}.{f.name}: multi-valued attributes cannot carry defaults")
            else:
                if not isinstance(f.type, MetaClass):
                    err(c, "mm-bad-type", f"{c.name}.{f.name}: reference type must be a class")
                elif id(f.type) not in legal:
                    err(c, "mm-bad-type",
                        f"{c.name}.{f.name}: type {f.type.name} is not in this metamodel or ecore")
    return diags


def value_fits(value, datatype: MetaDataType) -> bool:
    if datatype.kind == "string":
        return isinstance(value, str)
    if datatype.kind == "boolean":
        return type(value) is bool
    return type(value) is int


class Tree:
    """One preorder walk of the containment tree below ``root``, with an
    explicit stack. ``objects`` lists each object once, in the order first
    reached; ``shared`` lists an object each time it is reached again.
    ``container`` and ``path`` read the step that first reached an object.
    A value in a containment slot that is not an object keeps its index."""

    __slots__ = ("objects", "shared", "_steps")

    def __init__(self, root: ModelObject):
        objects = self.objects = []
        shared = self.shared = []
        # object -> (object, container, feature, index) of its first reach
        steps = self._steps = {}
        stack = [(root, None, None, None)]
        pop, push = stack.pop, stack.append
        while stack:
            step = pop()
            obj = step[0]
            if obj in steps:
                shared.append(obj)
                continue
            steps[obj] = step
            objects.append(obj)
            # children go on the stack last first, so the first is taken next
            for f in reversed(obj.cls.tables().containments):
                v = obj.slots.get(f.name)
                if v is not None:
                    vals = v if f.many else (v,)
                    for i in range(len(vals) - 1, -1, -1):
                        if isinstance(vals[i], ModelObject):
                            push((vals[i], obj, f, i))

    def __contains__(self, obj) -> bool:
        return obj in self._steps

    def container(self, obj: ModelObject) -> ModelObject | None:
        """The object whose containment slot first reached ``obj``."""
        return self._steps.get(obj, (None, None))[1]

    def path(self, obj: ModelObject) -> str | None:
        """Slash-separated containment path with indices on multi-valued
        steps; None for an object the walk did not reach."""
        step, names = self._steps.get(obj), []
        if step is None:
            return None
        while step[1] is not None:
            _, container, f, i = step
            names.append(f"{f.name}[{i}]" if f.many else f.name)
            step = self._steps[container]
        return "/" + "/".join(reversed(names))


def iter_tree(root: ModelObject) -> list[ModelObject]:
    """The objects of the containment tree below ``root``, in preorder."""
    return Tree(root).objects


def validate_model(m: Model) -> list[Diagnostic]:
    """Containment is a tree; each object's class is known and concrete;
    each slot names a feature; each feature's effective values (defaults
    count) fit its bounds, kind and type; cross references stay inside.
    ``parse_text`` proves all but the bounds once per grammar and checks
    those as it finishes each object; loaded, transformed and hand-built
    models are checked here. Slots are read through each class's checks
    (``_checks``, kept on its tables): the values of an unset slot are
    precomputed, bounds are counted only where a count can break them, and
    an attribute value takes one type test."""
    return _validate(m, Tree(m.root))


# value_fits as one test per value: for strings an isinstance, else an exact type
_FITS = {"string": (str, False), "boolean": (bool, True)}


def _checks(t: _Tables) -> tuple:
    """validate_model's reading of a class, one row per feature of
    ``all_features``: (feature, slot name, whether the slot holds a list,
    the effective values of an unset slot, whether a count can break the
    bounds, the type a value must have, whether exactly). As ``values``
    reads it, the first feature of a name reads the slot."""
    if t.checks is None:
        rows = []
        for f in t.features:
            r = t.by_name[f.name]
            unset = _unset_value(r)
            unset = () if unset is None else tuple(unset) if r.many else (unset,)
            counted = bool(f.lower) or f.upper is not UNBOUNDED and (r.many or f.upper < 1)
            tp, exact = _FITS.get(f.type.kind, (int, True)) if f.is_attribute else (f.type, None)
            rows.append((f, f.name, r.many, unset, counted, tp, exact))
        t.checks = tuple(rows)
    return t.checks


def _validate(m: Model, tree: Tree) -> list[Diagnostic]:
    """validate_model on ``tree``, a Tree of ``m.root`` whose containment has
    not changed since it was built."""
    diags = []

    def err(code, message, obj):
        diags.append(error("validate", code, message, path=tree.path(obj)))

    known = {id(c) for c in m.metamodel.classifiers} | {id(c) for c in _ECORE.classifiers}

    # Containment must be a tree: every object reached exactly once.
    for obj in tree.shared:
        err("model-containment", f"object of class {obj.cls.name} is contained more than once",
            m.root)

    for obj in tree.objects:
        cls = obj.cls
        if id(cls) not in known:
            err("model-unknown-class", f"class {cls.name} is not in the metamodel", obj)
            continue
        if cls.abstract:
            err("model-abstract", f"class {cls.name} is abstract", obj)
        t, slots = cls.tables(), obj.slots
        for name in slots:
            if name not in t.by_name:
                err("model-unknown-feature", f"class {cls.name} has no feature {name!r}", obj)
        for f, name, many, unset, counted, tp, exact in t.checks or _checks(t):
            if name in slots:
                v = slots[name]
                vals = () if v is None else v if many else (v,)
            else:
                vals = unset
            if counted and (problem := miscount(obj, f, len(vals))):
                err("model-multiplicity", problem, obj)
            if exact is not None:
                for v in vals:
                    if type(v) is not tp if exact else not isinstance(v, tp):
                        err("model-kind",
                            f"{cls.name}.{name}: value {v!r} does not fit attribute type "
                            f"{f.type.name}", obj)
                continue
            for v in vals:
                if not isinstance(v, ModelObject):
                    err("model-kind", f"{cls.name}.{name}: expected an object, found {v!r}", obj)
                    continue
                if not is_subtype(v.cls, tp):
                    err("model-kind",
                        f"{cls.name}.{name}: object of class {v.cls.name} does not "
                        f"conform to {tp.name}", obj)
                if not f.containment and v not in tree and v.represents is None:
                    err("model-dangling",
                        f"{cls.name}.{name}: cross reference targets an object "
                        f"outside the model", obj)
    return diags


def miscount(obj: ModelObject, f: MetaFeature, count: int) -> str | None:
    """The model-multiplicity message if ``count`` values break ``f``'s bounds."""
    if count < f.lower or (f.upper is not UNBOUNDED and count > f.upper):
        upper = "*" if f.upper is UNBOUNDED else f.upper
        return f"{obj.cls.name}.{f.name}: {count} value(s) violate bounds {f.lower}..{upper}"
    return None


# ---------------------------------------------------------------------------
# Structural equality


def model_equals(a: Model, b: Model) -> bool:
    """Isomorphism: equal class names, equal effective attribute values,
    children pairwise equal in order, and cross references mapping to
    corresponding objects; classifier stand-ins compare by classifier name.
    The containment trees are compared on an explicit stack, in preorder. A
    pair reached again is not compared again, so a containment cycle ends;
    an object reached again with another partner makes the models unequal."""
    corr: dict[ModelObject, ModelObject] = {}  # one-to-one: x -> its partner y
    partners: set[ModelObject] = set()
    cross_checks: list[tuple[ModelObject, ModelObject, MetaFeature]] = []
    # a pair of objects to compare, or (x, y, f): a cross feature left to check
    stack: list[tuple] = [(a.root, b.root, None)]
    while stack:
        x, y, cross = stack.pop()
        if cross is not None:
            cross_checks.append((x, y, cross))
            continue
        if x in corr or y in partners:
            if corr.get(x) is y:
                continue
            return False
        if x.cls.name != y.cls.name:
            return False
        corr[x] = y
        partners.add(y)
        fx = {f.name: f for f in x.cls.all_features()}
        fy = {f.name: f for f in y.cls.all_features()}
        if set(fx) != set(fy):
            return False
        todo = []  # in feature order: a subtree before the features after it
        for name, f in fx.items():
            if f.is_attribute != fy[name].is_attribute:
                return False
            if f.is_attribute:
                if x.get(name) != y.get(name):
                    return False
            elif f.containment:
                xs, ys = x.values(name), y.values(name)
                if len(xs) != len(ys):
                    return False
                todo += [(cx, cy, None) for cx, cy in zip(xs, ys)]
            else:
                todo.append((x, y, f))
        stack += reversed(todo)
    for x, y, f in cross_checks:
        xs, ys = x.values(f.name), y.values(f.name)
        if len(xs) != len(ys):
            return False
        for tx, ty in zip(xs, ys):
            if tx.represents is not None or ty.represents is not None:
                if tx.represents is None or ty.represents is None:
                    return False
                if tx.represents.name != ty.represents.name:
                    return False
                hx = find_classifier_home(tx.represents, [a.metamodel, _ECORE])
                hy = find_classifier_home(ty.represents, [b.metamodel, _ECORE])
                # Same simple name must come from 'the same' package: either
                # both builtin or both model-level.
                if (hx is _ECORE) != (hy is _ECORE):
                    return False
            else:
                if corr.get(tx) is not ty:
                    return False
    return True


def metamodel_equals(a: Metamodel, b: Metamodel) -> bool:
    """Structural equality, order-sensitive (classifier and feature order)."""
    if len(a.classifiers) != len(b.classifiers):
        return False
    return all(_classifier_eq(x, y) for x, y in zip(a.classifiers, b.classifiers))


def metamodel_isomorphic(a: Metamodel, b: Metamodel) -> bool:
    """Structural equality up to classifier ordering (names must match)."""
    an = {c.name: c for c in a.classifiers}
    bn = {c.name: c for c in b.classifiers}
    if set(an) != set(bn):
        return False
    return all(_classifier_eq(an[k], bn[k]) for k in an)


def _classifier_eq(x: Classifier, y: Classifier) -> bool:
    if x.name != y.name or x.is_class != y.is_class:
        return False
    if not x.is_class:
        return x.kind == y.kind
    if x.abstract != y.abstract:
        return False
    if [s.name for s in x.supertypes] != [s.name for s in y.supertypes]:
        return False
    if len(x.features) != len(y.features):
        return False
    for f, g in zip(x.features, y.features):
        if (f.name, f.lower, str(f.upper), f.is_attribute) != (g.name, g.lower, str(g.upper), g.is_attribute):
            return False
        if f.type.name != g.type.name:
            return False
        if f.is_attribute:
            if f.default != g.default:
                return False
        elif f.containment != g.containment:
            return False
    return True
