"""EMF-like metamodel and model-instance layer.

A Metamodel owns an ordered list of classifiers: MetaClass (with attributes,
containment references and cross references) and MetaDataType (String,
boolean, int). Models are single-rooted containment trees of ModelObject
instances with cross links inside the tree.

Every lookup asks a MetaClass for its derived facts: the transitive
supertypes (a tuple and a set, so ``is_subtype`` is one set test), the
``all_features`` tuple, its ``containments`` (the containment references
among them, in order) and a name -> feature table in which the first
feature of ``all_features`` with a name wins. A metamodel is built, then
looked up: builders append to a class's ``supertypes`` and ``features``
lists, and its first lookup builds the tables and seals those lists and
its supertypes' lists into tuples; assigning one then raises. The first
``Metamodel.classifier`` call builds a first-wins name dict and seals
``classifiers`` alike, and features are frozen. So a lookup after the first
is one attribute, dictionary or set access, and a built metamodel can be
shared across threads: two threads sealing one class at once build equal
tables from the same lists. A Model is single-writer.

A ``Tree`` is one walk of a containment tree with an explicit stack: its
objects in preorder, and each object's container and path without a search.
``iter_tree``, ``validate_model``, ``transform``'s diagnostics and namers, and
the walk of ``transform_model_to_ast`` each read one Tree. A forward transform
binds names and checks its result as it builds it, where the build makes the
target in preorder; it builds a Tree only to bind names after a user placer,
to locate failed references, or to validate a result it could not vouch for.
``model_equals`` pairs the preorders of two Trees. ``validate_model`` is the one place that words a
problem of a model: the walkers that read a caller's model unchecked
(``dump_model``, ``render_ast`` and both transforms) only detect one where
they read it (``rejecting``).

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
from functools import total_ordering, wraps

from .diagnostics import Diagnostic, error, raise_any


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


@dataclass(eq=False, frozen=True)
class MetaFeature:
    name: str
    lower: int = 0
    upper: object = 1  # int or UNBOUNDED

    def __post_init__(self):
        object.__setattr__(self, "many", self.upper is UNBOUNDED or self.upper > 1)


@dataclass(eq=False, frozen=True)
class MetaAttribute(MetaFeature):
    type: MetaDataType = None
    default: object = None
    is_attribute = True
    containment = False


@dataclass(eq=False, frozen=True)
class MetaReference(MetaFeature):
    type: "MetaClass" = None
    containment: bool = False
    is_attribute = False
    default = None


class _Sealable:
    """An owner of lists (named in ``_lists``) that its first lookup seals:
    sealing turns them into tuples, and assigning one afterwards raises.
    Before that, an assigned value is copied into a list."""

    _lists = ()

    def __setattr__(self, name, value):
        if name in self._lists:
            if type(getattr(self, name, None)) is tuple:
                raise AttributeError(f"{self.name}.{name} is sealed: it was looked up already")
            value = list(value)
        object.__setattr__(self, name, value)

    def _freeze(self):
        for name in self._lists:
            object.__setattr__(self, name, tuple(getattr(self, name)))


def _walk_supertypes(cls: "MetaClass") -> list["MetaClass"]:
    """The transitive supertypes of ``cls``: a depth-first preorder over the
    ``supertypes`` lists, deduplicated, that seals nothing. A class on an
    inheritance cycle appears among its own supertypes."""
    supers, seen, stack = [], set(), [iter(cls.supertypes)]
    while stack:
        for s in stack[-1]:
            if s not in seen:
                seen.add(s)
                supers.append(s)
                stack.append(iter(s.supertypes))
                break
        else:
            stack.pop()
    return supers


class _Tables:
    """A class's derived facts, built once by its first lookup."""

    __slots__ = ("supertypes", "supertype_set", "features", "by_name",
                 "containments", "bounded", "id_names", "checks", "payload")

    def __init__(self, cls: "MetaClass"):
        supers = _walk_supertypes(cls)
        self.supertypes = tuple(supers)
        self.supertype_set = frozenset(supers)
        # inherited first, each feature once where it first appears
        self.features = tuple(dict.fromkeys(
            [f for c in (*reversed(supers), cls) for f in c.features]))
        # first match wins: later duplicates are written first, then overwritten
        self.by_name = {f.name: f for f in reversed(self.features)}
        self.containments = tuple(
            f for f in self.features if isinstance(f, MetaReference) and f.containment)
        # the features whose effective value count can break their bounds
        self.bounded = tuple(
            f for f in self.features if f.lower or (f.many and f.upper is not UNBOUNDED))
        # filled on first use by their readers: by_name as load_model reads it,
        # the checks of validate_model and dump_model, flatten_payload's names
        self.id_names = self.checks = self.payload = None


class MetaClass(_Sealable):
    """A class of a metamodel. ``supertypes`` and ``features`` are lists
    while the class is built; its first lookup seals them and the lists of
    its transitive supertypes into tuples."""

    is_class = True
    _lists = ("supertypes", "features")
    _tables: _Tables | None = None

    def __init__(self, name: str, abstract: bool = False,
                 supertypes: list["MetaClass"] | None = None,
                 features: list[MetaFeature] | None = None):
        self.name = name
        self.abstract = abstract
        self.supertypes = supertypes or ()
        self.features = features or ()
        self._standin = None  # see classifier_object

    def __repr__(self):
        return f"MetaClass({self.name!r})"

    def tables(self) -> _Tables:
        return self._tables or self._seal()

    def _seal(self) -> _Tables:
        t = _Tables(self)
        for c in (self, *t.supertypes):
            c._freeze()
        self._tables = t
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
class Metamodel(_Sealable):
    """A named, ordered list of classifiers. The first ``classifier`` lookup
    seals ``classifiers`` into a tuple."""

    name: str
    classifiers: list[Classifier] = field(default_factory=list)
    _lists = ("classifiers",)
    _by_name = None
    _homes = None
    load_names = None  # load_model's name tables, built on its first use (modeltext._names)

    def classifier(self, name: str) -> Classifier | None:
        return (self._by_name or self.by_name()).get(name)

    def by_name(self) -> dict[str, Classifier]:
        """Each classifier by its name, the first of a name winning."""
        if self._by_name is None:
            self._freeze()
            # first match wins: later duplicates are written first, then overwritten
            self._by_name = {c.name: c for c in reversed(self.classifiers)}
        return self._by_name

    def homes(self) -> dict[Classifier, "Metamodel"]:
        """Each classifier of this metamodel and of ecore -> the first of the
        two that holds it, by identity: find_classifier_home over [self,
        ecore], as one map built on the first call, which seals ``classifiers``."""
        if self._homes is None:
            self.by_name()
            homes = dict.fromkeys(_ECORE.classifiers, _ECORE)
            homes.update(dict.fromkeys(self.classifiers, self))
            self._homes = homes
        return self._homes

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
        self.cls, self.slots, self.represents = cls, {}, represents
        for name, value in slots.items():
            self.set(name, value)

    def __repr__(self):  # a name that is no string may hold this object again
        name = self.slots.get("name", "")
        return f"<{self.cls.name} {name!r}>" if type(name) is str else f"<{self.cls.name}>"

    def _feature(self, name: str) -> MetaFeature:
        f = self.cls.find_feature(name)
        if f is None:
            raise LookupError(f"class {self.cls.name} has no feature {name!r}")
        return f

    def set(self, name: str, value):
        f = self._feature(name)
        if value is None:
            self.slots.pop(name, None)
        else:
            self.slots[name] = list(value) if f.many else value

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
        return list(self.values_of(self._feature(name)))

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
    return f"{home.name}::{c.name}" if home is not None and home.name else c.name


def find_classifier_home(c: Classifier, metamodels) -> Metamodel | None:
    """The first of ``metamodels`` that holds ``c``; Metamodel.homes keeps it for [mm, ecore]."""
    return next((mm for mm in metamodels
                 if mm is not None and any(x is c for x in mm.classifiers)), None)


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


# The type of a datatype's values, and whether exactly: for strings an isinstance
_FITS = {"string": (str, False), "boolean": (bool, True)}


def value_fits(value, datatype: MetaDataType) -> bool:
    tp, exact = _FITS.get(datatype.kind, (int, True))
    return type(value) is tp if exact else isinstance(value, tp)


class Tree:
    """One preorder walk of the containment tree below ``root``, with an
    explicit stack. ``objects`` lists each object once, in the order first
    reached; ``shared`` lists an object each time it is reached again.
    ``container`` and ``path`` read the step that first reached an object.
    A value in a containment slot that is not an object keeps its index; a
    many-valued slot that holds no list is skipped (validate_model words it)."""

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
                if v is not None and (type(v) is list or not f.many):
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
    each slot names a feature; a many-valued slot holds a list; each
    feature's effective values (defaults count) fit its bounds, kind and
    type; cross references stay inside. An object contained again is
    reported where it was first reached.
    ``parse_text`` proves all but the bounds once per grammar and checks
    those as it finishes each object; loaded, transformed and hand-built
    models are checked here. Slots are read through each class's checks
    (``_checks``, kept on its tables): the values of an unset slot are
    precomputed, bounds are counted only where a count can break them, and
    an attribute value takes one type test."""
    return _validate(m, Tree(m.root))


def rejecting(walker):
    """``walker(m, ...)``, which reads model ``m`` unchecked: on the first value
    that does not fit where it reads it, it raises validate_model's
    diagnostics for ``m``; if there are none, its own error stands."""
    @wraps(walker)
    def walk(m: Model, *args):
        try:
            return walker(m, *args)
        except (AttributeError, LookupError, TypeError):  # what a value that does not fit raises
            raise_any(validate_model(m))
            raise
    return walk


def _checks(t: _Tables) -> tuple:
    """validate_model's reading of a class, one row per feature of
    ``all_features``: (feature, slot name, whether the slot holds a list,
    the effective values of an unset slot, whether a count can break the
    bounds, the type a value must have, whether exactly, None for a
    reference). As ``values`` reads it, the first feature of a name reads
    the slot. dump_model reads the same rows."""
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


def _unset_fits(row) -> bool:
    """Whether _validate accepts an unset slot of ``row``, one of _checks's rows."""
    f, _, _, unset, counted, tp, exact = row
    return (not counted or f.lower <= len(unset) and (
        f.upper is UNBOUNDED or len(unset) <= f.upper)) and (
        exact is None or all(type(v) is tp if exact else isinstance(v, tp) for v in unset))


def _fit_rows(cls: MetaClass, known, written) -> dict | None:
    """validate_model's rows of ``cls`` (_checks) by feature if ``cls``
    is one of the classifiers ``known``, concrete, with one feature per name
    and no feature but those named in ``written`` whose unset slot _validate
    rejects; else None."""
    t = cls.tables()
    rows = {row[0]: row for row in _checks(t)}
    if cls in known and not cls.abstract and len(t.by_name) == len(t.features) and \
            all(_unset_fits(r) for f, r in rows.items() if f.name not in written):
        return rows
    return None


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
            obj)

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
                if many and type(vals) is not list and v is not None:
                    err("model-kind", f"{cls.name}.{name}: expected a list, found {v!r}", obj)
                    continue
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
    """Isomorphism through the preorders of the two containment trees: the
    Trees of ``a.root`` and ``b.root`` list as many objects, and reach as
    many again; the i-th objects pair up, with equal class names, feature
    names and kinds, and effective attribute values; each value of a
    containment or cross slot maps to its partner through the pairing, an
    object outside ``a``'s tree to itself. Classifier stand-ins compare by
    classifier name and by whether they are ecore's; values that are not
    objects, or a slot that holds no list where one belongs, compare with
    ``==``. Shared containment and cycles compare like any other slot."""
    ta, tb = Tree(a.root), Tree(b.root)
    if len(ta.objects) != len(tb.objects) or len(ta.shared) != len(tb.shared):
        return False
    partner = dict(zip(ta.objects, tb.objects))

    def in_ecore(m: Model, c: Classifier) -> bool:
        return (m.metamodel or _ECORE).homes().get(c) is _ECORE

    for x, y in partner.items():
        cx, cy = x.cls, y.cls
        if cx.name != cy.name or len(cx.all_features()) != len(cy.all_features()):
            return False
        for f in cx.all_features():
            g = f if cx is cy else cy.find_feature(f.name)
            if g is None or (g.is_attribute, g.containment) != (f.is_attribute, f.containment):
                return False
            if f.is_attribute:
                if x.get(f.name) != y.get(f.name):
                    return False
                continue
            xs, ys = x.values_of(f), y.values_of(g)
            if type(xs) not in (list, tuple) or type(ys) not in (list, tuple):
                if xs != ys:  # a slot that holds no list where one belongs
                    return False
                continue
            if len(xs) != len(ys):
                return False
            for u, v in zip(xs, ys):
                if not (isinstance(u, ModelObject) and isinstance(v, ModelObject)):
                    if u != v:
                        return False
                elif u.represents is None and v.represents is None:
                    if partner.get(u, u) is not v:
                        return False
                elif (u.represents is None or v.represents is None
                      or u.represents.name != v.represents.name
                      or in_ecore(a, u.represents) != in_ecore(b, v.represents)):
                    return False
    return True
