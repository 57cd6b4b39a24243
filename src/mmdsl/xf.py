"""The metamodel-to-metamodel transformation language.

A transformation script (`.xf`) is a sequence of actions applied to a target
metamodel to derive the AST metamodel plus a trace:

    create [abstract] class Name [extends A, B] { <emfatic features> }
    refer img( Qualified::Name )[+] as Name ;
    skip Qualified::Name [+] ;
    make img( Name ) extend ( nothing | A, B ) ;

Every target class (and every builtin ecore class the target references)
gets an implicit image class named ``<name>AS``; the actions then create
syntax-specific classes, translate cross references into textual form,
rewire inheritance and remove images. Action order does not matter: the
executor applies canonical phases (map, create, change inheritance,
translate, skip) so any permutation of a valid action list derives an
isomorphic result.

The trace records the class and feature correspondences needed to run the
transformation one meta-level lower (AST instances to target instances) and
to reverse it; see the transform module. The phases edit only the AST
metamodel; the trace is computed once, from the result. The script parser
resolves the names of each statement as soon as it has read it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .diagnostics import DiagnosticError, SourceLocation, error
from .emfatic import KEYWORDS as MM_KEYWORDS
from .emfatic import SYMBOLS as MM_SYMBOLS
from .emfatic import FeatureDecl, parse_feature_decl, parse_qname, parse_qnames
from .lexer import Lexer, TokenStream
from .meta import (
    UNBOUNDED, Classifier, MetaAttribute, MetaClass, MetaDataType, Metamodel,
    MetaReference, Model, ModelObject, builtin_ecore, classifier_object,
    is_subtype, resolve_classifier, validate_metamodel,
)

KEYWORDS = MM_KEYWORDS | {"create", "refer", "img", "as", "skip", "make", "extend", "nothing"}
SYMBOLS = MM_SYMBOLS | {"(", ")", "+"}

_LEXER = Lexer(reserved=KEYWORDS, symbols=SYMBOLS, phase="transformation")

IMAGE_SUFFIX = "AS"


def image_name(proto: MetaClass) -> str:
    return proto.name + IMAGE_SUFFIX


# ---------------------------------------------------------------------------
# AST-side references. AST classes do not exist before derivation runs, so
# script positions that denote them hold symbolic references instead.


@dataclass(frozen=True)
class ImageRef:
    """The image of a target (or builtin) class, written by prototype name."""
    prototype: MetaClass
    written: str


@dataclass(frozen=True)
class CreatedRef:
    name: str


@dataclass(frozen=True)
class DatatypeRef:
    datatype: MetaDataType


AstRef = ImageRef | CreatedRef | DatatypeRef


def ast_ref_name(ref: AstRef) -> str:
    if isinstance(ref, ImageRef):
        return image_name(ref.prototype)
    if isinstance(ref, CreatedRef):
        return ref.name
    return ref.datatype.name


# ---------------------------------------------------------------------------
# Actions


@dataclass
class CreateClass:
    name: str
    abstract: bool
    superclasses: list[AstRef]
    features: list[FeatureDecl]
    feature_types: list[AstRef]
    loc: SourceLocation | None = None


@dataclass
class TranslateReferences:
    model_reference_type: MetaClass
    textual_reference_type: AstRef
    include_descendants: bool
    loc: SourceLocation | None = None


@dataclass
class ChangeInheritance:
    target: ImageRef
    superclasses: list[AstRef]
    loc: SourceLocation | None = None


@dataclass
class SkipClass:
    target: MetaClass
    include_descendants: bool
    loc: SourceLocation | None = None


Action = CreateClass | TranslateReferences | ChangeInheritance | SkipClass


@dataclass
class Transformation:
    actions: list[Action] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Trace


@dataclass
class ClassRecord:
    proto: str  # qualified with ecore:: for builtin prototypes
    image: str
    status: str  # mapped | skipped


@dataclass
class FeatureRecord:
    proto_class: str
    proto_feature: str
    image_class: str
    image_feature: str
    mode: str  # copied | translated
    textual: str | None = None


@dataclass
class Trace:
    class_records: list[ClassRecord] = field(default_factory=list)
    feature_records: list[FeatureRecord] = field(default_factory=list)
    created: list[str] = field(default_factory=list)


def format_trace(trace: Trace) -> str:
    lines = []
    for r in trace.class_records:
        suffix = " skipped" if r.status == "skipped" else ""
        lines.append(f"class {r.proto} -> {r.image}{suffix}")
    for r in trace.feature_records:
        mode = r.mode if r.mode == "copied" else f"translated:{r.textual}"
        lines.append(f"feature {r.proto_class}.{r.proto_feature} -> "
                     f"{r.image_class}.{r.image_feature} {mode}")
    for name in trace.created:
        lines.append(f"created {name}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str, file: str = "<trace>") -> Trace:
    trace = Trace()
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        loc = SourceLocation(file, n, 1)
        parts = line.split()
        try:
            if parts[0] == "class" and parts[2] == "->":
                status = "skipped" if parts[-1] == "skipped" else "mapped"
                trace.class_records.append(ClassRecord(parts[1], parts[3], status))
            elif parts[0] == "feature" and parts[2] == "->":
                pc, pf = parts[1].rsplit(".", 1)
                ic, if_ = parts[3].rsplit(".", 1)
                mode = parts[4]
                if mode == "copied":
                    trace.feature_records.append(FeatureRecord(pc, pf, ic, if_, "copied"))
                elif mode.startswith("translated:"):
                    trace.feature_records.append(
                        FeatureRecord(pc, pf, ic, if_, "translated", mode.split(":", 1)[1]))
                else:
                    raise ValueError(mode)
            elif parts[0] == "created":
                trace.created.append(parts[1])
            else:
                raise ValueError(parts[0])
        except (IndexError, ValueError):
            raise DiagnosticError([error("transformation", "plan-stale",
                                         f"malformed trace line: {line!r}", location=loc)])
    return trace


# ---------------------------------------------------------------------------
# Script parsing


def parse_transformation(text: str, target: Metamodel, file: str = "<xf>") -> Transformation:
    """Parse a `.xf` script against the target metamodel, resolving each
    statement's names as soon as it is read.

    Names inside ``img(...)`` and after ``skip`` resolve against the target
    metamodel, then builtin ecore (``ecore::`` qualification forces the
    builtin). Names after ``as``/``extends``/``extend`` and feature types
    resolve against created classes (simple name), then datatypes, then
    images of target classes written by prototype qualified name. A class
    may be named before its ``create`` statement, so the created names are
    read from the tokens first."""
    tokens = _LEXER.tokenize(text, file)
    created_names = set()
    for i, tok in enumerate(tokens):
        if tok.is_kw("create"):
            j = i + 2 if tokens[i + 1].is_kw("abstract") else i + 1
            if tokens[j].is_kw("class") and tokens[j + 1].kind == "ID":
                created_names.add(tokens[j + 1].text)
    stream = TokenStream(tokens, phase="transformation")
    actions: list[Action] = []
    diags: list = []

    def resolve_target_class(qname: str, loc) -> MetaClass | None:
        c = resolve_classifier(qname, target)
        if c is None or not c.is_class:
            diags.append(error("transformation", "name-unresolved",
                               f"unknown class {qname!r} in the target metamodel or ecore",
                               location=loc))
            return None
        return c

    def resolve_ast_ref(qname: str, loc) -> AstRef | None:
        if qname in created_names:
            return CreatedRef(qname)
        c = resolve_classifier(qname, target)
        if c is None:
            diags.append(error("transformation", "name-unresolved",
                               f"unknown name {qname!r}: not a created class, datatype or "
                               f"target class image", location=loc))
            return None
        if isinstance(c, MetaDataType):
            return DatatypeRef(c)
        return ImageRef(c, qname)

    def resolve_supers(supers) -> list[AstRef]:
        refs = []
        for qn, qloc in supers:
            ref = resolve_ast_ref(qn, qloc)
            if isinstance(ref, DatatypeRef):
                diags.append(error("transformation", "xf-bad-action",
                                   f"cannot extend datatype {qn!r}", location=qloc))
            elif ref is not None:
                refs.append(ref)
        return refs

    while not stream.at("EOF"):
        tok = stream.next()
        if tok.is_kw("refer") or tok.is_kw("make"):
            stream.expect_kw("img")
            stream.expect_kw("(")
            pq, ploc = parse_qname(stream)
            stream.expect_kw(")")
            proto = resolve_target_class(pq, ploc)
        if tok.is_kw("create"):
            abstract = stream.accept_kw("abstract")
            stream.expect_kw("class")
            name_tok = stream.expect("ID")
            supers = resolve_supers(parse_qnames(stream)) if stream.accept_kw("extends") else []
            stream.expect_kw("{")
            features, type_refs = [], []
            while not stream.at_kw("}"):
                fd = parse_feature_decl(stream)
                features.append(fd)
                ref = resolve_ast_ref(fd.type_name, fd.type_loc)
                if ref is None:
                    continue
                if fd.kind == "attr" and not isinstance(ref, DatatypeRef):
                    diags.append(error("transformation", "mm-bad-type",
                                       f"attribute {fd.name!r} needs a datatype, not {fd.type_name!r}",
                                       location=fd.type_loc))
                elif fd.kind != "attr" and isinstance(ref, DatatypeRef):
                    diags.append(error("transformation", "mm-bad-type",
                                       f"reference {fd.name!r} needs a class, not {fd.type_name!r}",
                                       location=fd.type_loc))
                elif fd.default is not None:
                    diags.append(error("transformation", "syntax",
                                       "default values are not supported in create blocks",
                                       location=fd.name_loc))
                else:
                    type_refs.append(ref)
            stream.expect_kw("}")
            actions.append(CreateClass(name_tok.text, abstract, supers, features, type_refs,
                                       name_tok.location))
        elif tok.is_kw("refer"):
            plus = stream.accept_kw("+")
            stream.expect_kw("as")
            textual = resolve_ast_ref(*parse_qname(stream))
            stream.expect_kw(";")
            if proto is not None and textual is not None:
                actions.append(TranslateReferences(proto, textual, plus, tok.location))
        elif tok.is_kw("skip"):
            proto = resolve_target_class(*parse_qname(stream))
            plus = stream.accept_kw("+")
            stream.expect_kw(";")
            if proto is not None:
                actions.append(SkipClass(proto, plus, tok.location))
        elif tok.is_kw("make"):
            stream.expect_kw("extend")
            supers = [] if stream.accept_kw("nothing") else resolve_supers(parse_qnames(stream))
            stream.expect_kw(";")
            if proto is not None:
                actions.append(ChangeInheritance(ImageRef(proto, pq), supers, tok.location))
        else:
            stream.fail(f"expected a statement, found '{tok.text}'", token=tok)

    if diags:
        raise DiagnosticError(diags)
    return Transformation(actions)


# ---------------------------------------------------------------------------
# Derivation. All bookkeeping is keyed by class object (classes hash by
# identity); the trace is computed once, from the derived result.


def _images(target: Metamodel) -> tuple[Metamodel, dict[MetaClass, MetaClass]]:
    """The AST metamodel of the default mapping and its prototype -> image
    map. Prototypes are the target classes, then every builtin ecore class
    they reach through supertype or reference-type edges, in ecore order."""
    mapped = target.classes()
    reached = set(mapped)
    frontier = list(mapped)
    while frontier:
        cls = frontier.pop()
        for n in [*cls.supertypes, *(f.type for f in cls.features if isinstance(f, MetaReference))]:
            if isinstance(n, MetaClass) and n not in reached:
                reached.add(n)
                frontier.append(n)
    reached.difference_update(mapped)
    mapped += [c for c in builtin_ecore().classes() if c in reached]

    names = {c.name for c in mapped}
    diags = [error("transformation", "xf-name-collision",
                   f"image name {image_name(proto)!r} collides with an existing class")
             for proto in mapped if image_name(proto) in names]
    if diags:
        raise DiagnosticError(diags)

    images = {proto: MetaClass(image_name(proto), abstract=proto.abstract) for proto in mapped}
    for proto, img in images.items():
        img.supertypes = [images[s] for s in proto.supertypes]
        for f in proto.features:
            if isinstance(f, MetaAttribute):
                img.features.append(MetaAttribute(f.name, f.lower, f.upper,
                                                  type=f.type, default=f.default))
            else:
                img.features.append(MetaReference(f.name, f.lower, f.upper,
                                                  type=images[f.type],
                                                  containment=f.containment))
    return Metamodel(f"{target.name}_ast", list(images.values())), images


def _trace(images: dict[MetaClass, MetaClass], removed: set[MetaClass],
           textual: dict[tuple[MetaClass, str], Classifier], created: list[str]) -> Trace:
    """The trace of a derivation: a class record per prototype (skipped if
    its image was removed), a feature record per feature of each surviving
    image (translated where ``textual`` holds a type for it) and the
    created class names."""
    ecore = set(builtin_ecore().classifiers)
    trace = Trace(created=created)
    for proto, img in images.items():
        qname = f"ecore::{proto.name}" if proto in ecore else proto.name
        trace.class_records.append(
            ClassRecord(qname, img.name, "skipped" if img in removed else "mapped"))
        if img in removed:
            continue
        for f in proto.features:
            t = textual.get((img, f.name))
            trace.feature_records.append(FeatureRecord(
                qname, f.name, img.name, f.name, "copied" if t is None else "translated",
                None if t is None else t.name))
    return trace


def default_mapping(target: Metamodel) -> tuple[Metamodel, Trace]:
    """One image class per target class: same features, attribute types
    unchanged, reference types replaced by images, bounds and containment
    flags preserved, supertypes mapped to images."""
    ast, images = _images(target)
    return ast, _trace(images, set(), {}, [])


def derive_ast_metamodel(target: Metamodel, t: Transformation) -> tuple[Metamodel, Trace]:
    """Default mapping followed by all actions in canonical phases:
    create, change inheritance, translate, skip. Any permutation of the
    action list yields an isomorphic metamodel. The phases edit only the
    AST metamodel; the trace is computed from the result once it is valid."""
    ast, images = _images(target)
    diags: list = []

    creates = [a for a in t.actions if isinstance(a, CreateClass)]
    changes = [a for a in t.actions if isinstance(a, ChangeInheritance)]
    translates = [a for a in t.actions if isinstance(a, TranslateReferences)]
    skips = [a for a in t.actions if isinstance(a, SkipClass)]

    # Phase: create classes (shells first so created classes can reference
    # each other in any order).
    existing = {c.name for c in ast.classifiers}
    created: dict[str, MetaClass] = {}
    for a in creates:
        if a.name in existing or a.name in created:
            diags.append(error("transformation", "xf-name-collision",
                               f"created class {a.name!r} collides with an existing AST class",
                               location=a.loc))
            continue
        created[a.name] = MetaClass(a.name, abstract=a.abstract)
        ast.classifiers.append(created[a.name])
    if diags:
        raise DiagnosticError(diags)

    def resolve_ref(ref: AstRef, loc) -> Classifier | None:
        if isinstance(ref, CreatedRef):
            cls = created.get(ref.name)
            if cls is None:
                diags.append(error("transformation", "name-unresolved",
                                   f"created class {ref.name!r} does not exist", location=loc))
            return cls
        if isinstance(ref, DatatypeRef):
            return ref.datatype
        img = images.get(ref.prototype)
        if img is None:
            diags.append(error("transformation", "xf-bad-action",
                               f"class {ref.written!r} has no image in the AST metamodel",
                               location=loc))
        return img

    for a in creates:
        cls = created[a.name]
        for ref in a.superclasses:
            sup = resolve_ref(ref, a.loc)
            if isinstance(sup, MetaClass):
                cls.supertypes.append(sup)
        for fd, ref in zip(a.features, a.feature_types):
            ftype = resolve_ref(ref, fd.type_loc)
            if ftype is None:
                continue
            if fd.kind == "attr":
                cls.features.append(MetaAttribute(fd.name, fd.lower, fd.upper, type=ftype))
            else:
                cls.features.append(MetaReference(fd.name, fd.lower, fd.upper, type=ftype,
                                                  containment=(fd.kind == "val")))

    # Phase: change inheritance. Two actions setting different superclass
    # lists for one class would be order-dependent, so that is an error
    # (idempotent repeats are fine).
    new_supertypes: dict[MetaClass, list[MetaClass]] = {}
    for a in changes:
        cls = resolve_ref(a.target, a.loc)
        if not isinstance(cls, MetaClass):
            continue
        new_supers = [sup for sup in (resolve_ref(ref, a.loc) for ref in a.superclasses)
                      if isinstance(sup, MetaClass)]
        if new_supertypes.get(cls, new_supers) != new_supers:
            diags.append(error("transformation", "xf-bad-action",
                               f"two actions set different superclass lists for {cls.name!r}",
                               location=a.loc))
            continue
        new_supertypes[cls] = new_supers
    for cls, new_supers in new_supertypes.items():
        cls.supertypes = new_supers
    for cls in new_supertypes:
        # check after every rewiring: intermediate states are not meaningful
        # when action order is undefined
        if cls in cls.all_supertypes():
            diags.append(error("transformation", "mm-inheritance-cycle",
                               f"changing inheritance of {cls.name!r} creates a cycle"))

    # Phase: translate references. Decisions are collected against the
    # pre-translation feature types so action order cannot matter, then
    # applied in one sweep; two different textual types for one feature is
    # an error.
    decisions: dict[tuple[MetaClass, str], Classifier] = {}
    for a in translates:
        textual = resolve_ref(a.textual_reference_type, a.loc)
        if textual is None:
            continue
        if a.model_reference_type not in images:
            diags.append(error("transformation", "xf-bad-action",
                               f"class {a.model_reference_type.name!r} has no image; nothing to "
                               f"translate", location=a.loc))
            continue
        covered = {img for p, img in images.items()
                   if (p is a.model_reference_type
                       or (a.include_descendants and is_subtype(p, a.model_reference_type)))}
        for cls in ast.classes():
            for f in cls.features:
                if isinstance(f, MetaReference) and not f.containment and f.type in covered:
                    prev = decisions.get((cls, f.name))
                    if prev is not None and prev is not textual:
                        diags.append(error(
                            "transformation", "xf-translate-conflict",
                            f"{cls.name}.{f.name} is translated to both "
                            f"{prev.name!r} and {textual.name!r}", location=a.loc))
                        continue
                    decisions[cls, f.name] = textual
    for (cls, fname), textual in decisions.items():
        for i, f in enumerate(cls.features):
            if f.name != fname:
                continue
            if isinstance(textual, MetaDataType):
                cls.features[i] = MetaAttribute(f.name, f.lower, f.upper, type=textual)
            else:
                cls.features[i] = MetaReference(f.name, f.lower, f.upper,
                                                type=textual, containment=True)

    # Phase: skip classes. Gather the whole removal set first, then check
    # the survivors once.
    removed: set[MetaClass] = set()
    for a in skips:
        if a.target not in images:
            diags.append(error("transformation", "xf-bad-action",
                               f"class {a.target.name!r} has no image to skip", location=a.loc))
            continue
        removed.update(img for p, img in images.items()
                       if p is a.target or (a.include_descendants and is_subtype(p, a.target)))
    if removed:
        ast.classifiers = [c for c in ast.classifiers if c not in removed]
        for cls in ast.classes():
            for s in cls.supertypes:
                if s in removed:
                    diags.append(error("transformation", "xf-removed-supertype",
                                       f"skipped image {s.name!r} is a supertype of surviving "
                                       f"class {cls.name!r}; rewire with 'make ... extend' first"))
            for f in cls.features:
                if isinstance(f, MetaReference) and f.type in removed:
                    how = ("cross reference; translate it before skipping"
                           if not f.containment else "containment reference")
                    diags.append(error("transformation", "xf-dangling-type",
                                       f"{cls.name}.{f.name} is typed by skipped image "
                                       f"{f.type.name!r} ({how})"))

    if not diags:
        diags = [error("transformation", d.code, d.message) for d in validate_metamodel(ast)]
    if diags:
        raise DiagnosticError(diags)
    return ast, _trace(images, removed, decisions, list(created))


def action_permutation_check(target: Metamodel, t: Transformation,
                             max_permutations: int = 24, rng: random.Random | None = None) -> bool:
    """True iff derivation over (sampled) permutations of the action list is
    isomorphic to the canonical derivation."""
    from .meta import metamodel_isomorphic

    base, _ = derive_ast_metamodel(target, t)
    n = len(t.actions)
    if math.factorial(n) <= max_permutations:
        perms = itertools.permutations(t.actions)
    else:
        rng = rng or random.Random(0)
        perms = [rng.sample(t.actions, n) for _ in range(max_permutations)]
    for perm in perms:
        ast, _ = derive_ast_metamodel(target, Transformation(list(perm)))
        if not metamodel_isomorphic(base, ast):
            return False
    return True


# ---------------------------------------------------------------------------
# Reifying a parsed transformation as a model of the language's own target
# metamodel, so the direct parse can be compared with the text-to-model
# pipeline under model equality.


def transformation_to_model(t: Transformation, xf_mm: Metamodel, ast_mm: Metamodel) -> Model:
    """Express a Transformation as a Model over the transformation language's
    target metamodel ``xf_mm``. Classifier-valued fields become classifier
    stand-in objects; AST-side references resolve against ``ast_mm``."""

    def cls(name: str) -> MetaClass:
        c = xf_mm.classifier(name)
        if not isinstance(c, MetaClass):
            raise DiagnosticError([error("transformation", "plan-stale",
                                         f"metamodel {xf_mm.name!r} has no class {name!r}")])
        return c

    def ast_classifier(ref: AstRef) -> Classifier:
        if isinstance(ref, DatatypeRef):
            return ref.datatype
        name = ast_ref_name(ref)
        c = ast_mm.classifier(name)
        if c is None:
            raise DiagnosticError([error("transformation", "name-unresolved",
                                         f"AST metamodel has no classifier {name!r}")])
        return c

    def upper_int(upper) -> int:
        return -1 if upper is UNBOUNDED else upper

    root = ModelObject(cls("Transformation"))
    for a in t.actions:
        if isinstance(a, CreateClass):
            obj = ModelObject(cls("CreateClass"))
            obj.set("name", a.name)
            obj.set("abstract", a.abstract)
            obj.set("superclasses", [classifier_object(ast_classifier(r))
                                     for r in a.superclasses])
            feats = []
            for fd, ref in zip(a.features, a.feature_types):
                fobj = ModelObject(cls("Attribute" if fd.kind == "attr" else "Reference"))
                fobj.set("name", fd.name)
                fobj.set("lowerBound", fd.lower)
                fobj.set("upperBound", upper_int(fd.upper))
                fobj.set("type", classifier_object(ast_classifier(ref)))
                if fd.kind != "attr":
                    fobj.set("containment", fd.kind == "val")
                feats.append(fobj)
            obj.set("structuralFeatures", feats)
        elif isinstance(a, TranslateReferences):
            obj = ModelObject(cls("TranslateReferences"))
            obj.set("modelReferenceType", classifier_object(a.model_reference_type))
            obj.set("textualReferenceType", classifier_object(ast_classifier(a.textual_reference_type)))
            obj.set("includeDescendants", a.include_descendants)
        elif isinstance(a, ChangeInheritance):
            obj = ModelObject(cls("ChangeInheritance"))
            obj.set("target", classifier_object(ast_classifier(a.target)))
            obj.set("superclasses", [classifier_object(ast_classifier(r))
                                     for r in a.superclasses])
        else:
            obj = ModelObject(cls("SkipClass"))
            obj.set("target", classifier_object(a.target))
            obj.set("includeDescendants", a.include_descendants)
        root.add("actions", obj)
    return Model(root, xf_mm)
