"""Transformation language: parsing, default mapping, derivation.

The expected self-hosting AST metamodel below was worked out by hand,
action by action, before the executor existed; the derivation must
reproduce it exactly.
"""

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mmdsl.diagnostics import DiagnosticError, error
from mmdsl.emfatic import (
    parse_feature_decl, parse_metamodel, parse_qname, parse_qnames, print_metamodel,
)
from mmdsl.lexer import TokenStream
from mmdsl.meta import (
    UNBOUNDED, Classifier, MetaAttribute, MetaClass, MetaDataType, Metamodel,
    MetaReference, builtin_ecore, is_subtype, resolve_classifier, validate_metamodel,
)
from mmdsl.xf import (
    _LEXER, Action, AstRef, ChangeInheritance, ClassRecord, CreateClass, CreatedRef,
    DatatypeRef, FeatureRecord, ImageRef, SkipClass, Trace, Transformation,
    TranslateReferences, default_mapping, derive_ast_metamodel, format_trace, image_name,
    parse_trace, parse_transformation,
)
from metamodel_checks import action_permutation_check, metamodel_equals

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture(scope="module")
def xf_mm():
    return parse_metamodel((SAMPLES / "selfhost" / "xf.mm").read_text(), "xf")


@pytest.fixture(scope="module")
def selfhost_script():
    return (SAMPLES / "selfhost" / "xf.xf").read_text()


CLASSIFIER_LISTING = """
abstract class Classifier { }
class Class extends Classifier {
    ref Class[*] super;
    attr boolean abstract;
    val StructuralFeature[*] structuralFeatures;
}
abstract class StructuralFeature { }
"""


class TestParseTransformation:
    def test_selfhost_script(self, xf_mm, selfhost_script):
        t = parse_transformation(selfhost_script, xf_mm)
        assert len(t.actions) == 4
        create, refer, skip1, skip2 = t.actions
        assert isinstance(create, CreateClass)
        assert create.name == "QualifiedName" and not create.abstract
        assert [f.name for f in create.features] == ["name", "subQN"]
        assert create.features[0].kind == "attr"
        assert isinstance(create.feature_types[0], DatatypeRef)
        assert create.features[1].kind == "val"
        assert create.feature_types[1] == CreatedRef("QualifiedName")
        assert (create.features[1].lower, create.features[1].upper) == (0, 1)
        assert isinstance(refer, TranslateReferences)
        assert refer.model_reference_type is builtin_ecore().classifier("EClassifier")
        assert refer.textual_reference_type == CreatedRef("QualifiedName")
        assert refer.include_descendants
        assert isinstance(skip1, SkipClass)
        assert skip1.target is builtin_ecore().classifier("EClassifier")
        assert skip1.include_descendants
        assert isinstance(skip2, SkipClass)
        assert skip2.target is xf_mm.classifier("ClassMapping")
        assert not skip2.include_descendants

    def test_make_extend_nothing(self, xf_mm):
        t = parse_transformation("make img(CreateClass) extend nothing;", xf_mm)
        (action,) = t.actions
        assert isinstance(action, ChangeInheritance)
        assert action.target == ImageRef(xf_mm.classifier("CreateClass"), "CreateClass")
        assert action.superclasses == []

    def test_make_extend_list(self, xf_mm):
        t = parse_transformation("make img(Attribute) extend Action, Reference;", xf_mm)
        (action,) = t.actions
        assert [r.written for r in action.superclasses] == ["Action", "Reference"]

    def test_unresolved_img_name(self, xf_mm):
        with pytest.raises(DiagnosticError) as exc:
            parse_transformation("refer img(Missing) as QualifiedName;", xf_mm)
        d = exc.value.diagnostics[0]
        assert d.code == "name-unresolved" and "Missing" in d.message
        assert d.location is not None

    def test_unresolved_as_name(self, xf_mm):
        with pytest.raises(DiagnosticError) as exc:
            parse_transformation("refer img(Action) as Nowhere;", xf_mm)
        assert "Nowhere" in exc.value.diagnostics[0].message

    def test_created_names_visible_in_any_order(self, xf_mm):
        t = parse_transformation(
            "create class A { val B b; }\ncreate class B { }", xf_mm)
        assert t.actions[0].feature_types[0] == CreatedRef("B")

    def test_comments(self, xf_mm):
        t = parse_transformation("// x\nskip ClassMapping; /* y */", xf_mm)
        assert len(t.actions) == 1


class TestDefaultMapping:
    def test_classifier_listing(self):
        target = parse_metamodel(CLASSIFIER_LISTING, "targets")
        ast, trace = default_mapping(target)
        cls = ast.classifier("ClassAS")
        assert [s.name for s in cls.supertypes] == ["ClassifierAS"]
        sup, abstract, feats = cls.features
        assert sup.name == "super" and not sup.containment
        assert sup.type.name == "ClassAS" and sup.upper is UNBOUNDED
        assert abstract.name == "abstract" and abstract.type.kind == "boolean"
        assert feats.name == "structuralFeatures" and feats.containment
        assert feats.type.name == "StructuralFeatureAS"

    def test_empty_metamodel(self):
        from mmdsl.meta import Metamodel
        ast, trace = default_mapping(Metamodel("empty"))
        assert ast.classifiers == []
        assert trace.class_records == [] and trace.feature_records == []

    def test_suffix_collision(self):
        target = parse_metamodel("class Foo { }\nclass FooAS { }", "m")
        with pytest.raises(DiagnosticError) as exc:
            default_mapping(target)
        assert exc.value.diagnostics[0].code == "xf-name-collision"

    def test_counts_preserved(self, xf_mm):
        ast, trace = default_mapping(xf_mm)
        protos = {r.proto for r in trace.class_records}
        # ten target classes plus the three referenced ecore classes
        assert len(trace.class_records) == 13
        assert {"ecore::EClass", "ecore::EClassifier", "ecore::EDataType"} <= protos
        for cls in xf_mm.classes():
            img = ast.classifier(cls.name + "AS")
            assert img.abstract == cls.abstract
            assert len(img.features) == len(cls.features)
            assert [s.name + "" for s in cls.supertypes] == \
                [s.name.removesuffix("AS") for s in img.supertypes]
            for f, g in zip(cls.features, img.features):
                assert (f.name, f.lower, str(f.upper)) == (g.name, g.lower, str(g.upper))


# Hand-applied result of the four self-hosting actions (frozen oracle).
SELFHOST_AST_EXPECTED = """\
class TransformationAS {
    val ActionAS[*] actions;
}
abstract class ActionAS {
}
class TranslateReferencesAS extends ActionAS {
    val QualifiedName modelReferenceType;
    val QualifiedName textualReferenceType;
    attr boolean includeDescendants;
}
class CreateClassAS extends ActionAS {
    attr String name;
    attr boolean abstract;
    val QualifiedName[*] superclasses;
    val StructuralFeatureAS[*] structuralFeatures;
}
class ChangeInheritanceAS extends ActionAS {
    val QualifiedName target;
    val QualifiedName[*] superclasses;
}
class SkipClassAS extends ActionAS {
    val QualifiedName target;
    attr boolean includeDescendants;
}
abstract class StructuralFeatureAS {
    attr String name;
    attr int lowerBound;
    attr int upperBound = 1;
}
class AttributeAS extends StructuralFeatureAS {
    val QualifiedName type;
}
class ReferenceAS extends StructuralFeatureAS {
    val QualifiedName type;
    attr boolean containment;
}
class QualifiedName {
    attr String name;
    val QualifiedName subQN;
}
"""


class TestDerive:
    def test_selfhost_derivation_matches_hand_applied_oracle(self, xf_mm, selfhost_script):
        t = parse_transformation(selfhost_script, xf_mm)
        ast, trace = derive_ast_metamodel(xf_mm, t)
        assert print_metamodel(ast) == SELFHOST_AST_EXPECTED
        names = {c.name for c in ast.classifiers}
        assert "QualifiedName" in names
        assert not names & {"ClassMappingAS", "EClassifierAS", "EClassAS", "EDataTypeAS"}
        # zero cross references survive
        for cls in ast.classes():
            for f in cls.features:
                if isinstance(f, MetaReference):
                    assert f.containment
        # trace bookkeeping
        skipped = {r.proto for r in trace.class_records if r.status == "skipped"}
        assert skipped == {"ClassMapping", "ecore::EClassifier", "ecore::EClass",
                           "ecore::EDataType"}
        assert trace.created == ["QualifiedName"]
        translated = {(r.image_class, r.image_feature) for r in trace.feature_records
                      if r.mode == "translated"}
        assert ("TranslateReferencesAS", "modelReferenceType") in translated
        assert ("AttributeAS", "type") in translated
        for r in trace.feature_records:
            if r.mode == "translated":
                assert r.textual == "QualifiedName"

    def test_translate_classifier_refs_to_string(self):
        target = parse_metamodel(CLASSIFIER_LISTING, "targets")
        t = parse_transformation("refer img(Classifier)+ as String;", target)
        ast, trace = derive_ast_metamodel(target, t)
        cls = ast.classifier("ClassAS")
        sup = cls.features[0]
        assert sup.is_attribute and sup.type.name == "String"
        assert sup.name == "super" and sup.upper is UNBOUNDED
        assert cls.features[2].containment  # structuralFeatures untouched

    def test_translation_preserves_names_and_bounds(self, xf_mm, selfhost_script):
        t = parse_transformation(selfhost_script, xf_mm)
        ast, trace = derive_ast_metamodel(xf_mm, t)
        translated = [r for r in trace.feature_records if r.mode == "translated"]
        assert translated
        for r in translated:
            proto = xf_mm.classifier(r.proto_class)
            image = ast.classifier(r.image_class)
            pf = proto.find_feature(r.proto_feature)
            if_ = image.find_feature(r.image_feature)
            assert if_.name == pf.name
            assert (if_.lower, str(if_.upper)) == (pf.lower, str(pf.upper))
            assert not if_.is_attribute and if_.containment  # only kind changed

    def test_identity_transformation_is_default_mapping(self, xf_mm):
        ast_default, _ = default_mapping(xf_mm)
        ast_empty, _ = derive_ast_metamodel(xf_mm, Transformation([]))
        assert metamodel_equals(ast_default, ast_empty)

    def test_every_surviving_class_is_image_or_created(self, xf_mm, selfhost_script):
        t = parse_transformation(selfhost_script, xf_mm)
        ast, trace = derive_ast_metamodel(xf_mm, t)
        mapped_images = {r.image for r in trace.class_records if r.status == "mapped"}
        created = set(trace.created)
        for c in ast.classifiers:
            assert (c.name in mapped_images) ^ (c.name in created)
        assert len(trace.class_records) == 13  # every mapped-domain class accounted

    def test_skip_leaving_dangling_containment_is_an_error(self):
        target = parse_metamodel(
            "class Root { val Part[*] parts; }\nclass Part { }", "m")
        t = parse_transformation("skip Part;", target)
        with pytest.raises(DiagnosticError) as exc:
            derive_ast_metamodel(target, t)
        assert any(d.code == "xf-dangling-type" for d in exc.value.diagnostics)

    def test_skip_leaving_dangling_cross_is_an_error(self):
        target = parse_metamodel(
            "class Root { ref Part p; }\nclass Part { }", "m")
        t = parse_transformation("skip Part;", target)
        with pytest.raises(DiagnosticError) as exc:
            derive_ast_metamodel(target, t)
        assert any(d.code == "xf-dangling-type" for d in exc.value.diagnostics)

    def test_skip_of_surviving_supertype_is_an_error(self):
        target = parse_metamodel(
            "class Base { }\nclass Sub extends Base { }\nclass Root { val Sub s; }", "m")
        t = parse_transformation("skip Base;", target)
        with pytest.raises(DiagnosticError) as exc:
            derive_ast_metamodel(target, t)
        assert any(d.code == "xf-removed-supertype" for d in exc.value.diagnostics)

    def test_translate_conflict(self):
        target = parse_metamodel(
            "class A { ref B b; }\nclass B { }", "m")
        t = parse_transformation(
            "refer img(B) as String;\nrefer img(B) as QN;\ncreate class QN { attr String name; }",
            target)
        with pytest.raises(DiagnosticError) as exc:
            derive_ast_metamodel(target, t)
        assert any(d.code == "xf-translate-conflict" for d in exc.value.diagnostics)

    def test_create_collision(self, xf_mm):
        t = parse_transformation("create class ActionAS { }", xf_mm)
        with pytest.raises(DiagnosticError) as exc:
            derive_ast_metamodel(xf_mm, t)
        assert exc.value.diagnostics[0].code == "xf-name-collision"

    def test_change_inheritance_rewires(self):
        target = parse_metamodel(
            "class Type { }\nclass Class extends Type { }", "m")
        t = parse_transformation("make img(Class) extend nothing;", target)
        ast, _ = derive_ast_metamodel(target, t)
        assert ast.classifier("ClassAS").supertypes == ()

    def test_change_inheritance_cycle(self):
        target = parse_metamodel("class A { }\nclass B extends A { }", "m")
        t = parse_transformation("make img(A) extend B;", target)
        with pytest.raises(DiagnosticError) as exc:
            derive_ast_metamodel(target, t)
        assert any(d.code == "mm-inheritance-cycle" for d in exc.value.diagnostics)

    def test_translate_on_created_class_features(self):
        target = parse_metamodel("class A { }\nclass Root { val A a; }", "m")
        t = parse_transformation(
            "create class Holder { ref A other; }\nrefer img(A) as String;", target)
        ast, _ = derive_ast_metamodel(target, t)
        other = ast.classifier("Holder").features[0]
        assert other.is_attribute and other.type.name == "String"


class TestPermutations:
    def test_selfhost_all_24(self, xf_mm, selfhost_script):
        t = parse_transformation(selfhost_script, xf_mm)
        assert action_permutation_check(xf_mm, t, max_permutations=24)

    def test_single_action(self, xf_mm):
        t = parse_transformation("skip ClassMapping;", xf_mm)
        assert action_permutation_check(xf_mm, t)

    def test_empty(self, xf_mm):
        assert action_permutation_check(xf_mm, Transformation([]))

    def test_random_action_sets(self):
        # >= 50 random valid action sets of <= 6 actions, >= 10 permutations each
        rng = random.Random(12345)
        found = 0
        attempts = 0
        while found < 50 and attempts < 600:
            attempts += 1
            target, script = _random_target_and_script(rng)
            try:
                t = parse_transformation(script, target)
                derive_ast_metamodel(target, t)
            except DiagnosticError:
                continue
            assert action_permutation_check(target, t, max_permutations=10,
                                            rng=random.Random(attempts))
            found += 1
        assert found >= 50, f"only {found} valid random action sets in {attempts} attempts"


def _random_target_and_script(rng):
    n = rng.randint(2, 5)
    lines = []
    fresh = iter(range(1000))  # feature names unique across the hierarchy
    for i in range(n):
        feats = []
        for _ in range(rng.randint(0, 3)):
            j = next(fresh)
            kind = rng.choice(["attr", "val", "ref"])
            if kind == "attr":
                feats.append(f"    attr {rng.choice(['String', 'int', 'boolean'])} f{j};")
            else:
                mult = rng.choice(["", "[*]"])
                feats.append(f"    {kind} C{rng.randrange(n)}{mult} f{j};")
        sup = f" extends C{rng.randrange(i)}" if i and rng.random() < 0.3 else ""
        lines.append(f"class C{i}{sup} {{")
        lines.extend(feats)
        lines.append("}")
    target = parse_metamodel("\n".join(lines), "rand")

    stmts = []
    n_actions = rng.randint(1, 6)
    created = 0
    for _ in range(n_actions):
        kind = rng.choice(["create", "refer", "skip", "make"])
        if kind == "create":
            stmts.append(f"create class N{created} {{ attr String name; }}")
            created += 1
        elif kind == "refer":
            textual = f"N{rng.randrange(created)}" if created and rng.random() < 0.5 else "String"
            plus = "+" if rng.random() < 0.5 else ""
            stmts.append(f"refer img(C{rng.randrange(n)}){plus} as {textual};")
        elif kind == "skip":
            plus = "+" if rng.random() < 0.3 else ""
            stmts.append(f"skip C{rng.randrange(n)}{plus};")
        else:
            target_i = rng.randrange(n)
            supers = "nothing" if rng.random() < 0.5 else f"C{rng.randrange(n)}"
            stmts.append(f"make img(C{target_i}) extend {supers};")
    return target, "\n".join(stmts)


class TestTraceIO:
    def test_round_trip(self, xf_mm, selfhost_script):
        t = parse_transformation(selfhost_script, xf_mm)
        _, trace = derive_ast_metamodel(xf_mm, t)
        text = format_trace(trace)
        again = parse_trace(text)
        assert format_trace(again) == text
        assert [r.proto for r in again.class_records] == [r.proto for r in trace.class_records]

    def test_malformed_line(self):
        with pytest.raises(DiagnosticError) as exc:
            parse_trace("klass A -> B\n")
        assert exc.value.diagnostics[0].code == "plan-stale"


# ---------------------------------------------------------------------------
# Oracles: the front end and the derivation as they were before the parser
# resolved names statement by statement and before the trace was computed
# from the derived metamodel. The current ones must agree with them byte for
# byte on every script, valid or not.


def ref_parse_transformation(text: str, target: Metamodel, file: str = "<xf>") -> Transformation:
    """The two-pass parser: statements into positional tuples, then names
    resolved in a second loop over them."""
    stream = TokenStream(_LEXER.tokenize(text, file), phase="transformation")
    raw: list[tuple] = []
    diags: list = []

    while not stream.at("EOF"):
        tok = stream.next()
        if tok.is_kw("refer") or tok.is_kw("make"):
            stream.expect_kw("img")
            stream.expect_kw("(")
            proto = parse_qname(stream)
            stream.expect_kw(")")
        if tok.is_kw("create"):
            abstract = stream.accept_kw("abstract")
            stream.expect_kw("class")
            name_tok = stream.expect("ID")
            supers = parse_qnames(stream) if stream.accept_kw("extends") else []
            stream.expect_kw("{")
            features = []
            while not stream.at_kw("}"):
                features.append(parse_feature_decl(stream))
            stream.expect_kw("}")
            raw.append(("create", name_tok.text, abstract, supers, features, name_tok.location))
        elif tok.is_kw("refer"):
            plus = stream.accept_kw("+")
            stream.expect_kw("as")
            textual = parse_qname(stream)
            stream.expect_kw(";")
            raw.append(("refer", proto, plus, textual, tok.location))
        elif tok.is_kw("skip"):
            proto = parse_qname(stream)
            plus = stream.accept_kw("+")
            stream.expect_kw(";")
            raw.append(("skip", proto, plus, tok.location))
        elif tok.is_kw("make"):
            stream.expect_kw("extend")
            supers = [] if stream.accept_kw("nothing") else parse_qnames(stream)
            stream.expect_kw(";")
            raw.append(("make", proto, supers, tok.location))
        else:
            stream.fail(f"expected a statement, found '{tok.text}'", token=tok)

    created_names = {r[1] for r in raw if r[0] == "create"}

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

    actions: list[Action] = []
    for r in raw:
        if r[0] == "create":
            _, name, abstract, supers, features, loc = r
            super_refs = resolve_supers(supers)
            type_refs = []
            for fd in features:
                ref = resolve_ast_ref(fd.type_name, fd.type_loc)
                if ref is None:
                    continue
                if fd.kind == "attr" and not isinstance(ref, DatatypeRef):
                    diags.append(error("transformation", "mm-bad-type",
                                       f"attribute {fd.name!r} needs a datatype, not {fd.type_name!r}",
                                       location=fd.type_loc))
                    continue
                if fd.kind != "attr" and isinstance(ref, DatatypeRef):
                    diags.append(error("transformation", "mm-bad-type",
                                       f"reference {fd.name!r} needs a class, not {fd.type_name!r}",
                                       location=fd.type_loc))
                    continue
                if fd.default is not None:
                    diags.append(error("transformation", "syntax",
                                       "default values are not supported in create blocks",
                                       location=fd.name_loc))
                    continue
                type_refs.append(ref)
            actions.append(CreateClass(name, abstract, super_refs, features, type_refs, loc))
        elif r[0] == "refer":
            _, (pq, ploc), plus, (tq, tloc), loc = r
            proto = resolve_target_class(pq, ploc)
            textual = resolve_ast_ref(tq, tloc)
            if proto is not None and textual is not None:
                actions.append(TranslateReferences(proto, textual, plus, loc))
        elif r[0] == "skip":
            _, (pq, ploc), plus, loc = r
            proto = resolve_target_class(pq, ploc)
            if proto is not None:
                actions.append(SkipClass(proto, plus, loc))
        else:
            _, (pq, ploc), supers, loc = r
            proto = resolve_target_class(pq, ploc)
            super_refs = resolve_supers(supers)
            if proto is not None:
                actions.append(ChangeInheritance(ImageRef(proto, pq), super_refs, loc))

    if diags:
        raise DiagnosticError(diags)
    return Transformation(actions)


class _RefMapping:
    def __init__(self, target: Metamodel):
        self.target = target
        self.ast = Metamodel(f"{target.name}_ast")
        self.trace = Trace()
        self.image_by_proto: dict[int, MetaClass] = {}
        self.proto_of_image: dict[int, MetaClass] = {}
        self.mapped: list[MetaClass] = []
        self.created: dict[str, MetaClass] = {}

    def proto_qname(self, proto: MetaClass) -> str:
        if any(c is proto for c in builtin_ecore().classifiers):
            return f"ecore::{proto.name}"
        return proto.name


def ref_mapped_domain(target: Metamodel) -> list[MetaClass]:
    """Target classes plus every builtin ecore class they reach through
    supertype or reference-type edges."""
    domain = list(target.classes())
    in_domain = {id(c) for c in domain}
    frontier = list(domain)
    while frontier:
        cls = frontier.pop()
        neighbours = list(cls.supertypes)
        neighbours += [f.type for f in cls.features if isinstance(f, MetaReference)]
        for n in neighbours:
            if isinstance(n, MetaClass) and id(n) not in in_domain:
                in_domain.add(id(n))
                domain.append(n)
                frontier.append(n)
    # keep deterministic order: target declaration order, then ecore order
    target_ids = {id(c) for c in target.classes()}
    builtin_part = [c for c in builtin_ecore().classes() if id(c) in in_domain and id(c) not in target_ids]
    return [c for c in domain if id(c) in target_ids] + builtin_part


def ref_on_cycle(cls: MetaClass) -> bool:
    """Whether ``cls`` reaches itself over supertype edges."""
    reached, frontier = set(), list(cls.supertypes)
    while frontier:
        s = frontier.pop()
        if id(s) not in reached:
            reached.add(id(s))
            frontier += s.supertypes
    return id(cls) in reached


def ref_default_mapping(target: Metamodel) -> _RefMapping:
    m = _RefMapping(target)
    m.mapped = ref_mapped_domain(target)
    names = {c.name for c in m.mapped}
    diags = []
    for proto in m.mapped:
        iname = image_name(proto)
        if iname in names:
            diags.append(error("transformation", "xf-name-collision",
                               f"image name {iname!r} collides with an existing class"))
    if diags:
        raise DiagnosticError(diags)

    for proto in m.mapped:
        img = MetaClass(image_name(proto), abstract=proto.abstract)
        m.image_by_proto[id(proto)] = img
        m.proto_of_image[id(img)] = proto
        m.ast.classifiers.append(img)
        m.trace.class_records.append(
            ClassRecord(m.proto_qname(proto), img.name, "mapped"))

    for proto in m.mapped:
        img = m.image_by_proto[id(proto)]
        img.supertypes = [m.image_by_proto[id(s)] for s in proto.supertypes]
        for f in proto.features:
            if isinstance(f, MetaAttribute):
                img.features.append(MetaAttribute(f.name, f.lower, f.upper,
                                                  type=f.type, default=f.default))
            else:
                img.features.append(MetaReference(f.name, f.lower, f.upper,
                                                  type=m.image_by_proto[id(f.type)],
                                                  containment=f.containment))
            m.trace.feature_records.append(FeatureRecord(
                m.proto_qname(proto), f.name, img.name, f.name, "copied"))
    return m


def ref_derive_ast_metamodel(target: Metamodel, t: Transformation) -> tuple[Metamodel, Trace]:
    """The derivation that writes the trace during the default mapping and
    patches it in the translate and skip phases."""
    m = ref_default_mapping(target)
    diags: list = []

    creates = [a for a in t.actions if isinstance(a, CreateClass)]
    changes = [a for a in t.actions if isinstance(a, ChangeInheritance)]
    translates = [a for a in t.actions if isinstance(a, TranslateReferences)]
    skips = [a for a in t.actions if isinstance(a, SkipClass)]

    # Phase: create classes (shells first so created classes can reference
    # each other in any order).
    existing = {c.name for c in m.ast.classifiers}
    for a in creates:
        if a.name in existing or a.name in m.created:
            diags.append(error("transformation", "xf-name-collision",
                               f"created class {a.name!r} collides with an existing AST class",
                               location=a.loc))
            continue
        cls = MetaClass(a.name, abstract=a.abstract)
        m.created[a.name] = cls
        m.ast.classifiers.append(cls)
        m.trace.created.append(a.name)
    if diags:
        raise DiagnosticError(diags)

    def resolve_ref(ref: AstRef, loc) -> Classifier | None:
        if isinstance(ref, CreatedRef):
            cls = m.created.get(ref.name)
            if cls is None:
                diags.append(error("transformation", "name-unresolved",
                                   f"created class {ref.name!r} does not exist", location=loc))
            return cls
        if isinstance(ref, DatatypeRef):
            return ref.datatype
        img = m.image_by_proto.get(id(ref.prototype))
        if img is None:
            diags.append(error("transformation", "xf-bad-action",
                               f"class {ref.written!r} has no image in the AST metamodel",
                               location=loc))
        return img

    for a in creates:
        cls = m.created[a.name]
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

    # Phase: change inheritance. No trace effect. Two actions setting
    # different superclass lists for one class would be order-dependent,
    # so that is an error (idempotent repeats are fine).
    ci_decisions: dict[int, tuple[MetaClass, list[MetaClass]]] = {}
    for a in changes:
        cls = resolve_ref(a.target, a.loc)
        if not isinstance(cls, MetaClass):
            continue
        new_supers = []
        for ref in a.superclasses:
            sup = resolve_ref(ref, a.loc)
            if isinstance(sup, MetaClass):
                new_supers.append(sup)
        prev = ci_decisions.get(id(cls))
        if prev is not None and [id(s) for s in prev[1]] != [id(s) for s in new_supers]:
            diags.append(error("transformation", "xf-bad-action",
                               f"two actions set different superclass lists for {cls.name!r}",
                               location=a.loc))
            continue
        ci_decisions[id(cls)] = (cls, new_supers)
    for cls, new_supers in ci_decisions.values():
        cls.supertypes = new_supers
    for cls, _supers in ci_decisions.values():
        # check after every rewiring: intermediate states are not meaningful
        # when action order is undefined; a lookup would seal the classes
        if ref_on_cycle(cls):
            diags.append(error("transformation", "mm-inheritance-cycle",
                               f"changing inheritance of {cls.name!r} creates a cycle"))

    # Phase: translate references. Decisions are collected against the
    # pre-translation feature types so action order cannot matter, then
    # applied in one sweep; two different textual types for one feature is
    # an error.
    decisions: dict[tuple[int, str], tuple[Classifier, TranslateReferences]] = {}
    for a in translates:
        textual = resolve_ref(a.textual_reference_type, a.loc)
        if textual is None:
            continue
        if id(a.model_reference_type) not in m.image_by_proto:
            diags.append(error("transformation", "xf-bad-action",
                               f"class {a.model_reference_type.name!r} has no image; nothing to "
                               f"translate", location=a.loc))
            continue
        covered = {id(m.image_by_proto[id(p)])
                   for p in m.mapped
                   if (p is a.model_reference_type
                       or (a.include_descendants and is_subtype(p, a.model_reference_type)))}
        for cls in m.ast.classes():
            for f in cls.features:
                if isinstance(f, MetaReference) and not f.containment and id(f.type) in covered:
                    key = (id(cls), f.name)
                    prev = decisions.get(key)
                    if prev is not None and prev[0] is not textual:
                        diags.append(error(
                            "transformation", "xf-translate-conflict",
                            f"{cls.name}.{f.name} is translated to both "
                            f"{prev[0].name!r} and {textual.name!r}", location=a.loc))
                        continue
                    decisions[key] = (textual, a)

    by_id = {id(c): c for c in m.ast.classes()}
    for (cls_id, fname), (textual, _a) in decisions.items():
        cls = by_id[cls_id]
        for i, f in enumerate(cls.features):
            if f.name != fname:
                continue
            if isinstance(textual, MetaDataType):
                cls.features[i] = MetaAttribute(f.name, f.lower, f.upper, type=textual)
            else:
                cls.features[i] = MetaReference(f.name, f.lower, f.upper,
                                                type=textual, containment=True)
        proto = m.proto_of_image.get(cls_id)
        if proto is not None:
            for r in m.trace.feature_records:
                if r.image_class == cls.name and r.image_feature == fname:
                    r.mode = "translated"
                    r.textual = textual.name

    # Phase: skip classes. Gather the whole removal set first, then check
    # the survivors once.
    removed: dict[int, MetaClass] = {}
    for a in skips:
        img = m.image_by_proto.get(id(a.target))
        if img is None:
            diags.append(error("transformation", "xf-bad-action",
                               f"class {a.target.name!r} has no image to skip", location=a.loc))
            continue
        protos = [p for p in m.mapped
                  if p is a.target or (a.include_descendants and is_subtype(p, a.target))]
        for p in protos:
            removed[id(m.image_by_proto[id(p)])] = m.image_by_proto[id(p)]

    if removed:
        removed_names = {c.name for c in removed.values()}
        m.ast.classifiers = [c for c in m.ast.classifiers if id(c) not in removed]
        for r in m.trace.class_records:
            if r.image in removed_names:
                r.status = "skipped"
        m.trace.feature_records = [r for r in m.trace.feature_records
                                   if r.image_class not in removed_names]
        for cls in m.ast.classes():
            for s in cls.supertypes:
                if id(s) in removed:
                    diags.append(error("transformation", "xf-removed-supertype",
                                       f"skipped image {s.name!r} is a supertype of surviving "
                                       f"class {cls.name!r}; rewire with 'make ... extend' first"))
            for f in cls.features:
                if isinstance(f, MetaReference) and id(f.type) in removed:
                    how = ("cross reference; translate it before skipping"
                           if not f.containment else "containment reference")
                    diags.append(error("transformation", "xf-dangling-type",
                                       f"{cls.name}.{f.name} is typed by skipped image "
                                       f"{f.type.name!r} ({how})"))

    if diags:
        raise DiagnosticError(diags)

    for d in validate_metamodel(m.ast):
        diags.append(error("transformation", d.code, d.message))
    if diags:
        raise DiagnosticError(diags)
    return m.ast, m.trace


def _oracle_case(rng):
    """A random target metamodel text and a shuffled `.xf` script over it,
    valid or not: unknown names, name collisions, conflicting translations,
    skips that leave dangling types, inheritance cycles, duplicate features
    and the odd syntax error."""
    classes = [f"C{i}" for i in range(rng.randint(1, 5))]
    if rng.random() < 0.05:
        classes.append("C0AS")  # collides with the image of C0
    lines, fresh = [], iter(range(1000))
    for i, name in enumerate(classes):
        abstract = "abstract " if rng.random() < 0.2 else ""
        sup = f" extends {rng.choice(classes[:i])}" if i and rng.random() < 0.4 else ""
        lines.append(f"{abstract}class {name}{sup} {{")
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(["attr", "val", "ref", "ref"])
            if kind == "attr":
                type_ = rng.choice(["String", "int", "boolean"])
            else:
                type_ = rng.choice(classes + ["ecore::EClass", "EClassifier", "EDataType"])
            mult = rng.choice(["", "[*]", "[0..2]", "[1]"])
            lines.append(f"    {kind} {type_}{mult} f{next(fresh)};")
        lines.append("}")

    created = [f"N{k}" for k in range(rng.randint(0, 3))]
    classes_ast = created + classes + ["EClass"]

    def name(names, wrong):
        # now and then a name of the wrong kind or no name at all
        return rng.choice(wrong) if rng.random() < 0.06 else rng.choice(names)

    def proto():
        return name(classes + ["ecore::EClass", "EClassifier", "EDataType"], ["Missing", "String"])

    def supers():
        return ", ".join(name(classes_ast, ["String", "Nowhere"])
                         for _ in range(rng.randint(1, 2)))

    stmts = []
    for cname in created + rng.sample(["N0", "C0AS", "EClassAS"], rng.random() < 0.1):
        abstract = "abstract " if rng.random() < 0.2 else ""
        sup = f" extends {supers()}" if rng.random() < 0.3 else ""
        feats = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(["attr", "val", "ref"])
            type_ = (name(["String", "int"], classes_ast + ["Nowhere"]) if kind == "attr"
                     else name(classes_ast, ["String", "Nowhere"]))
            mult = rng.choice(["", "[*]", "[1]"])
            default = " = 1" if rng.random() < 0.03 else ""
            fname = rng.choice(["name", "f0", "f1", "g"])
            feats.append(f"{kind} {type_}{mult} {fname}{default};")
        stmts.append(f"create {abstract}class {cname}{sup} {{ {' '.join(feats)} }}")
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["refer", "refer", "skip", "make"])
        plus = "+" if rng.random() < 0.4 else ""
        if kind == "refer":
            textual = name(["String", "int"] + created, classes_ast + ["Nowhere"])
            stmts.append(f"refer img({proto()}){plus} as {textual};")
        elif kind == "skip":
            stmts.append(f"skip {proto()}{plus};")
        else:
            extend = "nothing" if rng.random() < 0.4 else supers()
            stmts.append(f"make img({proto()}) extend {extend};")
    rng.shuffle(stmts)
    if stmts and rng.random() < 0.05:
        i = rng.randrange(len(stmts))
        stmts[i] = rng.choice(["bogus;", stmts[i][:-1], "skip ;"])
    return "\n".join(lines), "\n".join(stmts)


def _outcome(parse, derive, default, target_text, script):
    """What a front end and a derivation make of one case, as text: the
    printed metamodel and trace, or the diagnostics of the stage that
    refused it."""
    try:
        target = parse_metamodel(target_text, "rand")
    except DiagnosticError as exc:
        return ("target", [repr(d) for d in exc.diagnostics])
    try:
        ast, trace = default(target)
        mapping = (print_metamodel(ast), format_trace(trace))
    except DiagnosticError as exc:
        mapping = [repr(d) for d in exc.diagnostics]
    try:
        t = parse(script, target)
    except DiagnosticError as exc:
        return ("parse", mapping, [repr(d) for d in exc.diagnostics])
    try:
        ast, trace = derive(target, t)
    except DiagnosticError as exc:
        return ("derive", mapping, [repr(d) for d in exc.diagnostics])
    return ("ok", mapping, print_metamodel(ast), format_trace(trace))


def _ref_default(target):
    m = ref_default_mapping(target)
    return m.ast, m.trace


def _both(target_text, script):
    return (_outcome(ref_parse_transformation, ref_derive_ast_metamodel, _ref_default,
                     target_text, script),
            _outcome(parse_transformation, derive_ast_metamodel, default_mapping,
                     target_text, script))


class TestAgainstReference:
    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**32).map(random.Random))
    def test_random_scripts(self, rng):
        ref, new = _both(*_oracle_case(rng))
        assert new == ref

    def test_samples(self):
        for name in ("css", "selfhost"):
            d = SAMPLES / name
            (mm,) = d.glob("*.mm")
            (xf,) = d.glob("*.xf")
            ref, new = _both(mm.read_text(), xf.read_text())
            assert new == ref and new[0] == "ok"

    def test_generator_reaches_every_outcome(self):
        # the random cases derive, fail in parsing and fail in derivation,
        # with each refusal the derivation can give
        seen = Counter()
        for seed in range(400):
            ref, new = _both(*_oracle_case(random.Random(seed)))
            assert new == ref
            seen[new[0]] += 1
            for d in new[-1] if new[0] in ("parse", "derive") else ():
                seen[d.split("code='")[1].split("'")[0]] += 1
        assert min(seen["ok"], seen["parse"], seen["derive"]) >= 40, seen
        for code in ("name-unresolved", "syntax", "mm-bad-type", "xf-name-collision",
                     "xf-bad-action", "xf-translate-conflict", "xf-dangling-type",
                     "xf-removed-supertype", "mm-inheritance-cycle", "mm-duplicate-feature"):
            assert seen[code], (code, seen)
