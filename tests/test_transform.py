import copy
import random
import signal
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mmdsl.diagnostics import DiagnosticError, error, raise_any
from mmdsl.emfatic import parse_metamodel, print_metamodel
from mmdsl.grammar import (
    check_grammar, generate_random_model, parse_grammar, parse_text, render_ast,
)
from mmdsl.modeltext import dump_model, load_model
from mmdsl.meta import (
    MetaAttribute, MetaClass, MetaDataType, MetaReference, Model, ModelObject, Tree,
    _validate, builtin_ecore, classifier_object, iter_tree, model_equals, rejecting,
    validate_model,
)
from mmdsl.transform import (
    DEFER, Namespace, ResolutionContext, ResolverRegistry, _Forward, _PlacementContext,
    _settle, build_plan, flatten_payload, namespace_registry, parse_config,
    transform_ast_to_model, transform_model_to_ast,
)
from mmdsl.xf import (
    Transformation, derive_ast_metamodel, parse_transformation,
    transformation_to_model,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def load_example(name):
    d = SAMPLES / name
    stem = "xf" if name == "selfhost" else "css"
    target = parse_metamodel((d / f"{stem}.mm").read_text(), stem)
    t = parse_transformation((d / f"{stem}.xf").read_text(), target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar((d / f"{stem}.gr").read_text(), ast)
    plan = build_plan(trace, target, ast)
    registry = namespace_registry(parse_config((d / "ns.cfg").read_text()), target, ast)
    return target, t, ast, trace, g, plan, registry


@pytest.fixture(scope="module")
def selfhost():
    return load_example("selfhost")


@pytest.fixture(scope="module")
def css():
    return load_example("css")


class TestBuildPlan:
    def test_selfhost_plan_instructions(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        create = ast.classifier("CreateClassAS")
        kinds = {i.image_feature.name: i.kind for i in plan.instructions_for(create)}
        assert kinds["name"] == "copy"
        assert kinds["structuralFeatures"] == "containment"
        assert kinds["superclasses"] == "cross"
        refer = ast.classifier("TranslateReferencesAS")
        by_name = {i.image_feature.name: i for i in plan.instructions_for(refer)}
        instr = by_name["modelReferenceType"]
        assert instr.kind == "cross" and instr.textual.name == "QualifiedName"
        assert instr.target_feature.type.name == "EClass"
        assert plan.consume_only == {"QualifiedName"}
        assert plan.skipped == {"ClassMapping", "EClassifier", "EClass", "EDataType"}

    def test_empty_trace_empty_plan(self):
        from mmdsl.xf import Trace
        from mmdsl.meta import Metamodel
        plan = build_plan(Trace(), Metamodel("t"), Metamodel("a"))
        assert plan.proto_for_image == {} and plan.consume_only == set()

    def test_stale_trace(self, selfhost):
        """A trace that names what the metamodels lack, or whose build would
        not make the target in preorder or whose reverse would lose values:
        a many-valued AST feature onto a single-valued target feature and
        the other way round, two AST features onto one target feature, a
        copied containment onto a cross reference and a translated feature
        onto a containment."""
        target, t, ast, trace, *_ = selfhost
        from mmdsl.xf import parse_trace
        cases = [(target, ast, "class Transformation -> GhostAS\n")]
        kid = "class Kid { attr String name; }\n"
        kid_as = "class KidAS { attr String name; }\n"
        names = "class Root -> RootAS\nclass Kid -> KidAS\nfeature Kid.name -> KidAS.name copied\n"
        for target_text, ast_text, records in [
                ("class Root { val Kid kid; }", "class RootAS { val KidAS[*] kid; }",
                 "feature Root.kid -> RootAS.kid copied"),
                ("class Root { val Kid[*] kids; }", "class RootAS { val KidAS kids; }",
                 "feature Root.kids -> RootAS.kids copied"),
                ("class Root { val Kid[*] kids; }",
                 "class RootAS { val KidAS[*] kids; val KidAS[*] more; }",
                 "feature Root.kids -> RootAS.kids copied\n"
                 "feature Root.kids -> RootAS.more copied"),
                ("class Root { val Kid[*] kids; ref Kid[*] seen; }",
                 "class RootAS { val KidAS[*] kids; }", "feature Root.seen -> RootAS.kids copied"),
                ("class Root { val Kid[*] kids; }", "class RootAS { attr String[*] kids; }",
                 "feature Root.kids -> RootAS.kids translated:String")]:
            cases.append((parse_metamodel(target_text + "\n" + kid, "t"),
                          parse_metamodel(ast_text + "\n" + kid_as, "a"), names + records))
        for target, ast, text in cases:
            with pytest.raises(DiagnosticError) as exc:
                build_plan(parse_trace(text), target, ast)
            assert [d.code for d in exc.value.diagnostics] == ["plan-stale"], text

    def test_untranslated_cross_is_error(self):
        target = parse_metamodel("class A { ref A other; }", "m")
        from mmdsl.xf import default_mapping
        ast, trace = default_mapping(target)
        with pytest.raises(DiagnosticError) as exc:
            build_plan(trace, target, ast)
        assert exc.value.diagnostics[0].code == "plan-untranslated"


class TestNamespace:
    def test_define_then_resolve_in_scope(self):
        ns = Namespace()
        obj = object()
        ns.define(["a", "b"], "x", obj)
        assert ns.resolve(ns.scope(["a", "b"]), ["x"]) is obj

    def test_outward_search(self):
        ns = Namespace()
        obj = object()
        ns.define([], "x", obj)
        assert ns.resolve(ns.scope(["a", "b"]), ["x"]) is obj

    def test_qualified_resolution_from_inner_scope(self):
        ns = Namespace()
        obj = object()
        ns.define(["ecore"], "EClassifier", obj)
        assert ns.resolve(ns.scope(["somewhere"]), ["ecore", "EClassifier"]) is obj

    def test_inner_shadows_outer(self):
        ns = Namespace()
        outer, inner = object(), object()
        ns.define([], "x", outer)
        ns.define(["s"], "x", inner)
        assert ns.resolve(ns.scope(["s"]), ["x"]) is inner

    def test_duplicate_definition_diagnostic(self):
        ns = Namespace()
        ns.define([], "x", object())
        ns.define([], "x", object())
        assert [d.code for d in ns.diagnostics] == ["name-duplicate"]

    def test_a_duplicate_in_a_deep_scope(self):
        """Scope.path reads the parent links without recursion, so the
        duplicate in a scope 3,000 deep is worded, with the whole path."""
        ns = Namespace()
        path = [f"s{i}" for i in range(3000)]
        assert ns.define(path, "x", object()) and not ns.define(path, "x", object())
        assert [(d.code, d.message) for d in ns.diagnostics] == [
            ("name-duplicate", f"'x' is already defined in scope '{'::'.join(path)}'")]

    def test_scope_paths_agree_with_the_recursive_path(self):
        def ref_path(scope):
            if scope.parent is None:
                return ""
            prefix = ref_path(scope.parent)
            return f"{prefix}::{scope.name}" if prefix else scope.name

        ns = Namespace()
        for path in ([], [""], ["", ""], ["a"], ["", "a", "", "b"], ["a", ""], [":", "b"]):
            assert ns.scope(path).path() == ref_path(ns.scope(path))

    def test_ecore_seeding(self, selfhost):
        *_, registry = selfhost
        ns = registry.make_namespace()
        found = ns.resolve(ns.root, ["ecore", "EClassifier"])
        assert found.represents is builtin_ecore().classifier("EClassifier")

    def test_seeded_bindings_are_made_once_and_copied(self, selfhost, monkeypatch):
        """make_namespace binds what one setdefault per seeded classifier
        and scope bound, in the same order, the first binding of a name
        winning. It makes them once per seeding; each namespace gets its
        own copies, so runs stay independent."""
        import mmdsl.transform
        target, t, ast, *_ = selfhost
        clash = parse_metamodel("class EClass { }\nclass Extra { }\n", "clash")
        reg = ResolverRegistry().seed("target", target).seed("ecore", builtin_ecore())
        reg.seed("ast", ast).seed("target", clash)
        made = []
        monkeypatch.setattr(mmdsl.transform, "classifier_object",
                            lambda c: made.append(c) or classifier_object(c))
        first = reg.make_namespace()
        seeded = len(made)
        second = reg.make_namespace()
        assert seeded and len(made) == seeded
        monkeypatch.undo()
        ref = ref_make_namespace(reg)
        for ns in (first, second):
            assert _scope_tree(ns.root) == _scope_tree(ref.root)
            assert [list(s.bindings) for s in (ns.root, ns.root.children["ecore"])] == \
                [list(s.bindings) for s in (ref.root, ref.root.children["ecore"])]
        assert first.root.bindings["EClass"].represents is builtin_ecore().classifier("EClass")
        first.define([], "Mine", object())
        first.define(["ecore"], "Mine", object())
        assert "Mine" not in second.root.bindings
        assert "Mine" not in second.root.children["ecore"].bindings
        reg.seed("ecore", clash)  # a later seeding is bound from the next namespace on
        assert _scope_tree(reg.make_namespace().root) == _scope_tree(ref_make_namespace(reg).root)


class TestFlatten:
    def test_string_payload(self):
        assert flatten_payload("a::b::c") == ["a", "b", "c"]

    def test_tree_payload(self, selfhost):
        *_, ast, trace, g, plan, registry = selfhost
        qn = ast.classifier("QualifiedName")
        inner = ModelObject(qn, name="EClassifier")
        outer = ModelObject(qn, name="ecore")
        outer.set("subQN", inner)
        assert flatten_payload(outer) == ["ecore", "EClassifier"]


SELFHOST_SCRIPT = (SAMPLES / "selfhost" / "xf.xf").read_text()


class TestSelfHostingForward:
    def test_pipeline_equals_direct_parse(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        ast_model = parse_text(SELFHOST_SCRIPT, g)
        result, diags = transform_ast_to_model(ast_model, plan, registry)
        assert [d.render() for d in diags] == []
        direct = transformation_to_model(t, target, ast)
        assert validate_model(result) == []
        assert model_equals(result, direct)

    def test_resolved_values(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        result, diags = transform_ast_to_model(parse_text(SELFHOST_SCRIPT, g), plan, registry)
        assert not diags
        actions = result.root.values("actions")
        assert [a.cls.name for a in actions] == [
            "CreateClass", "TranslateReferences", "SkipClass", "SkipClass"]
        refer = actions[1]
        assert refer.get("includeDescendants") is True
        mrt = refer.get("modelReferenceType")
        assert mrt.represents is builtin_ecore().classifier("EClassifier")
        assert refer.get("textualReferenceType").represents is ast.classifier("QualifiedName")
        assert actions[2].get("target").represents is builtin_ecore().classifier("EClassifier")
        assert actions[3].get("target").represents is target.classifier("ClassMapping")
        assert actions[3].get("includeDescendants") is False
        create = actions[0]
        attr, ref = create.values("structuralFeatures")
        assert attr.cls.name == "Attribute"
        assert attr.get("type").represents is builtin_ecore().classifier("String")
        assert (attr.get("lowerBound"), attr.get("upperBound")) == (0, 1)
        assert ref.cls.name == "Reference"
        assert ref.get("containment") is True
        assert ref.get("type").represents is ast.classifier("QualifiedName")

    def test_dangling_name_is_one_resolve_diagnostic(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        ast_model = parse_text("skip Missing;", g)
        result, diags = transform_ast_to_model(ast_model, plan, registry)
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1
        d = errors[0]
        assert d.phase == "resolve" and d.code == "resolve-unresolved"
        assert "Missing" in d.message
        assert d.path is not None


class TestCssMerge:
    def grouped_and_split(self, css):
        target, t, ast, trace, g, plan, registry = css
        out = []
        for name in ("grouped.css", "split.css"):
            text = (SAMPLES / "css" / name).read_text()
            m, diags = transform_ast_to_model(parse_text(text, g), plan, registry)
            assert not diags, [d.render() for d in diags]
            out.append(m)
        return out

    def test_grouped_equals_split(self, css):
        grouped, split = self.grouped_and_split(css)
        assert model_equals(grouped, split)

    def test_one_selector_with_both_properties(self, css):
        grouped, split = self.grouped_and_split(css)
        for m in (grouped, split):
            selectors = m.root.values("selectors")
            assert len(selectors) == 1
            sel = selectors[0]
            assert sel.get("name") == "some"
            props = [(d.get("property"), d.get("value")) for d in sel.values("declarations")]
            assert props == [("borderWidth", "2px"), ("borderColor", "red")]
            assert validate_model(m) == []


    def test_reads_no_slot_by_name_outside_the_placers(self, css, monkeypatch):
        """The forward run reads and writes slots through the features its
        plan holds: ModelObject._feature is only reached from the shipped
        placers, which are configured by feature name."""
        target, t, ast, trace, g, plan, registry = css
        models = [parse_text((SAMPLES / "css" / f).read_text(), g)
                  for f in ("grouped.css", "split.css")]
        expected = [dump_model(transform_ast_to_model(m, plan, registry)[0]) for m in models]
        outside, inside, placing = [], [], []
        feature = ModelObject._feature
        monkeypatch.setattr(ModelObject, "_feature", lambda obj, name: (
            inside if placing else outside).append(name) or feature(obj, name))

        def placed(placer):
            def run(ctx):
                placing.append(True)
                try:
                    return placer(ctx)
                finally:
                    placing.pop()
            return run

        monkeypatch.setattr(registry, "placers",
                            {k: placed(p) for k, p in registry.placers.items()})
        got = [transform_ast_to_model(m, plan, registry) for m in models]
        assert [dump_model(m) for m, _ in got] == expected
        assert all(diags == [] for _, diags in got)
        assert outside == []
        assert inside  # the counter does see the placers' lookups

    def test_a_consume_only_object_contained_twice(self, css):
        """The forward enters each consume-only object once, as it does each
        mapped child, so a rule contained twice raises validate_model's
        diagnostics, whether or not it holds mapped children."""
        target, t, ast, trace, g, plan, registry = css
        for rule in (".empty { }\n", '.some { width : "1px" ; }\n'):
            m = parse_text(rule + (SAMPLES / "css" / "grouped.css").read_text(), g)
            m.root.slots["rules"].append(m.root.slots["rules"][0])
            with time_bound(5), pytest.raises(DiagnosticError) as exc:
                transform_ast_to_model(m, plan, registry)
            assert exc.value.diagnostics == validate_model(m)
            assert [d.code for d in exc.value.diagnostics] == ["model-containment"]

    def test_a_placed_child_held_by_two_consume_only_objects(self, css):
        """A mapped child a placer places is entered as a mapped parent's
        child is: the first rule's declaration appended to the second rule's
        raises validate_model's diagnostics, where it was built into both
        selectors. So does the mapped root's subtree held again below."""
        target, t, ast, trace, g, plan, registry = css
        m = parse_text('.a { w : "1" ; }\n' + (SAMPLES / "css" / "grouped.css").read_text(), g)
        first, second = m.root.slots["rules"]
        second.slots["declarations"].append(first.slots["declarations"][0])
        for transform in (transform_ast_to_model, ref_transform_ast_to_model):
            with pytest.raises(DiagnosticError) as exc:
                transform(m, plan, registry)
            assert exc.value.diagnostics == validate_model(m)
            assert [d.code for d in exc.value.diagnostics] == ["model-containment"]


class TestReverse:
    def test_selfhost_reverse_round_trip(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        direct = transformation_to_model(t, target, ast)
        ast_model, rdiags = transform_model_to_ast(direct, plan, registry)
        assert not rdiags
        assert validate_model(ast_model) == []
        back, fdiags = transform_ast_to_model(ast_model, plan, registry)
        assert not fdiags
        assert model_equals(direct, back)

    def test_round_trip_50_random_selfhost_models(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        rng = random.Random(99)
        for _ in range(50):
            m = _random_target_model(rng, target, ast)
            assert validate_model(m) == []
            ast_model, rdiags = transform_model_to_ast(m, plan, registry)
            assert not rdiags, [d.render() for d in rdiags]
            back, fdiags = transform_ast_to_model(ast_model, plan, registry)
            assert not fdiags, [d.render() for d in fdiags]
            assert model_equals(m, back)

    def test_unnamed_cross_target_reports_diagnostic(self):
        text = ("class Root { val Thing[*] things; ref Thing pick; }\n"
                "class Thing { attr String name; }\n")
        target = parse_metamodel(text, "m")
        t = parse_transformation("refer img(Thing) as String;", target)
        ast, trace = derive_ast_metamodel(target, t)
        plan = build_plan(trace, target, ast)
        registry = namespace_registry({}, target, ast)
        nameless = ModelObject(target.classifier("Thing"))
        root = ModelObject(target.classifier("Root"), things=[nameless])
        root.set("pick", nameless)
        _, diags = transform_model_to_ast(Model(root, target), plan, registry)
        assert [(d.code, d.path) for d in diags] == [("reverse-unnamed", "/")]

    def test_named_cross_target_round_trips(self):
        text = ("class Root { val Thing[*] things; ref Thing pick; }\n"
                "class Thing { attr String name; }\n")
        target = parse_metamodel(text, "m")
        t = parse_transformation("refer img(Thing) as String;", target)
        ast, trace = derive_ast_metamodel(target, t)
        plan = build_plan(trace, target, ast)
        registry = namespace_registry({}, target, ast)
        a = ModelObject(target.classifier("Thing"), name="a")
        b = ModelObject(target.classifier("Thing"), name="b")
        root = ModelObject(target.classifier("Root"), things=[a, b])
        root.set("pick", b)
        m = Model(root, target)
        ast_model, rdiags = transform_model_to_ast(m, plan, registry)
        assert not rdiags
        # the in-model object reference became its textual name
        assert ast_model.root.get("pick") == "b"
        back, fdiags = transform_ast_to_model(ast_model, plan, registry)
        assert not fdiags
        assert model_equals(m, back)
        assert back.root.get("pick") is back.root.values("things")[1]

    def test_skipped_root_is_unsupported(self, css):
        target, t, ast, trace, g, plan, registry = css
        stylesheet = ModelObject(target.classifier("Stylesheet"))
        with pytest.raises(DiagnosticError) as exc:
            transform_model_to_ast(Model(stylesheet, target), plan, registry)
        assert exc.value.diagnostics[0].code == "reverse-unsupported"

    def test_empty_root(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        m = Model(ModelObject(target.classifier("Transformation")), target)
        ast_model, diags = transform_model_to_ast(m, plan, registry)
        assert not diags
        assert ast_model.root.cls.name == "TransformationAS"
        assert ast_model.root.values("actions") == []


def _random_target_model(rng, target, ast):
    """Random Transformation instances whose classifier references point at
    uniquely named classifiers (ecore, target, or AST classes)."""
    eclasses = [classifier_object(c) for c in builtin_ecore().classes()]
    eclasses += [classifier_object(c) for c in target.classes()]
    eclasses += [classifier_object(c) for c in ast.classes() if not c.abstract]
    datatypes = [classifier_object(c) for c in builtin_ecore().datatypes()]

    def cls(name):
        return target.classifier(name)

    root = ModelObject(cls("Transformation"))
    for i in range(rng.randint(1, 6)):
        kind = rng.choice(["create", "refer", "skip", "make"])
        if kind == "create":
            obj = ModelObject(cls("CreateClass"))
            obj.set("name", f"New{i}")
            obj.set("abstract", rng.random() < 0.5)
            if rng.random() < 0.5:
                obj.set("superclasses", [rng.choice(eclasses)])
            feats = []
            for j in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    f = ModelObject(cls("Attribute"))
                    f.set("type", rng.choice(datatypes))
                else:
                    f = ModelObject(cls("Reference"))
                    f.set("type", rng.choice(eclasses))
                    f.set("containment", rng.random() < 0.5)
                f.set("name", f"f{j}")
                f.set("lowerBound", rng.randint(0, 5))
                f.set("upperBound", rng.randint(0, 9))
                feats.append(f)
            if feats:
                obj.set("structuralFeatures", feats)
        elif kind == "refer":
            obj = ModelObject(cls("TranslateReferences"))
            obj.set("modelReferenceType", rng.choice(eclasses))
            obj.set("textualReferenceType", rng.choice(eclasses + datatypes))
            obj.set("includeDescendants", rng.random() < 0.5)
        elif kind == "skip":
            obj = ModelObject(cls("SkipClass"))
            obj.set("target", rng.choice(eclasses))
            obj.set("includeDescendants", rng.random() < 0.5)
        else:
            obj = ModelObject(cls("ChangeInheritance"))
            obj.set("target", rng.choice(eclasses))
            if rng.random() < 0.7:
                obj.set("superclasses", [rng.choice(eclasses)
                                         for _ in range(rng.randint(1, 3))])
        root.add("actions", obj)
    return Model(root, target)


@pytest.fixture(scope="module")
def lang():
    target = parse_metamodel(
        "class Model { val Package[*] packages; }\n"
        "class Package { attr String name; val Class[*] classes; }\n"
        "class Class { attr String name; ref Class super; }\n", "pkg")
    t = parse_transformation(
        "create class QualifiedName { attr String name; val QualifiedName subQN; }\n"
        "refer img(Class) as QualifiedName;\n", target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar(
        "ModelAS : ( packages += PackageAS )* ;\n"
        'PackageAS : "package" name = ID "{" ( classes += ClassAS )* "}" ;\n'
        'ClassAS : "class" name = ID ( "extends" super = QualifiedName )? ";" ;\n'
        'QualifiedName : name = ID ( "::" subQN = QualifiedName )? ;\n', ast)
    plan = build_plan(trace, target, ast)
    registry = namespace_registry(
        {"name.attribute": "name", "scope.classes": "Package"}, target, ast)
    return target, g, plan, registry


class TestPackageScopes:
    """A package-like language: nested scopes, local and qualified class
    references, and the reverse direction producing qualified names."""

    SOURCE = (
        "package a { class X; class Y extends X; }\n"
        "package b { class Z extends a::X; }\n"
    )

    def test_local_and_qualified_references(self, lang):
        target, g, plan, registry = lang
        m, diags = transform_ast_to_model(parse_text(self.SOURCE, g), plan, registry)
        assert not diags, [d.render() for d in diags]
        pkg_a, pkg_b = m.root.values("packages")
        x, y = pkg_a.values("classes")
        (z,) = pkg_b.values("classes")
        assert y.get("super") is x
        assert z.get("super") is x

    def test_forward_reference_within_scope(self, lang):
        target, g, plan, registry = lang
        source = "package a { class Y extends X; class X; }\n"
        m, diags = transform_ast_to_model(parse_text(source, g), plan, registry)
        assert not diags
        y, x = m.root.values("packages")[0].values("classes")
        assert y.get("super") is x

    def test_reverse_produces_qualified_names(self, lang):
        target, g, plan, registry = lang
        m, _ = transform_ast_to_model(parse_text(self.SOURCE, g), plan, registry)
        ast_model, rdiags = transform_model_to_ast(m, plan, registry)
        assert not rdiags
        text = render_ast(ast_model, g)
        assert "extends a :: X" in text
        back, fdiags = transform_ast_to_model(parse_text(text, g), plan, registry)
        assert not fdiags
        assert model_equals(m, back)


def _scope_path(scope):
    path = []
    while scope.parent is not None:
        path.insert(0, scope.name)
        scope = scope.parent
    return path


def reference_bind(ns, registry, obj, scope, scopes):
    """The recursive bind that ``_Forward.bind`` replaced: it records the
    scope each object is bound in, binds the object's name there by walking
    back down from the root to the scope's path (a name bound already keeps
    its first object), and recurses into the contents with the child scope
    a named scope-class object opens."""
    scopes[id(obj)] = scope
    attr = registry.name_attribute
    inner = scope
    feat = obj.cls.find_feature(attr)
    if feat is not None and feat.is_attribute and obj.is_set(attr):
        ns.scope(_scope_path(scope)).bindings.setdefault(obj.get(attr), obj)
        if obj.cls.name in registry.scope_classes:
            inner = scope.child(obj.get(attr))
    for f in obj.cls.containments():
        for child in obj.values(f.name):
            reference_bind(ns, registry, child, inner, scopes)


NESTED = parse_metamodel(
    "class Package { attr String name; val Package[*] packages; val Class[*] classes; }\n"
    "class Class { attr String name; }\n", "nested")

# a few names, so that they repeat, or none
names = st.sampled_from(["a", "b", "c", None])


def _named(cls, name, **features):
    obj = ModelObject(NESTED.classifier(cls), **features)
    if name is not None:
        obj.set("name", name)
    return obj


classes = st.builds(lambda n: _named("Class", n), names)
packages = st.recursive(
    st.builds(lambda n, cs: _named("Package", n, classes=cs), names,
              st.lists(classes, max_size=3)),
    lambda inner: st.builds(
        lambda n, ps, cs: _named("Package", n, packages=ps, classes=cs),
        names, st.lists(inner, max_size=3), st.lists(classes, max_size=3)),
    max_leaves=25)


def _scope_key(scope):
    return tuple(_scope_path(scope))


def _scope_tree(scope):
    """Every scope below ``scope``: its path, the id of each bound object."""
    out, stack = {}, [scope]
    while stack:
        s = stack.pop()
        out[_scope_key(s)] = {name: id(obj) for name, obj in s.bindings.items()}
        stack.extend(s.children.values())
    return out


class TestBindOverOneTree:
    @settings(max_examples=150, deadline=None)
    @given(packages)
    def test_agrees_with_the_recursive_bind(self, root):
        registry = ResolverRegistry()
        registry.scope_classes.add("Package")
        ref_ns, ref_scopes = registry.make_namespace(), {}
        reference_bind(ref_ns, registry, root, ref_ns.root, ref_scopes)
        run = _Forward(None, registry)
        tree = run.bind(root)
        assert _scope_tree(run.ns.root) == _scope_tree(ref_ns.root)
        assert len(tree.objects) == len(ref_scopes)
        for obj in tree.objects:
            assert _scope_key(run.scopes[obj]) == _scope_key(ref_scopes[id(obj)])


def package_chain(n):
    """One package of n classes, each extending the one before."""
    return "package p { class C0;" + "".join(
        f" class C{i} extends C{i - 1};" for i in range(1, n)) + " }\n"


class TestOneTreePerRun:
    """Error paths and reverse names read one containment Tree per run, so
    the number of Trees built does not grow with the model."""

    @pytest.fixture()
    def built(self, monkeypatch):
        roots = []
        init = Tree.__init__

        def counting(self, root):
            roots.append(root)
            init(self, root)

        monkeypatch.setattr(Tree, "__init__", counting)
        return roots

    def test_unresolved_references(self, selfhost, built):
        target, t, ast, trace, g, plan, registry = selfhost
        counts = []
        for n in (5, 40):
            ast_model = parse_text("skip MissingI;\n" * n, g)
            built.clear()
            _, diags = transform_ast_to_model(ast_model, plan, registry)
            assert [d.code for d in diags] == ["resolve-unresolved"] * n
            assert [d.path for d in diags] == [f"/actions[{i}]" for i in range(n)]
            counts.append(len(built))
        assert counts == [1, 1]

    def test_reverse_of_a_package_chain(self, lang, built):
        target, g, plan, registry = lang
        counts = []
        for n in (5, 40):
            m, diags = transform_ast_to_model(parse_text(package_chain(n), g), plan, registry)
            assert not diags
            built.clear()
            ast_model, rdiags = transform_model_to_ast(m, plan, registry)
            assert not rdiags
            counts.append(len(built))
            assert f"class C{n - 1} extends p :: C{n - 2} ;" in render_ast(ast_model, g)
        assert counts == [1, 1]


class TestResolverRegistry:
    def test_custom_resolver_and_defer(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        calls = []
        reg = ResolverRegistry()
        reg.seed("ecore", builtin_ecore())
        reg.seed("target", target)
        reg.seed("ast", ast)

        def deferring(ctx):
            calls.append(tuple(ctx.segments()))
            if len(calls) < 2:
                return DEFER
            return ctx.namespace.resolve(ctx.scope, ctx.segments())

        reg.on("SkipClassAS", "target", deferring)
        ast_model = parse_text("skip ClassMapping;", g)
        result, diags = transform_ast_to_model(ast_model, plan, reg)
        assert not diags
        assert calls == [("ClassMapping",), ("ClassMapping",)]
        assert result.root.values("actions")[0].get("target").represents \
            is target.classifier("ClassMapping")

    def test_defer_waits_for_a_later_define(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        calls = []
        reg = ResolverRegistry()
        reg.seed("target", target)

        def waiting(ctx):
            calls.append(("skip", tuple(ctx.segments())))
            found = ctx.namespace.resolve(ctx.scope, ctx.segments())
            return DEFER if found is None else found

        def aliasing(ctx):
            calls.append(("make", tuple(ctx.segments())))
            found = ctx.namespace.resolve(ctx.scope, ctx.segments())
            ctx.namespace.define([], "Alias", found)
            return found

        reg.on("SkipClassAS", "target", waiting)
        reg.on("ChangeInheritanceAS", "target", aliasing)
        ast_model = parse_text("skip Alias;\nmake img(ClassMapping) extend nothing;\n", g)
        result, diags = transform_ast_to_model(ast_model, plan, reg)
        assert [d.render() for d in diags] == []
        assert calls == [("skip", ("Alias",)), ("make", ("ClassMapping",)),
                         ("skip", ("Alias",))]
        skip, make = result.root.values("actions")
        assert skip.get("target") is make.get("target")
        assert skip.get("target").represents is target.classifier("ClassMapping")

    def test_resolver_invocation_count(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        count = 0
        reg = ResolverRegistry()
        reg.seed("ecore", builtin_ecore())
        reg.seed("target", target)
        reg.seed("ast", ast)
        base = reg.default_resolver

        def counting(ctx):
            nonlocal count
            count += 1
            return base(ctx)

        reg.default_resolver = counting
        ast_model = parse_text(SELFHOST_SCRIPT, g)
        # payload slots: create(type x2) + refer(mrt, trt) + skip targets x2
        transform_ast_to_model(ast_model, plan, reg)
        assert count == 6

    def test_one_context_per_reference(self, selfhost, monkeypatch):
        """On xf.xf, the forward makes one ResolutionContext per reference,
        and asks a reference that returned DEFER again with the same one."""
        target, t, ast, trace, g, plan, registry = selfhost
        ast_model = parse_text((SAMPLES / "selfhost" / "xf.xf").read_text(), g)
        expected, _ = transform_ast_to_model(ast_model, plan, registry)
        references = sum(len(obj.values_of(instr.image_feature))
                         for obj in Tree(ast_model.root).objects
                         for instr in plan.instructions_for(obj.cls) if instr.kind == "cross")
        reg = namespace_registry(parse_config((SAMPLES / "selfhost" / "ns.cfg").read_text()),
                                 target, ast)
        base, made, asked = reg.default_resolver, [], []

        def deferring_once(ctx):
            first = all(c is not ctx for c in asked)
            asked.append(ctx)
            return DEFER if first else base(ctx)

        reg.default_resolver = deferring_once
        init = ResolutionContext.__init__
        monkeypatch.setattr(ResolutionContext, "__init__",
                            lambda ctx, *a, **k: made.append(ctx) or init(ctx, *a, **k))
        model, diags = transform_ast_to_model(ast_model, plan, reg)
        monkeypatch.undo()
        assert diags == []
        assert len(made) == references > 0
        assert [id(c) for c in asked] == [id(c) for c in made] * 2
        assert model_equals(model, expected)

    def test_config_validation(self, selfhost):
        target, t, ast, *_ = selfhost
        with pytest.raises(DiagnosticError) as exc:
            namespace_registry({"scope.classes": "Ghost"}, target, ast)
        assert exc.value.diagnostics[0].code == "config"

    def test_determinism(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        from mmdsl.modeltext import dump_model
        a, _ = transform_ast_to_model(parse_text(SELFHOST_SCRIPT, g), plan, registry)
        b, _ = transform_ast_to_model(parse_text(SELFHOST_SCRIPT, g), plan, registry)
        assert dump_model(a) == dump_model(b)


def _there_and_back(example, text):
    """Forward (parse, dump, transform, dump) and reverse (AST render, and
    the trace-driven reverse where the target root has an image)."""
    from mmdsl.modeltext import dump_model, load_model
    target, t, ast, trace, g, plan, registry = example
    ast_model = parse_text(text, g)
    astm = dump_model(ast_model)
    render_ast(load_model(astm, ast), g)
    model, diags = transform_ast_to_model(ast_model, plan, registry)
    if any(d.severity == "error" for d in diags):
        return diags
    again = load_model(dump_model(model), target, extra_metamodels=[ast])
    if again.root.cls.name in plan.image_for_proto:
        back, reverse_diags = transform_model_to_ast(again, plan, registry)
        assert reverse_diags == []
        render_ast(back, g)
    return diags


class TestLifetimes:
    def test_documents_leave_no_cyclic_garbage(self):
        import gc
        css_example, selfhost_example = load_example("css"), load_example("selfhost")
        docs = [(css_example, (SAMPLES / "css" / name).read_text())
                for name in ("grouped.css", "split.css")]
        docs.append((selfhost_example, (SAMPLES / "selfhost" / "xf.xf").read_text()))
        docs.append((selfhost_example, "create class A extends Nowhere::Ghost { }\n"))
        gc.collect()
        gc.disable()
        try:
            outcomes = [_there_and_back(example, text) for example, text in docs]
            garbage = gc.collect()
        finally:
            gc.enable()
        assert [d.code for d in outcomes[-1]] == ["resolve-unresolved"]
        assert garbage == 0

    def test_grammars_parse_and_check_without_cyclic_garbage(self):
        """parse_grammar and check_grammar free what they make as they
        return, with the collector off, on both shipped grammars."""
        import gc
        languages = [load_example(name) for name in ("css", "selfhost")]
        texts = [(SAMPLES / "css" / "css.gr").read_text(),
                 (SAMPLES / "selfhost" / "xf.gr").read_text()]
        grammars, garbage = [], []
        gc.collect()
        gc.disable()
        try:
            for (_, _, ast, *_), text in zip(languages, texts):
                grammars.append(parse_grammar(text, ast))
                garbage.append(gc.collect())
                problems = check_grammar(grammars[-1])
                garbage.append(gc.collect())
                assert problems == []
        finally:
            gc.enable()
        assert garbage == [0, 0, 0, 0]

    def test_dropped_language_is_freed(self):
        import gc
        import weakref
        example = load_example("selfhost")
        _there_and_back(example, (SAMPLES / "selfhost" / "xf.xf").read_text())
        target, ast = example[0], example[2]
        refs = [weakref.ref(x) for x in (target, ast, *target.classifiers, *ast.classifiers)]
        del example, target, ast
        gc.collect()
        assert [r() for r in refs if r() is not None] == []


def ref_model_to_ast(m, plan, registry):
    """The recursive reverse that transform_model_to_ast replaced: it reads
    and writes every slot by feature name and names cross-referenced objects
    with the namer that prepended each scope segment."""

    def name_of(obj):
        if obj.represents is not None:
            if any(c is obj.represents for c in builtin_ecore().classifiers):
                return ["ecore", obj.represents.name]
            return [obj.represents.name]
        attr = registry.name_attribute
        if obj.cls.find_feature(attr) is None or not obj.is_set(attr):
            return None
        segs, container = [obj.get(attr)], tree.container(obj)
        while container is not None:
            if container.cls.name in registry.scope_classes and container.is_set(attr):
                segs.insert(0, container.get(attr))
            container = tree.container(container)
        return segs

    def payload(cls, segments):
        head = next(f for f in cls.all_features()
                    if f.is_attribute and f.type.kind == "string" and not f.many)
        tail = next((f for f in cls.containments() if not f.many and f.type is cls), None)
        obj = ModelObject(cls)
        obj.set(head.name, segments[0])
        if len(segments) > 1:
            obj.set(tail.name, payload(cls, segments[1:]))
        return obj

    def reverse(tobj):
        image = plan.image_for_proto[tobj.cls.name]
        iobj = ModelObject(image)
        for instr in plan.instructions_for(image):
            name, tname = instr.image_feature.name, instr.target_feature.name
            if instr.kind == "copy":
                v = tobj.get(tname)
                if v is None or (instr.target_feature.many and not v):
                    continue
                iobj.set(name, list(v) if instr.image_feature.many else v)
                continue
            out = []
            for v in tobj.values(tname):
                if instr.kind == "containment":
                    if v.cls.name in plan.skipped:
                        continue
                    if v.cls.name not in plan.image_for_proto:
                        diags.append(("reverse-unsupported", tree.path(v)))
                        continue
                    out.append(reverse(v))
                elif not (segs := name_of(v)):
                    diags.append(("reverse-unnamed", tree.path(tobj)))
                elif isinstance(instr.textual, MetaDataType):
                    out.append("::".join(segs))
                else:
                    out.append(payload(instr.textual, segs))
            if out:
                iobj.set(name, out if instr.image_feature.many else out[0])
        return iobj

    diags, tree = [], Tree(m.root)
    return Model(reverse(m.root), plan.ast), diags


def _reverse_outcome(m, plan, registry):
    ast_model, diags = transform_model_to_ast(m, plan, registry)
    return dump_model(ast_model), sorted((d.code, d.path) for d in diags)


@pytest.fixture(scope="module")
def nested_lang():
    """Packages nest in packages, and a class names its supertype by a
    qualified name read from the package scopes."""
    target = parse_metamodel(
        "class Model { val Package[*] packages; }\n"
        "class Package { attr String name; val Package[*] packages; val Class[*] classes; }\n"
        "class Class { attr String name; ref Class super; }\n", "nest")
    t = parse_transformation(
        "create class QualifiedName { attr String name; val QualifiedName subQN; }\n"
        "refer img(Class) as QualifiedName;\n", target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar(
        "ModelAS : ( packages += PackageAS )* ;\n"
        'PackageAS : "package" name = ID "{" ( packages += PackageAS )* '
        '( classes += ClassAS )* "}" ;\n'
        'ClassAS : "class" name = ID ( "extends" super = QualifiedName )? ";" ;\n'
        'QualifiedName : name = ID ( "::" subQN = QualifiedName )? ;\n', ast)
    plan = build_plan(trace, target, ast)
    registry = namespace_registry({"scope.classes": "Package"}, target, ast)
    return target, g, plan, registry


def _package_tree(rng, target, depth):
    """A random model of nested packages whose classes extend random classes;
    one class in ten has no name, so a reference to it has no textual form."""
    model = ModelObject(target.classifier("Model"))
    pkg_cls, class_cls = target.classifier("Package"), target.classifier("Class")
    all_classes = []

    def package(name, level):
        p = ModelObject(pkg_cls, name=name)
        for i in range(rng.randint(0, 3)):
            c = ModelObject(class_cls, name=f"C{i}" if rng.random() < 0.9 else None)
            p.add("classes", c)
            all_classes.append(c)
        if level < depth:
            for i in range(rng.randint(0, 2)):
                p.add("packages", package(f"p{i}", level + 1))
        return p

    for i in range(rng.randint(1, 3)):
        model.add("packages", package(f"p{i}", 0))
    for c in all_classes:
        if rng.random() < 0.6:
            c.set("super", rng.choice(all_classes))
    return Model(model, target)


class TestReverseAgainstReference:
    """transform_model_to_ast gives the same AST (as a dump) and the same
    diagnostics as the recursive reverse it replaced."""

    def test_random_selfhost_models(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        rng = random.Random(7)
        for _ in range(40):
            m = _random_target_model(rng, target, ast)
            ref, ref_diags = ref_model_to_ast(m, plan, registry)
            assert _reverse_outcome(m, plan, registry) == (dump_model(ref), sorted(ref_diags))

    def test_random_package_trees(self, nested_lang):
        target, g, plan, registry = nested_lang
        rng, unnamed = random.Random(11), 0
        for _ in range(40):
            m = _package_tree(rng, target, rng.randint(0, 4))
            ref, ref_diags = ref_model_to_ast(m, plan, registry)
            assert _reverse_outcome(m, plan, registry) == (dump_model(ref), sorted(ref_diags))
            unnamed += bool(ref_diags)
            if all(o.is_set("name") for o in Tree(m.root).objects[1:]):
                assert model_equals(parse_text(render_ast(ref, g), g),
                                    transform_model_to_ast(m, plan, registry)[0])
        assert 0 < unnamed < 40


def deep_packages(target) -> Model:
    """Packages 4,999 deep hold a class that a class of the outermost
    package extends."""
    pkg_cls, class_cls = target.classifier("Package"), target.classifier("Class")
    inner = ModelObject(class_cls, name="Inner")
    outer = ModelObject(class_cls, name="Outer", super=inner)
    top = p = ModelObject(pkg_cls, name="p0", classes=[outer])
    for i in range(1, 4999):
        q = ModelObject(pkg_cls, name=f"p{i}")
        p.add("packages", q)
        p = q
    p.add("classes", inner)
    return Model(ModelObject(target.classifier("Model"), packages=[top]), target)


class TestReverseStack:
    def test_5000_deep_packages(self, nested_lang):
        """The walk and the namer take no Python stack per level of
        deep_packages, and the 5,000-segment name renders."""
        target, g, plan, registry = nested_lang
        m = deep_packages(target)
        ast_model, diags = transform_model_to_ast(m, plan, registry)
        assert diags == []
        name = [f"p{i}" for i in range(4999)] + ["Inner"]
        super_name = ast_model.root.values("packages")[0].values("classes")[0].get("super")
        assert flatten_payload(super_name) == name
        text = render_ast(ast_model, g)
        assert "class Outer extends " + " :: ".join(name) + " ;" in text


class TestForwardStack:
    def test_5000_deep_packages(self, nested_lang):
        """deep_packages rendered and parsed back transforms to a model equal
        to it: building the target takes no Python stack per level."""
        target, g, plan, registry = nested_lang
        m = deep_packages(target)
        text = render_ast(transform_model_to_ast(m, plan, registry)[0], g)
        model, diags = transform_ast_to_model(parse_text(text, g), plan, registry)
        assert diags == []
        assert model_equals(model, m)


def package_nest(n):
    """Packages n deep, each holding one class that extends the class of
    the package around it."""
    return "".join(f"package p{i} {{ " for i in range(n)) + "".join(
        f"class C{i} extends C{i - 1} ; }} " if i else "class C0 ; }"
        for i in reversed(range(n)))


class TestForwardDepth:
    def test_peak_memory_is_linear_in_depth(self, nested_lang):
        """The forward keeps nothing per AST object that grows with its
        depth: its traced peak at 5,000 levels is at most 2.5 times its
        peak at 2,500 levels."""
        import tracemalloc
        target, g, plan, registry = nested_lang
        peaks = []
        for n in (2500, 5000):
            ast_model = parse_text(package_nest(n), g)
            tracemalloc.start()
            try:
                model, diags = transform_ast_to_model(ast_model, plan, registry)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert diags == []
            inner = model.root.values("packages")[0]
            for _ in range(n - 1):
                inner = inner.values("packages")[0]
            assert inner.values("classes")[0].get("super").get("name") == f"C{n - 2}"
        assert peaks[1] <= 2.5 * peaks[0], peaks


def forward_counts(ast_model, plan, registry) -> tuple:
    """The number of meta.Trees built and of _validate calls made by a
    forward of ``ast_model``, with the model and the diagnostics it gives."""
    import mmdsl.transform
    trees, checks = [], []
    init, check = Tree.__init__, mmdsl.transform._validate
    with mock.patch.object(Tree, "__init__", lambda *a: trees.append(1) or init(*a)), \
            mock.patch.object(mmdsl.transform, "_validate",
                              lambda *a: checks.append(1) or check(*a)):
        model, diags = transform_ast_to_model(ast_model, plan, registry)
    return len(trees), len(checks), model, diags


def builds_and_validates(ast_model, plan, registry) -> tuple[int, int]:
    """The number of meta.Trees built and of _validate calls made by a
    forward of ``ast_model`` that reports nothing and makes a valid model."""
    trees, checks, model, diags = forward_counts(ast_model, plan, registry)
    assert diags == [] and validate_model(model) == []
    return trees, checks


class TestForwardLookups:
    def test_one_tree_and_one_resolver_lookup_per_feature(self, css, selfhost, monkeypatch):
        """A forward run asks the registry for the resolver of each (AST
        class, feature) once. Both runs bind and check their target as the
        build makes it, so neither builds a meta.Tree: the selfhost run from
        its mapped root, the css run from its proven root constructor and
        placer."""
        runs = [(parse_text((SAMPLES / text).read_text(), lang[4]), lang[5], lang[6])
                for lang, text in ((css, "css/grouped.css"), (selfhost, "selfhost/xf.xf"))]
        trees, lookups = [], []
        init, resolver_for = Tree.__init__, ResolverRegistry.resolver_for
        monkeypatch.setattr(Tree, "__init__", lambda *a: trees.append(1) or init(*a))
        monkeypatch.setattr(ResolverRegistry, "resolver_for",
                            lambda self, *key: lookups.append(key) or resolver_for(self, *key))
        counts = []
        for ast_model, plan, registry in runs:
            trees.clear()
            lookups.clear()
            model, diags = transform_ast_to_model(ast_model, plan, registry)
            assert diags == []
            assert len(lookups) == len(set(lookups))
            counts.append(len(trees))
        assert lookups  # the selfhost script resolves references
        assert counts == [0, 0]
        monkeypatch.undo()
        assert validate_model(model) == []

    @pytest.mark.parametrize("name", ["grouped.css", "split.css"])
    def test_a_valid_css_forward_builds_no_tree_and_validates_nothing(self, css, name):
        target, t, ast, trace, g, plan, registry = css
        ast_model = parse_text((SAMPLES / "css" / name).read_text(), g)
        assert builds_and_validates(ast_model, plan, registry) == (0, 0)

    def test_a_valid_forward_builds_no_tree_and_validates_nothing(self, selfhost, monkeypatch):
        """A valid selfhost script of 5 or of 40 statements transforms
        without a meta.Tree and without a call of _validate."""
        import mmdsl.transform
        target, t, ast, trace, g, plan, registry = selfhost
        statements = ["create class C{i} extends EClass {{ attr String [ 0 .. 3 ] x ; "
                      "val EClass y ; }}", "refer img(Action)+ as QualifiedName ;",
                      "skip Action ;"]
        trees, checks = [], []
        init, check = Tree.__init__, mmdsl.transform._validate
        monkeypatch.setattr(Tree, "__init__", lambda *a: trees.append(1) or init(*a))
        monkeypatch.setattr(mmdsl.transform, "_validate",
                            lambda *a: checks.append(1) or check(*a))
        for n in (5, 40):
            ast_model = parse_text("\n".join(statements[i % 3].format(i=i) for i in range(n)), g)
            model, diags = transform_ast_to_model(ast_model, plan, registry)
            assert diags == [] and len(model.root.values("actions")) == n
            assert (trees, checks) == ([], [])
        monkeypatch.undo()
        assert validate_model(model) == []

    def test_a_name_after_the_containments_binds_in_the_build(self):
        """A class whose name attribute follows its containments still
        binds and checks its objects as the build makes them, since the
        build writes copies first."""
        target = parse_metamodel(
            "class Item { val Item[*] kids; ref Item link; attr String name; }", "late")
        ast, trace = derive_ast_metamodel(
            target, parse_transformation("refer img(Item) as String;", target))
        g = parse_grammar(
            'ItemAS : "item" "{" ( kids += ItemAS )* ( "->" link = ID )? "}" name = ID ;', ast)
        plan, registry = build_plan(trace, target, ast), namespace_registry({}, target, ast)
        ast_model = parse_text("item { item { } b item { -> b } c } a", g)
        assert builds_and_validates(ast_model, plan, registry) == (0, 0)

    def test_a_flatten_seals_the_payload_features(self):
        string = builtin_ecore().classifier("String")
        qn = MetaClass("QN", features=[MetaAttribute("name", 0, 1, type=string)])
        obj = ModelObject(qn, name="a")
        assert flatten_payload(obj) == ["a"]
        sub = MetaReference("sub", 0, 1, type=qn, containment=True)
        with pytest.raises(AttributeError):
            qn.features.append(sub)
        with pytest.raises(AttributeError):
            qn.features = [*qn.features, sub]
        assert flatten_payload(obj) == ["a"] and qn.find_feature("sub") is None


class TestReverseUnvalidated:
    """A model validate_model rejects reverses to diagnostics, not a
    traceback: on a value of a containment or cross slot that is no object,
    or an object contained twice, the reverse raises exactly
    validate_model's diagnostics for the model."""

    def diagnostics(self, m, plan, registry):
        with pytest.raises(DiagnosticError) as exc:
            transform_model_to_ast(m, plan, registry)
        got = [(d.code, d.message, d.path) for d in exc.value.diagnostics]
        assert got == [(d.code, d.message, d.path) for d in validate_model(m)]
        return got

    def test_non_objects(self, selfhost):
        target, t, ast, trace, g, plan, registry = selfhost
        m = load_model("Transformation #1 { actions = [ SkipClass #2 { target = 5 }, 7, "
                       'SkipClass #3 { target = "x" } ] }', target)
        assert self.diagnostics(m, plan, registry) == [
            ("model-kind", "Transformation.actions: expected an object, found 7", "/"),
            ("model-kind", "SkipClass.target: expected an object, found 5", "/actions[0]"),
            ("model-kind", "SkipClass.target: expected an object, found 'x'", "/actions[2]")]

    def test_containment_cycle(self, nested_lang):
        target, g, plan, registry = nested_lang
        p = ModelObject(target.classifier("Package"), name="p")
        p.slots["packages"] = [p]
        m = Model(ModelObject(target.classifier("Model"), packages=[p]), target)
        assert self.diagnostics(m, plan, registry) == [
            ("model-containment", "object of class Package is contained more than once",
             "/packages[0]")]

    def test_a_many_valued_slot_without_a_list(self, nested_lang):
        """A string in a many-valued slot is not read as its characters."""
        target, g, plan, registry = nested_lang
        m = Model(ModelObject(target.classifier("Model"), packages=[]), target)
        m.root.slots["packages"] = "abc"
        assert self.diagnostics(m, plan, registry) == [
            ("model-kind", "Model.packages: expected a list, found 'abc'", "/")]


def test_model_to_ast_makes_no_lookup_by_name(css, selfhost, monkeypatch):
    """transform_model_to_ast reads and writes slots through the features
    the plan's instructions hold: reversing the sample models calls
    MetaClass.find_feature not once. The CSS root has no image, so each of
    its Declarations is also reversed as a model of its own."""
    ctarget, _, _, _, cg, cplan, cregistry = css
    target, t, ast, trace, g, plan, registry = selfhost
    models = [(transformation_to_model(t, target, ast), plan, registry)]
    css_roots = []
    for name in ("grouped.css", "split.css"):
        m, diags = transform_ast_to_model(parse_text((SAMPLES / "css" / name).read_text(), cg),
                                          cplan, cregistry)
        assert not diags
        css_roots.append(m)
        models += [(Model(d, ctarget), cplan, cregistry)
                   for s in m.root.values("selectors") for d in s.values("declarations")]
    calls = []
    find = MetaClass.find_feature
    monkeypatch.setattr(MetaClass, "find_feature",
                        lambda cls, name: calls.append(name) or find(cls, name))
    reversed_models = [transform_model_to_ast(*args) for args in models]
    refused = []
    for m in css_roots:
        with pytest.raises(DiagnosticError) as exc:
            transform_model_to_ast(m, cplan, cregistry)
        refused += [d.code for d in exc.value.diagnostics]
    monkeypatch.undo()
    assert calls == []
    assert refused == ["reverse-unsupported"] * 2 and len(models) > 3
    assert [(dump_model(a), diags) for a, diags in reversed_models] == [
        (dump_model(ref_model_to_ast(*args)[0]), []) for args in models]


@contextmanager
def time_bound(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def bounded_outcome(fn, *args):
    """``fn``'s result, or the diagnostics it raised, within a time bound."""
    with time_bound(5):
        try:
            return "ok", fn(*args)
        except DiagnosticError as exc:
            return "diagnostics", exc.diagnostics


def corruption_sites(root):
    """Each (object, feature, corruption) that one-slot corruptions of the
    tree below ``root`` can take, with the object's ancestors, itself
    first: a scalar in a many-valued slot, a list in a single-valued one,
    a non-object in a reference and an ancestor in a containment slot."""
    tree, sites = Tree(root), []
    for obj in tree.objects:
        chain, up = [], obj
        while up is not None:
            chain.append(up)
            up = tree.container(up)
        for f in obj.cls.all_features():
            kinds = ["scalar" if f.many else "list"] + ["non-object"] * (not f.is_attribute) + \
                ["ancestor"] * f.containment
            sites += [(obj, f, kind, chain) for kind in kinds]
    return sites


def corrupt_one_slot(data, m):
    """Corrupt one slot of model ``m``, drawn from corruption_sites."""
    obj, f, kind, chain = data.draw(st.sampled_from(corruption_sites(m.root)), label="site")
    objects = Tree(m.root).objects
    if kind == "scalar":
        value = data.draw(st.sampled_from([5, 0, "abc", "", True, 2.5, "an object"]))
        obj.slots[f.name] = objects[-1] if value == "an object" else value
    elif kind == "list":
        obj.slots[f.name] = [obj.slots.get(f.name, "x")]
    else:
        value = data.draw(st.sampled_from([5, "x", 2.5]) if kind == "non-object"
                          else st.sampled_from(chain))
        if f.many:
            values = list(obj.slots.get(f.name, []))
            values.insert(data.draw(st.integers(0, len(values))), value)
            obj.slots[f.name] = values
        else:
            obj.slots[f.name] = value


SAMPLE_TEXTS = {"css": "grouped.css", "selfhost": "xf.xf"}


class TestOneModelCheck:
    """validate_model words every problem of a model; the walkers that read
    a caller's model unchecked only detect one where they read it. On a
    sample model with one slot corrupted, every entry point returns or
    raises DiagnosticError, in time, and every model-* diagnostic it gives
    is one validate_model gives for the model it was handed."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_one_corrupted_slot(self, css, selfhost, data):
        name = data.draw(st.sampled_from(sorted(SAMPLE_TEXTS)), label="language")
        target, _, ast, _, g, plan, registry = css if name == "css" else selfhost
        text = (SAMPLES / name / SAMPLE_TEXTS[name]).read_text()
        ast_model = parse_text(text, g)
        on_ast = data.draw(st.booleans(), label="corrupt the AST")
        m = ast_model if on_ast else transform_ast_to_model(ast_model, plan, registry)[0]
        fresh = parse_text(text, g) if on_ast else \
            transform_ast_to_model(parse_text(text, g), plan, registry)[0]
        corrupt_one_slot(data, m)
        found = bounded_outcome(validate_model, m)
        assert found[0] == "ok" and found[1]
        words = {(d.code, d.message, d.path) for d in found[1]}
        calls = [(iter_tree, m.root), (dump_model, m), (model_equals, m, m),
                 (model_equals, m, fresh), (model_equals, fresh, m)]
        calls += [(render_ast, m, g), (transform_ast_to_model, m, plan, registry)] if on_ast \
            else [(transform_model_to_ast, m, plan, registry)]
        for fn, *args in calls:
            got = bounded_outcome(fn, *args)
            if fn is model_equals:
                assert got[0] == "ok" and type(got[1]) is bool
            diags = got[1] if got[0] == "diagnostics" else \
                got[1][1] if fn in (transform_ast_to_model, transform_model_to_ast) else []
            assert {(d.code, d.message, d.path) for d in diags
                    if d.code.startswith("model-")} <= words, fn.__name__

    def test_a_containment_cycle_in_the_ast_ends(self, selfhost):
        """The forward enters each AST object once, so a cycle stops it."""
        target, _, ast, _, g, plan, registry = selfhost
        m = parse_text((SAMPLES / "selfhost" / "xf.xf").read_text(), g)
        m.root.slots["actions"].insert(1, m.root)
        with time_bound(5), pytest.raises(DiagnosticError) as exc:
            transform_ast_to_model(m, plan, registry)
        assert exc.value.diagnostics == validate_model(m)
        assert [(d.code, d.path) for d in exc.value.diagnostics][:1] == [("model-containment", "/")]


# ---------------------------------------------------------------------------
# The forward as it was before the build bound and checked the target


def ref_make_namespace(registry):
    """The seeding that ResolverRegistry.make_namespace replaced: one
    setdefault per seeded classifier and scope, on every run."""
    ns = Namespace()
    for kind, mm in registry._seed_metamodels:
        scopes = (ns.root, ns.root.child("ecore")) if kind == "ecore" else (ns.root,)
        for c in mm.classifiers:
            for scope in scopes:
                scope.bindings.setdefault(c.name, classifier_object(c))
    return ns


class _RefForward:
    """The build and the bind that transform_ast_to_model replaced: the
    build makes the target on an explicit stack through the plan's
    instructions, then one Tree of the target binds every named object."""

    def __init__(self, plan, registry):
        self.plan, self.registry = plan, registry
        self.ns = ref_make_namespace(registry)
        self.contexts, self.slots, self.scopes, self.resolvers = [], [], {}, {}
        self.entered = set()

    def build(self, ast_root):
        plan, proto_for_image, entered = self.plan, self.plan.proto_for_image, self.entered
        troot = ModelObject(proto_for_image[ast_root.cls.name])
        stack = [(ast_root, troot, 0)]
        while stack:
            ast_obj, tobj, at = stack.pop()
            slots, instrs = tobj.slots, plan.instructions_for(ast_obj.cls)
            for i in range(at, len(instrs)):
                instr = instrs[i]
                f, tf = instr.image_feature, instr.target_feature
                values = ast_obj.values_of(f)
                if f.many and type(values) is not list and values != ():
                    raise TypeError(values)
                if not values:
                    continue
                if instr.kind == "copy":
                    slots[tf.name] = list(values) if f.many or tf.many else values[0]
                elif instr.kind == "containment":
                    n = len(entered)
                    entered.update(values)
                    if len(entered) != n + len(values):
                        raise TypeError(values)
                    children = [ModelObject(proto_for_image[c.cls.name]) for c in values]
                    slots[tf.name] = children if tf.many else children[0]
                    stack.append((ast_obj, tobj, i + 1))
                    stack += [(c, t, 0) for c, t in zip(reversed(values), reversed(children))]
                    break
                else:
                    key = (ast_obj.cls, f.name)
                    resolver = self.resolvers.get(key)
                    if resolver is None:
                        resolver = self.resolvers[key] = self.registry.resolver_for(*key)
                    start = len(self.contexts)
                    self.contexts += [ResolutionContext(ast_obj, tobj, tf, p, instr.textual,
                                                        self.ns) for p in values]
                    self.slots.append((tobj, tf, resolver, start, len(self.contexts)))
        return troot

    def bind(self, troot):
        tree = Tree(troot)
        attr, scope_classes = self.registry.name_attribute, self.registry.scope_classes
        inner, named = {}, {}
        for obj in tree.objects:
            container = tree.container(obj)
            scope = self.scopes[obj] = self.ns.root if container is None else inner[container]
            name = obj.slots.get(attr)
            if name is not None and obj.cls not in named:
                feat = obj.cls.find_feature(attr)
                named[obj.cls] = feat is not None and feat.is_attribute
            if name is not None and named[obj.cls]:
                scope.bindings.setdefault(name, obj)
                if obj.cls.name in scope_classes:
                    scope = scope.child(name)
            inner[obj] = scope
        return tree


@rejecting
def ref_transform_ast_to_model(ast_model, plan, registry):
    """transform_ast_to_model as it was: build, bind on a Tree of the
    target, resolve, and validate the target on that Tree whenever no
    error came before."""
    diags = []
    run = _RefForward(plan, registry)
    ns, entered = run.ns, run.entered
    root = ast_model.root
    root_candidate, consume_queue = None, deque()
    if plan.is_mapped(root.cls):
        troot = run.build(root)
    elif plan.is_consume_only(root.cls):
        mapped_children = [c for f in root.cls.containments() for c in root.values_of(f)
                           if plan.is_mapped(c.cls)]
        if len(mapped_children) == 1:
            root_candidate = mapped_children[0]
            entered.add(root_candidate)
            troot = run.build(root_candidate)
        elif not mapped_children and registry.root_constructor is not None:
            troot = registry.root_constructor()
        else:
            raise DiagnosticError([error(
                "resolve", "resolve-root",
                f"consume-only root {root.cls.name!r} has {len(mapped_children)} mapped "
                f"subtree(s) and no root constructor covers this case")])
        consume_queue.append(root)
    else:
        raise DiagnosticError([error("resolve", "resolve-root",
                                     f"AST root class {root.cls.name!r} is not in the plan")])
    while consume_queue:
        ast_obj = consume_queue.popleft()
        if ast_obj in entered:
            raise TypeError(ast_obj)
        entered.add(ast_obj)
        placer = registry.placers.get(ast_obj.cls.name)
        placement = None
        for f in ast_obj.cls.containments():
            for child in ast_obj.values_of(f):
                if plan.is_consume_only(child.cls):
                    consume_queue.append(child)
                elif child is root_candidate and ast_obj is root:
                    continue
                elif plan.is_mapped(child.cls):
                    if child in entered:
                        raise TypeError(child)
                    entered.add(child)
                    if placer is None:
                        diags.append(error(
                            "resolve", "resolve-no-rule",
                            f"no placement for {child.cls.name} objects under consume-only "
                            f"{ast_obj.cls.name}", path="/"))
                        continue
                    if placement is None:
                        placement = placer(_PlacementContext(ast_obj, troot, ns, diags)) or False
                    if placement is False:
                        continue
                    container, feature_name = placement
                    container.slots.setdefault(feature_name, []).append(run.build(child))
    tree = run.bind(troot)
    contexts = run.contexts
    resolved = [None] * len(contexts)
    deferred, failed = [], []
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
    for resolver, i in deferred:
        result = resolver(contexts[i])
        resolved[i] = _settle(contexts[i], None if result is DEFER else result, failed)
    diags.extend(error("resolve", code, message, path=tree.path(tobj) or "/")
                 for tobj, code, message in failed)
    for tobj, tf, _, start, stop in run.slots:
        values = [v for v in resolved[start:stop] if v is not None]
        if values:
            tobj.slots[tf.name] = values if tf.many else values[0]
    diags.extend(ns.diagnostics)
    model = Model(troot, plan.target)
    if not any(d.severity == "error" for d in diags):
        if any(tf.containment for _, tf, *_ in run.slots):
            tree = Tree(troot)
        if problems := _validate(model, tree):
            raise_any(validate_model(ast_model))
        diags.extend(problems)
    return model, diags


def _label(obj):
    """What a resolver returned, or a scope binds, in terms two runs share."""
    if obj is DEFER or obj is None:
        return "DEFER" if obj is DEFER else None
    if not isinstance(obj, ModelObject):
        return type(obj).__name__
    if obj.represents is not None:
        return "stand-in", id(obj.represents)
    name = obj.slots.get("name")
    return obj.cls.name, name if isinstance(name, str) else None


def forward_outcome(fn, ast_model, plan, registry):
    """What forward ``fn`` makes of ``ast_model``: its outcome (a model and
    its (code, message, path) diagnostics, the diagnostics it raised, or
    the type of what else it raised), each resolver call (the AST object,
    the target class and feature, the scope path and the result), and the
    scope tree of its namespace, bound objects labelled."""
    calls, spaces = [], []
    reg = copy.copy(registry)

    def recording(resolver):
        def recorded(ctx):
            result = resolver(ctx)
            calls.append((id(ctx.ast_object), ctx.target_object.cls.name, ctx.target_feature.name,
                          None if ctx.scope is None else _scope_key(ctx.scope), _label(result)))
            return result
        return recorded

    reg.resolvers = {key: recording(r) for key, r in registry.resolvers.items()}
    reg.default_resolver = recording(registry.default_resolver)
    init = Namespace.__init__
    with mock.patch.object(Namespace, "__init__", lambda ns: spaces.append(ns) or init(ns)), \
            time_bound(5):
        try:
            model, diags = fn(ast_model, plan, reg)
            outcome = ("ok", model, [(d.code, d.message, d.path) for d in diags])
        except DiagnosticError as exc:
            outcome = ("diagnostics", None, [(d.code, d.message, d.path) for d in exc.diagnostics])
        except (AttributeError, LookupError, TypeError) as exc:
            outcome = ("raised", None, type(exc).__name__)
    scopes, stack = {}, [spaces[-1].root]  # the run's namespace is the last made
    while stack:
        scope = stack.pop()
        scopes[_scope_key(scope)] = {name: _label(obj) for name, obj in scope.bindings.items()}
        stack.extend(scope.children.values())
    return outcome, calls, scopes


def assert_same_forward(ast_model, plan, registry):
    """transform_ast_to_model gives ``ast_model`` what ref_transform_ast_to_model
    gives it: an equal model, the same diagnostics in the same order, the
    same resolver calls and, where it returns, the same scope tree."""
    (kind, model, said), calls, scopes = forward_outcome(
        transform_ast_to_model, ast_model, plan, registry)
    (ref_kind, ref_model, ref_said), ref_calls, ref_scopes = forward_outcome(
        ref_transform_ast_to_model, ast_model, plan, registry)
    assert (kind, said) == (ref_kind, ref_said)
    assert calls == ref_calls
    if kind == "ok":
        assert model_equals(model, ref_model) and model_equals(ref_model, model)
        assert scopes == ref_scopes
    return kind, said


SCRIPT_NAMES = ["EClass", "ecore::EClass", "EDataType", "String", "ecore::String", "int",
                "Transformation", "Action", "CreateClass", "CreateClassAS", "QualifiedName",
                "A", "B", "Ghost", "ecore::Ghost", "A::B"]
qnames = st.sampled_from(SCRIPT_NAMES)
script_features = st.builds(
    lambda kind, tp, bounds, name: f"{kind} {tp}{bounds} {name} ;",
    st.sampled_from(["attr", "val", "ref"]), qnames,
    st.sampled_from(["", " [ 0 .. 3 ]", " [ 2 .. 1 ]"]), st.sampled_from(["x", "y"]))
statements = st.one_of(
    st.builds(lambda abstract, name, supers, features: (
        f"create {'abstract ' * abstract}class {name}"
        + (f" extends {', '.join(supers)}" if supers else "") + " { " + " ".join(features) + " }"),
        st.booleans(), st.sampled_from(["A", "B", "C"]), st.lists(qnames, max_size=2),
        st.lists(script_features, max_size=3)),
    st.builds(lambda m, plus, t: f"refer img({m}){'+' * plus} as {t} ;",
              qnames, st.booleans(), qnames),
    st.builds(lambda t, supers: f"make img({t}) extend {', '.join(supers) or 'nothing'} ;",
              qnames, st.lists(qnames, max_size=2)),
    st.builds(lambda t, plus: f"skip {t}{'+' * plus} ;", qnames, st.booleans()))
scripts = st.lists(statements, max_size=8).map("\n".join)


@pytest.fixture(scope="module")
def reorder_lang():
    """Item's image extends its prototype's supertypes in the other order,
    so Item's parts come before its tags in the AST, and after them in the
    target's preorder, which the build follows."""
    target = parse_metamodel(
        "class Root { val Item[*] items; }\n"
        "abstract class Named { attr String name; val Part[*] parts; }\n"
        "abstract class Tagged { val Tag[*] tags; ref Item link; }\n"
        "class Item extends Named, Tagged { }\n"
        "class Part { attr String name; }\n"
        "class Tag { attr String name; }\n", "reorder")
    t = parse_transformation("refer img(Item) as String;\n"
                             "make img(Item) extend Tagged, Named;\n", target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar(
        "RootAS : ( items += ItemAS )* ;\n"
        'ItemAS : "item" "{" ( tags += TagAS )* ( "->" link = ID )? name = ID '
        '( parts += PartAS )* "}" ;\n'
        'PartAS : "part" name = ID ";" ;\n'
        'TagAS : "tag" name = ID ";" ;\n', ast)
    plan = build_plan(trace, target, ast)
    registry = namespace_registry({"scope.classes": "Item, Tag"}, target, ast)
    return g, plan, registry


@pytest.fixture(scope="module")
def checked_lang():
    """A language whose valid ASTs may transform to invalid targets: Note's
    image drops the label its prototype requires, Item's image is looser
    than Item (an optional name, any number of kids), and a link named 'x'
    resolves to an Item outside the model. Item's tag follows its kids, and
    a registry may name objects by it."""
    target = parse_metamodel(
        "class Root { val Item[*] items; val Note[*] notes; }\n"
        "abstract class Labelled { attr String[1..1] label; }\n"
        "class Item { attr String[1..1] name; ref Item link; val Item[0..2] kids; "
        "attr String tag; }\n"
        "class Note extends Labelled { attr String name; }\n", "checked")
    t = parse_transformation("refer img(Item) as String;\nmake img(Note) extend nothing;\n",
                             target)
    derived, trace = derive_ast_metamodel(target, t)
    loose = print_metamodel(derived).replace("attr String[1] name", "attr String name")
    ast = parse_metamodel(loose.replace("ItemAS[0..2] kids", "ItemAS[*] kids"), "checked_ast")
    g = parse_grammar(
        "RootAS : ( items += ItemAS | notes += NoteAS )* ;\n"
        'ItemAS : "item" ( name = ID )? ( "->" link = ID )? ( "{" ( kids += ItemAS )* "}" )? '
        '( "#" tag = ID )? ;\n'
        'NoteAS : "note" name = ID ;\n', ast)
    plan = build_plan(trace, target, ast)
    outside = ModelObject(target.classifier("Item"), name="x")
    registries = []
    for attribute in ("name", "tag"):
        registry = namespace_registry({"scope.classes": "Item", "name.attribute": attribute},
                                      target, ast)
        base = registry.default_resolver
        registry.on("ItemAS", "link",
                    lambda ctx, base=base: outside if ctx.segments() == ["x"] else base(ctx))
        registries.append(registry)
    return g, plan, registries


@pytest.fixture(scope="module")
def foreign_lang():
    """Part's image extends Tagged's, which Part does not extend, so the
    build writes a Part's tags into a slot that Part lacks. No Tree of the
    target reaches them, so they bind nowhere."""
    target = parse_metamodel(
        "class Root { val Part[*] parts; val Use[*] uses; }\n"
        "abstract class Named { attr String name; }\n"
        "abstract class Tagged { val Tag[*] tags; }\n"
        "class Part extends Named { }\n"
        "class Tag { attr String name; }\n"
        "class Use { ref Tag target; }\n", "foreign")
    t = parse_transformation("refer img(Tag) as String;\n"
                             "make img(Part) extend Tagged, Named;\n", target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar(
        "RootAS : ( parts += PartAS | uses += UseAS )* ;\n"
        'PartAS : "part" name = ID ( tags += TagAS )* ;\n'
        'TagAS : "tag" name = ID ";" ;\n'
        'UseAS : "ref" target = ID ;\n', ast)
    return g, build_plan(trace, target, ast), namespace_registry({}, target, ast)


small_names = st.sampled_from(["a", "b", "c"])
optional_names = st.sampled_from(["a", "b", "c", None])
items = st.recursive(
    st.builds(lambda name: f"item {name}", small_names),
    lambda inner: st.builds(
        lambda name, link, kids, tag: f"item {name or ''}" + (f" -> {link}" if link else "")
        + " { " + " ".join(kids) + " }" + (f" # {tag}" if tag else ""),
        optional_names, st.one_of(st.none(), st.sampled_from(["a", "b", "x", "z"])),
        st.lists(inner, max_size=4), optional_names), max_leaves=10)
checked_texts = st.builds(lambda its, notes: " ".join(its + [f"note {n}" for n in notes]),
                          st.lists(items, max_size=3), st.lists(small_names, max_size=1))
reorder_texts = st.lists(st.builds(
    lambda tags, link, name, parts: "item { " + "".join(f"tag {x} ; " for x in tags)
    + (f"-> {link} " if link else "") + f"{name} " + "".join(f"part {x} ; " for x in parts) + "}",
    st.lists(small_names, max_size=2), st.one_of(st.none(), small_names), small_names,
    st.lists(small_names, max_size=2)), max_size=4).map(" ".join)
foreign_texts = st.lists(st.one_of(
    st.builds(lambda name, tags: f"part {name} " + "".join(f"tag {x} ; " for x in tags),
              small_names, st.lists(small_names, max_size=2)),
    st.builds(lambda name: f"ref {name}", small_names)), max_size=5).map(" ".join)
css_texts = st.lists(st.builds(
    lambda sel, decls: f".{sel} {{ " + "".join(f'{p} : "{v}" ; ' for p, v in decls) + "}",
    small_names, st.lists(st.tuples(small_names, small_names), max_size=3)),
    max_size=5).map("\n".join)


class TestForwardAgainstReference:
    """The build that binds and checks as it writes gives what the build,
    the bind on a Tree and the validation that always ran gave."""

    @settings(max_examples=150, deadline=None)
    @given(scripts)
    def test_selfhost_scripts(self, selfhost, text):
        target, t, ast, trace, g, plan, registry = selfhost
        assert_same_forward(parse_text(text, g), plan, registry)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_selfhost_asts(self, selfhost, seed):
        target, t, ast, trace, g, plan, registry = selfhost
        assert_same_forward(generate_random_model(g, random.Random(seed), 4), plan, registry)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupted_asts(self, css, selfhost, data):
        name = data.draw(st.sampled_from(sorted(SAMPLE_TEXTS)), label="language")
        target, _, ast, _, g, plan, registry = css if name == "css" else selfhost
        m = parse_text((SAMPLES / name / SAMPLE_TEXTS[name]).read_text(), g)
        corrupt_one_slot(data, m)
        assert_same_forward(m, plan, registry)

    @settings(max_examples=100, deadline=None)
    @given(reorder_texts)
    def test_a_change_that_reorders_features(self, reorder_lang, text):
        g, plan, registry = reorder_lang
        assert_same_forward(parse_text(text, g), plan, registry)

    def test_a_reordered_target_binds_in_its_build(self, reorder_lang):
        g, plan, registry = reorder_lang
        text = "item { tag a ; -> b a part c ; } item { b part d ; }"
        assert builds_and_validates(parse_text(text, g), plan, registry) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(checked_texts, st.integers(0, 1))
    @example("item a { item b item c item a }", 0)  # kids past their bound
    @example("item { item b } # a item a", 0)  # an unnamed item; a tag after its kids
    @example("item a -> x item b", 0)  # a link outside the model
    def test_targets_a_valid_ast_leaves_invalid(self, checked_lang, text, which):
        g, plan, registries = checked_lang
        assert_same_forward(parse_text(text, g), plan, registries[which])

    @pytest.mark.parametrize("which, text", [
        (0, "item a { item b # t item c -> b } # u item d -> a"),
        (1, "item a { item b # t item c -> t # v } # u item d -> u # w")])
    def test_a_valid_target_binds_in_its_build(self, checked_lang, which, text):
        """Item's tag, copied after its kids in the AST, binds in the build
        as its name does."""
        g, plan, registries = checked_lang
        assert builds_and_validates(parse_text(text, g), plan, registries[which]) == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(foreign_texts)
    @example("part p tag t ; ref t")  # a tag that no Tree reaches
    def test_a_supertype_the_prototype_lacks(self, foreign_lang, text):
        g, plan, registry = foreign_lang
        assert_same_forward(parse_text(text, g), plan, registry)

    @settings(max_examples=100, deadline=None)
    @given(css_texts)
    def test_the_css_placer(self, css, text):
        target, t, ast, trace, g, plan, registry = css
        assert_same_forward(parse_text(text, g), plan, registry)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_package_scopes(self, nested_lang, seed):
        target, g, plan, registry = nested_lang
        rng = random.Random(seed)
        m = _package_tree(rng, target, rng.randint(0, 3))
        for obj in Tree(m.root).objects[1:]:
            obj.slots.setdefault("name", "C0")  # a name bound first wins
        text = render_ast(transform_model_to_ast(m, plan, registry)[0], g)
        assert_same_forward(parse_text(text, g), plan, registry)


@pytest.fixture(scope="module")
def file_lang():
    """A consume-only File holds the mapped Model bodies and consume-only
    Groups of items, which no placer places."""
    target = parse_metamodel("class Model { val Item[*] items; }\n"
                             "class Item { attr String name; ref Item link; }\n", "files")
    t = parse_transformation(
        "create class File { attr String title; val Model[*] bodies; val Group[*] groups; }\n"
        "create class Group { attr String name; val Item[*] items; }\n"
        "refer img(Item) as String;\n", target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar(
        'File : "file" title = ID ( bodies += ModelAS )* ( groups += Group )* ;\n'
        'ModelAS : "{" ( items += ItemAS )* "}" ;\n'
        'ItemAS : "item" name = ID ( "->" link = ID )? ";" ;\n'
        'Group : "group" name = ID "{" ( items += ItemAS )* "}" ;\n', ast)
    return g, build_plan(trace, target, ast), namespace_registry({}, target, ast)


class TestConsumeOnlyRoots:
    """The forward's root cases other than a mapped root, against the oracle."""

    def test_one_mapped_subtree_becomes_the_root(self, file_lang):
        g, plan, registry = file_lang
        ast_model = parse_text("file f { item a -> b ; item b -> a ; }", g)
        assert assert_same_forward(ast_model, plan, registry) == ("ok", [])
        model, _ = transform_ast_to_model(ast_model, plan, registry)
        a, b = model.root.values("items")
        assert model.root.cls.name == "Model" and (a.get("link"), b.get("link")) == (b, a)

    @pytest.mark.parametrize("text, count", [("file f { } { item a ; }", 2), ("file f", 0)])
    def test_other_counts_of_mapped_subtrees(self, file_lang, text, count):
        """Two mapped subtrees, or none and no root.class: resolve-root."""
        g, plan, registry = file_lang
        assert assert_same_forward(parse_text(text, g), plan, registry) == ("diagnostics", [(
            "resolve-root", f"consume-only root 'File' has {count} mapped subtree(s) and no "
            f"root constructor covers this case", None)])

    def test_a_root_outside_the_plan(self, file_lang):
        g, plan, registry = file_lang
        stray = parse_metamodel("class Stray { }", "stray").classifier("Stray")
        ast_model = Model(ModelObject(stray), plan.ast)
        assert assert_same_forward(ast_model, plan, registry) == ("diagnostics", [(
            "resolve-root", "AST root class 'Stray' is not in the plan", None)])

    def test_a_mapped_child_without_a_placer(self, file_lang):
        """Each item of a Group, which no placer covers, is reported; the
        body still becomes the target."""
        g, plan, registry = file_lang
        text = "file f { item a ; } group g { item b ; item c -> a ; }"
        kind, said = assert_same_forward(parse_text(text, g), plan, registry)
        assert (kind, said) == ("ok", [(
            "resolve-no-rule", "no placement for ItemAS objects under consume-only Group",
            "/")] * 2)

    def test_the_root_subtree_held_again_below(self, file_lang):
        """The mapped subtree that becomes the root is entered like a placed
        child: held by a Group as well, it raises validate_model's
        diagnostics, where the Group skipped it."""
        g, plan, registry = file_lang
        m = parse_text("file f { item a ; } group g { item b ; }", g)
        m.root.slots["groups"][0].slots["items"].append(m.root.slots["bodies"][0])
        kind, said = assert_same_forward(m, plan, registry)
        assert kind == "diagnostics" and "model-containment" in [code for code, *_ in said]


PLACED_TARGET = ("class Sheet { val Group[*] groups; }\n"
                 "class Group { attr String name; val Item[*] items; }\n"
                 "class Item { attr String name; ref Item link; val Item[*] kids; }\n")


def placed_lang(target_text=PLACED_TARGET, key="String"):
    """A consume-only File of Blocks and Others, whose keyed items a placer
    merges into one Group per key under a Sheet that root.class makes; an
    item is named, may nest items and links to an item by a qualified name."""
    target = parse_metamodel(target_text, "placed")
    t = parse_transformation(
        "create class File { val Block[*] blocks; val Other[*] others; }\n"
        f"create class Block {{ attr {key} key; val Item[*] items; }}\n"
        f"create class Other {{ attr {key} key; val Item[*] items; }}\n"
        "create class QualifiedName { attr String name; val QualifiedName subQN; }\n"
        "refer img(Item) as QualifiedName;\nskip Sheet;\nskip Group;\n", target)
    ast, trace = derive_ast_metamodel(target, t)
    token = "ID" if key == "String" else "INT"
    g = parse_grammar(
        "File : ( blocks += Block | others += Other )* ;\n"
        f'Block : "block" key = {token} "{{" ( items += ItemAS )* "}}" ;\n'
        f'Other : "other" key = {token} "{{" ( items += ItemAS )* "}}" ;\n'
        'ItemAS : "item" name = ID ( "->" link = QualifiedName )? '
        '( "{" ( kids += ItemAS )* "}" )? ";" ;\n'
        'QualifiedName : name = ID ( "::" subQN = QualifiedName )? ;\n', ast)
    return target, ast, g, build_plan(trace, target, ast)


def placed_registry(lang, scopes="Group", placers=("Block",)):
    """namespace_registry of ``lang``: each of ``placers`` places its items
    into the Group of its key, and ``scopes`` are the scope classes."""
    config = {"root.class": "Sheet", "scope.classes": scopes}
    for c in placers:
        config.update({f"place.{c}.ensure": "Group", f"place.{c}.key": "key",
                       f"place.{c}.collection": "groups", f"place.{c}.children": "items"})
    return namespace_registry(config, lang[0], lang[1])


@pytest.fixture(scope="module")
def placed():
    """The placer language and its registries: one placer with Group a
    scope class or not, each with Item a scope class or not, and two
    placers into one scope-class Group."""
    lang = placed_lang()
    registries = [placed_registry(lang, scopes) for scopes in ("Group", "Group, Item", "", "Item")]
    return lang, registries + [placed_registry(lang, "Group", ("Block", "Other"))]


def _placed_item(item) -> str:
    name, link, kids = item
    return f"item {name}" + (f" -> {link}" if link else "") + (
        " { " + " ".join(map(_placed_item, kids)) + " }" if kids else "") + " ;"


placed_links = st.one_of(st.none(), st.sampled_from(
    ["a", "b", "c", "a::b", "b::a", "c::c", "a::b::c", "x"]))
placed_items = st.recursive(
    st.tuples(small_names, placed_links, st.just([])),
    lambda inner: st.tuples(small_names, placed_links, st.lists(inner, max_size=3)),
    max_leaves=8).map(_placed_item)
placed_texts = st.lists(st.builds(
    lambda kind, key, items: f"{kind} {key} {{ " + " ".join(items) + " }",
    st.sampled_from(["block", "block", "other"]), small_names,
    st.lists(placed_items, max_size=3)), max_size=5).map("\n".join)


class TestProvenPlacer:
    """A run from the builtin root constructor and placers that
    namespace_registry proved binds and checks its target in the build
    where the binding order cannot show, and gives what the build, the bind
    on a Tree and the validation that always ran gave."""

    def test_the_shipped_css_registry_is_proven(self, css):
        target, t, ast, trace, g, plan, registry = css
        assert registry._proven == {None: registry.root_constructor, **registry.placers}
        assert registry.binds_placed(plan) and copy.copy(registry).binds_placed(plan)

    @settings(max_examples=200, deadline=None)
    @given(placed_texts, st.integers(0, 4))
    @example("block a { item b -> a::c ; item c -> b ; } block b { item a -> a::b ; } "
             "block a { item c ; item d -> c ; }", 0)
    @example("block a { item a ; } block b { item a -> b ; item b -> a::a ; }", 2)
    @example("block a { item b ; } other b { item a -> b ; } block a { item c -> b ; }", 4)
    @example("block a { item b ; } block b { item c -> b ; }", 2)  # an item named as a later key
    def test_against_the_oracle(self, placed, text, which):
        """Keys repeat and interleave, items are named like keys and like
        each other, and links cross containers; Group is a scope class or
        not, and so is Item."""
        (target, ast, g, plan), registries = placed
        assert_same_forward(parse_text(text, g), plan, registries[which])

    def test_binds_in_the_build_where_the_order_cannot_show(self, placed):
        """A scope-class Group with one placer binds its items in their
        Group's own scope as the build makes them; where items bind in the
        namespace root, or two placers feed one scope, a Tree binds them."""
        (target, ast, g, plan), registries = placed
        text = "block a { item x -> y ; item y { item z ; } ; } block b { item w -> %s ; }"
        counts = [builds_and_validates(parse_text(text % link, g), plan, registry)
                  for link, registry in zip(["a::x", "a::x", "x", "x", "a::x"], registries)]
        assert counts == [(0, 0), (0, 0), (1, 1), (1, 1), (1, 1)]
        assert [registry.binds_placed(plan) for registry in registries] == \
            [True, True, False, False, False]

    @pytest.mark.parametrize("corrupt", [5, True, "an item"])
    def test_a_key_that_does_not_fit_is_detected(self, placed, corrupt):
        """A key value of a type the Group's name refuses makes the run
        validate, so the AST's own problem is reported, as by the oracle."""
        (target, ast, g, plan), registries = placed
        m = parse_text("block a { item b ; } block c { item d ; }", g)
        block = m.root.slots["blocks"][1]
        block.slots["key"] = block.slots["items"][0] if corrupt == "an item" else corrupt
        assert assert_same_forward(m, plan, registries[0])[0] == "diagnostics"

    def test_a_child_the_children_slot_refuses_is_detected(self, placed):
        """A placed child whose prototype the Group's items slot does not
        take makes the run validate, as the oracle does."""
        lang = placed_lang(PLACED_TARGET.replace("Item[*] items", "Note[*] items")
                           + "class Note { attr String name; }\n")
        g, plan = lang[2], lang[3]
        registry = placed_registry(lang)
        assert registry.binds_placed(plan)
        kind, said = assert_same_forward(parse_text("block a { item b ; }", g), plan, registry)
        assert kind == "ok" and [code for code, *_ in said] == ["model-kind"]


class TestUnprovenPlacer:
    """A user placer or root constructor, and a builtin one whose classes
    break a condition of the proof, keep the Tree path: bind on a Tree,
    then a full _validate; each agrees with the oracle."""

    TEXT = "block a { item b ; item c -> b ; } block d { item e -> a::b ; } block a { item f ; }"

    def test_a_user_placer(self, placed):
        (target, ast, g, plan), registries = placed
        group = target.classifier("Group")

        def one_group(ctx):
            found = ctx.namespace.resolve(ctx.namespace.root, ["all"])
            if found is None:
                found = ModelObject(group, name="all")
                ctx.target_root.add("groups", found)
                ctx.namespace.define([], "all", found)
            return found, "items"

        registry = copy.copy(registries[0])
        registry.placers = dict(registry.placers)
        registry.place("Block", one_group)
        ast_model = parse_text(self.TEXT.replace("a::b", "all::b"), g)
        assert not registry.binds_placed(plan)
        assert assert_same_forward(ast_model, plan, registry) == ("ok", [])
        assert builds_and_validates(ast_model, plan, registry) == (1, 1)

    def test_a_replaced_root_constructor(self, placed):
        (target, ast, g, plan), registries = placed
        registry = copy.copy(registries[0])
        registry.root_constructor = lambda: ModelObject(target.classifier("Sheet"))
        ast_model = parse_text(self.TEXT, g)
        assert not registry.binds_placed(plan)
        assert assert_same_forward(ast_model, plan, registry) == ("ok", [])
        assert builds_and_validates(ast_model, plan, registry) == (1, 1)

    @pytest.mark.parametrize("edit", [
        ("val Group[*] groups", "val Group[1..*] groups"),  # a mandatory collection
        ("val Item[*] items", "val Item[1..*] items"),  # mandatory children
    ])
    def test_a_bounded_collection_or_children(self, edit):
        lang = placed_lang(PLACED_TARGET.replace(*edit))
        g, plan, registry = lang[2], lang[3], placed_registry(lang)
        ast_model = parse_text(self.TEXT, g)
        assert not registry.binds_placed(plan)
        assert assert_same_forward(ast_model, plan, registry) == ("ok", [])
        assert builds_and_validates(ast_model, plan, registry) == (1, 1)

    @pytest.mark.parametrize("edit, key, codes", [
        (("class Sheet {", "class Sheet { attr String[1] title;"), "String",
         ["model-multiplicity"]),  # a mandatory-featured root class
        (("class Group {", "class Group { attr String[1] title;"), "String",
         ["model-multiplicity"] * 2),  # an ensure class with a required attribute
        (("", ""), "int", ["model-kind"] * 2),  # a key whose type does not fit the name
        (("val Item[*] items", "val Item items"), "String",
         ["model-kind"] * 2),  # single-valued children
        (("val Item[*] items", "ref Item[*] items"), "String",
         ["model-dangling"] * 4),  # children that are no containment
        (("val Group[*] groups", "ref Group[*] groups"), "String",
         ["model-dangling"] * 2),  # a collection that is no containment
    ])
    def test_an_unmet_condition(self, edit, key, codes):
        """The target is invalid, and the full validation says why: one
        _validate on the bind's Tree, then validate_model's Tree of the AST,
        which is valid. Objects left outside the containment tree compare
        by identity in model_equals, so there the models are compared by
        their diagnostics, resolver calls and scopes only."""
        lang = placed_lang(PLACED_TARGET.replace(*edit), key)
        g, plan, registry = lang[2], lang[3], placed_registry(lang)
        text = "block a { item b ; item c ; } block d { item e ; } block a { item f ; }"
        ast_model = parse_text(text if key == "String" else text.replace("a", "1")
                               .replace("d", "2"), g)
        assert not registry.binds_placed(plan)
        (kind, model, said), calls, scopes = forward_outcome(
            transform_ast_to_model, ast_model, plan, registry)
        (ref_kind, ref_model, ref_said), ref_calls, ref_scopes = forward_outcome(
            ref_transform_ast_to_model, ast_model, plan, registry)
        assert (kind, said, calls, scopes) == (ref_kind, ref_said, ref_calls, ref_scopes)
        assert (kind, [code for code, *_ in said]) == ("ok", codes)
        assert model_equals(model, ref_model) == (codes[0] != "model-dangling" and
                                                  edit[1] != "val Item items")
        trees, checks, model, diags = forward_counts(ast_model, plan, registry)
        assert (trees, checks, [d.code for d in diags]) == (2, 1, codes)

    def test_a_single_valued_collection(self):
        """A placer that could not add to the root's single-valued collection
        is refused once, at configuration."""
        lang = placed_lang(PLACED_TARGET.replace("val Group[*] groups", "val Group groups"))
        with pytest.raises(DiagnosticError) as exc:
            placed_registry(lang)
        assert [(d.code, d.message) for d in exc.value.diagnostics] == [
            ("config", "place.Block.collection: feature Sheet.groups is single-valued")]

    def test_an_abstract_root_class_is_refused(self):
        lang = placed_lang(PLACED_TARGET.replace("class Sheet", "abstract class Sheet"))
        with pytest.raises(DiagnosticError) as exc:
            placed_registry(lang)
        assert [d.code for d in exc.value.diagnostics] == ["config"]


class TestGeneratedBuilders:
    def test_builders_take_no_resume_point(self, selfhost, css, nested_lang, checked_lang):
        """Every generated builder takes (a, t, inner, run), and is a
        generator, which the trampoline runs, iff its class has a
        containment instruction: a leaf class's builder is a plain function."""
        import inspect
        plans = [selfhost[5], css[5], nested_lang[2], checked_lang[1]]
        kinds = set()
        for plan in plans:
            for name in plan.proto_for_image:
                build = plan.builder(name)
                contains = any(i.kind == "containment" for i in plan.instructions[name])
                assert tuple(inspect.signature(build).parameters) == ("a", "t", "inner", "run")
                assert inspect.isgeneratorfunction(build) == contains, name
                kinds.add(contains)
        assert kinds == {True, False}
