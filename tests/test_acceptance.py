"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import shutil
from pathlib import Path

import pytest

from mmdsl.cli import main as cli_main
from mmdsl.diagnostics import DiagnosticError
from mmdsl.emfatic import parse_metamodel, print_metamodel
from mmdsl.grammar import (
    generate_random_model, parse_grammar, parse_text, render_ast,
)
from mmdsl.meta import (
    MetaReference, builtin_ecore, classifier_object, model_equals, validate_model,
)
from mmdsl.transform import (
    build_plan, namespace_registry, parse_config, transform_ast_to_model,
    transform_model_to_ast,
)
from mmdsl.xf import (
    Transformation, derive_ast_metamodel, parse_transformation,
    transformation_to_model,
)
from metamodel_checks import metamodel_isomorphic

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDENS = ROOT / "tests" / "goldens"


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def selfhost():
    d = SAMPLES / "selfhost"
    target = parse_metamodel((d / "xf.mm").read_text(), "xf")
    t = parse_transformation((d / "xf.xf").read_text(), target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar((d / "xf.gr").read_text(), ast)
    plan = build_plan(trace, target, ast)
    registry = namespace_registry(parse_config((d / "ns.cfg").read_text()), target, ast)
    return d, target, t, ast, trace, g, plan, registry


def test_criterion_1_class_translation_golden():
    target = parse_metamodel(
        "abstract class Classifier { }\n"
        "class Class extends Classifier {\n"
        "    ref Class[*] super;\n"
        "    attr boolean abstract;\n"
        "    val StructuralFeature[*] structuralFeatures;\n"
        "}\n"
        "abstract class StructuralFeature { }\n", "targets")
    t = parse_transformation("refer img(Classifier)+ as String;", target)
    ast, _ = derive_ast_metamodel(target, t)
    printed = print_metamodel(ast)
    golden = (GOLDENS / "class_as.mm").read_text()
    assert printed == golden, "derived metamodel differs from the checked-in golden"
    assert "attr String[*] super;" in printed
    ok(1, "default mapping + String translation reproduces the ClassAS golden byte-exactly")


def test_criterion_2_selfhost_derivation(selfhost):
    _, target, t, ast, trace, *_ = selfhost
    names = {c.name for c in ast.classifiers}
    assert "QualifiedName" in names, "(a) created QualifiedName class"
    assert not names & {"ClassMappingAS", "EClassifierAS", "EClassAS", "EDataTypeAS"}, \
        "(b) skipped images must not survive"
    cross = [f"{c.name}.{f.name}" for c in ast.classes() for f in c.features
             if isinstance(f, MetaReference) and not f.containment]
    assert cross == [], f"(c) zero cross references, found {cross}"
    former_ecore = [("TranslateReferencesAS", "modelReferenceType"),
                    ("TranslateReferencesAS", "textualReferenceType"),
                    ("CreateClassAS", "superclasses"),
                    ("ChangeInheritanceAS", "target"),
                    ("ChangeInheritanceAS", "superclasses"),
                    ("SkipClassAS", "target"),
                    ("AttributeAS", "type"),
                    ("ReferenceAS", "type")]
    for cls_name, feat_name in former_ecore:
        f = ast.classifier(cls_name).find_feature(feat_name)
        assert isinstance(f, MetaReference) and f.containment, (cls_name, feat_name)
        assert f.type.name == "QualifiedName", (cls_name, feat_name)
    ok(2, "self-hosting derivation matches the hand-applied oracle "
          "(created class, removed images, zero cross refs, QualifiedName containments)")


def test_criterion_3_selfhost_equivalence(selfhost):
    d, target, t, ast, trace, g, plan, registry = selfhost
    ast_model = parse_text((d / "xf.xf").read_text(), g)
    via_pipeline, diags = transform_ast_to_model(ast_model, plan, registry)
    assert not diags, [x.render() for x in diags]
    direct = transformation_to_model(t, target, ast)
    assert model_equals(via_pipeline, direct)
    pipeline_actions = via_pipeline.root.values("actions")
    direct_actions = direct.root.values("actions")
    for a, b in zip(pipeline_actions, direct_actions):
        if a.cls.find_feature("includeDescendants"):
            assert a.get("includeDescendants") == b.get("includeDescendants")
    ok(3, "text -> parse_text -> transform equals direct parse_transformation "
          "under model_equals, includeDescendants copied verbatim")


def test_criterion_4_order_independence(selfhost):
    _, target, t, *_ = selfhost
    base, _tr = derive_ast_metamodel(target, t)
    for perm in itertools.permutations(t.actions):
        ast, _ = derive_ast_metamodel(target, Transformation(list(perm)))
        assert metamodel_isomorphic(base, ast)

    rng = random.Random(20260808)
    found = 0
    attempts = 0
    while found < 50 and attempts < 800:
        attempts += 1
        target_mm, script = _random_target_and_script(rng)
        try:
            tr = parse_transformation(script, target_mm)
            canonical, _ = derive_ast_metamodel(target_mm, tr)
        except DiagnosticError:
            continue
        perms = [rng.sample(tr.actions, len(tr.actions)) for _ in range(10)]
        for perm in perms:
            ast, _ = derive_ast_metamodel(target_mm, Transformation(perm))
            assert metamodel_isomorphic(canonical, ast)
        found += 1
    assert found >= 50, f"only {found} valid random action sets"
    ok(4, f"all 24 permutations of the self-hosting script and {found} random action "
          f"sets (10 permutations each) derive isomorphic metamodels")


def _random_target_and_script(rng):
    n = rng.randint(2, 5)
    lines = []
    fresh = iter(range(1000))
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
    created = 0
    for _ in range(rng.randint(1, 6)):
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
            supers = "nothing" if rng.random() < 0.5 else f"C{rng.randrange(n)}"
            stmts.append(f"make img(C{rng.randrange(n)}) extend {supers};")
    return target, "\n".join(stmts)


def test_criterion_5_css_merge():
    d = SAMPLES / "css"
    target = parse_metamodel((d / "css.mm").read_text(), "css")
    t = parse_transformation((d / "css.xf").read_text(), target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar((d / "css.gr").read_text(), ast)
    plan = build_plan(trace, target, ast)
    registry = namespace_registry(parse_config((d / "ns.cfg").read_text()), target, ast)
    models = []
    for name in ("grouped.css", "split.css"):
        m, diags = transform_ast_to_model(
            parse_text((d / name).read_text(), g), plan, registry)
        assert not diags
        models.append(m)
    grouped, split = models
    assert model_equals(grouped, split)
    selectors = grouped.root.values("selectors")
    assert len(selectors) == 1
    props = {x.get("property") for x in selectors[0].values("declarations")}
    assert props == {"borderWidth", "borderColor"}
    ok(5, "grouped and split CSS produce model-equal targets with one selector "
          "carrying both properties")


def test_criterion_6_parse_render_round_trip(selfhost):
    d, target, t, ast, trace, g, plan, registry = selfhost
    css_d = SAMPLES / "css"
    css_target = parse_metamodel((css_d / "css.mm").read_text(), "css")
    css_t = parse_transformation((css_d / "css.xf").read_text(), css_target)
    css_ast, _ = derive_ast_metamodel(css_target, css_t)
    css_g = parse_grammar((css_d / "css.gr").read_text(), css_ast)
    for label, grammar, seed in (("selfhost", g, 1001), ("css", css_g, 1002)):
        rng = random.Random(seed)
        for _ in range(100):
            m = generate_random_model(grammar, rng)
            again = parse_text(render_ast(m, grammar), grammar)
            assert model_equals(m, again), f"{label} round trip failed"
    ok(6, "100 random AST models per shipped grammar survive render -> parse "
          "under model_equals")


def test_criterion_7_model_ast_round_trip(selfhost):
    _, target, t, ast, trace, g, plan, registry = selfhost
    rng = random.Random(777)
    eclasses = [classifier_object(c) for c in builtin_ecore().classes()]
    eclasses += [classifier_object(c) for c in target.classes()]
    eclasses += [classifier_object(c) for c in ast.classes() if not c.abstract]
    datatypes = [classifier_object(c) for c in builtin_ecore().datatypes()]
    from mmdsl.meta import Model, ModelObject

    def random_model(i):
        root = ModelObject(target.classifier("Transformation"))
        for k in range(rng.randint(1, 6)):
            kind = rng.choice(["create", "refer", "skip", "make"])
            if kind == "create":
                obj = ModelObject(target.classifier("CreateClass"))
                obj.set("name", f"New{i}_{k}")
                obj.set("abstract", rng.random() < 0.5)
                feats = []
                for j in range(rng.randint(0, 3)):
                    if rng.random() < 0.5:
                        f = ModelObject(target.classifier("Attribute"))
                        f.set("type", rng.choice(datatypes))
                    else:
                        f = ModelObject(target.classifier("Reference"))
                        f.set("type", rng.choice(eclasses))
                        f.set("containment", rng.random() < 0.5)
                    f.set("name", f"f{j}")
                    f.set("lowerBound", rng.randint(0, 4))
                    f.set("upperBound", rng.randint(0, 9))
                    feats.append(f)
                if feats:
                    obj.set("structuralFeatures", feats)
            elif kind == "refer":
                obj = ModelObject(target.classifier("TranslateReferences"))
                obj.set("modelReferenceType", rng.choice(eclasses))
                obj.set("textualReferenceType", rng.choice(eclasses + datatypes))
                obj.set("includeDescendants", rng.random() < 0.5)
            elif kind == "skip":
                obj = ModelObject(target.classifier("SkipClass"))
                obj.set("target", rng.choice(eclasses))
                obj.set("includeDescendants", rng.random() < 0.5)
            else:
                obj = ModelObject(target.classifier("ChangeInheritance"))
                obj.set("target", rng.choice(eclasses))
                if rng.random() < 0.7:
                    obj.set("superclasses",
                            [rng.choice(eclasses) for _ in range(rng.randint(1, 3))])
            root.add("actions", obj)
        return Model(root, target)

    for i in range(50):
        m = random_model(i)
        assert validate_model(m) == []
        ast_model, rdiags = transform_model_to_ast(m, plan, registry)
        assert rdiags == [], [x.render() for x in rdiags]
        back, fdiags = transform_ast_to_model(ast_model, plan, registry)
        assert fdiags == [], [x.render() for x in fdiags]
        assert model_equals(m, back)
    ok(7, "50 random self-hosting target models survive model -> AST -> model "
          "with zero diagnostics")


def test_criterion_8_error_reporting(tmp_path, capsys):
    d = tmp_path / "work"
    shutil.copytree(SAMPLES / "selfhost", d, ignore=shutil.ignore_patterns("out"))
    bad = d / "bad.xf"
    bad.write_text("skip ecore::Nowhere;\n")
    assert cli_main(["derive", "--target", str(d / "xf.mm"), "--xf", str(d / "xf.xf"),
                     "--out", str(d / "xf.ast.mm"), "--trace", str(d / "xf.trace")]) == 0
    assert cli_main(["parse", "--grammar", str(d / "xf.gr"), "--ast", str(d / "xf.ast.mm"),
                     str(bad), "--out", str(d / "bad.astm")]) == 0
    capsys.readouterr()
    code = cli_main(["transform", "--trace", str(d / "xf.trace"),
                     "--target", str(d / "xf.mm"), "--ast", str(d / "xf.ast.mm"),
                     "--resolver-config", str(d / "ns.cfg"),
                     str(d / "bad.astm"), "--out", str(d / "bad.model")])
    err = capsys.readouterr().err
    assert code == 1
    error_lines = [l for l in err.splitlines() if "error[" in l]
    assert len(error_lines) == 1
    line = error_lines[0]
    assert "resolve-unresolved" in line
    assert "ecore::Nowhere" in line
    assert line.startswith("model:/actions[0]")
    ok(8, "undefined qualified name exits nonzero with exactly one located "
          "resolve diagnostic naming it")


def test_criterion_9_pipeline_determinism(tmp_path):
    for name in ("selfhost", "css"):
        d = tmp_path / name
        shutil.copytree(SAMPLES / name, d, ignore=shutil.ignore_patterns("out"))
        assert cli_main(["pipeline", str(d / "pipeline.cfg")]) == 0
        first = {p.name: p.read_bytes() for p in (d / "out").iterdir()}
        shutil.rmtree(d / "out")
        assert cli_main(["pipeline", str(d / "pipeline.cfg")]) == 0
        second = {p.name: p.read_bytes() for p in (d / "out").iterdir()}
        assert first == second and first
    ok(9, "pipeline runs are byte-identical on both example projects")
