import random

import pytest

from mmdsl.diagnostics import DiagnosticError
from mmdsl.emfatic import parse_metamodel, print_metamodel
from mmdsl.meta import (
    UNBOUNDED, MetaAttribute, MetaClass, Metamodel, MetaReference, builtin_ecore,
)
from metamodel_checks import metamodel_equals

CLASS_LISTING = """
abstract class Classifier {
}
class Class extends Classifier {
    ref Class[*] super;
    attr boolean abstract;
    val StructuralFeature[*] structuralFeatures;
}
abstract class StructuralFeature {
}
"""


class TestParse:
    def test_class_listing(self):
        mm = parse_metamodel(CLASS_LISTING, "targets")
        cls = mm.classifier("Class")
        assert [s.name for s in cls.supertypes] == ["Classifier"]
        sup, abstract, feats = cls.features
        assert isinstance(sup, MetaReference) and not sup.containment
        assert sup.type.name == "Class" and sup.lower == 0 and sup.upper is UNBOUNDED
        assert isinstance(abstract, MetaAttribute) and abstract.type.kind == "boolean"
        assert abstract.name == "abstract"  # keyword usable as feature name
        assert isinstance(feats, MetaReference) and feats.containment
        assert feats.type.name == "StructuralFeature"

    def test_abstract_class_without_features(self):
        mm = parse_metamodel("abstract class Action { }", "m")
        act = mm.classifier("Action")
        assert act.abstract and act.features == ()

    def test_self_extension_is_a_cycle(self):
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel("class X extends X {}", "m")
        d = exc.value.diagnostics[0]
        assert d.code == "mm-inheritance-cycle"
        assert d.location is not None

    def test_violation_is_located_at_the_class_it_names(self):
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel("class A { }\nclass AB extends AB { }\n", "m", file="m.mm")
        d = exc.value.diagnostics[0]
        assert d.code == "mm-inheritance-cycle"
        assert str(d.location) == "m.mm:2:7"

    def test_duplicate_is_located_at_the_duplicate(self):
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel("class A { }\nclass B { }\nclass A { }\n", "d", file="d.mm")
        assert [d.render() for d in exc.value.diagnostics] == [
            "d.mm:3:7: error[mm-duplicate-classifier]: duplicate classifier name 'A'"]

    def test_each_duplicate_is_located_at_itself(self):
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel("class A { }\nclass A { }\nclass A { }\n", "d", file="d.mm")
        assert [str(d.location) for d in exc.value.diagnostics] == ["d.mm:2:7", "d.mm:3:7"]

    @pytest.mark.parametrize("text, message", [
        ("class Café { }", "classifier name 'Café' is not a valid identifier"),
        ("class A { attr String naïve; }", "feature name 'naïve' on A is not a valid identifier")])
    def test_a_name_outside_ascii_is_no_identifier(self, text, message):
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel(text, "m", file="m.mm")
        assert [(d.code, d.message, str(d.location)) for d in exc.value.diagnostics] == [
            ("mm-identifier", message, "m.mm:1:7")]

    def test_ecore_types_resolve(self):
        mm = parse_metamodel("class M { ref EClass target; attr int n = 1; }", "m")
        target, n = mm.classifier("M").features
        assert target.type is builtin_ecore().classifier("EClass")
        assert n.default == 1

    def test_own_class_shadows_builtin(self):
        mm = parse_metamodel("class EClass { }\nclass M { ref EClass t; val ecore::EClass u; }", "m")
        t, u = mm.classifier("M").features
        assert t.type is mm.classifier("EClass")
        assert u.type is builtin_ecore().classifier("EClass")

    def test_unresolved_type_has_location(self):
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel("class A {\n    ref Ghost g;\n}", "m")
        d = exc.value.diagnostics[0]
        assert d.code == "name-unresolved"
        assert d.location.line == 2

    def test_attr_with_class_type_rejected(self):
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel("class A { attr A x; }", "m")
        assert exc.value.diagnostics[0].code == "mm-bad-type"

    def test_multiplicities(self):
        mm = parse_metamodel(
            "class A { ref A[2..4] a; ref A[3] b; ref A[1..*] c; ref A d; }", "m")
        a, b, c, d = mm.classifier("A").features
        assert (a.lower, a.upper) == (2, 4)
        assert (b.lower, b.upper) == (3, 3)
        assert c.lower == 1 and c.upper is UNBOUNDED
        assert (d.lower, d.upper) == (0, 1)

    def test_comments_skipped(self):
        mm = parse_metamodel("// leading\nclass A { /* attr int x; */ }", "m")
        assert mm.classifier("A").features == ()

    def test_syntax_error_location_in_bounds(self):
        text = "class A {\n  attr int;\n}"
        with pytest.raises(DiagnosticError) as exc:
            parse_metamodel(text, "m")
        loc = exc.value.diagnostics[0].location
        lines = text.splitlines()
        assert 1 <= loc.line <= len(lines)
        assert 1 <= loc.column <= len(lines[loc.line - 1]) + 1


class TestPrint:
    def test_one_class(self):
        mm = parse_metamodel("class A { attr String name; }", "m")
        assert print_metamodel(mm) == 'class A {\n    attr String name;\n}\n'

    def test_default_multiplicity_elided_unbounded_star(self):
        mm = parse_metamodel("class A { ref A[0..1] x; ref A[*] y; ref A[0..*] z; }", "m")
        text = print_metamodel(mm)
        assert "ref A x;" in text
        assert "ref A[*] y;" in text
        assert "ref A[*] z;" in text

    def test_round_trip_action_metamodel(self):
        text = """
abstract class Action { }
class ClassMapping extends Action { ref EClass prototype; ref EClass image; }
class CreateClass extends Action {
    attr String name;
    attr boolean abstract;
    ref EClass[*] superclasses;
    val StructuralFeature[*] structuralFeatures;
}
abstract class StructuralFeature {
    attr String name;
    attr int lowerBound;
    attr int upperBound = 1;
}
"""
        mm = parse_metamodel(text, "actions")
        printed = print_metamodel(mm)
        again = parse_metamodel(printed, "actions")
        assert metamodel_equals(mm, again)
        assert "attr int upperBound = 1;" in printed

    def test_round_trip_random_metamodels(self):
        rng = random.Random(21)
        dt = [builtin_ecore().classifier(n) for n in ("String", "boolean", "int")]
        for _ in range(60):
            classes = [MetaClass(f"C{i}") for i in range(rng.randint(1, 6))]
            for i, cls in enumerate(classes):
                cls.abstract = rng.random() < 0.3
                for j in range(i):
                    if rng.random() < 0.25:
                        cls.supertypes.append(classes[j])
                names = iter(f"f{k}" for k in range(10))
                for _ in range(rng.randint(0, 4)):
                    lo = rng.randint(0, 2)
                    up = rng.choice([UNBOUNDED, lo + rng.randint(0, 3) + 1, 1])
                    if up is not UNBOUNDED and up < max(lo, 1):
                        up = max(lo, 1)
                    name = next(names)
                    if rng.random() < 0.5:
                        t = rng.choice(dt)
                        default = None
                        if rng.random() < 0.3:
                            default = {"string": "d", "boolean": True, "integer": 7}[t.kind]
                        cls.features.append(
                            MetaAttribute(name, lo, up, type=t, default=default))
                    else:
                        cls.features.append(MetaReference(
                            name, lo, up, type=rng.choice(classes),
                            containment=rng.random() < 0.5))
            mm = Metamodel("rand", classes)
            # only round-trip well-formed metamodels
            from mmdsl.meta import validate_metamodel
            if validate_metamodel(mm):
                continue
            again = parse_metamodel(print_metamodel(mm), "rand")
            assert metamodel_equals(mm, again)
