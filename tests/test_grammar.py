import inspect
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mmdsl.diagnostics import DiagnosticError, SourceLocation, error, sort_diagnostics
from mmdsl.emfatic import parse_metamodel
import mmdsl.grammar as grammar_module
from mmdsl.grammar import (
    TERMINALS, AbstractRule, Assignment, ConcreteRule, Grammar, Group, Keyword, Opt, Repeat,
    Sequence, _children, _expected, check_grammar,
    generate_grammar_skeleton, generate_random_model, parse_grammar, parse_text, render_ast,
)
from mmdsl.lexer import Lexer, Token, TokenStream, escape_string, token_value
from mmdsl.meta import (
    UNBOUNDED, MetaAttribute, MetaClass, Metamodel, MetaReference, Model, ModelObject, Tree,
    builtin_ecore, iter_tree, miscount, model_equals, validate_metamodel, validate_model,
)
from mmdsl.modeltext import dump_model, load_model
from mmdsl.transform import build_plan, namespace_registry, parse_config
from mmdsl.xf import derive_ast_metamodel, parse_transformation
from test_lexer import reference_tokenize
from test_meta import ref_validate_model
from test_transform import time_bound

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture(scope="module")
def selfhost():
    target = parse_metamodel((SAMPLES / "selfhost" / "xf.mm").read_text(), "xf")
    t = parse_transformation((SAMPLES / "selfhost" / "xf.xf").read_text(), target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar((SAMPLES / "selfhost" / "xf.gr").read_text(), ast)
    return target, ast, trace, g


@pytest.fixture(scope="module")
def css():
    target = parse_metamodel((SAMPLES / "css" / "css.mm").read_text(), "css")
    t = parse_transformation((SAMPLES / "css" / "css.xf").read_text(), target)
    ast, trace = derive_ast_metamodel(target, t)
    g = parse_grammar((SAMPLES / "css" / "css.gr").read_text(), ast)
    return target, ast, trace, g


CHANGE_INHERITANCE_RULE = '''
ChangeInheritanceAS:
    "make" "img" "(" target=QualifiedName ")" "extend"
    ("nothing" | (superclasses+=QualifiedName
    ("," superclasses+=QualifiedName)*)?);
QualifiedName : name=ID ("::" subQN=QualifiedName)?;
'''

ABSTRACT_RULE = """
Abstract StructuralFeatureAS:
    AttributeAS | ReferenceAS;
AttributeAS : "attr" type=QualifiedName name=ID;
ReferenceAS : (containment?"val" | "ref") type=QualifiedName name=ID;
QualifiedName : name=ID ("::" subQN=QualifiedName)?;
"""


class TestParseGrammar:
    def test_change_inheritance_sample(self, selfhost):
        _, ast, _, _ = selfhost
        g = parse_grammar(CHANGE_INHERITANCE_RULE, ast)
        rule = g.by_name["ChangeInheritanceAS"]
        assert isinstance(rule, ConcreteRule)
        assert rule.cls is ast.classifier("ChangeInheritanceAS")
        items = rule.body.items
        assert isinstance(items[0], Keyword) and items[0].text == "make"
        assert any(isinstance(x, Assignment) and x.feature == "target" for x in items)
        group = items[-1]
        assert isinstance(group, Group)
        assert isinstance(group.alternatives[0], Keyword)
        assert group.alternatives[0].text == "nothing"

    def test_abstract_rule_sample(self, selfhost):
        _, ast, _, _ = selfhost
        g = parse_grammar(ABSTRACT_RULE, ast)
        rule = g.by_name["StructuralFeatureAS"]
        assert isinstance(rule, AbstractRule)
        assert rule.alternatives == ["AttributeAS", "ReferenceAS"]
        assert rule.cls.abstract

    def test_type_mismatch_int_on_string(self, selfhost):
        _, ast, _, _ = selfhost
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar("CreateClassAS : name=INT;", ast)
        assert exc.value.diagnostics[0].code == "gr-type"

    def test_unknown_class(self, selfhost):
        _, ast, _, _ = selfhost
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar('Nope : "x";', ast)
        assert exc.value.diagnostics[0].code == "gr-unknown-class"

    def test_unknown_feature(self, selfhost):
        _, ast, _, _ = selfhost
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar("CreateClassAS : ghost=ID;", ast)
        assert exc.value.diagnostics[0].code == "gr-unknown-feature"

    def test_operator_mismatch(self, selfhost):
        _, ast, _, _ = selfhost
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar("CreateClassAS : superclasses=QualifiedName; "
                          "QualifiedName : name=ID;", ast)
        assert exc.value.diagnostics[0].code == "gr-operator"

    def test_flag_needs_boolean(self, selfhost):
        _, ast, _, _ = selfhost
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar('CreateClassAS : name?"x";', ast)
        assert exc.value.diagnostics[0].code == "gr-type"

    def test_shipped_grammars_parse(self, selfhost, css):
        assert selfhost[3].entry == "TransformationAS"
        assert css[3].entry == "CssFile"

    def test_star_binds_regardless_of_whitespace(self, selfhost):
        # the repetition suffix may be separated from its group
        _, ast, _, _ = selfhost
        g = parse_grammar(
            'CreateClassAS:\n'
            '    "create" (abstract?"abstract") "class" name=ID\n'
            '    ("extends" superclasses+=QualifiedName\n'
            '    ("," superclasses+=QualifiedName)*)? "{"\n'
            '    (structuralFeatures+=StructuralFeatureAS ";") *\n'
            '    "}";\n' + ABSTRACT_RULE, ast)
        assert check_grammar(g) == []
        m = parse_text('create class Point { attr int x; attr int y; }', g)
        assert len(m.root.values("structuralFeatures")) == 2

    @pytest.mark.parametrize("body, column", [
        ("( " * 250 + '"a"' + " )" * 250, 5 + 2 * 100),  # the 101st '('
        ('"a"' + " ?" * 250, 9 + 2 * 100),  # the 101st '?'
        ("( " * 100 + '"a" ?' + " ) ?" * 100, 5 + 2 * 100 + 4 + 4 * 100)])  # the last '?'
    def test_nesting_past_the_bound_is_a_syntax_error(self, body, column):
        """Groups nest at most 100 deep, and so do postfix operators with
        those inside what they wrap: the '(' or operator past that is a
        syntax error."""
        ast = parse_metamodel("class A { }", "m")
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar(f"A : {body} ;", ast)
        (d,) = exc.value.diagnostics
        assert (d.code, d.location.line, d.location.column) == ("syntax", 1, column)
        assert "nested more than 100 deep" in d.message

    def test_nesting_up_to_the_bound(self):
        """Grammars nested as deep as parse_grammar allows, one that assigns
        among them: their random models render and parse back under the
        default recursion limit, as the generators recurse per element."""
        ast = parse_metamodel("class A { attr String[*] xs; }", "m")
        for body in ["( " * 100 + '"a"' + " )" * 100, '"a"' + " ?" * 100,
                     "( " * 99 + '"a" ?' + " ) ?" * 99 + ' ( "b" ) ?' * 200,
                     "( " * 99 + "xs += ID" + " )*" * 99]:
            g = parse_grammar(f"A : {body} ;", ast)
            assert outcome(check_grammar, g) == outcome(ref_check_grammar, g)
            for seed in range(3):
                m = generate_random_model(g, random.Random(seed))
                assert model_equals(parse_text(render_ast(m, g), g), m)


class TestCheckGrammar:
    def test_shipped_selfhost_grammar_clean(self, selfhost):
        assert check_grammar(selfhost[3]) == []

    def test_shipped_css_grammar_clean(self, css):
        assert check_grammar(css[3]) == []

    def test_left_recursion(self, selfhost):
        _, ast, _, _ = selfhost
        g = parse_grammar('QualifiedName : subQN=QualifiedName "x";', ast)
        diags = check_grammar(g)
        assert any(d.code == "gr-left-recursion" for d in diags)

    def test_overlapping_alternatives(self, css):
        _, ast, _, _ = css
        g = parse_grammar('Rule : ("a" selector=ID | "a" selector=ID "b");', ast)
        diags = check_grammar(g)
        assert any(d.code == "gr-ambiguous" for d in diags)

    def test_optional_overlapping_continuation(self, css):
        _, ast, _, _ = css
        g = parse_grammar('Rule : ("a" selector=ID)? "a";', ast)
        diags = check_grammar(g)
        assert any(d.code == "gr-ambiguous" for d in diags)


SELFHOST_SCRIPT = """
create class QualifiedName {
    attr String name;
    val QualifiedName subQN;
}
refer img(ecore::EClassifier)+ as QualifiedName;
skip ecore::EClassifier+;
skip ClassMapping;
"""


class TestParseText:
    def test_create_statement(self, selfhost):
        _, ast, _, g = selfhost
        m = parse_text(
            "create class QualifiedName { attr String name; val QualifiedName subQN; }", g)
        root = m.root
        assert root.cls.name == "TransformationAS"
        (create,) = root.values("actions")
        assert create.cls.name == "CreateClassAS"
        assert create.get("abstract") is False
        assert create.get("name") == "QualifiedName"
        feats = create.values("structuralFeatures")
        assert [f.cls.name for f in feats] == ["AttributeAS", "ReferenceAS"]
        assert feats[0].get("type").get("name") == "String"
        assert feats[1].get("containment") is True
        assert feats[1].get("type").get("name") == "QualifiedName"

    def test_whole_selfhost_script(self, selfhost):
        _, ast, _, g = selfhost
        m = parse_text(SELFHOST_SCRIPT, g)
        actions = m.root.values("actions")
        assert [a.cls.name for a in actions] == [
            "CreateClassAS", "TranslateReferencesAS", "SkipClassAS", "SkipClassAS"]
        refer = actions[1]
        assert refer.get("includeDescendants") is True
        qn = refer.get("modelReferenceType")
        assert qn.get("name") == "ecore"
        assert qn.get("subQN").get("name") == "EClassifier"
        assert actions[3].get("includeDescendants") is False
        assert validate_model(m) == []

    def test_extend_nothing(self, selfhost):
        _, ast, _, g = selfhost
        m = parse_text("make img(Foo) extend nothing;", g)
        (action,) = m.root.values("actions")
        assert action.cls.name == "ChangeInheritanceAS"
        assert action.values("superclasses") == []

    def test_empty_input_requiring_keyword(self, css):
        _, ast, _, _ = css
        g = parse_grammar('DeclarationAS : "p" property=ID;', ast)
        with pytest.raises(DiagnosticError) as exc:
            parse_text("", g)
        loc = exc.value.diagnostics[0].location
        assert (loc.line, loc.column) == (1, 1)

    def test_error_location(self, selfhost):
        _, ast, _, g = selfhost
        with pytest.raises(DiagnosticError) as exc:
            parse_text("create class X {\n  attr String 5;\n}", g)
        loc = exc.value.diagnostics[0].location
        assert loc.line == 2 and loc.column == 15

    def test_parsed_model_must_validate(self):
        # grammars can under-enforce lower bounds; parse_text still refuses
        # to hand back an invalid model
        ast = parse_metamodel(
            "class Box { val Item[1..*] items; }\nclass Item { }", "m")
        g = parse_grammar('Box : "box" ( "item" items += Item )* ;\nItem : "i" ;', ast)
        assert check_grammar(g) == []
        with pytest.raises(DiagnosticError) as exc:
            parse_text("box", g)
        assert exc.value.diagnostics[0].code == "model-multiplicity"

    def test_css_inputs(self, css):
        _, ast, _, g = css
        m = parse_text((SAMPLES / "css" / "grouped.css").read_text(), g)
        (rule,) = m.root.values("rules")
        assert rule.get("selector") == "some"
        decls = rule.values("declarations")
        assert [(d.get("property"), d.get("value")) for d in decls] == [
            ("borderWidth", "2px"), ("borderColor", "red")]
        m2 = parse_text((SAMPLES / "css" / "split.css").read_text(), g)
        assert len(m2.root.values("rules")) == 2


class TestRenderAst:
    def test_render_reparses_equal(self, selfhost):
        _, ast, _, g = selfhost
        m = parse_text(SELFHOST_SCRIPT, g)
        text = render_ast(m, g)
        again = parse_text(text, g)
        assert model_equals(m, again)

    def test_boolean_flag_false_absent(self, selfhost):
        _, ast, _, g = selfhost
        m = parse_text("create class X { }", g)
        text = render_ast(m, g)
        assert "abstract" not in text
        m2 = parse_text("create abstract class X { }", g)
        assert "abstract" in render_ast(m2, g)

    def test_flag_under_repetition_is_written_once(self):
        ast = parse_metamodel("class A { attr boolean abstract; attr String name; }", "m")
        g = parse_grammar('A : ( abstract ? "abstract" )* "a" name = ID ;', ast)
        assert check_grammar(g) == []
        m = parse_text("abstract abstract a x", g)
        assert render_ast(m, g) == "abstract a x\n"
        assert model_equals(parse_text(render_ast(m, g), g), m)

    def test_no_rule_for_class(self, selfhost, css):
        _, ast, _, g = selfhost
        m = parse_text(".a { }", css[3])
        with pytest.raises(DiagnosticError) as exc:
            render_ast(m, g)
        assert exc.value.diagnostics[0].code == "gr-no-rule"

    def test_layout_policy(self, selfhost):
        _, ast, _, g = selfhost
        text = render_ast(parse_text(SELFHOST_SCRIPT, g), g)
        lines = text.splitlines()
        # newline after each ';' and '}'; indentation inside the create block
        assert lines[0] == "create class QualifiedName { attr String name ;"
        assert lines[1] == "    val QualifiedName subQN ;"
        assert lines[2] == "}"
        assert lines[3] == "refer img ( ecore :: EClassifier ) + as QualifiedName ;"
        assert lines[-1] == "skip ClassMapping ;"
        assert text == render_ast(parse_text(SELFHOST_SCRIPT, g), g)


class TestSkeleton:
    def test_single_class(self):
        ast = parse_metamodel("class FooAS { attr String name; }", "m")
        text = generate_grammar_skeleton(ast)
        g = parse_grammar(text, ast)
        assert check_grammar(g) == []
        m = parse_text('FooAS { "name" = "x" }'.replace('"name"', "name"), g)
        assert m.root.get("name") == "x"

    def test_selfhost_skeleton_passes_checks(self, selfhost):
        _, ast, _, _ = selfhost
        text = generate_grammar_skeleton(ast)
        g = parse_grammar(text, ast)
        assert check_grammar(g) == []

    def test_cross_reference_rejected(self):
        ast = parse_metamodel("class A { ref A other; }", "m")
        with pytest.raises(DiagnosticError) as exc:
            generate_grammar_skeleton(ast)
        assert exc.value.diagnostics[0].code == "gr-cross-reference"

    def test_multi_valued_boolean_rejected(self):
        """The .gr notation has no boolean terminal, and a flag sets a single
        value: the skeleton refuses the attribute instead of writing a flag
        that parse_grammar refuses."""
        ast = parse_metamodel("class A { attr boolean open; }\n"
                              "class B extends A { attr boolean[*] flags; }", "m")
        with pytest.raises(DiagnosticError) as exc:
            generate_grammar_skeleton(ast)
        assert [(d.code, d.path, d.message) for d in exc.value.diagnostics] == [
            ("gr-type", "/m/B", "B.flags is a multi-valued boolean attribute; a flag needs a "
                                "single-valued one")]

    def test_abstract_without_concrete_subtype(self):
        ast = parse_metamodel("abstract class A { }\nclass B { val A a; }", "m")
        with pytest.raises(DiagnosticError) as exc:
            generate_grammar_skeleton(ast)
        assert exc.value.diagnostics[0].code == "gr-unknown-class"

    def test_skeleton_round_trips_random_models(self, selfhost):
        _, ast, _, _ = selfhost
        g = parse_grammar(generate_grammar_skeleton(ast), ast)
        rng = random.Random(5)
        for _ in range(25):
            m = generate_random_model(g, rng)
            assert model_equals(m, parse_text(render_ast(m, g), g))


class TestDumpLoadProperty:
    def test_random_models_survive_dump_load(self, selfhost):
        from mmdsl.modeltext import dump_model, load_model
        _, ast, _, g = selfhost
        rng = random.Random(77)
        for _ in range(50):
            m = generate_random_model(g, rng)
            text = dump_model(m)
            again = load_model(text, ast)
            assert model_equals(m, again)
            assert dump_model(again) == text


class TestRoundTripProperty:
    def test_selfhost_grammar_100_random_models(self, selfhost):
        _, ast, _, g = selfhost
        rng = random.Random(42)
        for _ in range(100):
            m = generate_random_model(g, rng)
            assert validate_model(m) == []
            text = render_ast(m, g)
            again = parse_text(text, g)
            assert model_equals(m, again)

    def test_css_grammar_100_random_models(self, css):
        _, ast, _, g = css
        rng = random.Random(43)
        for _ in range(100):
            m = generate_random_model(g, rng)
            text = render_ast(m, g)
            again = parse_text(text, g)
            assert model_equals(m, again)


# ---------------------------------------------------------------------------
# Reference walkers: the interpreters as they were before the grammar facts
# were compiled onto the elements. They recompute FIRST and nullable at every
# visit, walk a subtree for every availability test and read each slot
# through ModelObject.values. The compiled walkers must agree with them on
# every model and every text, diagnostics included.


class RefAnalysis:
    """Rule FIRST/nullable by fixpoint; element facts recomputed on demand."""

    def __init__(self, g):
        self.nullable = {r.name: False for r in g.rules}
        self.first = {r.name: set() for r in g.rules}
        changed = True
        while changed:
            changed = False
            for r in g.rules:
                if isinstance(r, AbstractRule):
                    n = any(self.nullable.get(a, False) for a in r.alternatives)
                    f = set()
                    for a in r.alternatives:
                        f |= self.first.get(a, set())
                else:
                    n = self.elem_nullable(r.body)
                    f = self.elem_first(r.body)
                if n != self.nullable[r.name] or f != self.first[r.name]:
                    self.nullable[r.name] = n
                    self.first[r.name] = f
                    changed = True

    def elem_nullable(self, e):
        if isinstance(e, Keyword):
            return False
        if isinstance(e, Assignment):
            if e.op == "?":
                return True
            if e.callee in TERMINALS:
                return False
            return self.nullable.get(e.callee, False)
        if isinstance(e, Sequence):
            return all(self.elem_nullable(x) for x in e.items)
        if isinstance(e, Opt):
            return True
        if isinstance(e, Repeat):
            return e.kind == "*" or self.elem_nullable(e.inner)
        return any(self.elem_nullable(x) for x in e.alternatives)

    def elem_first(self, e):
        if isinstance(e, Keyword):
            return {("kw", e.text)}
        if isinstance(e, Assignment):
            if e.op == "?":
                return {("kw", e.keyword)}
            if e.callee in TERMINALS:
                return {("term", e.callee)}
            return set(self.first.get(e.callee, set()))
        if isinstance(e, Sequence):
            out = set()
            for x in e.items:
                out |= self.elem_first(x)
                if not self.elem_nullable(x):
                    break
            return out
        if isinstance(e, (Opt, Repeat)):
            return self.elem_first(e.inner)
        out = set()
        for x in e.alternatives:
            out |= self.elem_first(x)
        return out

    def matches(self, keys, token):
        if token.kind == "KW":
            return ("kw", token.text) in keys
        if token.kind in TERMINALS:
            return ("term", token.kind) in keys
        return False


def ref_flags(e, acc):
    if isinstance(e, Assignment) and e.op == "?":
        acc.append(e.feature)
    elif isinstance(e, Sequence):
        for x in e.items:
            ref_flags(x, acc)
    elif isinstance(e, (Opt, Repeat)):
        ref_flags(e.inner, acc)
    elif isinstance(e, Group):
        for x in e.alternatives:
            ref_flags(x, acc)
    return acc


def ref_has_assignments(e):
    if isinstance(e, Assignment):
        return True
    if isinstance(e, Sequence):
        return any(ref_has_assignments(x) for x in e.items)
    if isinstance(e, (Opt, Repeat)):
        return ref_has_assignments(e.inner)
    if isinstance(e, Group):
        return any(ref_has_assignments(x) for x in e.alternatives)
    return False


class RefParser:
    def __init__(self, g, stream):
        self.g, self.a, self.stream = g, RefAnalysis(g), stream

    def parse_rule(self, name):
        a, stream = self.a, self.stream
        rule = self.g.by_name[name]
        if isinstance(rule, AbstractRule):
            for alt in rule.alternatives:
                if a.matches(a.first.get(alt, set()), stream.current):
                    return self.parse_rule(alt)
            for alt in rule.alternatives:
                if a.nullable.get(alt, False):
                    return self.parse_rule(alt)
            stream.fail(f"expected {_expected(a.first.get(name, set()))}, "
                        f"found {stream.describe()}")
        obj = ModelObject(rule.cls)
        self.walk(rule.body, obj)
        for f in ref_flags(rule.body, []):
            if not obj.is_set(f):
                obj.set(f, False)
        return obj

    def walk(self, e, obj):
        a, stream = self.a, self.stream
        if isinstance(e, Keyword):
            stream.expect_kw(e.text)
            return
        if isinstance(e, Assignment):
            if e.op == "?":
                if stream.at_kw(e.keyword):
                    stream.next()
                    obj.set(e.feature, True)
                return
            if e.callee in TERMINALS:
                value = stream.expect(e.callee).value
            else:
                value = self.parse_rule(e.callee)
            if e.op == "=":
                if obj.is_set(e.feature):
                    stream.fail(f"feature {e.feature!r} assigned twice")
                obj.set(e.feature, value)
            else:
                obj.add(e.feature, value)
            return
        if isinstance(e, Sequence):
            for x in e.items:
                self.walk(x, obj)
            return
        if isinstance(e, Opt):
            if a.matches(a.elem_first(e.inner), stream.current):
                self.walk(e.inner, obj)
            return
        if isinstance(e, Repeat):
            first = a.elem_first(e.inner)
            if e.kind == "+" and not a.matches(first, stream.current):
                stream.fail(f"expected {_expected(first)}, found {stream.describe()}")
            while a.matches(first, stream.current):
                self.walk(e.inner, obj)
            return
        for alt in e.alternatives:
            if a.matches(a.elem_first(alt), stream.current):
                self.walk(alt, obj)
                return
        if any(a.elem_nullable(alt) for alt in e.alternatives):
            return
        stream.fail(f"expected {_expected(a.elem_first(e))}, found {stream.describe()}")


class RefToken:
    """A token of test_lexer's reference scanner, as TokenStream reads it."""

    def __init__(self, kind, text, value, line, column, file):
        self.kind, self.text, self.value = kind, text, value
        self.location = SourceLocation(file, line, column)

    def is_kw(self, text):
        return self.kind == "KW" and self.text == text


def ref_refusal(g):
    """The diagnostics with which parse_text refuses ``g`` whatever the
    text: the analysis's problems, else the reference check's left
    recursion."""
    return g.analysis().problems or [
        d for d in ref_check_grammar(g) if d.code == "gr-left-recursion"]


def ref_parse_text(text, g, file="<input>"):
    """parse_text as it was: a grammar that fails its checks is refused
    (ref_refusal); the reference scanner turns the whole text into a token
    list, so a lexical error anywhere wins; the reference parser then writes
    slots by name, and the whole model goes through the reference
    validate_model."""
    if refused := ref_refusal(g):
        raise DiagnosticError(refused)
    tokens = [RefToken(*t, file) for t in reference_tokenize(g.lexer(), text, file)]
    parser = RefParser(g, TokenStream(tokens, phase="parse"))
    root = parser.parse_rule(g.entry)
    parser.stream.expect_eof()
    model = Model(root, g.ast)
    problems = ref_validate_model(model)
    if problems:
        raise DiagnosticError([error("parse", d.code, d.message, path=d.path)
                               for d in problems])
    return model


# The oracles' code: each concrete rule compiled to a flat tuple of ops, as
# parse_text and generate_random_model ran it before they were made from the
# elements. Each op is a tuple that starts with its opcode:
#   (KW, text)   (JUMP, target)   (RET,): the end of a rule's code
#   (TERM | CALL | FLAG, feat, name, many, callee | proc | keyword, plus)
#   (TEST, first, end, reads, must): unless the part is there, go to end
#   (CHOICE, table, default, first, end, alts, bare, low)
# ``feat`` is the MetaFeature the rule's class holds under ``name``; ``reads``
# are the assignment ops below a decision; a '+' loop starts with a TEST that
# ``must`` find its part. A CHOICE goes to table[key], else to ``default`` (its
# end if it may be empty, else None: an error); ``alts`` are (reads, start)
# pairs; ``bare`` is the start of the first alternative without assignments (or
# the end); ``low`` is the start of the first alternative of least height.
KW, TERM, CALL, FLAG, TEST, JUMP, CHOICE, RET = range(8)


class OpProc:
    """A rule compiled to ops: a concrete rule's ``code`` and ``flags``; an
    abstract rule's ``table`` from token key to alternative and
    ``default``, its first that may be empty; either's ``first``."""

    def __init__(self, name, cls=None):
        self.name, self.cls, self.code, self.default = name, cls, None, None
        self.first, self.flags, self.table = frozenset(), (), {}


def op_compile(g):
    """Each rule of ``g`` compiled to ops, by name, from the facts that
    g.analysis() stores on its elements."""
    a = g.analysis()
    procs = {r.name: OpProc(r.name, r.cls) for r in g.rules}
    for r in g.rules:
        p = procs[r.name]
        p.first = a.first[r.name]
        if isinstance(r, AbstractRule):  # the first alternative wins a key
            p.table = {k: procs.get(alt) for alt in reversed(r.alternatives)
                       for k in a.first.get(alt, ())}
            p.default = next((procs[alt] for alt in r.alternatives if a.nullable.get(alt)), None)
        else:
            code = []
            op_emit(r.body, procs, a.procs[r.name].feats, code, {})
            p.code, p.flags = (*code, (RET,)), a.procs[r.name].flags
    return procs


def op_emit(e, procs, feats, code, ops):
    """Append the code of element ``e`` to ``code``; ``feats``: the rule's
    features by name; ``ops`` holds each assignment's op."""
    if isinstance(e, Keyword):
        code.append((KW, e.text))
        return
    if isinstance(e, Assignment):
        if e.op == "?":
            kind, arg = FLAG, e.keyword
        elif e.callee in TERMINALS:
            kind, arg = TERM, e.callee
        else:
            kind, arg = CALL, procs.get(e.callee) or OpProc(e.callee)  # unknown: no entry
        f = feats[e.feature]
        code.append(ops.setdefault(id(e), (kind, f, f.name, f.many, arg, e.op == "+=")))
        return
    at, starts, kids = len(code), [], _children(e)
    if not isinstance(e, Sequence):  # decisions, set once their targets are known
        code.extend([None, None] if isinstance(e, Repeat) and e.kind == "+" else [None])
    for x in kids:
        starts.append(len(code))
        op_emit(x, procs, feats, code, ops)
        if isinstance(e, Group):
            code.append(None)  # a jump to the end
    if isinstance(e, Group):
        code.pop()
        end = len(code)
        code[at + 1:] = [(JUMP, end) if op is None else op for op in code[at + 1:]]
        pairs = list(zip(kids, starts))
        table = {k: start for x, start in reversed(pairs) for k in x.first}
        alts = tuple([(tuple([ops[id(y)] for y in x.assigns]), start) for x, start in pairs])
        bare = next((start for x, start in pairs if not x.assigns), end)
        low = min(pairs, key=lambda p: p[0].height)[1]
        code[at] = (CHOICE, table, end if e.nullable else None, e.first, end, alts, bare, low)
    elif not isinstance(e, Sequence):
        head, reads = starts[0] - 1, tuple([ops[id(x)] for x in e.assigns])
        if isinstance(e, Repeat):  # a '+' loop's first TEST, before ``head``, must pass
            code.append((JUMP, head))
        code[head] = (TEST, e.first, len(code), reads, False)
        if head != at:
            code[at] = (TEST, e.first, len(code), reads, True)


class OpStuck(Exception):
    """op_parse_text stops at its lookahead token; args: what it expected, or a code and a message."""


def op_enter(p, m, kind):
    """The concrete rule that rule ``p`` enters at match ``m``, of ``kind``."""
    key = ("kw", m["KW"]) if kind == "KW" else ("term", kind)
    while p.code is None:
        q = p.table.get(key, p.default)
        if q is None:
            raise OpStuck(_expected(p.first))
        p = q
    return p


def op_parse_text(text, g, file="<input>"):
    """parse_text as it was before its parser was generated: one loop runs
    the compiled ops on an explicit stack, reading the lexer's matches, once
    the grammar passes its checks (ref_refusal)."""
    if refused := ref_refusal(g):
        raise DiagnosticError(refused)
    lexer, procs = g.lexer(), op_compile(g)
    miscounts = []
    matches = lexer.matches(text)
    read = matches.__next__
    stack = []  # below the top frame: (code, pc, obj, op, proc), op the CALL it fills
    m = read()  # the lookahead token's match
    tk = m.lastgroup  # its kind
    try:
        proc = op_enter(procs[g.entry], m, tk)
        code, pc, obj = proc.code, 0, ModelObject(proc.cls)
        slots = obj.slots
        while True:
            op = code[pc]
            pc += 1
            kind = op[0]
            if kind is KW:
                if tk != "KW" or m["KW"] != op[1]:
                    raise OpStuck(f"'{op[1]}'")
            elif kind is TERM:
                if tk != op[4]:
                    raise OpStuck(op[4])
                try:
                    value = token_value(op[4], m[op[4]])
                except ValueError:
                    raise OpStuck("lexical", "") from None  # error_token reports it
            elif kind is TEST:
                if (("kw", m["KW"]) if tk == "KW" else ("term", tk)) not in op[1]:
                    if op[4]:
                        raise OpStuck(_expected(op[1]))
                    pc = op[2]
                continue
            elif kind is CHOICE:
                pc = op[1].get(("kw", m["KW"]) if tk == "KW" else ("term", tk), op[2])
                if pc is None:
                    raise OpStuck(_expected(op[3]))
                continue
            elif kind is CALL:
                callee = op[4] if op[4].code is not None else op_enter(op[4], m, tk)
                stack.append((code, pc, obj, op, proc))
                proc, code, pc, obj = callee, callee.code, 0, ModelObject(callee.cls)
                slots = obj.slots
                continue
            elif kind is JUMP:
                pc = op[1]
                continue
            elif kind is FLAG:
                if tk != "KW" or m["KW"] != op[4]:
                    continue
                slots[op[2]] = True
            else:  # RET: finish the object, then fill the slot of the CALL that opened it
                for f in proc.flags:
                    slots.setdefault(f, False)
                if bounded := proc.cls.tables().bounded:
                    miscounts += [(obj, message) for f in bounded
                                  if (message := miscount(obj, f, len(obj.values_of(f))))]
                if not stack:
                    break
                value = obj
                code, pc, obj, op, proc = stack.pop()
                slots = obj.slots
            if kind is not RET:  # a keyword, terminal or flag read its token: read the next
                m = read()
                tk = m.lastgroup
                if kind is not TERM:
                    continue
            # written in place: in a grammar without problems each operator fits its feature
            name = op[2]
            if op[5]:
                slots.setdefault(name, []).append(value)
            elif name in slots:
                raise OpStuck("syntax", f"feature {name!r} assigned twice")
            else:
                slots[name] = value
        if tk != "EOF":
            raise OpStuck("end of input")
    except OpStuck as stuck:
        tok = lexer.error_token(m, matches, text, file)  # or a lexical error, which wins
        code, message = stuck.args if len(stuck.args) == 2 else ("syntax", f"expected "
            f"{stuck.args[0]}, found " + ("end of input" if tok.kind == "EOF" else f"'{tok.text}'"))
        raise DiagnosticError([error("parse", code, message, location=tok.location)]) from None
    if miscounts:
        tree = Tree(obj)  # for the paths, only once a problem was found
        raise DiagnosticError([error("parse", "model-multiplicity", message, path=tree.path(o))
                               for o, message in miscounts])
    return Model(obj, g.ast)


def op_random_model(g, rng, max_depth=8):
    """generate_random_model as it was before it walked the elements: one
    loop runs the compiled ops on an explicit stack, making the same draws,
    once the grammar has no problems, and the reference check finds no left
    recursion and no rule that derives no finite text."""
    if stuck := g.analysis().problems or [d for d in ref_check_grammar(g)
                                          if d.code in ("gr-left-recursion", "gr-unproductive")]:
        raise DiagnosticError(stuck)
    a, procs = g.analysis(), op_compile(g)
    reserved = {k for k in g.keywords() if k and (k[0].isalpha() or k[0] == "_")}

    def rand_id():
        while True:
            name = rng.choice("abcdefgh") + "".join(
                rng.choice("abcdefgh123_") for _ in range(rng.randint(0, 5)))
            if name not in reserved:
                return name

    def rand_string():
        alphabet = "abc XYZ 123 _-:"
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        if rng.random() < 0.2:
            s += rng.choice(['"', "\\", "\n", "\t"])
        return s

    def enter(p, depth):
        while p.code is None:
            alts = g.by_name[p.name].alternatives
            p = procs[min(alts, key=a.height.get) if depth > max_depth else rng.choice(alts)]
        return p

    terminal = {"ID": rand_id, "STRING": rand_string, "INT": lambda: rng.randint(0, 20)}
    forced_depth, most = max_depth + len(procs), grammar_module._MAX_OBJECTS
    stack = []  # below the top frame: (code, pc, obj, passes, op, proc), op the CALL it fills
    made, depth = 1, 0
    proc = enter(procs[g.entry], 0)
    code, pc, obj, passes = proc.code, 0, ModelObject(proc.cls), {}  # passes: loop head -> count
    while True:
        op = code[pc]
        pc += 1
        kind = op[0]
        if kind is TERM:
            value = terminal[op[4]]()
        elif kind is CALL:
            stack.append((code, pc, obj, passes, op, proc))
            made += 1
            depth = len(stack) if made < most else float("inf")
            proc = enter(op[4], depth)
            code, pc, obj, passes = proc.code, 0, ModelObject(proc.cls), {}
            continue
        elif kind is TEST:
            if op[4]:  # a '+' loop: its first pass is taken, past its head TEST
                passes[pc] = 1
                pc += 1
            elif ((depth <= forced_depth and passes.get(pc - 1, 0) < op_short(op[3], obj)
                   and op_room(code, op, obj))
                  or (depth <= max_depth and passes.get(pc - 1, 0) < 4
                      and rng.random() < 0.5 and op_room(code, op, obj))):
                if code[op[2] - 1] == (JUMP, pc - 1):  # a loop's head: count the pass
                    passes[pc - 1] = passes.get(pc - 1, 0) + 1
            else:
                passes.pop(pc - 1, None)
                pc = op[2]
            continue
        elif kind is CHOICE:  # an alternative's start is never 0
            short = depth <= forced_depth and next(
                (start for reads, start in op[5] if op_short(reads, obj)), None)
            pc = short or (op[7] if depth > max_depth else rng.choice(op[5])[1])
            continue
        elif kind is JUMP:
            pc = op[1]
            continue
        elif kind is not RET:  # a keyword, or a flag: set with even odds
            if kind is FLAG and rng.random() < 0.5:
                obj.slots[op[2]] = True
            continue
        else:  # RET: finish the object, then fill the slot of the CALL that opened it
            for f in proc.flags:
                obj.slots.setdefault(f, False)
            if not stack:
                return Model(obj, g.ast)
            value = obj
            code, pc, obj, passes, op, proc = stack.pop()
            depth = len(stack) if made < most else float("inf")
        if op[5]:
            obj.slots.setdefault(op[2], []).append(value)
        else:
            obj.slots.setdefault(op[2], value)


def op_short(reads, obj):
    """The sum of the lower bounds of the features the ops ``reads`` assign,
    if one of them has fewer values in ``obj``, else 0."""
    feats = {o[1] for o in reads if o[1].lower}
    short = any(len(obj.values_of(f)) < f.lower for f in feats)
    return sum([f.lower for f in feats]) if short else 0


def op_room(code, op, obj):
    """Whether ``obj`` has room for one more pass of the part that TEST
    ``op`` guards: the '+=' ops in its reads and those from the part's end
    on stay within each finite upper bound."""
    adds = Counter([o[1] for o in op[3] if o[5] and o[1].upper is not UNBOUNDED])
    if adds:
        adds.update([o[1] for o in code[op[2]:] if (o[0] is TERM or o[0] is CALL) and o[5]
                     and o[1] in adds])
    return all(len(obj.values_of(f)) + k <= f.upper for f, k in adds.items())


class RefCursors:
    def __init__(self, obj, lexer):
        self.obj, self.used, self.lexer = obj, {}, lexer

    def raw(self, feature):
        if not self.obj.is_set(feature):
            return []
        return self.obj.values(feature)

    def available(self, e, later=()):
        """Whether ``e`` has a value left, past those that the '+='
        assignments ``later`` take."""
        if e.op == "?":
            return self.obj.get(e.feature) is True and not self.used.get(e.feature)
        left = self.raw(e.feature)[self.used.get(e.feature, 0):]
        taken = sum(1 for y in later if y.feature == e.feature)
        return len(left) > taken and (e.callee != "ID" or self.lexer.reads_as_id(left[0]))

    def take(self, e):
        i = self.used.get(e.feature, 0)
        self.used[e.feature] = i + 1
        return self.raw(e.feature)[i]


def ref_has_available(e, cur, later):
    if isinstance(e, Assignment):
        return cur.available(e, later)
    if isinstance(e, Sequence):
        return any(ref_has_available(x, cur, later) for x in e.items)
    if isinstance(e, (Opt, Repeat)):
        return ref_has_available(e.inner, cur, later)
    if isinstance(e, Group):
        return any(ref_has_available(x, cur, later) for x in e.alternatives)
    return False


def ref_sure(e):
    """The '+=' assignments that run each time ``e`` runs."""
    if isinstance(e, Assignment):
        return [e] if e.op == "+=" else []
    if isinstance(e, Sequence):
        return [y for x in e.items for y in ref_sure(x)]
    if isinstance(e, Repeat) and e.kind == "+":
        return ref_sure(e.inner)
    return []


class RefRenderer:
    def __init__(self, g):
        self.g, self.a, self.problems, self.tokens = g, RefAnalysis(g), [], []

    def render_obj(self, obj):
        rule = self.g.by_name.get(obj.cls.name)
        if not isinstance(rule, ConcreteRule):
            self.problems.append((obj, "gr-no-rule",
                                  f"no concrete rule for class {obj.cls.name!r}"))
            return
        cur = RefCursors(obj, self.g.lexer())
        self.walk(rule.body, cur)
        flags = ref_flags(rule.body, [])
        for f in obj.slots:
            used = cur.used.get(f, 0)
            feat = obj.cls.find_feature(f)
            if feat is not None and not feat.is_attribute and not feat.containment:
                continue
            if f in flags:
                continue
            if used < len(cur.raw(f)):
                self.problems.append((obj, "gr-unset-mandatory",
                                      f"rule {rule.name!r} cannot emit all values of "
                                      f"{obj.cls.name}.{f}"))

    def walk(self, e, cur, later=()):
        """Render ``e``; ``later``: the '+=' assignments sure to run after it,
        whose values an optional part, a loop or a choice leaves."""
        tokens, problems = self.tokens, self.problems
        if isinstance(e, Keyword):
            tokens.append(e.text)
            return
        if isinstance(e, Assignment):
            if e.op == "?":
                if cur.available(e):
                    tokens.append(e.keyword)
                    cur.used[e.feature] = 1
                return
            if not cur.available(e):
                left = cur.raw(e.feature)[cur.used.get(e.feature, 0):]
                why = f"value {left[0]!r} is not an ID" if left else "has no value to render"
                problems.append((cur.obj, "gr-unset-mandatory",
                                 f"{cur.obj.cls.name}.{e.feature} {why}"))
                return
            value = cur.take(e)
            if e.callee == "STRING":
                tokens.append(escape_string(value))
            elif e.callee in ("ID", "INT"):
                tokens.append(str(value))
            else:
                self.render_obj(value)
            return
        if isinstance(e, Sequence):
            for i, x in enumerate(e.items):
                self.walk(x, cur, [*later, *[y for z in e.items[i + 1:] for y in ref_sure(z)]])
            return
        if isinstance(e, Opt):
            if ref_has_available(e.inner, cur, later):
                self.walk(e.inner, cur, later)
            return
        if isinstance(e, Repeat):
            if e.kind == "+" and not ref_has_assignments(e.inner):
                self.walk(e.inner, cur, later)  # one pass, as parsing reads one or more
                return
            if e.kind == "+" and not ref_has_available(e.inner, cur, later):
                problems.append((cur.obj, "gr-unset-mandatory",
                                 "'+' repetition has nothing to render"))
                return
            while ref_has_available(e.inner, cur, later):
                self.walk(e.inner, cur, later)
            return
        for alt in e.alternatives:
            if ref_has_available(alt, cur, later):
                self.walk(alt, cur, later)
                return
        for alt in e.alternatives:
            if not ref_has_assignments(alt):
                self.walk(alt, cur, later)
                return
        for alt in e.alternatives:
            if self.a.elem_nullable(alt):
                return
        problems.append((cur.obj, "gr-unset-mandatory", "no renderable alternative in group"))


def ref_layout(tokens):
    """render_ast's layout as it was, a pass over the token list: one space
    between tokens, a newline after ';' and '}', 4-space indentation inside
    braces."""
    lines, current, depth = [], [], 0
    for tok in tokens:
        if tok == "}":
            depth = max(0, depth - 1)
        current.append(tok if current else "    " * depth + tok)
        if tok == "{":
            depth += 1
        if tok in (";", "}"):
            lines.append(" ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + ("\n" if lines else "")


def ref_render_ast(m, g):
    renderer = RefRenderer(g)
    renderer.render_obj(m.root)
    if renderer.problems:
        tree = Tree(m.root)
        raise DiagnosticError([error("grammar", code, message, path=tree.path(obj))
                               for obj, code, message in renderer.problems])
    return ref_layout(renderer.tokens)


def ref_reachable_rules(g):
    out, frontier = [], [g.entry]
    seen = set()

    def callee_names(e, acc):
        if isinstance(e, Assignment):
            if e.callee and e.callee not in TERMINALS:
                acc.append(e.callee)
        elif isinstance(e, Sequence):
            for x in e.items:
                callee_names(x, acc)
        elif isinstance(e, (Opt, Repeat)):
            callee_names(e.inner, acc)
        elif isinstance(e, Group):
            for x in e.alternatives:
                callee_names(x, acc)

    while frontier:
        name = frontier.pop()
        if name in seen or name not in g.by_name:
            continue
        seen.add(name)
        out.append(name)
        r = g.by_name[name]
        acc = []
        if isinstance(r, AbstractRule):
            acc.extend(r.alternatives)
        else:
            callee_names(r.body, acc)
        frontier.extend(acc)
    return out


def ref_finite_rules(g):
    """The rules that derive a finite text, in rounds: after round k, those
    with a derivation tree of height k or less. Unknown callees count as
    finite, as _check_rules reports them."""
    done = set()

    def derives(e):
        if isinstance(e, Assignment):
            return e.op == "?" or e.callee not in g.by_name or e.callee in done
        if isinstance(e, Sequence):
            return all(derives(x) for x in e.items)
        if isinstance(e, Repeat):
            return e.kind == "*" or derives(e.inner)
        if isinstance(e, Group):
            return any(derives(x) for x in e.alternatives)
        return True  # a keyword or an optional part

    for _ in g.rules:
        done |= {r.name for r in g.rules if (
            any(a in done or a not in g.by_name for a in r.alternatives)
            if isinstance(r, AbstractRule) else derives(r.body))}
    return done


def ref_check_grammar(g):
    diags = []
    a = RefAnalysis(g)
    reachable = ref_reachable_rules(g)

    # left recursion: cycle over leftmost rule references
    def left_refs(e, acc):
        if isinstance(e, Assignment):
            if e.op != "?" and e.callee and e.callee not in TERMINALS:
                acc.add(e.callee)
        elif isinstance(e, Sequence):
            for x in e.items:
                left_refs(x, acc)
                if not a.elem_nullable(x):
                    break
        elif isinstance(e, (Opt, Repeat)):
            left_refs(e.inner, acc)
        elif isinstance(e, Group):
            for x in e.alternatives:
                left_refs(x, acc)

    graph = {}
    for name in reachable:
        r = g.by_name[name]
        acc = set()
        if isinstance(r, AbstractRule):
            acc.update(al for al in r.alternatives if al in g.by_name)
        else:
            left_refs(r.body, acc)
        graph[name] = acc

    def reaches_itself(start):
        seen = set()
        frontier = list(graph.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(graph.get(node, ()))
        return False

    for name in reachable:
        if reaches_itself(name):
            diags.append(error("grammar", "gr-left-recursion",
                               f"rule {name!r} is left-recursive",
                               location=g.by_name[name].loc))

    finite = ref_finite_rules(g)
    diags += [error("grammar", "gr-unproductive", f"rule {name!r} derives no finite text",
                    location=g.by_name[name].loc) for name in reachable if name not in finite]

    if any(d.code == "gr-left-recursion" for d in diags):
        return diags  # FIRST sets are meaningless under left recursion

    def describe(keys):
        return ", ".join(sorted(
            f'"{k[1]}"' if k[0] == "kw" else k[1] for k in keys))

    def check_choices(e, rule, follow):
        if isinstance(e, Sequence):
            for i, x in enumerate(e.items):
                local = set()
                for y in e.items[i + 1:]:
                    local |= a.elem_first(y)
                    if not a.elem_nullable(y):
                        break
                else:
                    local |= follow
                check_choices(x, rule, local)
            return
        if isinstance(e, Opt):
            overlap = a.elem_first(e.inner) & follow
            if overlap:
                diags.append(error("grammar", "gr-ambiguous",
                                   f"in rule {rule!r}: optional part and its continuation both "
                                   f"start with {describe(overlap)}"))
            check_choices(e.inner, rule, follow)
            return
        if isinstance(e, Repeat):
            overlap = a.elem_first(e.inner) & follow
            if overlap:
                diags.append(error("grammar", "gr-ambiguous",
                                   f"in rule {rule!r}: repeated part and its continuation both "
                                   f"start with {describe(overlap)}"))
            check_choices(e.inner, rule, a.elem_first(e.inner) | follow)
            return
        if isinstance(e, Group):
            firsts = [a.elem_first(x) for x in e.alternatives]
            for i in range(len(firsts)):
                for j in range(i + 1, len(firsts)):
                    overlap = firsts[i] & firsts[j]
                    if overlap:
                        diags.append(error(
                            "grammar", "gr-ambiguous",
                            f"in rule {rule!r}: alternatives {i + 1} and {j + 1} both start "
                            f"with {describe(overlap)}"))
            nullable_alts = [x for x in e.alternatives if a.elem_nullable(x)]
            if len(nullable_alts) > 1:
                diags.append(error("grammar", "gr-ambiguous",
                                   f"in rule {rule!r}: more than one alternative can be empty"))
            for x in e.alternatives:
                check_choices(x, rule, follow)
            return

    for name in reachable:
        r = g.by_name[name]
        if isinstance(r, AbstractRule):
            firsts = [(alt, a.first.get(alt, set())) for alt in r.alternatives]
            for i in range(len(firsts)):
                for j in range(i + 1, len(firsts)):
                    overlap = firsts[i][1] & firsts[j][1]
                    if overlap:
                        diags.append(error(
                            "grammar", "gr-ambiguous",
                            f"in rule {name!r}: alternatives {firsts[i][0]!r} and "
                            f"{firsts[j][0]!r} both start with {describe(overlap)}"))
        else:
            check_choices(r.body, name, set())
    return diags


@pytest.fixture(scope="module")
def grammars(selfhost, css):
    ast = selfhost[1]
    return {"selfhost": selfhost[3], "css": css[3],
            "skeleton": parse_grammar(generate_grammar_skeleton(ast), ast)}


def outcome(fn, *args):
    """The result of ``fn``, or the diagnostics it raised."""
    try:
        return "ok", fn(*args)
    except DiagnosticError as exc:
        return "diagnostics", exc.diagnostics


def sample_value(f):
    if f.is_attribute:
        return {"string": "s", "integer": 7, "boolean": True}[f.type.kind]
    return ModelObject(f.type)


def mutate(m, kind, pick):
    """Break one object of ``m`` in place: drop a value, add a surplus
    value, flip a flag, or put in an object whose class has no rule."""
    objs = list(iter_tree(m.root))
    obj = objs[pick % len(objs)]
    feats = list(obj.cls.all_features())
    if kind == "drop":
        held = [f for f in feats if obj.is_set(f.name)]
        if held:
            f = held[pick % len(held)]
            if f.many and len(obj.slots[f.name]) > 1:
                del obj.slots[f.name][pick % len(obj.slots[f.name])]
            else:
                del obj.slots[f.name]
    elif kind == "surplus" and feats:
        f = feats[pick % len(feats)]
        if f.many:
            vals = obj.slots.setdefault(f.name, [])
            vals.append(vals[0] if vals else sample_value(f))
        elif not obj.is_set(f.name):
            obj.slots[f.name] = sample_value(f)
    elif kind == "flag":
        flags = [f for f in feats if f.is_attribute and f.type.kind == "boolean"]
        if flags:
            f = flags[pick % len(flags)]
            obj.slots[f.name] = not obj.get(f.name)
    elif kind == "stranger":
        held = [f for f in feats if not f.is_attribute and f.containment]
        if held:
            f = held[pick % len(held)]
            stranger = ModelObject(MetaClass("Stranger"))
            if f.many:
                obj.slots.setdefault(f.name, []).append(stranger)
            else:
                obj.slots[f.name] = stranger


GRAMMARS = ["selfhost", "css", "skeleton"]


class TestAgainstReference:
    @pytest.mark.parametrize("name", GRAMMARS)
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["none", "drop", "surplus", "flag", "stranger"]),
           pick=st.integers(0, 10 ** 6))
    def test_render_same_text_or_diagnostics(self, grammars, name, seed, kind, pick):
        g = grammars[name]
        m = generate_random_model(g, random.Random(seed), max_depth=4)
        mutate(m, kind, pick)
        assert outcome(render_ast, m, g) == outcome(ref_render_ast, m, g)

    @pytest.mark.parametrize("name", GRAMMARS)
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           edit=st.sampled_from(["none", "drop", "insert", "swap"]),
           at=st.integers(0, 10 ** 6), other=st.integers(0, 10 ** 6))
    def test_parse_same_ast_or_diagnostics(self, grammars, name, seed, edit, at, other):
        g = grammars[name]
        text = render_ast(generate_random_model(g, random.Random(seed), max_depth=4), g)
        toks = [t.text for t in g.lexer().tokenize(text)][:-1]
        vocab = sorted(g.keywords()) + ["name", '"s"', "7"]
        if toks and edit == "drop":
            del toks[at % len(toks)]
        elif edit == "insert":
            toks.insert(at % (len(toks) + 1), vocab[other % len(vocab)])
        elif len(toks) > 1 and edit == "swap":
            i = at % (len(toks) - 1)
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        got = outcome(parse_text, " ".join(toks), g)
        want = outcome(ref_parse_text, " ".join(toks), g)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert model_equals(got[1], want[1])
        else:
            assert got[1] == want[1]

    def test_render_reads_no_slot_copies(self, css, monkeypatch):
        """Rendering reads each slot in place: no ModelObject.values copy."""
        g = css[3]
        models = [parse_text((SAMPLES / "css" / f).read_text(), g)
                  for f in ("grouped.css", "split.css")]
        calls = []
        values = ModelObject.values
        monkeypatch.setattr(ModelObject, "values",
                            lambda self, name: calls.append(name) or values(self, name))
        texts = [render_ast(m, g) for m in models]
        assert calls == []
        assert [ref_render_ast(m, g) for m in models] == texts
        assert calls


def elements(e):
    """``e`` and every element below it, in text order."""
    yield e
    for x in _children(e):
        yield from elements(x)


def assert_facts_match_reference(g):
    a, ref = g.analysis(), RefAnalysis(g)
    assert a.first == ref.first and a.nullable == ref.nullable
    for r in g.rules:
        if isinstance(r, ConcreteRule):
            assert list(a.procs[r.name].flags) == ref_flags(r.body, [])
            for e in elements(r.body):
                assert e.first == ref.elem_first(e)
                assert e.nullable == ref.elem_nullable(e)
                assert e.assigns == tuple(x for x in elements(e) if isinstance(x, Assignment))


# Random grammars over a small metamodel, to reach the corners the shipped
# grammars do not: empty alternatives next to assigning ones, repetitions of
# parts that can be empty, flags inside choices, left recursion.
TOY_MM = """
class Doc { val Node[*] items; attr String title; attr boolean draft; }
abstract class Node { }
class Leaf extends Node { attr String name; attr String[*] tags; attr boolean on; }
class Pair extends Node { val Node left; val Node[*] rest; attr int n; }
"""
TOY_ATOMS = {
    "Doc": ["items += Node", "title = ID", "title = STRING", 'draft ? "draft"'],
    "Leaf": ["name = ID", "tags += STRING", 'on ? "on"'],
    "Pair": ["left = Node", "rest += Node", "n = INT"],
}
TOY_KEYWORDS = ['"a"', '"b"', '"("', '")"', '","', '";"']


def toy_body(cls, atoms=TOY_ATOMS):
    def grow(inner):
        return st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: "( " + " ".join(xs) + " )"),
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: "( " + " | ".join(xs) + " )"),
            st.tuples(inner, st.sampled_from("?*+")).map(lambda t: f"( {t[0]} ){t[1]}"),
        )
    return st.recursive(st.sampled_from(atoms[cls] + TOY_KEYWORDS), grow, max_leaves=8)


@st.composite
def toy_grammars(draw, prefixed=True):
    """Grammar text over TOY_MM. Unless ``prefixed``, Leaf and Pair may
    start with anything, Pair's ``left`` too, which can make Pair left-recursive."""
    lead = (lambda kw: f'"{kw}" ') if prefixed or draw(st.booleans()) else (lambda kw: "")
    return (f"Doc : {draw(toy_body('Doc'))} ;\n"
            "Abstract Node : Leaf | Pair ;\n"
            f"Leaf : {lead('leaf')}{draw(toy_body('Leaf'))} ;\n"
            f"Pair : {lead('pair')}{draw(toy_body('Pair'))} ;\n")


@pytest.fixture(scope="module")
def toy_ast():
    return parse_metamodel(TOY_MM, "toy")


# Pair's only call is in an alternative that the one before it shadows: both
# start with INT, so a parser never takes it.
SHADOWED_CALL_GRAMMAR = ('Doc : ( ( items += Node )? items += Node ) ;\n'
                         'Abstract Node : Leaf | Pair ;\n'
                         'Leaf : "leaf" name = ID ;\n'
                         'Pair : "pair" ( n = INT | ( n = INT left = Node ) ) ;\n')


@st.composite
def shadowed_grammars(draw):
    """Grammar text over TOY_MM whose Pair holds its only call in a later
    alternative of a group that an earlier alternative shadows, as both
    start alike; the group may be optional or repeated, and a keyword or
    an assignment may follow it."""
    lead = draw(st.sampled_from(["n = INT", '"a"', '"("']))
    call = draw(st.sampled_from(["left = Node", "rest += Node", "( rest += Node )*"]))
    group = draw(st.sampled_from(["{}", "{} ?", "{} *"])).format(f"( {lead} | {lead} {call} )")
    after = draw(st.sampled_from(["", '"b"', "n = INT"]))
    return ("Doc : ( items += Node )* ;\nAbstract Node : Leaf | Pair ;\n"
            f'Leaf : "leaf" name = ID ;\nPair : "pair" {group} {after} ;\n')


def nested_grammar(ast):
    """Loops, optionals and choices nested 30 deep, over TOY_MM."""
    opts, loops, choice = "title = ID", "items += Node", "n = INT"
    for i in range(30):
        opts, loops = f'( "o{i}" {opts} )?', f'( "k{i}" {loops} )*'
        choice = f'( "c{i}" {choice} | "d{i}" rest += Node )'
    return parse_grammar(f'Doc : {opts} {loops} ; Abstract Node : Leaf | Pair ; '
                         f'Leaf : "leaf" name = ID ; Pair : "pair" {choice} ;', ast)


class TestCompiledFacts:
    @pytest.mark.parametrize("name", GRAMMARS)
    def test_shipped_grammars(self, grammars, name):
        assert_facts_match_reference(grammars[name])
        assert check_grammar(grammars[name]) == ref_check_grammar(grammars[name])

    @settings(max_examples=150, deadline=None)
    @given(text=toy_grammars(prefixed=False))
    def test_random_grammars(self, toy_ast, text):
        g = parse_grammar(text, toy_ast)
        assert_facts_match_reference(g)
        assert check_grammar(g) == ref_check_grammar(g)

    @settings(max_examples=150, deadline=None)
    @given(text=toy_grammars(), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["none", "drop", "surplus", "flag", "stranger"]),
           edit=st.sampled_from(["none", "drop", "insert", "swap"]),
           at=st.integers(0, 10 ** 6))
    @example(text=SHADOWED_CALL_GRAMMAR, seed=8, kind="none", edit="none", at=0)  # pair 6 leaf bd
    def test_random_grammars_parse_and_render(self, toy_ast, text, seed, kind, edit, at):
        g = parse_grammar(text, toy_ast)
        m = generate_random_model(g, random.Random(seed), max_depth=3)
        rendered = outcome(render_ast, m, g)
        assert rendered == outcome(ref_render_ast, m, g)
        if rendered[0] == "ok":
            toks = [t.text for t in g.lexer().tokenize(rendered[1])][:-1]
            vocab = sorted(g.keywords()) + ["x", '"s"', "7"]
            if toks and edit == "drop":
                del toks[at % len(toks)]
            elif edit == "insert":
                toks.insert(at % (len(toks) + 1), vocab[at % len(vocab)])
            elif len(toks) > 1 and edit == "swap":
                i = at % (len(toks) - 1)
                toks[i], toks[i + 1] = toks[i + 1], toks[i]
            got = outcome(parse_text, " ".join(toks), g)
            want = outcome(ref_parse_text, " ".join(toks), g)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert model_equals(got[1], want[1])
            else:
                assert got[1] == want[1]
        mutate(m, kind, at)
        assert outcome(render_ast, m, g) == outcome(ref_render_ast, m, g)


# A metamodel whose bounds a grammar can break: mandatory features with and
# without defaults (a default counts as a value), and features with a finite
# upper bound above one.
BOUNDED_MM = """
class Box { val Part[1..*] parts; attr String[1] label; attr String[0..2] tags;
            attr String[1] named = "n"; attr int[1] size; attr boolean open; }
class Part { attr String[1] name; attr String[0..2] notes; val Part[0..2] subs; }
"""
BOUNDED_ATOMS = {
    "Box": ["parts += Part", "label = ID", "tags += STRING", "named = ID", "size = INT",
            'open ? "open"'],
    "Part": ["name = ID", "notes += STRING"],
}


@st.composite
def bounded_grammars(draw):
    """Grammar text over BOUNDED_MM; Part nests only inside a repetition,
    so that random models stay finite."""
    return (f"Box : \"box\" {draw(toy_body('Box', BOUNDED_ATOMS))} ;\n"
            f"Part : \"part\" {draw(toy_body('Part', BOUNDED_ATOMS))} "
            f"( \"[\" subs += Part \"]\" )* ;\n")


@pytest.fixture(scope="module")
def bounded_ast():
    return parse_metamodel(BOUNDED_MM, "bounded")


def assert_parse_matches_reference(text, g):
    got = outcome(parse_text, text, g)
    want = outcome(ref_parse_text, text, g)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert model_equals(got[1], want[1])
    else:
        assert got[1] == want[1]
    return got


def mutated(g, text, edit, at):
    """``text`` with one token dropped, inserted or swapped, as ``edit`` says."""
    toks = [t.text for t in g.lexer().tokenize(text)][:-1]
    vocab = sorted(g.keywords()) + ["x", '"s"', "7"]
    if toks and edit == "drop":
        del toks[at % len(toks)]
    elif edit == "insert":
        toks.insert(at % (len(toks) + 1), vocab[at % len(vocab)])
    elif len(toks) > 1 and edit == "swap":
        i = at % (len(toks) - 1)
        toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


def hand_built(ast, name_callee="ID", part=None):
    """The rules of BOUNDED_GRAMMAR built without parse_grammar; ``part``
    stands in for the Part class, ``name_callee`` for Part.name's callee."""
    box, part = ast.classifier("Box"), part or ast.classifier("Part")
    return Grammar([
        ConcreteRule("Box", box, Sequence([
            Keyword("box"), Opt(Sequence([Keyword("label"), Assignment("label", "=", "ID")])),
            Repeat(Sequence([Keyword("tag"), Assignment("tags", "+=", "STRING")]), "*"),
            Repeat(Assignment("parts", "+=", "Part"), "*")])),
        ConcreteRule("Part", part, Sequence([
            Keyword("part"), Opt(Assignment("name", "=", name_callee))])),
    ], ast)


BOUNDED_GRAMMAR = """
Box : "box" ( "label" label = ID )? ( "tag" tags += STRING )* parts += Part * ;
Part : "part" name = ID ? ;
"""
BOUNDED_TEXTS = ["box", "box label x part p", 'box label x tag "a" tag "b" tag "c" part p',
                 "box part part q", "box label x part p part"]


@st.composite
def free_part_grammars(draw):
    """Grammar text over BOUNDED_MM in which ``subs += Part`` may land
    anywhere in Part, also where Part must call itself."""
    atoms = dict(BOUNDED_ATOMS, Part=BOUNDED_ATOMS["Part"] + ["subs += Part"] * 2)
    return (f"Box : \"box\" {draw(toy_body('Box', atoms))} ;\n"
            f"Part : \"part\" {draw(toy_body('Part', atoms))} ;\n")


class TestFiniteText:
    """check_grammar reports each reachable rule that derives no finite
    text, and generate_random_model raises those diagnostics instead of
    recursing without end."""

    def test_rule_that_must_call_itself(self, bounded_ast):
        g = parse_grammar('Part : "part" name = ID "[" subs += Part "]" ;', bounded_ast)
        (d,) = check_grammar(g)
        assert (d.code, d.message, d.location.line, d.location.column) == (
            "gr-unproductive", "rule 'Part' derives no finite text", 1, 1)
        with pytest.raises(DiagnosticError) as exc:
            generate_random_model(g, random.Random(1))
        assert exc.value.diagnostics == [d]

    def test_reachable_rules_are_found_once(self, bounded_ast, monkeypatch):
        """Once per grammar, by its analysis; check_grammar and
        generate_random_model read them from there."""
        calls, walk = [], grammar_module._reachable_rules
        monkeypatch.setattr(grammar_module, "_reachable_rules",
                            lambda g: calls.append(g) or walk(g))
        g = parse_grammar('Part : "part" name = ID "[" subs += Part "]" ;', bounded_ast)
        assert [d.code for d in check_grammar(g)] == ["gr-unproductive"]
        with pytest.raises(DiagnosticError):
            generate_random_model(g, random.Random(1))
        assert calls == [g]

    def test_a_rule_that_is_its_own_alternative(self, toy_ast):
        """Past max_depth Node, which ties with Leaf for least height, would
        be taken again without end: generate_random_model refuses the left
        recursion instead, with check_grammar's diagnostic."""
        g = parse_grammar('Doc : ( items += Node )* ; Abstract Node : Node | Leaf ; '
                          'Leaf : "leaf" ;', toy_ast)
        (d,) = check_grammar(g)
        assert (d.code, d.message, d.location.column) == (
            "gr-left-recursion", "rule 'Node' is left-recursive", 37)
        with time_bound(5):
            assert outcome(generate_random_model, g, random.Random(1), 0) == (
                "diagnostics", [d])

    def test_a_way_out_is_enough(self, bounded_ast):
        for body in ('( "[" subs += Part "]" | "leaf" )', '( "[" subs += Part "]" )?',
                     '( "[" subs += Part "]" )*'):
            g = parse_grammar(f'Part : "part" name = ID {body} ;', bounded_ast)
            assert check_grammar(g) == []
            generate_random_model(g, random.Random(1))

    def test_least_height_ends(self):
        """Past max_depth the abstract rule takes B, the alternative of least
        height; A, with fewer rule references, must call X again."""
        ast = parse_metamodel("abstract class X { } class A extends X { val X x; }\n"
                              "class B extends X { val C c; val C d; } class C { }", "chain")
        g = parse_grammar('Abstract X : A | B ; A : "a" x = X ; '
                          'B : "b" c = C d = C ; C : "c" ;', ast)
        assert check_grammar(g) == [] == ref_check_grammar(g)
        assert [g.analysis().height[r] for r in "XABC"] == [2, 3, 2, 1]
        for seed in range(30):
            m = generate_random_model(g, random.Random(seed), max_depth=3)
            assert model_equals(parse_text(render_ast(m, g), g), m)

    @settings(max_examples=150, deadline=None)
    @given(text=free_part_grammars(), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_grammars(self, bounded_ast, text, seed):
        g = parse_grammar(text, bounded_ast)
        problems = check_grammar(g)
        assert problems == ref_check_grammar(g)
        stuck = [d for d in problems if d.code == "gr-unproductive"]
        got = outcome(generate_random_model, g, random.Random(seed), 3)
        assert got[0] == ("diagnostics" if stuck else "ok")
        assert not stuck or got[1] == stuck


class TestRandomModelBounds:
    """generate_random_model stops a repetition before a pass could add more
    values than a feature's finite upper bound allows, so every model it
    makes renders to text that parses back."""

    AST = ("class Doc { attr int[0..2] xs; attr int[0..3] ys; val Item[0..3] items; }\n"
           "class Item { attr String name; }")

    def test_repetitions_stop_at_the_upper_bound(self):
        ast = parse_metamodel(self.AST, "bounds")
        g = parse_grammar('Doc : "doc" ( xs += INT )* ( "pair" ys += INT ys += INT )* '
                          '( "item" items += Item )+ ; Item : name = ID ;', ast)
        counts = set()
        for seed in range(200):
            m = generate_random_model(g, random.Random(seed))
            root = m.root
            counts.add((len(root.values("xs")), len(root.values("ys")),
                        len(root.values("items"))))
            assert validate_model(m) == []
            assert model_equals(parse_text(render_ast(m, g), g), m)
        assert max(c[0] for c in counts) == 2 and max(c[2] for c in counts) == 3
        assert {c[1] for c in counts} == {0, 2}

    def test_a_nested_repetition_leaves_room_for_what_follows(self):
        """An inner repetition stops where the '+=' after it, in the same pass
        of the outer one, would pass the bound; so does a repetition that a
        mandatory '+=' follows."""
        ast = parse_metamodel(self.AST, "bounds")
        for grammar in ('Doc : "doc" ( "g" ( xs += INT )* "x" xs += INT )* ;',
                        'Doc : "doc" ( xs += INT )* "x" xs += INT ;'):
            g = parse_grammar(grammar + " Item : name = ID ;", ast)
            counts = {len(generate_random_model(g, random.Random(seed)).root.values("xs"))
                      for seed in range(200)}
            assert max(counts) == 2, grammar

    def test_repetitions_reach_the_lower_bound(self):
        """A pass is taken while a feature it assigns is below its lower
        bound, past max_depth too; the skeleton's first value is followed
        by a '*' loop."""
        ast = parse_metamodel("class A { val C[2..3] cs; }\nclass C { attr int x; }", "m")
        g = parse_grammar(generate_grammar_skeleton(ast), ast)
        for seed in range(50):
            m = generate_random_model(g, random.Random(seed))
            assert 2 <= len(m.root.values("cs")) <= 3
            assert validate_model(m) == []
            assert model_equals(parse_text(render_ast(m, g), g), m)
        ast = parse_metamodel("class A { val B[2..3] bs; }\nclass B { val C[1..2] cs; }\n"
                              "class C { }", "nested")
        g = parse_grammar('A : "a" ( bs += B )* ; B : "b" ( cs += C )* ; C : "c" ;', ast)
        for seed in range(20):
            m = generate_random_model(g, random.Random(seed), max_depth=0)
            assert validate_model(m) == []
            assert model_equals(parse_text(render_ast(m, g), g), m)

    def test_bounds_no_finite_model_meets_end(self):
        """Every A needs two As: past max_depth a forced chain longer than
        the number of rules would repeat forever, so it stops there."""
        ast = parse_metamodel("class A { val A[2..3] as; }", "m")
        g = parse_grammar('A : "a" ( as += A )* ;', ast)
        assert check_grammar(g) == []
        for seed in range(10):
            m = generate_random_model(g, random.Random(seed), max_depth=2)
            assert {d.code for d in validate_model(m)} == {"model-multiplicity"}
            tree = Tree(m.root)  # forcing stops where the stack passes max_depth + 1 rule
            assert max(tree.path(o).count("/as[") for o in tree.objects) == 4

    def test_forced_passes_that_add_nothing_end(self):
        """Past max_depth a group takes its first alternative that assigns a
        feature below its lower bound, not "x", its alternative of least
        height: the forced passes add to cs until the bound is met, and the
        loop stops after as many passes as the lower bound."""
        ast = parse_metamodel("class R { val A[1] a; }\nclass A { val C[2..3] cs; }\n"
                              "class C { }", "m")
        g = parse_grammar('R : "r" a = A ; A : "a" ( "c" cs += C | "x" )* ; C : "c" ;', ast)
        m = generate_random_model(g, random.Random(1), max_depth=0)
        assert validate_model(m) == []
        assert render_ast(m, g) == "r a c c c c\n"
        assert model_equals(parse_text(render_ast(m, g), g), m)

    @pytest.mark.parametrize("grammar, chain", [
        ('Abstract X : A | B ; A : "a" x = X ; B : "b" ;', 3001),
        ('A : "a" ( x = X | "b" ) ; Abstract X : A ;', 3002)])
    def test_past_the_recursion_limit(self, grammar, chain):
        """generate_random_model runs on an explicit stack: with every pass
        taken and every first alternative, max_depth=3000 makes a 3,000-deep
        chain under a recursion limit of 200, which validates, renders and
        parses back. Past max_depth the abstract rule, or the group, takes
        its alternative of least height."""
        class First(random.Random):
            def random(self):
                return 0.0

            def choice(self, seq):
                return seq[0]

        ast = parse_metamodel("abstract class X { } class A extends X { val X x; }\n"
                              "class B extends X { }", "chain")
        g = parse_grammar(grammar, ast)
        g.analysis()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            m = generate_random_model(g, First(), max_depth=3000)
            assert validate_model(m) == []
            text = render_ast(m, g)
            assert model_equals(parse_text(text, g), m)
        finally:
            sys.setrecursionlimit(limit)
        assert text == "a " * chain + "b\n"


def refusals(g, m):
    """The diagnostics with which parse_text, render_ast (of ``m``) and
    generate_random_model each refuse ``g``."""
    got = [outcome(parse_text, "box label x part p", g), outcome(render_ast, m, g),
           outcome(generate_random_model, g, random.Random(1))]
    assert [kind for kind, _ in got] == ["diagnostics"] * 3
    return [diags for _, diags in got]


class TestValidByConstruction:
    """parse_text proves all but the bounds once per grammar and checks the
    bounds as it finishes each object; the parser that wrote slots by name
    and then validated the whole model is the oracle. A grammar the proof
    does not cover, one with problems, is refused before any code runs."""

    def test_bounds(self, bounded_ast):
        g = parse_grammar(BOUNDED_GRAMMAR, bounded_ast)
        assert g.analysis().problems == []
        for text in BOUNDED_TEXTS:
            assert_parse_matches_reference(text, g)
        with pytest.raises(DiagnosticError) as exc:
            parse_text('box tag "a" tag "b" tag "c" part part', g)
        assert [(d.phase, d.code, d.path, d.message) for d in exc.value.diagnostics] == [
            ("parse", "model-multiplicity", "/", "Box.label: 0 value(s) violate bounds 1..1"),
            ("parse", "model-multiplicity", "/", "Box.tags: 3 value(s) violate bounds 0..2"),
            ("parse", "model-multiplicity", "/parts[0]",
             "Part.name: 0 value(s) violate bounds 1..1"),
            ("parse", "model-multiplicity", "/parts[1]",
             "Part.name: 0 value(s) violate bounds 1..1")]

    @settings(max_examples=150, deadline=None)
    @given(text=bounded_grammars(), seed=st.integers(0, 2 ** 32 - 1),
           edit=st.sampled_from(["none", "drop", "insert", "swap"]), at=st.integers(0, 10 ** 6))
    def test_random_bounded_grammars(self, bounded_ast, text, seed, edit, at):
        g = parse_grammar(text, bounded_ast)
        assert g.analysis().problems == []
        m = generate_random_model(g, random.Random(seed), max_depth=3)
        rendered = outcome(render_ast, m, g)
        if rendered[0] == "ok":
            assert_parse_matches_reference(mutated(g, rendered[1], edit, at), g)

    def test_hand_built_grammar(self, bounded_ast):
        g = hand_built(bounded_ast)
        assert g.analysis().problems == []
        for text in BOUNDED_TEXTS:
            assert_parse_matches_reference(text, g)

    def test_hand_built_grammar_with_problems_is_refused(self, bounded_ast):
        """An INT where Part.name wants a String, or a Part class of another
        metamodel: parse_text, render_ast and generate_random_model refuse
        the grammar before any text or model, with the diagnostics that
        parse_grammar gives for the same rules."""
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar(BOUNDED_GRAMMAR.replace("name = ID", "name = INT"), bounded_ast)
        want = [(d.code, d.message) for d in exc.value.diagnostics]
        assert want == [("gr-type", "INT does not fit String attribute 'name'")]
        m = parse_text("box label x part p", parse_grammar(BOUNDED_GRAMMAR, bounded_ast))
        got = refusals(hand_built(bounded_ast, name_callee="INT"), m)
        assert [[(d.code, d.message) for d in diags] for diags in got] == [want] * 3
        stranger = parse_metamodel(BOUNDED_MM, "other").classifier("Part")
        g = hand_built(bounded_ast, part=stranger)
        assert [d.code for d in g.analysis().problems] == ["gr-type", "gr-unknown-class"]
        assert refusals(g, m) == [sort_diagnostics(g.analysis().problems)] * 3
        for text in ["box label x part 7", "box label x part p", "box"]:
            assert_parse_matches_reference(text, g)
        assert g.analysis().parsers is None is g.analysis().renderers

    def test_invalid_ast_metamodel_is_refused(self):
        """A default that does not fit its attribute makes every Part
        invalid: parse_grammar refuses the AST metamodel with
        validate_metamodel's diagnostics, and so do parse_text, render_ast
        and generate_random_model for the same rules built by hand."""
        # BOUNDED_MM built by hand, as parse_metamodel refuses the extra feature
        string, integer, boolean = map(builtin_ecore().classifier, ("String", "int", "boolean"))
        part = MetaClass("Part")
        part.features = [MetaAttribute("name", 1, 1, type=string),
                         MetaAttribute("notes", 0, 2, type=string),
                         MetaReference("subs", 0, 2, type=part, containment=True),
                         MetaAttribute("weight", 0, 1, type=string, default=2)]
        box = MetaClass("Box", features=[
            MetaReference("parts", 1, UNBOUNDED, type=part, containment=True),
            MetaAttribute("label", 1, 1, type=string), MetaAttribute("tags", 0, 2, type=string),
            MetaAttribute("named", 1, 1, type=string, default="n"),
            MetaAttribute("size", 1, 1, type=integer), MetaAttribute("open", 0, 1, type=boolean)])
        mm = Metamodel("bounded", [box, part])
        with pytest.raises(DiagnosticError) as exc:
            parse_grammar(BOUNDED_GRAMMAR, mm)
        want = exc.value.diagnostics
        assert [(d.code, d.path) for d in want] == [("mm-bad-default", "/bounded/Part")]
        assert want == validate_metamodel(mm)
        assert refusals(hand_built(mm), Model(ModelObject(box), mm)) == [want] * 3

    def test_unknown_feature_is_refused(self, bounded_ast):
        """An assignment to a feature the class lacks is one of the
        grammar's problems: parse_text refuses the grammar with it."""
        g = hand_built(bounded_ast)
        g.rules[1].body.items[1].inner.feature = "bogus"
        with pytest.raises(DiagnosticError) as exc:
            parse_text("box label x part p", g)
        assert [(d.code, d.message) for d in exc.value.diagnostics] == [
            ("gr-unknown-feature", "class Part has no feature 'bogus'")]

    def test_parse_text_makes_no_lookup_by_name(self, grammars, css, selfhost, monkeypatch):
        """The shipped and skeleton grammars have no problems
        (TestAgainstReference compares their parses with the reference), and
        on the samples parse_text calls neither validate_model nor
        MetaClass.find_feature."""
        assert all(g.analysis().problems == [] for g in grammars.values())
        docs = [(css[3], (SAMPLES / "css" / f).read_text()) for f in ("grouped.css", "split.css")]
        docs.append((selfhost[3], (SAMPLES / "selfhost" / "xf.xf").read_text()))
        expected = [ref_parse_text(text, g) for g, text in docs]
        calls = []
        find = MetaClass.find_feature
        monkeypatch.setattr(MetaClass, "find_feature",
                            lambda cls, name: calls.append(name) or find(cls, name))
        assert "validate_model" not in vars(grammar_module)  # and meta's is watched
        monkeypatch.setattr("mmdsl.meta.validate_model",
                            lambda m: calls.append("validate_model") or validate_model(m))
        models = [parse_text(text, g) for g, text in docs]
        monkeypatch.undo()
        assert calls == []
        assert all(model_equals(a, b) for a, b in zip(models, expected))


class TestStack:
    """parse_text and render_ast run generated code on a trampoline: nesting
    is bounded by memory, not by the recursion limit."""

    def test_deep_qualified_name(self, selfhost):
        """5,000 nested QualifiedNames, under the interpreter's default
        recursion limit; the first parse generates the parser."""
        g = parse_grammar((SAMPLES / "selfhost" / "xf.gr").read_text(), selfhost[1])
        text = "skip " + " :: ".join(f"n{i}" for i in range(5000)) + " ;\n"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            m = parse_text(text, g)
            assert render_ast(m, g) == text
            assert model_equals(parse_text(text, g), m)
        finally:
            sys.setrecursionlimit(limit)

    def test_left_recursion_is_refused(self, toy_ast):
        """A left-recursive grammar passes parse_grammar; parse_text refuses
        it before any text, with check_grammar's diagnostics, located at the
        rules on the cycle."""
        g = parse_grammar('Doc : ( items += Node )* ; Abstract Node : Pair | Leaf ; '
                          'Leaf : "leaf" ; Pair : left = Node "x" ;', toy_ast)
        doc, node, leaf = (toy_ast.classifier(n) for n in ("Doc", "Node", "Leaf"))
        loop = Grammar([ConcreteRule("Doc", doc, Repeat(Assignment("items", "+=", "Node"), "*")),
                        AbstractRule("Node", node, ["Node", "Leaf"]),
                        ConcreteRule("Leaf", leaf, Keyword("leaf"))], toy_ast)
        for grammar, rules in [(g, ["Node", "Pair"]), (loop, ["Node"])]:
            want = check_grammar(grammar)
            assert [d.message for d in want] == [f"rule {r!r} is left-recursive" for r in rules]
            for text in ("leaf x", "leaf", ""):
                assert outcome(parse_text, text, grammar) == ("diagnostics", want)

    def test_containment_cycle_is_a_diagnostic(self, toy_ast):
        g = parse_grammar('Doc : ( items += Node )* ; Abstract Node : Leaf | Pair ; '
                          'Leaf : "leaf" ; Pair : "pair" ( left = Node )? ;', toy_ast)
        pair = ModelObject(toy_ast.classifier("Pair"))
        pair.slots["left"] = pair
        doc = ModelObject(toy_ast.classifier("Doc"), items=[pair])
        with pytest.raises(DiagnosticError) as exc:
            render_ast(Model(doc, toy_ast), g)
        got = [(d.code, d.path, d.message) for d in exc.value.diagnostics]
        assert got == [(d.code, d.path, d.message) for d in validate_model(Model(doc, toy_ast))]
        assert got == [
            ("model-containment", "/items[0]", "object of class Pair is contained more than once")]


# A grammar over TOY_MM with every terminal and a feature a rule may assign
# twice, and a left-recursive one; the pieces each end in a lexical error.
STREAM_GRAMMAR = ('Doc : ( items += Node )* ; Abstract Node : Leaf | Pair ; '
                  'Leaf : "leaf" name = ID ( "t" tags += STRING )* ( "again" name = ID )? ; '
                  'Pair : "pair" n = INT ( "(" left = Node ")" )? ;')
LOOP_GRAMMAR = ('Doc : ( items += Node )* ; Abstract Node : Pair | Leaf ; '
                'Leaf : "leaf" ; Pair : left = Node "x" ;')
LEXICAL = ["@", "9" * 5000, "²x", '"open', "/* open", '"bad\\q"', "1½"]


class TestStreamedTokens:
    """parse_text reads the lexer's matches one at a time; the parser fed by
    the reference scanner's token list is the oracle. A lexical error
    anywhere wins over every error the machine finds: a syntax error before
    or after it, and "assigned twice". A refused grammar wins over it."""

    @pytest.fixture(scope="class")
    def stream_grammars(self, toy_ast):
        return {"stream": parse_grammar(STREAM_GRAMMAR, toy_ast),
                "loop": parse_grammar(LOOP_GRAMMAR, toy_ast)}

    @pytest.mark.parametrize("lexical", LEXICAL, ids=[
        "at", "long-int", "superscript", "open-string", "open-comment", "bad-escape", "half"])
    @pytest.mark.parametrize("name, text, alone", [
        ("stream", "leaf a pair 3 ( leaf b )", "ok"),  # valid: only the lexical error
        ("stream", "leaf a ) pair 3", "syntax"),  # a syntax error before it
        ("stream", "leaf a pair ( leaf b )", "syntax"),
        ("stream", "leaf a again b again c", "syntax"),
        ("stream", "pair 3 pair", "syntax"),  # at the end of input
        ("stream", "leaf a again b", "syntax"),  # assigned twice
        ("stream", "pair 1 ( leaf a again b t \"x\" )", "syntax"),
    ])
    def test_lexical_error_wins(self, stream_grammars, name, text, alone, lexical):
        """The lexical piece goes after the text, and in front of it, and in
        its middle; it is reported wherever it stands."""
        g = stream_grammars[name]
        got = outcome(parse_text, text, g)
        assert got[0] == "ok" if alone == "ok" else [d.code for d in got[1]] == [alone]
        assert_parse_matches_reference(text, g)
        words = text.split()
        for broken in (f"{text} {lexical}", f"{lexical} {text}",
                       " ".join(words[:2] + [lexical] + words[2:])):
            got = outcome(parse_text, broken, g)
            assert got[0] == "diagnostics" and [d.code for d in got[1]] == ["lexical"]
            assert got == outcome(ref_parse_text, broken, g)

    @pytest.mark.parametrize("name, text, want", [
        ("stream", "leaf a again b", ("syntax", "feature 'name' assigned twice", 15)),
        ("stream", 'pair 1 ( leaf a t "s" ) leaf b again c',
         ("syntax", "feature 'name' assigned twice", 39)),
        ("stream", 'leaf "\tab"', ("syntax", "expected ID, found '\"\\tab\"'", 6))])
    def test_without_a_lexical_error(self, stream_grammars, name, text, want):
        """Without a lexical error the machine's own error stands, at the
        lookahead token; a string holding a tab is written with its escape."""
        with pytest.raises(DiagnosticError) as exc:
            parse_text(text, stream_grammars[name])
        (d,) = exc.value.diagnostics
        assert (d.code, d.message, d.location.column) == want and d.location.line == 1

    @pytest.mark.parametrize("text", ["", "leaf x", "leaf", *[f"leaf {p} x" for p in LEXICAL]],
                             ids=["empty", "cycle", "leaf", *[f"lexical-{i}" for i in range(7)]])
    def test_a_refused_grammar_wins(self, stream_grammars, text):
        """LOOP_GRAMMAR is left-recursive: parse_text refuses every text with
        check_grammar's gr-left-recursion diagnostics, one that holds a
        lexical error too."""
        g = stream_grammars["loop"]
        want = [d for d in check_grammar(g) if d.code == "gr-left-recursion"]
        assert [(d.message, d.location.column) for d in want] == [
            ("rule 'Node' is left-recursive", 37), ("rule 'Pair' is left-recursive", 74)]
        assert outcome(parse_text, text, g) == ("diagnostics", want)
        assert outcome(ref_parse_text, text, g) == ("diagnostics", want)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), edit=st.sampled_from(["none", "drop", "insert", "swap"]),
           at=st.integers(0, 10 ** 6), where=st.integers(0, 10 ** 6),
           piece=st.sampled_from(["", *LEXICAL, '"', "/*", "²", "a²", "\x0c"]))
    def test_against_the_token_list_parser(self, grammars, seed, edit, at, where, piece):
        """Random sample-grammar texts with one token dropped, inserted or
        swapped, and a piece that may hold a lexical error put between two
        tokens: the same model or diagnostics as the token-list parser."""
        g = grammars[["selfhost", "css", "skeleton"][seed % 3]]
        text = render_ast(generate_random_model(g, random.Random(seed), max_depth=4), g)
        words = mutated(g, text, edit, at).split(" ")
        words.insert(where % (len(words) + 1), piece)
        assert_parse_matches_reference(" ".join(words), g)

    def test_valid_text_makes_no_token(self, grammars, monkeypatch):
        """On valid text parse_text neither tokenizes nor makes a Token."""
        docs = [(g, render_ast(generate_random_model(g, random.Random(seed)), g))
                for g in grammars.values() for seed in range(5)]
        docs.append((grammars["selfhost"], (SAMPLES / "selfhost" / "xf.xf").read_text()))
        calls = []
        tokenize, init = Lexer.tokenize, Token.__init__
        monkeypatch.setattr(Lexer, "tokenize", lambda *a: calls.append("tokenize") or tokenize(*a))
        monkeypatch.setattr(Token, "__init__", lambda *a: calls.append("Token") or init(*a))
        models = [parse_text(text, g) for g, text in docs]
        assert calls == []
        with pytest.raises(DiagnosticError):
            parse_text("skip ;", grammars["selfhost"])
        assert calls == ["Token", "Token"]  # at ';', then the scan of the rest reads EOF
        monkeypatch.undo()
        assert all(model_equals(m, ref_parse_text(text, g)) for m, (g, text) in zip(models, docs))


class TestRenderUnvalidated:
    """render_ast reads every value through the code that writes it; on the
    first value that does not fit there, it stops and raises exactly
    validate_model's diagnostics for the model."""

    def problems(self, m, g):
        with pytest.raises(DiagnosticError) as exc:
            render_ast(m, g)
        got = [(d.code, d.message, d.path) for d in exc.value.diagnostics]
        assert got == [(d.code, d.message, d.path) for d in validate_model(m)]
        return got

    def test_loaded_dump(self, selfhost):
        _, ast, _, g = selfhost
        m = load_model("TransformationAS #1 { actions = [ SkipClassAS #2 { target = "
                       "QualifiedName #3 { name = 7 } }, 5 ] }", ast)
        assert self.problems(m, g) == [
            ("model-kind", "TransformationAS.actions: expected an object, found 5", "/"),
            ("model-kind", "QualifiedName.name: value 7 does not fit attribute type String",
             "/actions[0]/target")]

    def test_each_terminal(self, toy_ast):
        g = parse_grammar('Doc : ( items += Node )* ; Abstract Node : Leaf | Pair ; '
                          'Leaf : "leaf" name = ID ( tags += STRING )* ; '
                          'Pair : "pair" n = INT ;', toy_ast)
        leaf, pair = toy_ast.classifier("Leaf"), toy_ast.classifier("Pair")
        items = [ModelObject(leaf, name=5, tags=["ok", 3]), ModelObject(pair, n="7"),
                 ModelObject(pair, n=True), ModelObject(leaf, name="fine")]
        m = Model(ModelObject(toy_ast.classifier("Doc"), items=items), toy_ast)
        assert self.problems(m, g) == [
            ("model-kind", "Leaf.name: value 5 does not fit attribute type String", "/items[0]"),
            ("model-kind", "Leaf.tags: value 3 does not fit attribute type String", "/items[0]"),
            ("model-kind", "Pair.n: value '7' does not fit attribute type int", "/items[1]"),
            ("model-kind", "Pair.n: value True does not fit attribute type int", "/items[2]")]


def test_render_ast_makes_no_lookup_by_name(css, selfhost, monkeypatch):
    """render_ast reads slots through the features its code holds: on the
    sample ASTs it calls MetaClass.find_feature not once."""
    docs = [(css[3], (SAMPLES / "css" / f).read_text()) for f in ("grouped.css", "split.css")]
    docs.append((selfhost[3], (SAMPLES / "selfhost" / "xf.xf").read_text()))
    models = [(parse_text(text, g), g) for g, text in docs]
    calls = []
    find = MetaClass.find_feature
    monkeypatch.setattr(MetaClass, "find_feature",
                        lambda cls, name: calls.append(name) or find(cls, name))
    texts = [render_ast(m, g) for m, g in models]
    monkeypatch.undo()
    assert calls == []
    assert texts == [ref_render_ast(m, g) for m, g in models]


# Keywords that a generated renderer must carry as literals, not as source:
# quotes, a backslash, braces of a format field, triple quotes, and the
# three that change the layout, ';' also as a flag keyword.
QUOTING_GRAMMAR = r"""
Doc : "'" "\"" ( items += Node )* "\\" ( draft ? ";" )? "{x}" "\"\"\"" ( "{" title = STRING "}" )? ";" ;
Abstract Node : Leaf | Pair ;
Leaf : "leaf" name = ID ( "{" tags += STRING ";" )* on ? "}" ;
Pair : "pair" n = INT ( "{" left = Node "}" )? ( rest += Node )* ;
"""


class TestGeneratedRenderer:
    """render_ast runs Python generated from each rule's elements on its
    first call for a grammar; the reference renderer, which walks the
    elements itself, is the oracle."""

    def test_keywords_enter_only_as_literals(self, toy_ast):
        g = parse_grammar(QUOTING_GRAMMAR, toy_ast)
        assert {"'", '"', "\\", "{x}", '"""', ";"} <= g.keywords()
        m = Model(ModelObject(toy_ast.classifier("Doc"), draft=True, title="t"), toy_ast)
        assert render_ast(m, g) == ref_render_ast(m, g) == "' \" \\ ;\n{x} \"\"\" { \"t\" }\n;\n"
        for seed in range(40):
            m = generate_random_model(g, random.Random(seed), max_depth=3)
            assert render_ast(m, g) == ref_render_ast(m, g)
            mutate(m, ["drop", "surplus", "flag", "stranger"][seed % 4], seed)
            assert outcome(render_ast, m, g) == outcome(ref_render_ast, m, g)

    def test_a_plus_loop_that_assigns_nothing(self, toy_ast):
        """Such a loop renders one pass, which parses back as it did."""
        g = parse_grammar('Doc : "doc" ( "a" )+ title = ID ;', toy_ast)
        assert check_grammar(g) == []
        m = parse_text("doc a a x", g)
        assert render_ast(m, g) == ref_render_ast(m, g) == "doc a x\n"
        assert model_equals(parse_text(render_ast(m, g), g), m)

    @pytest.mark.parametrize("grammar, text", [
        ('Doc : "doc" ( xs += INT )* "x" xs += INT ;', "doc 1 x 2"),
        ('Doc : "doc" ( xs += INT )? "x" xs += INT ;', "doc x 2"),
        ('Doc : "doc" ( ( xs += INT )* "y" )? "x" xs += INT ;', "doc x 2"),
        ('Doc : "doc" ( xs += INT )* ( "x" xs += INT )+ ;', "doc 1 x 2 x 3"),
        ('Doc : "doc" ( "g" ( xs += INT )* "x" xs += INT )* ;', "doc g 1 x 2 g x 3"),
        ('Doc : "doc" ( "a" xs += INT | "b" ys += INT )* "x" xs += INT ;', "doc a 1 b 2 x 3")])
    def test_a_part_leaves_what_later_assignments_take(self, grammar, text):
        """An optional part, a loop or a choice renders only while a feature
        it adds to has more values left than the '+=' assignments sure to
        run after it take: those later in each sequence around it, outside
        an optional part, a '*' loop or a choice of their own."""
        ast = parse_metamodel("class Doc { attr int[*] xs; attr int[*] ys; }", "xs")
        g = parse_grammar(grammar, ast)
        assert check_grammar(g) == []
        m = parse_text(text, g)
        rendered = render_ast(m, g)
        assert rendered == ref_render_ast(m, g)
        assert model_equals(parse_text(rendered, g), m)
        for seed in range(20):
            m = generate_random_model(g, random.Random(seed), max_depth=3)
            assert model_equals(parse_text(render_ast(m, g), g), m)

    def test_generated_once_on_the_first_render(self, toy_ast, monkeypatch):
        """parse_grammar, check_grammar and parse_text generate nothing; the
        first render_ast generates the renderer, and later calls reuse it."""
        calls, generate = [], grammar_module._generate
        monkeypatch.setattr(grammar_module, "_generate",
                            lambda a, reads_as_id: calls.append(a) or generate(a, reads_as_id))
        g = parse_grammar(STREAM_GRAMMAR, toy_ast)
        assert check_grammar(g) == []
        m = parse_text('leaf a t "s" pair 3 ( leaf b )', g)
        assert calls == [] and g.analysis().renderers is None
        text = render_ast(m, g)
        renderers = g.analysis().renderers
        assert calls == [g.analysis()] and sorted(renderers) == ["Doc", "Leaf", "Pair"]
        assert render_ast(m, g) == text == ref_render_ast(m, g)
        assert calls == [g.analysis()] and g.analysis().renderers is renderers

    def test_threads_render_a_fresh_grammar(self, css, monkeypatch):
        """Eight threads make the first renders of one grammar at once: one
        generates each rule once, and all get the reference's texts."""
        _, ast, _, shipped = css
        models = [parse_text((SAMPLES / "css" / f).read_text(), shipped)
                  for f in ("grouped.css", "split.css")]
        want = [ref_render_ast(m, shipped) for m in models]
        g = parse_grammar((SAMPLES / "css" / "css.gr").read_text(), ast)
        assert g.analysis().renderers is None
        made, source = [], grammar_module._RuleSource
        monkeypatch.setattr(grammar_module, "_RuleSource",
                            lambda proc: made.append(proc.name) or source(proc))
        barrier, got = threading.Barrier(8, timeout=60), [None] * 8

        def render(i):
            barrier.wait()
            got[i] = [render_ast(m, g) for m in models]

        threads = [threading.Thread(target=render, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8
        assert sorted(made) == ["CssFile", "DeclarationAS", "Rule"]

    def test_rule_source_is_in_linecache(self, css):
        """Tracebacks, inspect and profiles name the rule whose generated
        code runs, and inspect.getsource reads that code."""
        g = css[3]
        render_ast(parse_text((SAMPLES / "css" / "grouped.css").read_text(), g), g)
        rule = g.analysis().renderers["Rule"]
        assert rule.__code__.co_filename.startswith("<mmdsl render Rule #")
        source = inspect.getsource(rule)
        assert source.startswith("def rule(obj, line, lines, lay, problems, opened):\n")
        assert "'.selector has no value to render'" in source and "yield" in source
        assert "yield" not in inspect.getsource(g.analysis().renderers["DeclarationAS"])

    def test_nesting_past_one_function(self, toy_ast):
        """Loops, optionals and choices nested 30 deep: the parts below
        _NESTING blocks run in functions of their own, generators where
        they call a rule, and render as the reference does."""
        g = nested_grammar(toy_ast)
        for seed in range(30):
            m = generate_random_model(g, random.Random(seed), max_depth=3)
            assert outcome(render_ast, m, g) == outcome(ref_render_ast, m, g)
            mutate(m, ["drop", "surplus", "stranger"][seed % 3], seed)
            assert outcome(render_ast, m, g) == outcome(ref_render_ast, m, g)
        parts = {name: [inspect.isgeneratorfunction(f) for k, f in
                        g.analysis().renderers[name].__globals__.items() if k.startswith("part")]
                 for name in ("Doc", "Pair")}
        assert set(parts["Doc"]) == {True, False} and True in parts["Pair"]

    def test_wide_choice(self, toy_ast):
        """A choice of 3,000 alternatives renders under a recursion limit of
        200: its arms are a flat run of ifs, where an elif chain would nest
        one level deeper per alternative in the compiler."""
        alts = " | ".join(f'"k{i}" name = ID' for i in range(3000))
        g = parse_grammar(f'Doc : ( items += Node )* ; Abstract Node : Leaf | Pair ; '
                          f'Leaf : "leaf" ( {alts} | "none" ) ; Pair : "pair" ;', toy_ast)
        m = parse_text("leaf k5 a leaf k2999 b leaf none", g)
        want = ref_render_ast(m, g)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            text = render_ast(m, g)
        finally:
            sys.setrecursionlimit(limit)
        assert text == want == "leaf k0 a leaf k0 b leaf none\n"

    def test_underscore_ids_render(self, css):
        """'_' and '__' read as IDs, so they render and parse back."""
        g = css[3]
        text = '. _ { __ : "x" ;\n}\n'
        m = parse_text(text, g)
        assert m.root.values("rules")[0].get("selector") == "_"
        assert render_ast(m, g) == text


def test_forced_passes_fill_each_short_feature():
    """A loop whose alternatives fill two features below their lower
    bounds makes enough forced passes for both, past max_depth too."""
    ast = parse_metamodel("class A { val X[2..3] xs; val Y[2..3] ys; }\n"
                          "class X { }\nclass Y { }", "m")
    g = parse_grammar('A : "a" ( "p" xs += X | "q" ys += Y )* ; X : "x" ; Y : "y" ;', ast)
    models = [generate_random_model(g, random.Random(seed), max_depth=0) for seed in range(50)]
    assert [m for m in models if validate_model(m)] == []
    assert all(model_equals(parse_text(render_ast(m, g), g), m) for m in models)


def same_parse(text, g):
    """parse_text and op_parse_text agree on ``text``: equal dumps, or equal
    diagnostics (code, message, line:col and path)."""
    got, want = outcome(parse_text, text, g), outcome(op_parse_text, text, g)
    assert got[0] == want[0], (text, got, want)
    if got[0] == "ok":
        assert dump_model(got[1]) == dump_model(want[1])
    else:
        assert got[1] == want[1]
    return got


def chain_language(n, bound="[0..1]", cycle=False):
    """Classes C0..C<n-1>, each holding the next (C0 again after the last,
    if ``cycle``) with ``bound``, and a grammar of one rule each."""
    classes = "\n".join(f"class C{i} {{ val C{(i + 1) % n}{bound} next; }}" if cycle or i + 1 < n
                        else f"class C{i} {{ }}" for i in range(n))
    ast = parse_metamodel(classes, "chain")
    many = bound not in ("[0..1]", "[1]")
    rules = " ".join(f'C{i} : "c{i}" ( next {"+=" if many else "="} C{(i + 1) % n} )'
                     f'{"*" if many else "?"} ;' if cycle or i + 1 < n else f'C{i} : "c{i}" ;'
                     for i in range(n))
    return parse_grammar(rules, ast)


class TestGeneratedParser:
    """parse_text runs Python generated per rule from its elements on its
    first call for a grammar; the op interpreter that parse_text once was
    (op_parse_text, on op_compile's ops) is the oracle, down to each
    diagnostic's code, message and line:col, and so is the reference
    parser where a case names it."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["toy", "shadowed", "bounded"]),
           seed=st.integers(0, 2 ** 32 - 1), soup=st.booleans(),
           edit=st.sampled_from(["none", "drop", "insert", "swap", "twice", "long"]),
           at=st.integers(0, 10 ** 6),
           where=st.integers(0, 10 ** 6), piece=st.sampled_from(["", "", *LEXICAL]))
    def test_against_the_op_interpreter(self, toy_ast, bounded_ast, data, kind, seed, soup,
                                        edit, at, where, piece):
        """Random grammars, left-recursive ones and flags among them, ones
        with a call only in a shadowed alternative, and grammars with bounds
        to break; rendered random models with a token dropped, inserted,
        swapped or written twice, or with every INT too long, or a soup of
        the grammar's tokens; and a piece that may hold a lexical error. The
        left-recursive ones are refused, whatever the text."""
        bounded = kind == "bounded"
        text = data.draw({"toy": toy_grammars(prefixed=False), "shadowed": shadowed_grammars(),
                          "bounded": bounded_grammars()}[kind])
        g = parse_grammar(text, bounded_ast if bounded else toy_ast)
        if soup:
            vocab = sorted(g.keywords()) + ["x", "y", '"s"', "7", "9" * 5000]
            words = ["box"] * bounded + data.draw(st.lists(st.sampled_from(vocab), max_size=12))
        else:
            m = outcome(generate_random_model, g, random.Random(seed), 3)
            doc = outcome(render_ast, m[1], g) if m[0] == "ok" else ("diagnostics", None)
            words = mutated(g, doc[1] if doc[0] == "ok" else "", edit, at).split(" ")
            if edit == "twice":
                words.insert(at % len(words), words[at % len(words)])
            elif edit == "long":
                words = ["9" * 5000 if w.isdigit() else w for w in words]
        words.insert(where % (len(words) + 1), piece)
        same_parse(" ".join(words), g)

    def test_shipped_and_hand_built_grammars(self, grammars, bounded_ast):
        """The samples and the hand-built grammars, with problems or not,
        with their texts mutated one token at a time."""
        cases = [(g, (SAMPLES / d / f).read_text()) for g, d, f in [
            (grammars["css"], "css", "grouped.css"), (grammars["css"], "css", "split.css"),
            (grammars["selfhost"], "selfhost", "xf.xf")]]
        stranger = parse_metamodel(BOUNDED_MM, "other").classifier("Part")
        cases += [(g, text) for g in (hand_built(bounded_ast), hand_built(bounded_ast, "INT"),
                                      hand_built(bounded_ast, part=stranger))
                  for text in BOUNDED_TEXTS + ["box label x part 7", 'box tag "a" part p']]
        for g, text in cases:
            for k, edit in enumerate(["none", "drop", "insert", "swap"] * 3):
                same_parse(mutated(g, text, edit, 7 * k + 3), g)

    def test_a_shadowed_call(self, toy_ast):
        """Pair's only call is in a shadowed alternative, so its parser
        yields nothing and is a plain function; Doc, which may meet a
        generator through Node, takes its tuple."""
        g = parse_grammar(SHADOWED_CALL_GRAMMAR, toy_ast)
        for text in ["pair 6 leaf bd", "leaf a pair 1"]:
            got = same_parse(text, g)
            assert_parse_matches_reference(text, g)
            assert got[0] == "ok" and len(got[1].root.values("items")) == 2
        parsers = g.analysis().parsers
        assert not inspect.isgeneratorfunction(parsers["Pair"][1])
        assert inspect.isgeneratorfunction(parsers["Doc"][1])

    def test_left_recursion_through_two_rules_is_refused(self, toy_ast):
        """A cycle through two rules, which a text need not reach: parse_text
        refuses every text with check_grammar's diagnostics, one at each
        rule on the cycle, and generates no parser."""
        ast = parse_metamodel("class A { val B b; }\nclass B { val A a; }\nclass D { val A a; }",
                              "lr")
        g = parse_grammar('D : "d" a = A ; A : b = B "x" ; B : ( a = A "y" | "z" ) ;', ast)
        want = check_grammar(g)
        assert [(d.code, d.message, d.location.column) for d in want] == [
            ("gr-left-recursion", "rule 'A' is left-recursive", 17),
            ("gr-left-recursion", "rule 'B' is left-recursive", 33)]
        for text in ("d z x", "d"):
            assert outcome(parse_text, text, g) == ("diagnostics", want)
        assert g.analysis().parsers is None

    def test_parsers_take_no_depth(self, grammars, toy_ast):
        """Every generated parser takes (m, read, box), and every part
        function those and the slots: no rule counts the rules open at a
        token, as a grammar with left recursion runs none."""
        for g in [*grammars.values(), nested_grammar(toy_ast)]:
            outcome(parse_text, "", g)  # generates the parsers
            funcs = {f for table, default in g.analysis().parsers.values()
                     for f in (*table.values(), default)}
            parts = {p for f in funcs if inspect.isfunction(f)
                     for k, p in f.__globals__.items() if k.startswith("part")}
            assert {tuple(inspect.signature(f).parameters) for f in funcs} == {
                ("m", "read", "box")}
            assert {tuple(inspect.signature(p).parameters) for p in parts} <= {
                ("m", "read", "box", "slots")}
        assert parts

    def test_nothing_generated_before_the_first_parse(self, monkeypatch):
        """parse_grammar, check_grammar and the rest of a language's set-up
        generate nothing; the first parse generates each rule once, and
        later parses reuse it."""
        made, source = [], grammar_module._ParseSource
        monkeypatch.setattr(grammar_module, "_ParseSource",
                            lambda proc, *args: made.append(proc.name) or source(proc, *args))
        target = parse_metamodel((SAMPLES / "css" / "css.mm").read_text(), "css")
        ast, trace = derive_ast_metamodel(
            target, parse_transformation((SAMPLES / "css" / "css.xf").read_text(), target))
        g = parse_grammar((SAMPLES / "css" / "css.gr").read_text(), ast)
        assert check_grammar(g) == []
        build_plan(trace, target, ast)
        namespace_registry(parse_config((SAMPLES / "css" / "ns.cfg").read_text()), target, ast)
        assert made == [] and g.analysis().parsers is None
        text = (SAMPLES / "css" / "grouped.css").read_text()
        first = parse_text(text, g)
        parsers = g.analysis().parsers
        assert sorted(made) == ["CssFile", "DeclarationAS", "Rule"] and g.analysis().renderers is None
        assert model_equals(parse_text(text, g), first) and g.analysis().parsers is parsers
        assert len(made) == 3
        # Rule calls only DeclarationAS, which calls no rule: in place, so Rule yields nothing
        assert [inspect.isgeneratorfunction(parsers[r][1]) for r in made] == [
            r == "CssFile" for r in made]

    def test_threads_parse_a_fresh_grammar(self, selfhost, monkeypatch):
        """Eight threads make the first parses of one grammar at once: one
        generates each rule once, and all get the oracle's models."""
        _, ast, _, shipped = selfhost
        texts = [(SAMPLES / "selfhost" / "xf.xf").read_text(),
                 render_ast(generate_random_model(shipped, random.Random(3)), shipped)]
        want = [dump_model(op_parse_text(t, shipped)) for t in texts]
        g = parse_grammar((SAMPLES / "selfhost" / "xf.gr").read_text(), ast)
        made, source = [], grammar_module._ParseSource
        monkeypatch.setattr(grammar_module, "_ParseSource",
                            lambda proc, *args: made.append(proc.name) or source(proc, *args))
        barrier, got = threading.Barrier(8, timeout=60), [None] * 8

        def parse(i):
            barrier.wait()
            got[i] = [dump_model(parse_text(t, g)) for t in texts]

        threads = [threading.Thread(target=parse, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8
        assert sorted(made) == sorted(r.name for r in g.rules if isinstance(r, ConcreteRule))

    def test_each_grammar_shows_its_own_source(self, toy_ast):
        """Two grammars with a rule Leaf: each rule's file is named by a
        digest of its own text, so inspect reads each grammar's own code;
        a fresh grammar with the same text compiles nothing again."""
        texts = ['Doc : ( items += Node )* ; Abstract Node : Leaf | Pair ; Leaf : "leaf" ; '
                 'Pair : "pair" ;',
                 'Doc : ( items += Node )* ; Abstract Node : Leaf | Pair ; '
                 'Leaf : "leaf" name = ID ; Pair : "pair" ;']
        gs = [parse_grammar(t, toy_ast) for t in texts]
        for g, text in zip(gs, ["leaf pair", "leaf a pair"]):
            render_ast(parse_text(text, g), g)
        sources = [[inspect.getsource(f) for f in (g.analysis().parsers["Leaf"][1],
                                                  g.analysis().renderers["Leaf"])] for g in gs]
        assert "'name'" not in sources[0][0] + sources[0][1]
        assert "'name'" in sources[1][0] and "'name'" in sources[1][1]
        files = [g.analysis().parsers["Leaf"][1].__code__.co_filename for g in gs]
        assert files[0] != files[1] and all(f.startswith("<mmdsl parse Leaf #") for f in files)
        compiled = grammar_module._compiled.cache_info().misses
        again = parse_grammar(texts[1], toy_ast)
        render_ast(parse_text("leaf a pair", again), again)
        assert grammar_module._compiled.cache_info().misses == compiled
        assert again.analysis().parsers["Leaf"][1] is not gs[1].analysis().parsers["Leaf"][1]

    def test_a_chain_of_rules(self):
        """A chain of 40 rules: each that calls a rule that calls rules is a
        generator, so the parse runs under a recursion limit of 100; C38,
        whose callee calls none, calls it in place and is a plain function."""
        g = chain_language(40)
        text = " ".join(f"c{i}" for i in range(40))
        want = op_parse_text(text, g)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            m = parse_text(text, g)
        finally:
            sys.setrecursionlimit(limit)
        assert dump_model(m) == dump_model(want)
        parsers = g.analysis().parsers
        assert [inspect.isgeneratorfunction(parsers[f"C{i}"][1]) for i in range(40)] == [
            True] * 38 + [False, False]
        assert "return obj, m" in inspect.getsource(parsers["C38"][1])
        same_parse(" ".join(f"c{i}" for i in range(25)) + " c9", g)


def same_random_model(g, seed, max_depth):
    """generate_random_model and op_random_model agree: equal dumps, or
    equal diagnostics, and the same draws."""
    rngs = [random.Random(seed), random.Random(seed)]
    got = outcome(generate_random_model, g, rngs[0], max_depth)
    want = outcome(op_random_model, g, rngs[1], max_depth)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert dump_model(got[1]) == dump_model(want[1])
    else:
        assert got[1] == want[1]
    assert rngs[0].getstate() == rngs[1].getstate()


class TestRandomModelAgainstOps:
    """generate_random_model walks the elements on a stack of its own; the
    op loop it replaced (op_random_model) is the oracle, down to each draw."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["toy", "shadowed", "bounded", "free part"]),
           seed=st.integers(0, 2 ** 32 - 1), max_depth=st.integers(0, 4))
    def test_random_grammars(self, toy_ast, bounded_ast, data, kind, seed, max_depth):
        text = data.draw({"toy": toy_grammars(prefixed=False), "shadowed": shadowed_grammars(),
                          "bounded": bounded_grammars(), "free part": free_part_grammars()}[kind])
        g = parse_grammar(text, toy_ast if kind in ("toy", "shadowed") else bounded_ast)
        same_random_model(g, seed, max_depth)

    def test_shipped_and_nested_grammars(self, grammars, toy_ast):
        cases = [grammars[name] for name in GRAMMARS] + [nested_grammar(toy_ast)]
        for g in cases:
            for seed in range(4):
                for max_depth in (0, 3, 6):
                    same_random_model(g, seed, max_depth)


class TestRandomModelSize:
    """generate_random_model makes at most _MAX_OBJECTS objects freely, then
    finishes the model as deep as no pass is forced."""

    @pytest.fixture(autouse=True)
    def fewer_objects(self, monkeypatch):
        monkeypatch.setattr(grammar_module, "_MAX_OBJECTS", 500)

    def test_chained_lower_bounds(self):
        """Each of 12 classes needs two of the next, the last two of the
        first: no finite model meets that, and forcing would double the
        model at each of max_depth + 12 levels."""
        g = chain_language(12, "[2..3]", cycle=True)
        for seed in range(3):
            m = generate_random_model(g, random.Random(seed), max_depth=3)
            count = sum(1 for _ in iter_tree(m.root))
            assert 500 <= count <= 500 + 2 * 15
            assert {d.code for d in validate_model(m)} == {"model-multiplicity"}

    def test_a_short_chain_is_still_met(self):
        """Where a finite model meets the lower bounds within _MAX_OBJECTS,
        the model is valid: at least 2 ** 8 - 1 objects for 8 classes, each
        but the last needing two of the next."""
        g = chain_language(8, "[2..3]")
        for seed in range(3):
            m = generate_random_model(g, random.Random(seed), max_depth=0)
            assert validate_model(m) == [] and sum(1 for _ in iter_tree(m.root)) >= 2 ** 8 - 1
            assert model_equals(parse_text(render_ast(m, g), g), m)

    def test_many_optional_parts(self, toy_ast):
        """Rules with many optional loops branch widely: without a bound on
        objects, max_depth=6 makes tens of thousands of them."""
        kids = " ".join(f'( "k{i}" items += Node )*' for i in range(8))
        g = parse_grammar(f'Doc : {kids} ; Abstract Node : Leaf | Pair ; Leaf : "leaf" ; '
                          f'Pair : "pair" "(" {kids.replace("items", "rest")} ")" ;', toy_ast)
        assert check_grammar(g) == []
        counts = [sum(1 for _ in iter_tree(generate_random_model(
            g, random.Random(seed), max_depth=6).root)) for seed in range(20)]
        assert max(counts) == 500
        for seed in range(3):
            m = generate_random_model(g, random.Random(seed), max_depth=6)
            assert validate_model(m) == []
            assert model_equals(parse_text(render_ast(m, g), g), m)
