import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mmdsl.diagnostics import DiagnosticError, error
from mmdsl.emfatic import parse_metamodel
from mmdsl.grammar import parse_grammar, parse_text, render_ast
from mmdsl.lexer import Lexer, Token, TokenStream
from mmdsl.meta import (
    UNBOUNDED, MetaAttribute, MetaClass, MetaDataType, Metamodel, MetaReference, Model,
    ModelObject, Tree, builtin_ecore, classifier_object, classifier_qname,
    find_classifier_home, iter_tree, model_equals, validate_model,
)
from mmdsl.modeltext import _LEXER, dump_model, load_model
from mmdsl.transform import build_plan, namespace_registry, parse_config, transform_ast_to_model
from mmdsl.xf import derive_ast_metamodel, parse_transformation

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

STRING = builtin_ecore().classifier("String")
INT = builtin_ecore().classifier("int")
BOOLEAN = builtin_ecore().classifier("boolean")


def library_mm():
    book = MetaClass("Book", features=[
        MetaAttribute("title", 0, 1, type=STRING),
        MetaAttribute("pages", 0, 1, type=INT),
        MetaAttribute("tags", 0, UNBOUNDED, type=STRING),
    ])
    shelf = MetaClass("Shelf", features=[
        MetaAttribute("name", 0, 1, type=STRING),
        MetaReference("books", 0, UNBOUNDED, type=book, containment=True),
        MetaReference("featured", 0, 1, type=book, containment=False),
    ])
    library = MetaClass("Library", features=[
        MetaReference("shelves", 0, UNBOUNDED, type=shelf, containment=True),
        MetaReference("main", 0, 1, type=shelf, containment=True),
    ])
    return Metamodel("library", [library, shelf, book])


def sample_model():
    mm = library_mm()
    lib, shelf, book = (mm.classifier(n) for n in ("Library", "Shelf", "Book"))
    b1 = ModelObject(book, title="Sagas", pages=312, tags=["old", "long"])
    b2 = ModelObject(book, title='Quotes "and" escapes\n', pages=9)
    s1 = ModelObject(shelf, name="north", books=[b1, b2])
    s1.set("featured", b2)
    s2 = ModelObject(shelf, name="spare")
    root = ModelObject(lib, shelves=[s1])
    root.set("main", s2)
    return Model(root, mm)


class TestDump:
    def test_empty_root_style(self):
        mm = library_mm()
        m = Model(ModelObject(mm.classifier("Library")), mm)
        assert dump_model(m) == "Library #1 {\n}\n"

    def test_deterministic(self):
        assert dump_model(sample_model()) == dump_model(sample_model())

    def test_shape(self):
        text = dump_model(sample_model())
        lines = text.splitlines()
        assert lines[0] == "Library #1 {"
        assert "  shelves = [" in lines
        assert '          title = "Sagas"' in lines
        assert "      featured = -> #4" in lines  # cross ref by seq id
        assert "  main = Shelf #5 {" in lines  # singleton containment inlined
        assert '          tags = ["old", "long"]' in lines

    def test_classifier_reference(self):
        ec = builtin_ecore().classifier("EClass")
        holder = MetaClass("Holder", features=[
            MetaReference("t", 0, 1, type=ec, containment=False)])
        mm = Metamodel("m", [holder])
        root = ModelObject(holder)
        root.set("t", classifier_object(builtin_ecore().classifier("EClassifier")))
        assert "t = -> ecore::EClassifier" in dump_model(Model(root, mm))


class TestRoundTrip:
    def test_load_dump_round_trip(self):
        m = sample_model()
        text = dump_model(m)
        loaded = load_model(text, m.metamodel)
        assert model_equals(m, loaded)
        assert dump_model(loaded) == text

    def test_forward_reference(self):
        mm = library_mm()
        text = (
            "Library #1 {\n"
            "  shelves = [\n"
            "    Shelf #2 {\n"
            "      featured = -> #4\n"
            "    }\n"
            "    Shelf #3 {\n"
            "      books = [\n"
            "        Book #4 {\n"
            '          title = "t"\n'
            "        }\n"
            "      ]\n"
            "    }\n"
            "  ]\n"
            "}\n"
        )
        m = load_model(text, mm)
        shelf = m.root.values("shelves")[0]
        assert shelf.get("featured").get("title") == "t"

    def test_classifier_reference_round_trip(self):
        ec = builtin_ecore().classifier("EClass")
        holder = MetaClass("Holder", features=[
            MetaReference("t", 0, 1, type=ec, containment=False)])
        mm = Metamodel("m", [holder])
        root = ModelObject(holder)
        root.set("t", classifier_object(builtin_ecore().classifier("EClassifier")))
        m = Model(root, mm)
        loaded = load_model(dump_model(m), mm)
        assert model_equals(m, loaded)


class TestLoadErrors:
    def test_unknown_class(self):
        mm = library_mm()
        with pytest.raises(DiagnosticError) as exc:
            load_model("Ship #1 {\n}\n", mm)
        d = exc.value.diagnostics[0]
        assert d.code == "model-unknown-class"
        assert d.location.line == 1

    def test_unknown_feature(self):
        mm = library_mm()
        with pytest.raises(DiagnosticError) as exc:
            load_model("Library #1 {\n  decks = 3\n}\n", mm)
        assert exc.value.diagnostics[0].code == "model-unknown-feature"
        assert exc.value.diagnostics[0].location.line == 2

    def test_syntax_error_has_line_and_column(self):
        mm = library_mm()
        with pytest.raises(DiagnosticError) as exc:
            load_model("Library #1 {", mm)
        loc = exc.value.diagnostics[0].location
        assert loc.line == 1 and loc.column >= 12

    def test_dangling_id(self):
        mm = library_mm()
        text = "Library #1 {\n  shelves = [\n    Shelf #2 {\n      featured = -> #9\n    }\n  ]\n}\n"
        with pytest.raises(DiagnosticError) as exc:
            load_model(text, mm)
        assert exc.value.diagnostics[0].code == "model-dangling"

    def test_empty_list_leaves_single_valued_slot_unset(self):
        mm = library_mm()
        m = load_model('Library #1 {\n  shelves = [\n    Shelf #2 {\n      name = []\n'
                       '      featured = []\n    }\n  ]\n}\n', mm)
        shelf = m.root.values("shelves")[0]
        assert not shelf.is_set("name") and not shelf.is_set("featured")

    def test_list_of_two_for_single_valued_feature(self):
        mm = library_mm()
        with pytest.raises(DiagnosticError) as exc:
            load_model('Library #1 {\n  shelves = [\n    Shelf #2 {\n'
                       '      name = ["north", "south"]\n    }\n  ]\n}\n', mm)
        (d,) = exc.value.diagnostics
        assert (d.phase, d.code) == ("parse", "model-multiplicity")
        assert (d.location.line, d.location.column) == (4, 7)

    def test_list_of_one_for_single_valued_feature(self):
        mm = library_mm()
        m = load_model('Library #1 {\n  main = [Shelf #2 {\n    name = ["north"]\n  }]\n}\n', mm)
        assert m.root.get("main").get("name") == "north"


def deep_mm():
    node = MetaClass("Node")
    node.features = [
        MetaAttribute("name", 0, 1, type=STRING),
        MetaReference("one", 0, 1, type=node, containment=True),
        MetaReference("kids", 0, UNBOUNDED, type=node, containment=True),
        MetaReference("link", 0, 1, type=node, containment=False),
    ]
    return Metamodel("deep", [node]), node


class TestDepth:
    def test_deep_chain_dumps_and_loads_back(self):
        """Dumping and loading walk a 5,000-deep chain on an explicit stack;
        the recursion limit is far below that depth."""
        mm, node = deep_mm()
        depth = 5000
        chain = [ModelObject(node) for _ in range(depth)]
        for parent, child in zip(chain, chain[1:]):
            parent.set("one", child)
        leaves = [ModelObject(node, name="a"), ModelObject(node, name="b", link=chain[0])]
        chain[-1].set("kids", leaves)
        text = dump_model(Model(chain[0], mm))
        assert text.startswith("Node #1 {\n  one = Node #2 {\n    one = Node #3 {\n")
        pad = "  " * (depth + 1)  # the last link's list items
        assert f'{pad}Node #{depth + 2} {{\n{pad}  name = "b"\n{pad}  link = -> #1\n' in text
        loaded = load_model(text, mm)
        objs = Tree(loaded.root).objects
        assert len(objs) == depth + 2
        assert [o.get("name") for o in objs[-2:]] == ["a", "b"]
        assert objs[-1].get("link") is loaded.root
        assert validate_model(loaded) == []


# ---------------------------------------------------------------------------
# Differential tests against the token-by-token loader (ref_load_model below)

ECLASSIFIER = builtin_ecore().classifier("EClassifier")


def rich_packages():
    """A metamodel with every kind of slot a dump writes, and an extra
    package whose names overlap it: a datatype "Text" in the first package
    hides no class of that name, and the class "Leaf" wins over the extra
    package's datatype."""
    node, leaf = MetaClass("Node"), MetaClass("Leaf")
    leaf.supertypes = [node]
    node.features = [
        MetaAttribute("name", 0, 1, type=STRING), MetaAttribute("count", 0, 1, type=INT),
        MetaAttribute("flag", 0, 1, type=BOOLEAN),
        MetaAttribute("tags", 0, UNBOUNDED, type=STRING),
        MetaAttribute("nums", 0, UNBOUNDED, type=INT),
        MetaReference("one", 0, 1, type=node, containment=True),
        MetaReference("kids", 0, UNBOUNDED, type=node, containment=True),
        MetaReference("link", 0, 1, type=node), MetaReference("links", 0, UNBOUNDED, type=node),
        MetaReference("type", 0, 1, type=ECLASSIFIER),
        MetaReference("types", 0, UNBOUNDED, type=ECLASSIFIER),
    ]
    leaf.features = [MetaAttribute("size", 0, 1, type=INT)]
    mm = Metamodel("rich", [node, leaf, MetaDataType("Text", "string")])
    extra = Metamodel("more", [MetaClass("Text"), MetaDataType("Leaf", "string"),
                               MetaClass("Other"), MetaClass("Node")])
    return mm, extra


RICH, EXTRA = rich_packages()
STANDINS = [classifier_object(c) for c in [*RICH.classifiers, *EXTRA.classifiers,
                                           *builtin_ecore().classifiers[:4],
                                           *builtin_ecore().classifiers[-3:]]]
CHARSET = 'ab Z_09"\\\n\t\r/*-#{}[]=,:>é→'


def random_model(rng: random.Random) -> Model:
    """A random tree over RICH, with forward and backward cross references
    and classifier stand-ins from every package."""
    node, leaf, text = RICH.classifier("Node"), RICH.classifier("Leaf"), EXTRA.classifier("Text")
    objs: list[ModelObject] = []

    def build(depth: int) -> ModelObject:
        roll = rng.random()
        obj = ModelObject(text if roll < 0.05 else leaf if roll < 0.3 else node)
        objs.append(obj)
        if obj.cls is text:
            return obj
        s = obj.slots
        for name, make in (("name", lambda: "".join(rng.choices(CHARSET, k=rng.randint(0, 6)))),
                           ("count", lambda: rng.randint(-10**6, 10**6)),
                           ("flag", lambda: rng.random() < 0.5)):
            if rng.random() < 0.5:
                s[name] = make()
        if rng.random() < 0.3:
            s["tags"] = ["".join(rng.choices(CHARSET, k=rng.randint(0, 3)))
                         for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            s["nums"] = [rng.randint(-99, 99) for _ in range(rng.randint(0, 3))]
        if obj.cls is leaf and rng.random() < 0.5:
            s["size"] = rng.randint(0, 9)
        if depth < 4 and rng.random() < 0.3:
            s["one"] = build(depth + 1)
        if depth < 4 and rng.random() < 0.5:
            s["kids"] = [build(depth + 1) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            s["type"] = rng.choice(STANDINS)
        if rng.random() < 0.2:
            s["types"] = rng.sample(STANDINS, rng.randint(0, 3))
        return obj

    root = build(0)
    for obj in objs:
        if obj.cls is not text and rng.random() < 0.3:
            obj.slots["link"] = rng.choice(objs)
        if obj.cls is not text and rng.random() < 0.2:
            obj.slots["links"] = [rng.choice(objs) for _ in range(rng.randint(0, 3))]
    return Model(root, RICH)


# ---------------------------------------------------------------------------
# Differential tests against the generator dumper (ref_dump_model below)


def _nest(walk):
    """The result of ``walk``, a generator that yields the walk of each nested
    object and is sent back its result, run on a stack instead of recursing."""
    stack, value = [walk], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


_REF_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def ref_literal(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return '"' + "".join(_REF_UNESCAPES.get(c, c) for c in v) + '"'


def ref_dump_model(m: Model) -> str:
    """dump_model as it wrote a dump before it ran on one stack of frames:
    one generator per object, run by ``_nest``, and a home lookup per
    stand-in reference."""
    ids = {id(obj): n for n, obj in enumerate(iter_tree(m.root), start=1)}
    known, out = [m.metamodel, builtin_ecore()], []

    def cross(v):
        if v.represents is not None:
            return "-> " + classifier_qname(v.represents, find_classifier_home(v.represents, known))
        return f"-> #{ids[id(v)]}"

    def emit(obj, indent, prefix=""):
        slots, pad = obj.slots, "  " * indent
        out.append(f"{pad}{prefix}{obj.cls.name} #{ids[id(obj)]} {{")
        for f in obj.cls.all_features():
            if f.name not in slots:
                continue
            vals = slots[f.name] if f.many else (slots[f.name],)
            if not vals:
                continue
            inner = "  " * (indent + 1)
            if f.is_attribute:
                if f.many:
                    out.append(f"{inner}{f.name} = [{', '.join(map(ref_literal, vals))}]")
                else:
                    out.append(f"{inner}{f.name} = {ref_literal(vals[0])}")
            elif f.containment:
                if f.many:
                    out.append(f"{inner}{f.name} = [")
                    for child in vals:
                        yield emit(child, indent + 2)
                    out.append(f"{inner}]")
                else:
                    yield emit(vals[0], indent + 1, f"{f.name} = ")
            elif f.many:
                out.append(f"{inner}{f.name} = [{', '.join(cross(v) for v in vals)}]")
            else:
                out.append(f"{inner}{f.name} = {cross(vals[0])}")
        out.append(f"{pad}}}")

    _nest(emit(m.root, 0))
    return "\n".join(out) + "\n"


class TestDumpAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_same_bytes(self, rng):
        """Random models with every escape character in their strings,
        multi-valued attributes, single and list containments, forward and
        backward references, and stand-ins from the model's package, another
        package and ecore dump byte for byte as the generator dumper did."""
        m = random_model(rng)
        assert dump_model(m) == ref_dump_model(m)

    def test_the_generators_cover_every_kind_of_line(self):
        text = "".join(dump_model(random_model(random.Random(seed))) for seed in range(40))
        for line in ("\\n", "\\t", "\\r", '\\"', "\\\\", "tags = [", "nums = [",
                     "one = ", "kids = [", "links = [", "-> rich::", "-> ecore::", "-> Other"):
            assert line in text, line
        forward = 0  # references to an object that the dump writes later
        for seed in range(40):
            objs = iter_tree(random_model(random.Random(seed)).root)
            ids = {obj: n for n, obj in enumerate(objs)}
            forward += sum(ids.get(obj.slots.get("link"), -1) > n for obj, n in ids.items())
        assert forward

    def test_sample_dumps(self, sample_dumps):
        for text, mm, extra in sample_dumps:
            m = load_model(text, mm, extra_metamodels=extra)
            assert dump_model(m) == ref_dump_model(m) == text

    def test_a_dump_builds_no_tree(self, sample_dumps, monkeypatch):
        """dump_model numbers the objects in its own walk, forward references
        included, and builds no meta.Tree."""
        models = [load_model(text, mm, extra_metamodels=extra) for text, mm, extra in sample_dumps]
        models += [random_model(random.Random(seed)) for seed in range(20)]
        expected = [ref_dump_model(m) for m in models]
        built = []
        init = Tree.__init__
        monkeypatch.setattr(Tree, "__init__", lambda self, root: built.append(root) or init(self, root))
        assert [dump_model(m) for m in models] == expected
        assert built == []

    def test_shared_containment_is_written_where_it_is_reached(self):
        """A child held by two containment slots, but in no cycle, is
        written at each place, with the one id of its first reach."""
        mm, node = deep_mm()
        kid = ModelObject(node, name="k", kids=[ModelObject(node, name="g")])
        m = Model(ModelObject(node, kids=[kid, ModelObject(node, link=kid), kid]), mm)
        assert dump_model(m) == ref_dump_model(m)
        assert dump_model(m).count("Node #2 {") == 2

    @pytest.mark.parametrize("slot", ["kids", "one"])
    def test_a_containment_cycle_is_a_diagnostic(self, slot):
        """An object reached again while its block is open stops the dump,
        which raises validate_model's diagnostics instead of writing forever."""
        mm, node = deep_mm()
        obj, inner = ModelObject(node), ModelObject(node)
        obj.set("kids", [ModelObject(node), inner])
        inner.set(slot, [obj] if slot == "kids" else obj)
        for root in (obj, inner):
            start = time.perf_counter()
            with pytest.raises(DiagnosticError) as exc:
                dump_model(Model(root, mm))
            assert time.perf_counter() - start < 1
            got = [(d.code, d.message, d.path) for d in exc.value.diagnostics]
            assert got == [(d.code, d.message, d.path) for d in validate_model(Model(root, mm))]
            assert got == [
                ("model-containment", "object of class Node is contained more than once", "/")]

    def test_values_that_do_not_fit_are_diagnostics(self):
        """On a model that was not validated, the first value that does not
        fit where dump_model or render_ast reads it stops them, and they
        raise exactly validate_model's diagnostics, located at the slot's
        object. render_ast writes no cross reference, so it reads no object
        in one."""
        mm, node, g = slots_language()
        for slot, value, found in [
                ("kids", [5], "Node.kids: expected an object, found 5"),
                ("n", [1, 2], "Node.n: value [1, 2] does not fit attribute type int"),
                ("peers", ["x"], "Node.peers: expected an object, found 'x'"),
                ("kids", "node", "Node.kids: expected a list, found <Node ''>"),
                ("peers", "node", "Node.peers: expected a list, found <Node ''>"),
                ("ns", 5, "Node.ns: expected a list, found 5"),
                ("names", "abc", "Node.names: expected a list, found 'abc'"),
                ("names", ("a", "b"), "Node.names: expected a list, found ('a', 'b')")]:
            child = ModelObject(node, ns=[1])
            m = Model(ModelObject(node, kids=[child, ModelObject(node)]), mm)
            assert render_ast(m, g) == "node { node ns 1 node }\n"
            child.slots[slot] = ModelObject(node) if value == "node" else value
            want = [("model-kind", found, "/kids[0]")]
            assert [(d.code, d.message, d.path) for d in validate_model(m)] == want
            for walker in (dump_model, lambda m: render_ast(m, g)):
                if value == ["x"] and walker is not dump_model:
                    assert render_ast(m, g) == "node { node ns 1 node }\n"
                    continue
                with pytest.raises(DiagnosticError) as exc:
                    walker(m)
                assert [(d.code, d.message, d.path) for d in exc.value.diagnostics] == want
            assert model_equals(m, m)
            assert iter_tree(m.root) == [m.root, child, m.root.slots["kids"][1]]

    def test_a_string_is_not_read_as_its_characters(self):
        """model_equals compares a slot that holds no list with ``==``."""
        mm, node, g = slots_language()
        split, whole = (Model(ModelObject(node, names=["a", "b", "c"]), mm),
                        Model(ModelObject(node), mm))
        whole.root.slots["names"] = "abc"
        assert render_ast(split, g) == "node names a names b names c\n"
        assert model_equals(split, whole) is False and model_equals(whole, whole) is True
        peers = Model(ModelObject(node, peers=[]), mm)
        peers.root.slots["peers"] = 5
        assert model_equals(peers, peers) is True and model_equals(split, peers) is False


def slots_language():
    """A class with a slot of each shape, and a grammar that writes all but
    the cross references: (metamodel, the class, grammar)."""
    mm = parse_metamodel("class Node { val Node[*] kids; attr int n; ref Node[*] peers; "
                         "attr int[*] ns; attr String[*] names; }", "m")
    g = parse_grammar('Node : "node" ( "n" n = INT )? ( "ns" ns += INT )* '
                      '( "names" names += ID )* ( "{" ( kids += Node )* "}" )? ;', mm)
    return mm, mm.classifier("Node"), g


def load_outcome(load, text: str, mm=RICH, extra=(EXTRA,)):
    """The dump of what ``load`` read, or its rendered diagnostics, or the
    name of the exception it raised."""
    try:
        m = load(text, mm, extra_metamodels=extra, file="d.model")
    except DiagnosticError as exc:
        return [d.render() for d in exc.diagnostics]
    except Exception as exc:  # the reference crashed: so must the loader
        return type(exc).__name__
    try:
        return dump_model(m)
    except Exception as exc:
        return "dump_model: " + type(exc).__name__


def assert_loads_like_reference(text: str, mm=RICH, extra=(EXTRA,)):
    want = load_outcome(ref_load_model, text, mm, extra)
    assert load_outcome(load_model, text, mm, extra) == want
    return want


def lexemes(text: str) -> list[str]:
    return [t.text for t in _LEXER.tokenize(text)[:-1]]


SEPARATORS = [" ", "\n", "\t", "\r\n", "   ", "// c\n", "//\n", "/* c */", "/**/", "/* * / ** */",
              "/*\n//*/", " // -> #1 ]\n", "/* } */"]


def relayout(rng: random.Random, pieces: list[str]) -> str:
    """``pieces`` joined by random blanks and comments."""
    seps = ["".join(rng.choices(SEPARATORS, k=rng.randint(1, 2))) for _ in pieces]
    return "".join(sep + piece for sep, piece in zip(seps, pieces)) + rng.choice(["", "\n"])


VOCABULARY = ["Zork", "#", "#1", "99999", "-", "->", "::", "[", "]", "{", "}", ",", "=", "true",
              "false", '"s"', "7", "-3", "Node", "Leaf", "Text", "Other", "name", "kids", "link",
              "one", "ecore", "rich", "more", "EClass", "String", "zork", "@", "'"]


def mutate(rng: random.Random, pieces: list[str]) -> list[str]:
    """``pieces`` with 1-3 tokens dropped, duplicated, swapped or replaced,
    or an unterminated string late in the text."""
    pieces = list(pieces)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(pieces))
        op = rng.randrange(5)
        if op == 0 and len(pieces) > 1:
            del pieces[i]
        elif op == 1:
            pieces.insert(i, pieces[i])
        elif op == 2 and i + 1 < len(pieces):
            pieces[i], pieces[i + 1] = pieces[i + 1], pieces[i]
        elif op == 3:
            pieces[i] = rng.choice(VOCABULARY)
        else:
            pieces.insert(rng.randint(len(pieces) * 3 // 4, len(pieces)), '"late')
    return pieces


class TestLoadAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32).map(random.Random))
    def test_dumps_of_random_models(self, rng):
        """A stand-in of the extra package's "Text" dumps as "-> Text" and
        loads as the first package's, so a dump need not load back to itself."""
        text = dump_model(random_model(rng))
        assert isinstance(assert_loads_like_reference(text), str)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32).map(random.Random))
    def test_relaid_dumps(self, rng):
        text = dump_model(random_model(rng))
        assert assert_loads_like_reference(relayout(rng, lexemes(text))) == \
            load_outcome(load_model, text)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32).map(random.Random))
    def test_mutated_dumps(self, rng):
        pieces = mutate(rng, lexemes(dump_model(random_model(rng))))
        text = relayout(rng, pieces) if rng.random() < 0.5 else " ".join(pieces)
        assert_loads_like_reference(text)

    @settings(max_examples=200, deadline=None)
    @given(rng=st.integers(0, 2**32).map(random.Random), which=st.sampled_from(range(4)))
    def test_mutated_sample_dumps(self, sample_dumps, rng, which):
        text, mm, extra = sample_dumps[which]
        pieces = mutate(rng, lexemes(text))
        assert_loads_like_reference(" ".join(pieces), mm, extra)

    def test_sample_dumps(self, sample_dumps):
        for text, mm, extra in sample_dumps:
            assert assert_loads_like_reference(text, mm, extra) == text

    @pytest.mark.parametrize("text", [
        "", "Node", "Node #", "Node #1", "Node #1 {", "Node #1 { }", "Node #1 { } x",
        "Node #1 {} /* open", "true #1 {}", "Zork #1 {}", "Text #1 {}", "Leaf #1 { size = 3 }",
        "Node #1 { true = 1 }", "Node #1 { name }", "Node #1 { name = }", "Node #1 { name = [ }",
        "Node #1 { name = [,] }", "Node #1 { nums = [1,,2] }", "Node #1 { nums = [1 2,] }",
        "Node #1 { name = [\"a\", \"b\"] }", "Node #1 { one = [Node #2 {}, Node #3 {}] }",
        "Node #1 { name = \"a\", count = 1 }", "Node #1 { count = - 5 count = -/**/6 }",
        "Node #1 { count = --5 }", "Node #1 { count = - > }", "Node #1 { link = -> 5 }",
        "Node #1 { link = -> # }", "Node #1 { link = -> #2 }", "Node #1 { one = Node #1 {} }",
        "Node #1 { one = Node #2 {} one = Node #2 {} }", "Node #1 { type = -> true }",
        "Node #1 { type = -> Zork }", "Node #1 { type = -> ecore :: /* c */ EClass }",
        "Node #1 { type = -> ecore:: }", "Node #1 { type = -> ecore::EClass:: }",
        "Node #1 { type = -> more::Text types = [-> Leaf, -> rich::Text] }",
        "Node #1 { type = -> ecore::Zork }", "Node #1 { type = -> rich::Other }",
        "Node #1 { flag = trueish }", "Node #1 { flag = true #2 {} }", "Node #1 { name = x }",
        "Node #1 { kids = [true #2 {}] }", "Node #1 { kids = [Node #2 {} , ] }",
        "Node #1 { links = [-> #1, -> #1] link = -> #1 }", "Node #1 { links = -> #1 }",
        "Node #1 { link = [-> #1] }", "Node #1 { link = [] name = [] }",
        "Node #1 { nums = [1] nums = 2 nums = [] }", "Node #1 { links = -> #1 links = 3 }",
        "Node #1 { link = -> #1 link = 3 }", "Node #1 { kids = Node #2 {} kids = [Node #3 {}] }",
        "Node #1 { name = \"a\\qb\" }", "Node #1 { name = \"a\nb\" }", "Node #1 { count = 1² }",
        "Node #1 { ²x = 1 }", "Node #1 { count = 12abc }", "Node #1 { count = ٣ }",
        "Node #1 { kids = [Node #2 { one = Node #3 { name = \"deep\" } }] } ",
        "Node #1 { links = [-> #2, -> #1] kids = [] }", "Node#1{link=->#1}",
        "Node #1 { types = [-> Leaf] types = -> Other }",
        "Node #1 { type = -> ecore::EClassifier:: }", "Node #1 { type = -> Leafy:: }",
        "Node #1 { kids = [Node #2 { link = -> #9 }] } }", "Node #1 { kids = [Node #2 ] }",
    ])
    def test_fixed_texts(self, text):
        assert_loads_like_reference(text)

    def test_reserved_words_never_name_anything(self):
        """"true" and "false" read as literals, never as names, even where a
        metamodel names a class, a feature or a package so."""
        odd = MetaClass("false", features=[MetaAttribute("true", 0, 1, type=INT)])
        mm = Metamodel("true", [odd, RICH.classifier("Node")])
        for text in ("false #1 { }", "Node #1 { true = 1 }", "Node #1 { type = -> false }",
                     "Node #1 { type = -> true::false }", "Node #1 { type = -> true::Node }"):
            assert assert_loads_like_reference(text, mm, ())[0].startswith("d.model:1:")

    def test_lexical_error_wins_over_an_earlier_syntax_error(self):
        text = 'Node #1 { = "a"\n  name = "b"\n  @\n}\n'
        with pytest.raises(DiagnosticError) as exc:
            load_model(text, RICH)
        (d,) = exc.value.diagnostics
        assert (d.code, d.location.line, d.location.column) == ("lexical", 3, 3)
        assert assert_loads_like_reference(text) == ["d.model:3:3: error[lexical]: "
                                                     "unexpected character '@'"]
        assert load_outcome(load_model, text.replace("@", "")) == [
            "d.model:1:11: error[syntax]: expected a feature name, found '='"]

    def test_failure_after_long_blanks_is_linear(self):
        """A construct that fails after 10,000 (and 100,000) blanks and
        comments is reported in time linear in their length."""
        for n in (10_000, 100_000):
            text = "Node #1 {\n  name =" + " \t\n/**/" * (n // 7) + "]\n}\n"
            start = time.perf_counter()
            with pytest.raises(DiagnosticError) as exc:
                load_model(text, RICH)
            assert time.perf_counter() - start < 0.1 + n * 2e-6
            assert exc.value.diagnostics[0].message == "expected a literal value"


@pytest.fixture(scope="module")
def sample_dumps():
    """The .model and .astm dumps of the CSS and selfhost samples, each with
    the metamodels that load it."""
    out = []
    for name, stem, text in (("css", "css", "grouped.css"), ("selfhost", "xf", "xf.xf")):
        d = SAMPLES / name
        target = parse_metamodel((d / f"{stem}.mm").read_text(), stem)
        ast, trace = derive_ast_metamodel(target, parse_transformation(
            (d / f"{stem}.xf").read_text(), target))
        g = parse_grammar((d / f"{stem}.gr").read_text(), ast)
        registry = namespace_registry(parse_config((d / "ns.cfg").read_text()), target, ast)
        astm = parse_text((d / text).read_text(), g)
        model, diags = transform_ast_to_model(astm, build_plan(trace, target, ast), registry)
        assert not diags
        out += [(dump_model(model), target, (ast,)), (dump_model(astm), ast, ())]
    return out


def test_load_makes_no_tokens_and_no_lookup_by_name(sample_dumps, monkeypatch):
    """load_model reads the sample dumps without tokenizing them, without a
    Token and without MetaClass.find_feature."""
    calls = []
    tokenize, init, find = Lexer.tokenize, Token.__init__, MetaClass.find_feature
    monkeypatch.setattr(Lexer, "tokenize", lambda *a: calls.append("tokenize") or tokenize(*a))
    monkeypatch.setattr(Token, "__init__", lambda *a: calls.append("Token") or init(*a))
    monkeypatch.setattr(MetaClass, "find_feature",
                        lambda *a: calls.append("find_feature") or find(*a))
    models = [load_model(text, mm, extra_metamodels=extra) for text, mm, extra in sample_dumps]
    assert calls == []
    monkeypatch.undo()
    assert [dump_model(m) for m in models] == [text for text, _, _ in sample_dumps]


def test_a_second_load_builds_no_name_table(sample_dumps, monkeypatch):
    """load_model builds each package's name table once, from its sealed
    classifiers: a second load over the same packages builds none (no name
    goes through _reads_as_id again) and reads the dumps alike."""
    from mmdsl import modeltext

    first = [load_model(text, mm, extra_metamodels=extra) for text, mm, extra in sample_dumps]
    packages = [pkg for _, mm, extra in sample_dumps for pkg in (mm, *extra, builtin_ecore())]
    tables = [modeltext._names(pkg) for pkg in packages]
    calls = []
    reads = modeltext._reads_as_id
    monkeypatch.setattr(modeltext, "_reads_as_id", lambda name: calls.append(name) or reads(name))
    again = [load_model(text, mm, extra_metamodels=extra) for text, mm, extra in sample_dumps]
    assert calls == []
    assert all(modeltext._names(pkg) is table for pkg, table in zip(packages, tables))
    monkeypatch.undo()
    assert [dump_model(m) for m in again] == [dump_model(m) for m in first] == [
        text for text, _, _ in sample_dumps]
    with pytest.raises(AttributeError):  # the tables are built from sealed packages
        sample_dumps[0][1].classifiers.append(MetaClass("Late"))


# ---------------------------------------------------------------------------
# The loader as it was before it matched one construct at a time, kept as
# the oracle of the differential tests below.


def ref_load_model(text: str, mm: Metamodel, extra_metamodels=(), file: str = "<model>") -> Model:
    """load_model as it read a dump before it matched one construct at a
    time: the whole text tokenized first, then read token by token."""
    reader = RefReader(TokenStream(_LEXER.tokenize(text, file)),
                     [mm, *extra_metamodels, builtin_ecore()])
    stream = reader.stream
    root = _nest(reader.parse_object())
    stream.expect_eof()

    for obj, fname, index, ref, arrow in reader.patches:
        target = reader.by_id.get(ref)
        if target is None:
            raise DiagnosticError([error("parse", "model-dangling",
                                         f"reference to unknown object #{ref}",
                                         location=arrow.location)])
        feat = obj.cls.find_feature(fname)
        if feat.many:
            obj.slots[fname][index] = target
        else:
            obj.slots[fname] = target

    return Model(root, mm)


class RefReader:
    """One load_model call: the token stream, the packages classifier names
    resolve in, the objects by id and the forward references to patch."""

    def __init__(self, stream: TokenStream, packages: list[Metamodel]):
        self.stream = stream
        self.packages = packages
        self.by_id: dict[int, ModelObject] = {}
        # forward references: object, feature, index, referenced id, '->' token
        self.patches: list[tuple[ModelObject, str, int, int, Token]] = []

    def resolve_class(self, name_tok: Token):
        name = name_tok.text
        for pkg in self.packages:
            c = pkg.classifier(name)
            if c is not None and c.is_class:
                return c
        raise DiagnosticError([error("parse", "model-unknown-class",
                                     f"unknown class name {name!r}", location=name_tok.location)])

    def resolve_qname(self, qname: str, seg_tok: Token):
        """A classifier by simple name in the first package that has one, or
        qualified by its package's name."""
        pkg_name, _, simple = qname.rpartition("::")
        for pkg in self.packages:
            c = pkg.classifier(simple) if pkg_name in ("", pkg.name) else None
            if c is not None:
                return c
        raise DiagnosticError([error("parse", "name-unresolved",
                                     f"unknown classifier reference {qname!r}",
                                     location=seg_tok.location)])

    def parse_literal(self):
        stream = self.stream
        tok = stream.next()
        if tok.kind == "STRING" or tok.kind == "INT":
            return tok.value
        if tok.kind == "KW":
            if tok.text == "-":
                return -stream.expect("INT").value
            if tok.text == "true":
                return True
            if tok.text == "false":
                return False
        stream.fail("expected a literal value", token=tok)

    def at_object(self) -> bool:
        """Whether an object starts here: a class name, then '#'."""
        stream = self.stream
        return stream.current.kind == "ID" and stream.peek().is_kw("#")

    def parse_object(self):
        """A walk for ``_nest``: one object, yielding the walk of each nested one."""
        stream = self.stream
        name_tok = stream.expect("ID")
        cls = self.resolve_class(name_tok)
        stream.expect_kw("#")
        oid = stream.expect("INT").value
        obj = ModelObject(cls)
        if oid in self.by_id:
            stream.fail(f"duplicate object id #{oid}", token=name_tok)
        self.by_id[oid] = obj
        stream.expect_kw("{")
        while not stream.at_kw("}"):
            fname_tok, feat = self.parse_field_name(obj)
            fname = fname_tok.text
            if stream.accept_kw("["):
                items: list = []
                while not stream.at_kw("]"):
                    if self.at_object():
                        items.append((yield self.parse_object()))
                    elif stream.at_kw("->"):
                        # None placeholders are patched later
                        items.append(self.parse_cross_target(obj, fname, len(items)))
                    else:
                        items.append(self.parse_literal())
                    stream.accept_kw(",")
                stream.next()
                if feat.many:
                    obj.slots[fname] = items
                elif len(items) > 1:
                    raise DiagnosticError([error(
                        "parse", "model-multiplicity",
                        f"single-valued feature {obj.cls.name}.{fname} lists {len(items)} values",
                        location=fname_tok.location)])
                elif items:
                    obj.slots[fname] = items[0]
            elif stream.at_kw("->"):
                target = self.parse_cross_target(obj, fname, 0)
                if feat.many:
                    obj.slots[fname] = [target]
                elif target is not None:
                    obj.slots[fname] = target
            else:
                value = (yield self.parse_object()) if self.at_object() else self.parse_literal()
                if feat.many:
                    obj.slots.setdefault(fname, []).append(value)
                else:
                    obj.slots[fname] = value
        stream.next()
        return obj

    def parse_field_name(self, obj: ModelObject):
        """A feature name of ``obj``'s class and its '=': the token and the feature."""
        stream = self.stream
        fname_tok = stream.next()
        if fname_tok.kind != "ID":
            stream.fail(f"expected a feature name, found '{fname_tok.text}'", token=fname_tok)
        feat = obj.cls.find_feature(fname_tok.text)
        if feat is None:
            raise DiagnosticError([error("parse", "model-unknown-feature",
                                         f"class {obj.cls.name} has no feature "
                                         f"{fname_tok.text!r}", location=fname_tok.location)])
        stream.expect_kw("=")
        return fname_tok, feat

    def parse_cross_target(self, obj, fname, index):
        stream = self.stream
        arrow = stream.next()  # '->'
        if stream.accept_kw("#"):
            ref = stream.expect("INT").value
            self.patches.append((obj, fname, index, ref, arrow))
            return None
        seg_tok = stream.expect("ID")
        qname = seg_tok.text
        while stream.accept_kw("::"):
            qname += "::" + stream.expect("ID").text
        return classifier_object(self.resolve_qname(qname, seg_tok))


class TestNumericFirstCharacter:
    """A name whose first character is numeric but no decimal digit, such
    as '²', is no ID to the lexer; the loader refuses it the same way even
    where an (invalid) metamodel declares it."""

    def test_class_feature_and_reference(self):
        odd = MetaClass("²x")
        node = MetaClass("Node", features=[
            MetaAttribute("²y", 0, 1, type=INT),
            MetaReference("type", 0, 1, type=builtin_ecore().classifier("EClassifier"))])
        mm = Metamodel("m", [odd, node])
        for text, column in [("²x #1 { }", 1), ("Node #1 { ²y = 3 }", 11),
                             ("Node #1 { type = -> m::²x }", 24)]:
            with pytest.raises(DiagnosticError) as exc:
                load_model(text, mm)
            assert [d.render() for d in exc.value.diagnostics] == [
                f"<model>:1:{column}: error[lexical]: unexpected character '²'"]
        assert load_model("Node #1 { type = -> m::Node }", mm).root.get("type").represents is node


def test_a_load_seals_the_feature_table():
    """The loader's lookups seal each class it reads: adding a feature after
    one load_model raises, and the next load still refuses it."""
    node = MetaClass("Node", features=[MetaAttribute("name", 0, 1, type=STRING)])
    mm = Metamodel("m", [node])
    assert load_model('Node #1 { name = "a" }', mm).root.get("name") == "a"
    with pytest.raises(AttributeError):
        node.features.append(MetaAttribute("size", 0, 1, type=INT))
    with pytest.raises(AttributeError):
        node.features = [*node.features, MetaAttribute("size", 0, 1, type=INT)]
    with pytest.raises(DiagnosticError) as exc:
        load_model("Node #1 { size = 3 }", mm)
    assert [d.code for d in exc.value.diagnostics] == ["model-unknown-feature"]
