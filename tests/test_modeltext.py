import pytest

from mmdsl.diagnostics import DiagnosticError
from mmdsl.meta import (
    UNBOUNDED, MetaAttribute, MetaClass, Metamodel, MetaReference, Model,
    ModelObject, Tree, builtin_ecore, classifier_object, model_equals, validate_model,
)
from mmdsl.modeltext import dump_model, load_model

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


class TestDepth:
    def test_deep_chain_dumps_and_loads_back(self):
        """Dumping and loading walk a 5,000-deep chain on an explicit stack;
        the recursion limit is far below that depth."""
        node = MetaClass("Node")
        node.features = [
            MetaAttribute("name", 0, 1, type=STRING),
            MetaReference("one", 0, 1, type=node, containment=True),
            MetaReference("kids", 0, UNBOUNDED, type=node, containment=True),
            MetaReference("link", 0, 1, type=node, containment=False),
        ]
        mm = Metamodel("deep", [node])
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
