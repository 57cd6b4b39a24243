import itertools
import random
import time

from hypothesis import given, settings, strategies as st

from mmdsl.diagnostics import error
from mmdsl.meta import (
    UNBOUNDED, MetaAttribute, MetaClass, Metamodel, MetaReference, Model,
    ModelObject, Tree, builtin_ecore, classifier_object, is_identifier, is_subtype,
    iter_tree,
    metamodel_equals, metamodel_isomorphic, model_equals,
    validate_metamodel, validate_model, value_fits,
)

STRING = builtin_ecore().classifier("String")
BOOLEAN = builtin_ecore().classifier("boolean")
INT = builtin_ecore().classifier("int")


def simple_mm():
    node = MetaClass("Node")
    node.features = [
        MetaAttribute("name", 0, 1, type=STRING),
        MetaAttribute("weight", 0, 1, type=INT),
        MetaAttribute("leaf", 0, 1, type=BOOLEAN),
        MetaReference("children", 0, UNBOUNDED, type=node, containment=True),
        MetaReference("link", 0, 1, type=node, containment=False),
    ]
    return Metamodel("simple", [node]), node


def random_hierarchy(rng: random.Random) -> list[MetaClass]:
    """2-8 classes, each extending some earlier ones: acyclic by construction."""
    classes = [MetaClass(f"C{i}") for i in range(rng.randint(2, 8))]
    for i, cls in enumerate(classes):
        for j in range(i):
            if rng.random() < 0.3:
                cls.supertypes.append(classes[j])
    return classes


class TestBuiltinEcore:
    def test_classifier_set(self):
        names = {c.name for c in builtin_ecore().classifiers}
        assert names == {"EClassifier", "EClass", "EDataType", "EStructuralFeature",
                         "EAttribute", "EReference", "String", "boolean", "int"}

    def test_eclass_is_subtype_of_eclassifier(self):
        ec = builtin_ecore().classifier("EClass")
        ecl = builtin_ecore().classifier("EClassifier")
        assert is_subtype(ec, ecl)

    def test_eattribute_not_subtype_of_eclassifier(self):
        ea = builtin_ecore().classifier("EAttribute")
        ecl = builtin_ecore().classifier("EClassifier")
        assert not is_subtype(ea, ecl)

    def test_builtin_is_well_formed(self):
        assert validate_metamodel(builtin_ecore()) == []


class TestSubtype:
    def test_reflexive(self):
        mm, node = simple_mm()
        assert is_subtype(node, node)

    def test_chain(self):
        a = MetaClass("A")
        b = MetaClass("B", supertypes=[a])
        c = MetaClass("C", supertypes=[b])
        assert is_subtype(c, a)
        assert not is_subtype(a, c)

    def test_partial_order_on_random_hierarchies(self):
        # reflexive, antisymmetric, transitive over random acyclic DAGs
        rng = random.Random(7)
        for _ in range(25):
            classes = random_hierarchy(rng)
            for x in classes:
                assert is_subtype(x, x)
                for y in classes:
                    if x is not y and is_subtype(x, y):
                        assert not is_subtype(y, x)
                    for z in classes:
                        if is_subtype(x, y) and is_subtype(y, z):
                            assert is_subtype(x, z)


class TestValidateMetamodel:
    def test_well_formed(self):
        mm, _ = simple_mm()
        assert validate_metamodel(mm) == []

    def test_inheritance_cycle_of_length_one(self):
        a = MetaClass("A")
        a.supertypes = [a]
        diags = validate_metamodel(Metamodel("m", [a]))
        assert [(d.code, d.path) for d in diags] == [("mm-inheritance-cycle", "/m/A")]

    def test_duplicate_feature(self):
        a = MetaClass("A", features=[
            MetaAttribute("name", 0, 1, type=STRING),
            MetaAttribute("name", 0, 1, type=STRING),
        ])
        diags = validate_metamodel(Metamodel("m", [a]))
        assert any(d.code == "mm-duplicate-feature" for d in diags)

    def test_duplicate_classifier(self):
        diags = validate_metamodel(Metamodel("m", [MetaClass("A"), MetaClass("A")]))
        assert any(d.code == "mm-duplicate-classifier" for d in diags)

    def test_bounds(self):
        a = MetaClass("A", features=[MetaAttribute("x", 3, 2, type=INT)])
        diags = validate_metamodel(Metamodel("m", [a]))
        assert any(d.code == "mm-bounds" for d in diags)

    def test_unbounded_compares_greater(self):
        a = MetaClass("A", features=[MetaAttribute("x", 5, UNBOUNDED, type=INT)])
        assert validate_metamodel(Metamodel("m", [a])) == []

    def test_foreign_supertype(self):
        stray = MetaClass("Stray")
        a = MetaClass("A", supertypes=[stray])
        diags = validate_metamodel(Metamodel("m", [a]))
        assert any(d.code == "mm-bad-supertype" for d in diags)

    def test_default_on_multivalued_attribute(self):
        a = MetaClass("A", features=[
            MetaAttribute("xs", 0, UNBOUNDED, type=STRING, default="d")])
        diags = validate_metamodel(Metamodel("m", [a]))
        assert any(d.code == "mm-bad-default" for d in diags)

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from("aZ_09²éΩ٣ -"), max_size=6) | st.text(max_size=6))
    def test_identifier_as_the_character_test_read_it(self, name):
        """is_identifier is one regular expression; the per-character test it
        replaced is the oracle."""
        old = bool(name) and (name[0].isalpha() or name[0] == "_") and all(
            c.isalnum() or c == "_" for c in name) and name.isascii()
        assert is_identifier(name) == old


class TestMany:
    def test_set_from_the_upper_bound(self):
        for upper, many in ((1, False), (2, True), (UNBOUNDED, True)):
            assert MetaAttribute("a", 0, upper, type=INT).many is many
            assert MetaReference("r", 0, upper).many is many

    def test_features_of_parsed_and_derived_metamodels(self):
        from mmdsl.emfatic import parse_metamodel
        from mmdsl.xf import derive_ast_metamodel, parse_transformation

        target = parse_metamodel(
            "class A { attr int[0..2] two; attr int[*] any; attr int one; attr int[1..*] some;\n"
            "  val A[0..1] kid; val A[2..3] kids; ref A[*] links; }", "m")
        ast, _ = derive_ast_metamodel(target, parse_transformation(
            "create class QN { attr String[1] name; val QN[0..1] sub; attr String[*] xs; }\n"
            "refer img(A) as QN;", target))
        expect = {"two": True, "any": True, "one": False, "some": True, "kid": False,
                  "kids": True, "links": True, "name": False, "sub": False, "xs": True}
        for c in target.classes() + ast.classes():
            for f in c.features:
                assert f.many is expect[f.name], (c.name, f.name)


class TestValidateModel:
    def test_empty_root_all_optional(self):
        mm, node = simple_mm()
        m = Model(ModelObject(node), mm)
        assert validate_model(m) == []

    def test_missing_mandatory(self):
        req = MetaClass("Req", features=[MetaAttribute("name", 1, 1, type=STRING)])
        m = Model(ModelObject(req), Metamodel("m", [req]))
        diags = validate_model(m)
        assert any(d.code == "model-multiplicity" for d in diags)

    def test_cross_reference_outside_model(self):
        mm, node = simple_mm()
        stray = ModelObject(node, name="stray")
        root = ModelObject(node)
        root.set("link", stray)
        diags = validate_model(Model(root, mm))
        assert any(d.code == "model-dangling" for d in diags)

    def test_classifier_stand_in_is_not_dangling(self):
        ec = builtin_ecore().classifier("EClass")
        holder = MetaClass("Holder", features=[
            MetaReference("target", 0, 1, type=ec, containment=False)])
        mm = Metamodel("m", [holder])
        root = ModelObject(holder)
        root.set("target", classifier_object(holder))
        assert validate_model(Model(root, mm)) == []

    def test_containment_shared_twice(self):
        mm, node = simple_mm()
        shared = ModelObject(node, name="x")
        root = ModelObject(node)
        root.set("children", [shared, shared])
        diags = validate_model(Model(root, mm))
        assert any(d.code == "model-containment" for d in diags)

    def test_kind_mismatch(self):
        mm, node = simple_mm()
        root = ModelObject(node)
        root.slots["name"] = 42
        diags = validate_model(Model(root, mm))
        assert any(d.code == "model-kind" for d in diags)

    def test_bool_is_not_int(self):
        mm, node = simple_mm()
        root = ModelObject(node)
        root.slots["weight"] = True
        diags = validate_model(Model(root, mm))
        assert any(d.code == "model-kind" for d in diags)

    def test_abstract_class_cannot_be_instantiated(self):
        abstract = MetaClass("Abs", abstract=True)
        m = Model(ModelObject(abstract), Metamodel("m", [abstract]))
        diags = validate_model(m)
        assert any(d.code == "model-abstract" for d in diags)


def tree(node, name, *children, link=None):
    obj = ModelObject(node, name=name)
    if children:
        obj.set("children", list(children))
    if link is not None:
        obj.set("link", link)
    return obj


class TestModelEquals:
    def test_identity(self):
        mm, node = simple_mm()
        m = Model(tree(node, "a", tree(node, "b")), mm)
        assert model_equals(m, m)

    def test_attribute_difference(self):
        mm, node = simple_mm()
        a = Model(tree(node, "a"), mm)
        b = Model(tree(node, "b"), mm)
        assert not model_equals(a, b)

    def test_cross_references_follow_isomorphism(self):
        mm, node = simple_mm()

        def build(swap):
            c1 = tree(node, "c1")
            c2 = tree(node, "c2")
            root = tree(node, "r", c1, c2)
            root.set("link", c2 if not swap else c1)
            return Model(root, mm)

        assert model_equals(build(False), build(False))
        assert not model_equals(build(False), build(True))

    def test_unset_equals_intrinsic_default(self):
        mm, node = simple_mm()
        a = ModelObject(node)
        b = ModelObject(node)
        b.set("leaf", False)
        b.set("weight", 0)
        assert model_equals(Model(a, mm), Model(b, mm))

    def test_child_order_matters(self):
        mm, node = simple_mm()
        a = Model(tree(node, "r", tree(node, "x"), tree(node, "y")), mm)
        b = Model(tree(node, "r", tree(node, "y"), tree(node, "x")), mm)
        assert not model_equals(a, b)

    def test_classifier_stand_ins_compare_by_name(self):
        ec = builtin_ecore().classifier("EClass")
        holder = MetaClass("Holder", features=[
            MetaReference("t", 0, 1, type=ec, containment=False)])
        mm = Metamodel("m", [holder])
        a_root = ModelObject(holder)
        a_root.set("t", classifier_object(builtin_ecore().classifier("EClassifier")))
        b_root = ModelObject(holder)
        b_root.set("t", classifier_object(builtin_ecore().classifier("EClassifier")))
        c_root = ModelObject(holder)
        c_root.set("t", classifier_object(builtin_ecore().classifier("EDataType")))
        assert model_equals(Model(a_root, mm), Model(b_root, mm))
        assert not model_equals(Model(a_root, mm), Model(c_root, mm))

    def test_deep_chain(self):
        """The trees are compared on an explicit stack: a 5,000-deep chain
        is far below the recursion limit. Each link of the chain points at
        its parent, and the last one's name may differ."""
        mm, node = simple_mm()

        def chain(last):
            objs = [ModelObject(node, name=f"n{i}") for i in range(5000)]
            for parent, child in zip(objs, objs[1:]):
                child.set("link", parent)
                parent.set("children", [child])
            objs[-1].set("name", last)
            return Model(objs[0], mm)

        assert model_equals(chain("end"), chain("end"))
        assert not model_equals(chain("end"), chain("other"))
        relinked = chain("end")
        objs = iter_tree(relinked.root)
        objs[-1].set("link", objs[1])
        assert not model_equals(chain("end"), relinked)

    def test_a_containment_cycle_ends(self):
        """A pair reached again is not compared again: an object whose kids
        hold itself equals another such object, and not a finite tree."""
        mm, node = simple_mm()

        def looped(name):
            obj = tree(node, name)
            obj.set("children", [obj])
            return Model(obj, mm)

        start = time.perf_counter()
        assert model_equals(looped("a"), looped("a"))
        assert not model_equals(looped("a"), looped("b"))
        assert not model_equals(looped("a"), Model(tree(node, "a", tree(node, "a")), mm))
        assert not model_equals(Model(tree(node, "a", tree(node, "a")), mm), looped("a"))
        assert time.perf_counter() - start < 1

    def test_an_object_reached_again_needs_the_same_partner(self):
        """Shared containment matches only the same sharing: an object
        reached twice pairs with one object of the other model, both ways."""
        mm, node = simple_mm()

        def shared():
            s = tree(node, "s")
            return Model(tree(node, "r", s, s), mm)

        copies = Model(tree(node, "r", tree(node, "s"), tree(node, "s")), mm)
        assert model_equals(shared(), shared())
        assert not model_equals(shared(), copies)
        assert not model_equals(copies, shared())


# ---------------------------------------------------------------------------
# Tree against the recursive walkers it replaced. They are kept here as
# oracles, unchanged except that the path and container searches step over
# values that are not objects instead of crashing on them.


def ref_iter_tree(root):
    yield root
    for f in root.cls.all_features():
        if isinstance(f, MetaReference) and f.containment:
            for child in root.values(f.name):
                if isinstance(child, ModelObject):
                    yield from ref_iter_tree(child)


def ref_reach(obj, seen, shared):
    if id(obj) in seen:
        shared.append(obj)
        return
    seen[id(obj)] = obj
    for f in obj.cls.all_features():
        if isinstance(f, MetaReference) and f.containment:
            for child in obj.values(f.name):
                if isinstance(child, ModelObject):
                    ref_reach(child, seen, shared)


def ref_object_path(root, target):
    if target is root:
        return "/"
    return ref_path_below(root, "/", target)


def ref_path_below(obj, prefix, target):
    for f in obj.cls.all_features():
        if isinstance(f, MetaReference) and f.containment:
            kids = obj.values(f.name)
            for i, child in enumerate(kids):
                step = f"{f.name}[{i}]" if f.many else f.name
                here = f"{prefix}/{step}" if prefix != "/" else f"/{step}"
                if child is target:
                    return here
                if not isinstance(child, ModelObject):
                    continue
                found = ref_path_below(child, here, target)
                if found:
                    return found
    return None


def ref_container_of(root, target):
    return ref_container_below(root, target) if target is not root else None


def ref_container_below(obj, target):
    for f in obj.cls.all_features():
        if not f.is_attribute and f.containment:
            for child in obj.values(f.name):
                if child is target:
                    return obj
                if not isinstance(child, ModelObject):
                    continue
                found = ref_container_below(child, target)
                if found is not None:
                    return found
    return None


LOOPED = object()


def unless_looping(search, *args):
    """``search(*args)``, or LOOPED where the search goes round a
    containment cycle without end."""
    try:
        return search(*args)
    except RecursionError:
        return LOOPED


def has_cycle(root) -> bool:
    """Some object contains itself, directly or through others."""
    on_path, done = set(), set()
    stack = [(root, False)]
    while stack:
        obj, leaving = stack.pop()
        if leaving:
            on_path.discard(id(obj))
            done.add(id(obj))
            continue
        if id(obj) in on_path:
            return True
        if id(obj) in done:
            continue
        on_path.add(id(obj))
        stack.append((obj, True))
        for f in obj.cls.containments():
            stack.extend((c, False) for c in obj.values(f.name) if isinstance(c, ModelObject))
    return False


def tree_mm():
    """Single- and multi-valued containment, plus a subclass that adds one."""
    node = MetaClass("Node")
    node.features = [
        MetaAttribute("name", 0, 1, type=STRING),
        MetaReference("kids", 0, UNBOUNDED, type=node, containment=True),
        MetaReference("link", 0, 1, type=node, containment=False),
        MetaReference("one", 0, 1, type=node, containment=True),
    ]
    sub = MetaClass("Sub", supertypes=[node], features=[
        MetaReference("more", 0, UNBOUNDED, type=node, containment=True)])
    return node, sub


@st.composite
def hand_built_models(draw):
    """Objects wired by random containment edges: trees, shared children,
    cycles, unreachable objects and non-object values in containment slots."""
    node, sub = tree_mm()
    n = draw(st.integers(1, 10))
    objs = [ModelObject(draw(st.sampled_from([node, sub])), name=f"o{i}") for i in range(n)]
    as_tree = draw(st.booleans())  # edges only to fresh, later objects
    fresh = list(range(1, n))
    for _ in range(draw(st.integers(0, 3 * n))):
        a = draw(st.integers(0, n - 1))
        fname = draw(st.sampled_from(["kids", "one", "more"]))
        if as_tree:
            if not fresh or fresh[0] <= a:
                continue
            value = objs[fresh.pop(0)]
        else:
            b = draw(st.integers(-2, n - 1))
            value = objs[b] if b >= 0 else (7 if b == -1 else "x")
        obj = objs[a]
        if obj.cls.find_feature(fname) is None:
            continue
        if fname == "one":
            obj.slots[fname] = value
        else:
            obj.slots.setdefault(fname, []).append(value)
        if draw(st.booleans()):
            obj.set("link", objs[draw(st.integers(0, n - 1))])
    return objs


class TestTreeHelpers:
    def test_iter_tree_is_depth_first(self):
        mm, node = simple_mm()
        m = tree(node, "r", tree(node, "a", tree(node, "b")), tree(node, "c"))
        assert [o.get("name") for o in iter_tree(m)] == ["r", "a", "b", "c"]

    def test_exactly_one_object_has_no_container(self):
        mm, node = simple_mm()
        root = tree(node, "r", tree(node, "a"), tree(node, "b", tree(node, "c")))
        objs = list(iter_tree(root))
        contained = set()
        for o in objs:
            for f in o.cls.all_features():
                if not f.is_attribute and f.containment:
                    contained.update(id(k) for k in o.values(f.name))
        roots = [o for o in objs if id(o) not in contained]
        assert roots == [root]
        t = Tree(root)
        assert [o for o in objs if t.container(o) is None] == [root]

    def test_containments_follow_all_features(self):
        node, sub = tree_mm()
        assert [f.name for f in node.containments()] == ["kids", "one"]
        assert [f.name for f in sub.containments()] == ["kids", "one", "more"]
        assert builtin_ecore().classifier("EClass").containments() == ()

    @settings(max_examples=150, deadline=None)
    @given(hand_built_models())
    def test_agrees_with_the_recursive_walkers(self, objs):
        root = objs[0]
        t = Tree(root)
        seen, shared = {}, []
        ref_reach(root, seen, shared)
        assert t.objects == list(seen.values())
        assert t.shared == shared
        cyclic = has_cycle(root)
        if not cyclic:
            # the recursive walk lists a shared subtree again each time
            unfolded = list(itertools.islice(ref_iter_tree(root), 5000))
            if len(unfolded) < 5000:
                assert t.objects == list({id(o): o for o in unfolded}.values())
                if not shared:
                    assert t.objects == unfolded
            assert iter_tree(root) == t.objects
        for obj in objs:
            assert (obj in t) == (id(obj) in seen)
            path = unless_looping(ref_object_path, root, obj)
            container = unless_looping(ref_container_of, root, obj)
            assert cyclic or LOOPED not in (path, container)
            if path is not LOOPED:
                assert t.path(obj) == path
            if container is not LOOPED:
                assert t.container(obj) is container
            assert (t.path(obj) is None) == (obj not in t)

    def test_values_that_are_not_objects_keep_their_index(self):
        node, _ = tree_mm()
        a, b = ModelObject(node, name="a"), ModelObject(node, name="b")
        root = ModelObject(node, name="r")
        root.slots["kids"] = [7, a, "x", b]
        t = Tree(root)
        assert t.objects == [root, a, b]
        paths = [t.path(o) for o in t.objects]
        assert paths == ["/", "/kids[1]", "/kids[3]"]
        assert paths == [ref_object_path(root, o) for o in t.objects]

    def test_containment_cycle_locates_a_later_sibling(self):
        mm, node = simple_mm()
        a, b = tree(node, "a"), tree(node, "b")
        root = tree(node, "r", a, b)
        a.set("children", [root])
        b.slots["name"] = 42
        rendered = [d.render() for d in validate_model(Model(root, mm))]
        assert "model:/: error[model-containment]: object of class Node is contained " \
            "more than once" in rendered
        assert any(r.startswith("model:/children[1]: error[model-kind]:") for r in rendered)

    def test_deep_chain_has_no_recursion_limit(self):
        mm, node = simple_mm()
        depth = 5000
        chain = [ModelObject(node, name=f"n{i}") for i in range(depth)]
        for parent, child in zip(chain, chain[1:]):
            parent.set("children", [child])
        assert iter_tree(chain[0]) == chain
        assert validate_model(Model(chain[0], mm)) == []
        chain[-1].slots["weight"] = "heavy"
        (d,) = validate_model(Model(chain[0], mm))
        assert d.code == "model-kind"
        assert d.path == "/children[0]" * (depth - 1)


# The validate_model that read each feature's values by name, kept as the
# oracle for the one that reads slots and class tables directly.
def ref_validate_model(m: Model):
    diags, tree = [], Tree(m.root)

    def err(code, message, obj):
        diags.append(error("validate", code, message, path=tree.path(obj)))

    ecore = builtin_ecore()
    known = {id(c) for c in m.metamodel.classifiers} | {id(c) for c in ecore.classifiers}

    # Containment must be a tree: every object reached exactly once.
    for obj in tree.shared:
        err("model-containment", f"object of class {obj.cls.name} is contained more than once",
            m.root)

    for obj in tree.objects:
        if id(obj.cls) not in known:
            err("model-unknown-class", f"class {obj.cls.name} is not in the metamodel", obj)
            continue
        if obj.cls.abstract:
            err("model-abstract", f"class {obj.cls.name} is abstract", obj)
        for name in obj.slots:
            if obj.cls.find_feature(name) is None:
                err("model-unknown-feature", f"class {obj.cls.name} has no feature {name!r}", obj)
        for f in obj.cls.all_features():
            vals = obj.values(f.name)  # effective: defaults count as present
            count = len(vals)
            if count < f.lower or (f.upper is not UNBOUNDED and count > f.upper):
                upper = "*" if f.upper is UNBOUNDED else f.upper
                err("model-multiplicity",
                    f"{obj.cls.name}.{f.name}: {count} value(s) violate bounds {f.lower}..{upper}", obj)
            for v in vals:
                if f.is_attribute:
                    if isinstance(v, ModelObject) or not value_fits(v, f.type):
                        err("model-kind",
                            f"{obj.cls.name}.{f.name}: value {v!r} does not fit attribute type "
                            f"{f.type.name}", obj)
                else:
                    if not isinstance(v, ModelObject):
                        err("model-kind",
                            f"{obj.cls.name}.{f.name}: expected an object, found {v!r}", obj)
                        continue
                    if not is_subtype(v.cls, f.type):
                        err("model-kind",
                            f"{obj.cls.name}.{f.name}: object of class {v.cls.name} does not "
                            f"conform to {f.type.name}", obj)
                    if not f.containment and v not in tree and v.represents is None:
                        err("model-dangling",
                            f"{obj.cls.name}.{f.name}: cross reference targets an object "
                            f"outside the model", obj)
    return diags


def checked_mm():
    """Every check validate_model makes: defaults that count as values,
    lower and finite upper bounds, attribute and reference kinds, cross
    references and stand-ins, an abstract class, a class outside the
    metamodel, and a subclass that declares a feature name again."""
    node = MetaClass("Node")
    node.features = [
        MetaAttribute("name", 0, 1, type=STRING),
        MetaAttribute("size", 0, 1, type=INT, default=3),
        MetaAttribute("on", 0, 1, type=BOOLEAN),
        MetaAttribute("title", 1, 1, type=STRING),
        MetaAttribute("label", 1, 1, type=STRING, default="x"),
        MetaAttribute("tags", 0, 2, type=STRING),
        MetaReference("kids", 0, UNBOUNDED, type=node, containment=True),
        MetaReference("one", 0, 1, type=node, containment=True),
        MetaReference("pair", 1, 2, type=node, containment=True),
        MetaReference("link", 0, 1, type=node),
        MetaReference("links", 0, UNBOUNDED, type=node),
        MetaReference("meta", 0, 1, type=builtin_ecore().classifier("EClass")),
    ]
    again = MetaClass("Again", supertypes=[node], features=[
        MetaAttribute("name", 0, 2, type=INT), MetaAttribute("size", 0, 1, type=INT, default=9)])
    abstract = MetaClass("Abstract", abstract=True, supertypes=[node])
    other = MetaClass("Other", features=[MetaAttribute("n", 2, 3, type=INT)])
    outside = MetaClass("Outside", supertypes=[node])
    return Metamodel("checked", [node, again, abstract, other]), [node, again, abstract,
                                                                   other, outside]


@st.composite
def checked_models(draw):
    """Hand-built models over checked_mm: any value in any slot, including
    lists where one value belongs and the reverse, shared children, cycles,
    objects outside the model and unknown slot names."""
    mm, classes = checked_mm()
    n = draw(st.integers(1, 8))
    objs = [ModelObject(draw(st.sampled_from(classes))) for _ in range(n)]
    stray = ModelObject(classes[0])
    names = sorted({f.name for c in classes for f in c.all_features()} | {"bogus"})
    value = st.one_of(
        st.sampled_from(["s", "", 0, 7, True, False, None, 2.5]),
        st.integers(0, n - 1).map(lambda i: objs[i]),
        st.sampled_from([stray, classifier_object(classes[0]), classifier_object(STRING)]))
    for _ in range(draw(st.integers(0, 4 * n))):
        obj = objs[draw(st.integers(0, n - 1))]
        many = draw(st.booleans())
        obj.slots[draw(st.sampled_from(names))] = (
            draw(st.lists(value, max_size=3)) if many else draw(value))
    return Model(objs[0], mm)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # a value no validator can read: both must fail alike
        return "raised", type(exc).__name__


class TestValidateModelAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(checked_models())
    def test_same_diagnostics(self, m):
        assert outcome(validate_model, m) == outcome(ref_validate_model, m)

    def test_reports_every_code(self):
        mm, (node, again, abstract, other, outside) = checked_mm()
        root = ModelObject(node, title="t", tags=["a", "b", "c"])
        kid, twice = ModelObject(abstract), ModelObject(outside)
        root.slots.update(kids=[kid, twice, twice, 5], pair=[ModelObject(other)],
                          link=ModelObject(node), bogus=1)
        codes = {d.code for d in validate_model(Model(root, mm))}
        assert codes == {"model-containment", "model-unknown-class", "model-abstract",
                         "model-unknown-feature", "model-multiplicity", "model-kind",
                         "model-dangling"}
        assert validate_model(Model(root, mm)) == ref_validate_model(Model(root, mm))

    def test_defaults_count_as_present(self):
        mm, (node, *_) = checked_mm()
        root = ModelObject(node, title="t", pair=[ModelObject(node, title="u")])
        diags = validate_model(Model(root, mm))
        assert [(d.path, d.message) for d in diags] == [
            ("/pair[0]", "Node.pair: 0 value(s) violate bounds 1..2")]
        assert diags == ref_validate_model(Model(root, mm))


class TestSlotValues:
    def test_values_is_a_fresh_list(self):
        mm, node = simple_mm()
        root = tree(node, "r", tree(node, "a"))
        for name, expected in [("children", list(root.slots["children"])), ("name", ["r"]),
                               ("weight", [0]), ("link", [])]:
            got = root.values(name)
            assert got == expected
            got.append(None)
            assert root.values(name) == expected
        assert ModelObject(node).values("children") == []

    def test_values_looks_the_feature_up_once(self, monkeypatch):
        mm, node = simple_mm()
        obj = ModelObject(node, name="n")
        calls = []
        find = MetaClass.find_feature
        monkeypatch.setattr(MetaClass, "find_feature",
                            lambda cls, name: calls.append(name) or find(cls, name))
        for name in ("name", "weight", "children", "link"):
            obj.values(name)
        assert calls == ["name", "weight", "children", "link"]


class TestMetamodelEquality:
    def test_equal_and_isomorphic(self):
        def build():
            a = MetaClass("A", features=[MetaAttribute("x", 0, 1, type=INT)])
            b = MetaClass("B", supertypes=[a])
            return Metamodel("m", [a, b])

        assert metamodel_equals(build(), build())
        reordered = build()
        reordered.classifiers.reverse()
        assert not metamodel_equals(build(), reordered)
        assert metamodel_isomorphic(build(), reordered)

    def test_feature_difference_detected(self):
        a1 = MetaClass("A", features=[MetaAttribute("x", 0, 1, type=INT)])
        a2 = MetaClass("A", features=[MetaAttribute("x", 0, 1, type=STRING)])
        assert not metamodel_equals(Metamodel("m", [a1]), Metamodel("m", [a2]))


# ---------------------------------------------------------------------------
# Feature tables against a naive walk


def naive_supertypes(cls) -> list:
    out = []

    def walk(c):
        for s in c.supertypes:
            if not any(s is o for o in out):
                out.append(s)
                walk(s)

    walk(cls)
    return out


def naive_features(cls) -> list:
    out = []
    for c in [*reversed(naive_supertypes(cls)), cls]:
        for f in c.features:
            if not any(f is o for o in out):
                out.append(f)
    return out


def assert_tables_agree(classes, names):
    for x in classes:
        supers = naive_supertypes(x)
        assert list(x.all_supertypes()) == supers
        features = naive_features(x)
        assert list(x.all_features()) == features
        assert list(x.tables().bounded) == [
            f for f in features if f.lower > 0 or (f.many and f.upper is not UNBOUNDED)]
        for name in names:
            assert x.find_feature(name) is next((f for f in features if f.name == name), None)
        for y in classes:
            assert is_subtype(x, y) == (x is y or any(s is y for s in supers))


class TestFeatureTables:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.lists(st.integers(0, 5), max_size=10))
    def test_agree_with_naive_walk_through_edits(self, rng, edits):
        classes = random_hierarchy(rng)
        # few names and shared feature objects: shadowing and diamonds
        pool = [MetaAttribute(f"f{k % 4}", 0, 1, type=INT) for k in range(8)]
        for cls in classes:
            cls.features.extend(rng.sample(pool, rng.randint(0, 3)))
        names = ["f0", "f1", "f2", "f3", "absent"]
        assert_tables_agree(classes, names)
        for kind in edits:  # every edit lands after the tables were built
            a, b = rng.choice(classes), rng.choice(classes)
            if kind == 0:
                a.supertypes.append(b)  # may close a cycle
            elif kind == 1:
                a.supertypes = [b]
            elif kind == 2:
                a.features.append(rng.choice(pool))
            elif kind == 3 and a.features:
                a.features[rng.randrange(len(a.features))] = MetaAttribute(
                    rng.choice(names), 0, 1, type=STRING)
            elif kind == 4:
                a.features = list(reversed(a.features))
            elif kind == 5:
                del a.supertypes[:1]
            assert_tables_agree(classes, names)

    def test_agree_on_derived_ast_metamodels(self):
        from pathlib import Path

        from mmdsl.emfatic import parse_metamodel
        from mmdsl.xf import derive_ast_metamodel, parse_transformation

        samples = Path(__file__).resolve().parent.parent / "samples"
        for sample, stem in (("css", "css"), ("selfhost", "xf")):
            target = parse_metamodel((samples / sample / f"{stem}.mm").read_text(), stem)
            script = parse_transformation((samples / sample / f"{stem}.xf").read_text(), target)
            ast, _ = derive_ast_metamodel(target, script)
            classes = ast.classes() + target.classes() + builtin_ecore().classes()
            names = sorted({f.name for c in classes for f in c.features} | {"absent"})
            assert_tables_agree(classes, names)

    def test_tables_hold_no_cycle(self):
        """A class's tables do not point back at the class, so a dropped
        hierarchy is freed by reference counting alone."""
        import gc
        import weakref

        gc.disable()
        try:
            base = MetaClass("Base", features=[MetaAttribute("a", 0, 1, type=INT)])
            sub = MetaClass("Sub", supertypes=[base])
            assert sub.find_feature("a") is base.find_feature("a")
            sub.features.append(MetaAttribute("b", 0, 1, type=INT))
            assert [f.name for f in sub.all_features()] == ["a", "b"]
            refs = [weakref.ref(base), weakref.ref(sub)]
            del base, sub
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_selfhost_load_builds_each_table_once(self, monkeypatch):
        """An edit to one class leaves the tables of classes that neither are
        it nor inherit from it alone: a selfhost language load builds the
        tables of each class it looks up once, and reuses ecore's. Every
        edit used to mark all tables stale: 44 builds for 22 classes."""
        from pathlib import Path

        from mmdsl import meta
        from mmdsl.emfatic import parse_metamodel
        from mmdsl.grammar import check_grammar, parse_grammar
        from mmdsl.transform import build_plan, namespace_registry, parse_config
        from mmdsl.xf import derive_ast_metamodel, parse_transformation

        d = Path(__file__).resolve().parent.parent / "samples" / "selfhost"

        def load():
            target = parse_metamodel((d / "xf.mm").read_text(), "xf")
            ast, trace = derive_ast_metamodel(
                target, parse_transformation((d / "xf.xf").read_text(), target))
            assert check_grammar(parse_grammar((d / "xf.gr").read_text(), ast)) == []
            build_plan(trace, target, ast)
            namespace_registry(parse_config((d / "ns.cfg").read_text()), target, ast)
            return target, ast

        load()  # builds ecore's tables, once for the process
        built = []
        init = meta._Tables.__init__
        monkeypatch.setattr(meta._Tables, "__init__",
                            lambda t, cls: built.append(cls) or init(t, cls))
        target, ast = load()
        monkeypatch.undo()
        assert len(built) == len(set(built)) == 20
        assert set(built) <= set(target.classes()) | set(ast.classes())
        classes = ast.classes() + target.classes() + builtin_ecore().classes()
        assert_tables_agree(classes, sorted({f.name for c in classes for f in c.features}))
