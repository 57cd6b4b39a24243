"""Canonical `.model` dump format: deterministic, diffable, loadable.

Objects appear depth-first in containment order as ``ClassName #<id> {``
blocks with 2-space indentation. Attribute lines are ``name = <literal>``
(strings double-quoted with backslash escapes, booleans ``true``/``false``,
ints decimal; multi-valued attributes as a comma-separated ``[...]`` list).
Multi-valued containments open a ``[`` block of nested objects; a singleton
containment inlines its one object. Cross references are ``name = -> #<id>``
(forward references permitted) or, for classifier stand-ins, the classifier's
``package::Name`` qualified name. Features print in declaration order,
inherited first; unset and empty slots are omitted.
"""

from __future__ import annotations

from .diagnostics import DiagnosticError, error
from .lexer import Lexer, Token, TokenStream, format_literal
from .meta import (
    Metamodel, MetaReference, Model, ModelObject, builtin_ecore,
    classifier_object, classifier_qname, find_classifier_home, iter_tree,
)

_LEXER = Lexer(
    reserved={"true", "false"},
    symbols={"{", "}", "[", "]", "=", ",", "->", "#", "::", "-"},
)


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


def dump_model(m: Model) -> str:
    ids = {id(obj): n for n, obj in enumerate(iter_tree(m.root), start=1)}
    dumper = _Dumper(ids, [m.metamodel, builtin_ecore()])
    _nest(dumper.emit(m.root, 0))
    return "\n".join(dumper.out) + "\n"


class _Dumper:
    """One dump_model call: object ids, the packages stand-ins may come
    from, and the lines written so far."""

    def __init__(self, ids: dict[int, int], known: list[Metamodel]):
        self.ids = ids
        self.known = known
        self.out: list[str] = []

    def cross(self, v: ModelObject) -> str:
        if v.represents is not None:
            home = find_classifier_home(v.represents, self.known)
            return "-> " + classifier_qname(v.represents, home)
        if id(v) not in self.ids:
            raise DiagnosticError([error(
                "validate", "model-dangling",
                f"cross reference to an object outside the model ({v.cls.name})", path="/")])
        return f"-> #{self.ids[id(v)]}"

    def emit(self, obj: ModelObject, indent: int, prefix: str = ""):
        """Write the lines of ``obj``, yielding the walk of each nested object
        where its lines go."""
        out, slots = self.out, obj.slots
        pad = "  " * indent
        out.append(f"{pad}{prefix}{obj.cls.name} #{self.ids[id(obj)]} {{")
        for f in obj.cls.all_features():
            if f.name not in slots:
                continue
            vals = slots[f.name] if f.many else (slots[f.name],)
            if not vals:
                continue
            inner = "  " * (indent + 1)
            if f.is_attribute:
                if f.many:
                    literals = ", ".join(map(format_literal, vals))
                    out.append(f"{inner}{f.name} = [{literals}]")
                else:
                    out.append(f"{inner}{f.name} = {format_literal(vals[0])}")
            elif isinstance(f, MetaReference) and f.containment:
                if f.many:
                    out.append(f"{inner}{f.name} = [")
                    for child in vals:
                        yield self.emit(child, indent + 2)
                    out.append(f"{inner}]")
                else:
                    yield self.emit(vals[0], indent + 1, f"{f.name} = ")
            else:
                if f.many:
                    out.append(f"{inner}{f.name} = [{', '.join(self.cross(v) for v in vals)}]")
                else:
                    out.append(f"{inner}{f.name} = {self.cross(vals[0])}")
        out.append(f"{pad}}}")


def load_model(text: str, mm: Metamodel, extra_metamodels=(), file: str = "<model>") -> Model:
    """Parse a dump back into a Model. Classifier stand-in references may
    name classifiers of ``mm``, builtin ecore, or any of ``extra_metamodels``."""
    reader = _Reader(TokenStream(_LEXER.tokenize(text, file)),
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


class _Reader:
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
