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

dump_model writes on one explicit stack of frames, each a line still to write
or an object and the position in its class's layout to go on from; the layout,
(name, many, attribute | containment | cross) per feature, is kept on the
class's tables. Objects are numbered as the walk writes their heads; cross
reference lines are filled in after it. A stand-in's qualified name is looked
up once per dump.

load_model makes no tokens: one anchored match reads one construct, blanks and
comments allowed between its lexemes. The constructs: ``Class #n {``; ``name =``
and a value (literal, ``->`` reference, object head or ``[``), or ``}``; a list
item after an optional ``,``, or ``]``. Only when one fails is the text
tokenized: a lexical error anywhere wins, as it did when every text was; else
the tokens from the construct on are read one by one for the diagnostic.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .diagnostics import DiagnosticError, error
from .lexer import _ESCAPE, _ESCAPES, _SKIP, _STRING_OPEN, Lexer, TokenStream, format_literal
from .meta import (
    Classifier, MetaClass, Metamodel, Model, ModelObject, builtin_ecore, classifier_object,
    classifier_qname, find_classifier_home,
)

_LEXER = Lexer(reserved={"true", "false"},
               symbols={"{", "}", "[", "]", "=", ",", "->", "#", "::", "-"})

# The constructs load_model matches; ``lastgroup`` names the alternative. A
# name is the lexer's ID, cut off by (?!\w) where it could go on; it may also
# start with a numeric non-digit such as '²', which no name table the loader
# reads holds (_reads_as_id), so the lexer reports it.
_S, _N = _SKIP, r"(?!(?:true|false)(?!\w))[^\W\d]\w*"
_HEAD = rf"(?P<cls>{_N}){_S}#{_S}(?P<id>\d+){_S}(?P<obj>\{{)"
_VALUE = (rf"(?P<true>true)(?!\w)|(?P<false>false)(?!\w)|{_HEAD}"
          rf"|(?P<arrow>->){_S}(?:#{_S}(?P<ref>\d+)|(?P<q>{_N}(?:{_S}::{_S}{_N})*)(?!\w|{_S}::))"
          rf"|(?P<str>{_STRING_OPEN}\")|-{_S}(?P<neg>\d+)|(?P<int>\d+)")
_ROOT, _FIELD, _ITEM0, _ITEMN, _END, _SEP = (re.compile(_S + p, re.DOTALL) for p in (
    _HEAD, rf"(?:(?P<name>{_N}){_S}={_S}(?:{_VALUE}|(?P<open>\[))|(?P<end>\}}))",
    rf"(?:{_VALUE}|(?P<close>\]))", rf"(?:,{_S})?(?:{_VALUE}|(?P<close>\]))", r"\Z",
    rf"::{_S}"))


def dump_model(m: Model) -> str:
    """The canonical dump of ``m``, written on one explicit stack. A frame
    is a line still to write (a list's ``]``) or ``(object, indent, layout
    position)``: the object's features from that position of its class's
    layout (``_layout``) on, after its head if the position is -1. A nested
    object's frame goes on the stack above its container's, which resumes
    after it. Each object is numbered as its head is written, so the ids
    follow the preorder; cross references may point forward, so their
    lines are written after the walk. An object reached again while its
    block is open is a containment cycle."""
    ids = {m.root: 1}
    opened = {m.root}  # the objects whose block is not closed yet
    known = [m.metamodel, builtin_ecore()]
    qnames: dict[ModelObject, str] = {}  # stand-in -> its reference, looked up once
    layouts: dict[MetaClass, tuple] = {}
    crosses = []  # (line index, line start, value or values, many), written last

    def open_(v: ModelObject) -> int:
        if v in opened:
            raise DiagnosticError([error(
                "validate", "model-containment",
                f"object of class {v.cls.name} is contained more than once", path="/")])
        opened.add(v)
        return ids.setdefault(v, len(ids) + 1)

    def cross(v: ModelObject) -> str:
        if v.represents is not None:
            ref = qnames.get(v)
            if ref is None:
                home = find_classifier_home(v.represents, known)
                ref = qnames[v] = "-> " + classifier_qname(v.represents, home)
            return ref
        if v not in ids:
            raise DiagnosticError([error(
                "validate", "model-dangling",
                f"cross reference to an object outside the model ({v.cls.name})", path="/")])
        return f"-> #{ids[v]}"

    out = [f"{m.root.cls.name} #1 {{"]
    stack: list = [(m.root, 0, 0)]
    push = stack.append
    while stack:
        frame = stack.pop()
        if type(frame) is str:
            out.append(frame)
            continue
        obj, indent, at = frame
        if at < 0:
            out.append(f"{'  ' * indent}{obj.cls.name} #{open_(obj)} {{")
            at = 0
        slots, layout = obj.slots, layouts.get(obj.cls) or layouts.setdefault(
            obj.cls, _layout(obj.cls))
        inner = "  " * (indent + 1)
        for i in range(at, len(layout)):
            name, many, kind = layout[i]
            if name not in slots:
                continue
            v = slots[name]
            if many and not v:
                continue
            if kind == "attribute":
                if many:
                    out.append(f"{inner}{name} = [{', '.join(map(format_literal, v))}]")
                else:
                    out.append(f"{inner}{name} = {format_literal(v)}")
            elif kind == "cross":
                crosses.append((len(out), f"{inner}{name} = ", v, many))
                out.append(None)
            elif many:
                out.append(f"{inner}{name} = [")
                push((obj, indent, i + 1))
                push(f"{inner}]")
                for child in reversed(v):
                    push((child, indent + 2, -1))
                break
            else:
                out.append(f"{inner}{name} = {v.cls.name} #{open_(v)} {{")
                push((obj, indent, i + 1))
                push((v, indent + 1, 0))
                break
        else:
            out.append(f"{'  ' * indent}}}")
            opened.discard(obj)
    for i, start, v, many in crosses:
        out[i] = start + (f"[{', '.join(map(cross, v))}]" if many else cross(v))
    return "\n".join(out) + "\n"


def _layout(cls: MetaClass) -> tuple:
    """dump_model's reading of ``cls``: (name, many, attribute | containment
    | cross) per feature of ``all_features``, kept on the class's tables."""
    t = cls.tables()
    if t.layout is None:
        t.layout = tuple((f.name, f.many, "attribute" if f.is_attribute else
                          "containment" if f.containment else "cross") for f in t.features)
    return t.layout


def load_model(text: str, mm: Metamodel, extra_metamodels=(), file: str = "<model>") -> Model:
    """Parse a dump back; classifier references name ``mm``, ``extra_metamodels`` or ecore."""
    loader = _Loader(text, file, [mm, *extra_metamodels, builtin_ecore()])
    try:
        return Model(loader.load(), mm)
    except ValueError:  # an integer with more digits than int() converts, which the lexer reports
        loader.stream(0)
        raise


def _reads_as_id(name: str) -> bool:
    """False for a name that _N may match but the lexer reads no ID in: one
    with a ``::`` segment that starts with a numeric character like '²'. No
    such character is ASCII."""
    return name.isascii() or all(s[:1].isalpha() or s[:1] == "_" for s in name.split("::"))


def _fields(cls: MetaClass) -> dict:
    """``cls``'s name -> feature table without the names _reads_as_id refuses,
    built once per version of the class's tables."""
    t = cls.tables()
    if t.id_names is None:
        t.id_names = {k: f for k, f in t.by_name.items() if _reads_as_id(k)}
    return t.id_names


class _Loader:
    """One load_model call: the text, what its names resolve to, its objects by id."""

    def __init__(self, text: str, file: str, packages: list[Metamodel]):
        self.text, self.file, self.by_id = text, file, {}
        # per name, the first package's classifier; for heads, the first class
        self.classes: dict[str, MetaClass] = {}
        self.refs: dict[str, Classifier] = {}
        for pkg in reversed(packages):
            qualify = _reads_as_id(pkg.name)
            for name, c in {c.name: c for c in reversed(pkg.classifiers)}.items():
                if not _reads_as_id(name):
                    continue  # the lexer reads no ID here
                self.refs[name] = c
                if qualify:
                    self.refs[f"{pkg.name}::{name}"] = c
                if c.is_class:
                    self.classes[name] = c
        self.feats: dict[MetaClass, dict] = {}

    def load(self) -> ModelObject:
        text, classes, by_id = self.text, self.classes, self.by_id
        up, patches = [], []  # the enclosing objects' states; the forward references
        pat, at, obj, feats, feat, items, fat = _ROOT, 0, None, None, None, None, 0
        while True:
            m = pat.match(text, at)
            if m is None or pat is _FIELD and m.lastgroup != "end" and (
                    feat := feats.get(m["name"])) is None:
                self.diagnose(pat, at, obj)
            kind = m.lastgroup
            if kind == "str":
                value = m[kind][1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value)
            elif kind == "obj":
                cls, oid = classes.get(m["cls"]), int(m["id"])
                if cls is None or oid in by_id:
                    self.diagnose(pat, at, obj)
                up.append((obj, feats, feat, items, fat))
                obj = by_id[oid] = ModelObject(cls)
                feats = self.feats.get(cls) or self.feats.setdefault(cls, _fields(cls))
                pat, at, items = _FIELD, m.end(), None
                continue
            elif kind == "end":
                value, (obj, feats, feat, items, fat) = obj, up.pop()
                if obj is None:
                    break
            elif kind == "open":
                pat, at, items, fat = _ITEM0, m.end(), [], m.start("name")
                continue
            elif kind == "close":
                if len(items) > 1 and not feat.many:
                    self.stream(fat).fail(f"single-valued feature {obj.cls.name}.{feat.name} "
                                          f"lists {len(items)} values", "model-multiplicity")
                if items or feat.many:
                    obj.slots[feat.name] = items if feat.many else items[0]
                pat, at, items = _FIELD, m.end(), None
                continue
            elif kind == "ref":
                value = None  # patched once every object is read
                patches.append((obj, feat, len(items or ()), int(m[kind]), m.start("arrow")))
            elif kind == "q":
                c = self.refs.get(m[kind]) or self.refs.get("::".join(_SEP.split(m[kind])))
                if c is None:
                    self.diagnose(pat, at, obj)
                value = classifier_object(c)
            elif kind == "int" or kind == "neg":
                value = int(m[kind]) if kind == "int" else -int(m[kind])
            else:
                value = kind == "true"
            at, pat = m.end(), _FIELD if items is None else _ITEMN
            if items is not None:
                items.append(value)
            elif not feat.many:
                if value is not None:
                    obj.slots[feat.name] = value
            elif kind == "ref" or kind == "q":
                obj.slots[feat.name] = [value]
            else:
                obj.slots.setdefault(feat.name, []).append(value)
        if _END.match(text, m.end()) is None:
            self.diagnose(_END, m.end(), None)
        for holder, f, index, ref, arrow in patches:
            if ref not in by_id:
                self.stream(arrow).fail(f"reference to unknown object #{ref}", "model-dangling")
            slots = holder.slots[f.name] if f.many else holder.slots
            slots[index if f.many else f.name] = by_id[ref]
        return value

    def stream(self, at: int) -> TokenStream:
        """The text's tokens from offset ``at`` on, or its first lexical error."""
        tokens = _LEXER.tokenize(self.text, self.file)
        return TokenStream(tokens[bisect_left(tokens, at, key=lambda t: t.offset):])

    def diagnose(self, pat, at: int, obj: ModelObject | None):
        """Raise what reading ``obj``'s construct ``pat`` from ``at`` token by token reports."""
        s = self.stream(at)
        if pat is _END:
            s.expect_eof()
        if pat is _FIELD:
            tok = s.next()
            if tok.kind != "ID":
                s.fail(f"expected a feature name, found '{tok.text}'", token=tok)
            if obj.cls.tables().by_name.get(tok.text) is None:
                s.fail(f"class {obj.cls.name} has no feature {tok.text!r}",
                       "model-unknown-feature", tok)
            s.expect_kw("=")
        elif pat is _ITEMN:
            s.accept_kw(",")
        if pat is _ROOT or s.at("ID") and s.peek().is_kw("#"):
            name = s.expect("ID")
            if name.text not in self.classes:
                s.fail(f"unknown class name {name.text!r}", "model-unknown-class", name)
            s.expect_kw("#")
            if (oid := s.expect("INT").value) in self.by_id:
                s.fail(f"duplicate object id #{oid}", token=name)
            s.expect_kw("{")
        elif s.accept_kw("->"):
            if s.accept_kw("#"):
                s.expect("INT")
            else:
                qname = (seg := s.expect("ID")).text
                while s.accept_kw("::"):
                    qname += "::" + s.expect("ID").text
                if qname not in self.refs:
                    s.fail(f"unknown classifier reference {qname!r}", "name-unresolved", seg)
        else:
            tok = s.next()
            if tok.is_kw("-"):
                s.expect("INT")
            elif tok.kind not in ("STRING", "INT") and tok.text not in ("true", "false"):
                s.fail("expected a literal value", token=tok)
        raise AssertionError(f"{self.file}: no diagnostic for the text at offset {at}")
