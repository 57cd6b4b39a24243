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
or an object and the row of its class to go on from; the rows are
validate_model's, kept on the class's tables. Objects are numbered as the walk
writes their heads; cross reference lines are filled in after it. A stand-in's
qualified name is looked up once per dump.

load_model has two readers, and the text alone picks one. The line reader
(_read_lines) splits the text on newlines once and reads each line, stripped
of blanks, as exactly one construct in the layout dump_model writes, with no
regex match but for a string that holds an escape. It declines, and returns
nothing, on any other line (a comment, a construct split over lines or two on
one) and wherever the loader would report a problem: an unknown class, feature
or classifier, a duplicate or dangling id, several values in a single-valued
feature, text after the root, or an integer int() refuses. Then _Loader reads
the text from the start, in any layout. It makes no tokens: one anchored
match reads one construct, blanks and comments allowed between its lexemes.
The constructs: ``Class #n {``; ``name =`` and a value (literal, ``->``
reference, object head or ``[``), or ``}``; a list item after an optional
``,``, or ``]``. Only when one fails is the text tokenized: a lexical error
anywhere wins, as it did when every text was; else the tokens from the
construct on are read one by one for the diagnostic. So _Loader is the only
source of diagnostics. Both readers read names from the same tables, which
hold only names the lexer reads as IDs.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .lexer import _SKIP, _STRING_OPEN, Lexer, TokenStream, format_literal, token_value
from .meta import (
    Classifier, MetaClass, Metamodel, Model, ModelObject, _checks, builtin_ecore,
    classifier_object, classifier_qname, rejecting,
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
# what _read_lines strips off each line; a name read whole; a string literal; a list of them
_BLANKS, _WHOLE_NAME, _STRING = " \t\r", re.compile(_N).fullmatch, re.compile(_STRING_OPEN + '"')
_STRINGS = re.compile(rf'{_STRING.pattern}(?:, {_STRING.pattern})*').fullmatch


@rejecting
def dump_model(m: Model) -> str:
    """The canonical dump of ``m``, written on one explicit stack. A frame
    is a line still to write (a list's ``]``) or ``(object, indent, row)``:
    the object's features from that row of validate_model's rows for its
    class (``meta._checks``) on, after its head if the row is -1. A nested
    object's frame goes on the stack above its container's, which resumes
    after it. Each object is numbered as its head is written, so the ids
    follow the preorder; cross references may point forward, so their
    lines are written after the walk. A value that does not fit where the
    walk reads it, or an object reached again while its block is open,
    raises validate_model's diagnostics (``meta.rejecting``)."""
    ids = {m.root: 1}
    opened = {m.root}  # the objects whose block is not closed yet
    qnames: dict[ModelObject, str] = {}  # stand-in -> its reference, looked up once
    rows: dict[MetaClass, tuple] = {}
    crosses = []  # (line index, line start, value or values, many), written last

    def open_(v: ModelObject) -> int:
        if v in opened:
            raise TypeError(f"{v!r} is in a containment cycle")
        opened.add(v)
        return ids.setdefault(v, len(ids) + 1)

    def cross(v: ModelObject) -> str:
        if v.represents is not None:
            ref = qnames.get(v)
            if ref is None:
                home = (m.metamodel or builtin_ecore()).homes().get(v.represents)
                ref = qnames[v] = "-> " + classifier_qname(v.represents, home)
            return ref
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
        slots, row = obj.slots, rows.get(obj.cls) or rows.setdefault(
            obj.cls, _checks(obj.cls.tables()))
        inner = "  " * (indent + 1)
        for i in range(at, len(row)):
            f, name, many, _, _, _, exact = row[i]
            if (v := slots.get(name)) is None or many and type(v) is list and not v:
                continue
            if many and type(v) is not list:
                raise TypeError(f"{name} holds no list")
            if exact is not None:  # an attribute; format_literal refuses what no literal writes
                out.append(f"{inner}{name} = [{', '.join(map(format_literal, v))}]" if many
                           else f"{inner}{name} = {format_literal(v)}")
            elif not f.containment:
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
        out[i] = start + (f"[{', '.join([cross(x) for x in v])}]" if many else cross(v))
    return "\n".join(out) + "\n"


def load_model(text: str, mm: Metamodel, extra_metamodels=(), file: str = "<model>") -> Model:
    """Parse a dump back; classifier references name ``mm``, ``extra_metamodels``
    or ecore. Text in dump_model's layout is read line by line
    (``_read_lines``); any other text, or one that reader declines, is read
    from the start by ``_Loader``, the only reader that reports problems."""
    loader = _Loader(text, file, [mm, *extra_metamodels, builtin_ecore()])
    root = _read_lines(text, loader.classes, loader.refs, loader.feats)
    if root is not None:
        return Model(root, mm)
    try:
        return Model(loader.load(), mm)
    except ValueError:  # an integer with more digits than int() converts, which the lexer reports
        loader.stream(0)
        raise


def _read_lines(text: str, classes: dict, refs: dict, fields: dict) -> ModelObject | None:
    """The root object of ``text`` read line by line as dump_model writes
    it, or None where it declines (see the module docstring). Each line,
    stripped of blanks, is one construct: ``Class #n {``, ``}``, ``]``, or
    ``name = `` and a literal, ``-> #n``, ``-> pkg::Name``, an inline
    ``[a, b]``, ``[`` or an object head. Names are read from _Loader's
    tables and values assigned as _Loader.load assigns them, so wherever
    this reader returns a root, load would return an equal one."""
    by_id, patches, up = {}, [], []  # the objects; the forward references; enclosing states
    obj, feats, feat, items = None, None, None, []  # the root is read as a list's item
    lines, new = iter(text.split("\n")), object.__new__
    try:
        for line in lines:
            s = line.strip(_BLANKS)
            if items is None:  # in obj's block
                if s == "}":
                    value, (obj, feats, feat, items) = obj, up.pop()
                    if obj is None:
                        break
                    if items is not None:
                        items.append(value)
                    elif feat.many:
                        obj.slots.setdefault(feat.name, []).append(value)
                    else:
                        obj.slots[feat.name] = value
                    continue
                name, eq, value = s.partition(" = ")
                if not eq:
                    if s:
                        return None
                    continue
                feat, c = feats[name], value[0]
                if c == '"' or value[-1] != "{":  # not an object's head
                    if c == "[":
                        if value == "[":
                            items = []
                        elif value[-1] != "]" or not _set_list(obj, feat, _values(
                                _list_words(value[1:-1]), obj, feat, refs, patches)):
                            return None
                        continue
                    # the frequent values inline, the rest as _values reads a list's
                    if c == '"' and value.find('"', 1) == len(value) - 1 and "\\" not in value:
                        v = value[1:-1]  # a string with no escape
                    elif value.startswith("-> "):  # as in the loader, replacing a list
                        if value[3] == "#":
                            patches.append((obj, feat, 0, _id(value[4:])))
                            if feat.many:
                                obj.slots[name] = [None]
                        else:
                            v = classifier_object(refs[value[3:]])
                            obj.slots[name] = [v] if feat.many else v
                        continue
                    elif value == "true" or value == "false":
                        v = value == "true"
                    elif value.isdecimal():
                        v = int(value)
                    else:
                        v = _values((value,), obj, feat, refs, patches)[0]
                    if feat.many:
                        obj.slots.setdefault(name, []).append(v)
                    else:
                        obj.slots[name] = v
                    continue
            elif s == "]" and obj is not None:  # the end of obj's feat's list
                if not _set_list(obj, feat, items):
                    return None
                items = None
                continue
            elif s:
                value = s
            else:
                continue
            # an object's head: a list's item, or the value of feat
            cname, oid, brace = value.split(" ")
            if brace != "{" or oid[0] != "#" or not (n := oid[1:]).isdecimal() or (
                    n := int(n)) in by_id:
                return None
            cls = classes[cname]
            up.append((obj, feats, feat, items))
            obj = by_id[n] = new(ModelObject)  # ModelObject(cls), without its keyword loop
            obj.cls, obj.slots, obj.represents, items = cls, {}, None, None
            feats = fields.get(cls) or fields.setdefault(cls, _fields(cls))
        else:
            return None  # the root is not closed
        for line in lines:
            if line.strip(_BLANKS):
                return None
        for holder, f, index, n in patches:
            slots = holder.slots[f.name] if f.many else holder.slots
            slots[index if f.many else f.name] = by_id[n]
    except (LookupError, ValueError):  # an unknown name or id, a malformed line: the
        return None  # loader reads the text again and reports it
    return value


def _set_list(obj: ModelObject, feat, values: list) -> bool:
    """Give ``obj``'s ``feat`` a list's ``values`` as _Loader.load does;
    False where a single-valued feature lists several."""
    if len(values) > 1 and not feat.many:
        return False
    if values or feat.many:
        obj.slots[feat.name] = values if feat.many else values[0]
    return True


def _id(digits: str) -> int:
    """The number of an object id, as the loader's ``\\d+`` reads it."""
    if not digits.isdecimal():
        raise ValueError(digits)
    return int(digits)


def _list_words(inner: str) -> list[str]:
    """The items of an inline list, ``inner`` its text between the brackets."""
    if '"' not in inner:
        return inner.split(", ") if inner else []
    if _STRINGS(inner) is None:  # strings only: a string may hold ", "
        raise ValueError(inner)
    return _STRING.findall(inner)


def _values(words, obj: ModelObject, feat, refs: dict, patches: list) -> list:
    """The values of ``words``, each a literal or reference as dump_model
    writes it, else ValueError or LookupError. A ``-> #n`` is None until
    the object it names is read, and is queued in ``patches``."""
    values = []
    for word in words:
        if word[0] == '"':
            if _STRING.fullmatch(word) is None:
                raise ValueError(word)
            values.append(token_value("STRING", word))
        elif word.startswith("-> #"):
            patches.append((obj, feat, len(values), _id(word[4:])))
            values.append(None)
        elif word.startswith("-> "):
            values.append(classifier_object(refs[word[3:]]))
        elif word == "true" or word == "false":
            values.append(word == "true")
        else:
            values.append(-_id(word[1:]) if word[0] == "-" else _id(word))
    return values


def _reads_as_id(name: str) -> bool:
    """Whether the loader's match reads all of ``name`` as a name, and the
    lexer as IDs: each ``::`` segment matches _N whole (so it is no ``true``
    or ``false``) and starts with no numeric non-digit such as '²', which
    _N matches but the lexer reads no ID in. No such character is ASCII."""
    return all(_WHOLE_NAME(s) is not None and (s.isascii() or s[0].isalpha() or s[0] == "_")
               for s in name.split("::"))


def _names(pkg: Metamodel) -> tuple[dict, dict]:
    """``pkg``'s names as load_model reads them, built once from its sealed
    classifiers: reference name (also qualified by the package's name, if
    that reads as an ID) -> classifier, and class name -> class. The first
    of a name wins; names with a ``::`` or that _reads_as_id refuses are
    left out."""
    if pkg.load_names is None:
        names = {n: c for n, c in pkg.by_name().items() if "::" not in n and _reads_as_id(n)}
        qualified = {f"{pkg.name}::{n}": c for n, c in names.items()} if _reads_as_id(
            pkg.name) else {}
        pkg.load_names = {**names, **qualified}, {n: c for n, c in names.items() if c.is_class}
    return pkg.load_names


def _fields(cls: MetaClass) -> dict:
    """``cls``'s name -> feature table without the names _reads_as_id refuses
    or with a ``::``, built once per version of the class's tables."""
    t = cls.tables()
    if t.id_names is None:
        t.id_names = {k: f for k, f in t.by_name.items() if "::" not in k and _reads_as_id(k)}
    return t.id_names


class _Loader:
    """One load_model call: the text, what its names resolve to, its objects by id."""

    def __init__(self, text: str, file: str, packages: list[Metamodel]):
        self.text, self.file, self.by_id = text, file, {}
        # per name, the first package's classifier; for heads, the first class
        self.classes: dict[str, MetaClass] = {}
        self.refs: dict[str, Classifier] = {}
        for refs, classes in map(_names, reversed(packages)):
            self.refs.update(refs)
            self.classes.update(classes)
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
                value = token_value("STRING", m[kind])
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
