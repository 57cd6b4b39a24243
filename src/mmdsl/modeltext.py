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

dump_model writes each object with the dumper of its class: Python generated
from the class's rows in validate_model (meta._checks) on its first dump,
compiled as ``<mmdsl dump Class #digest>`` and kept on the class's tables
(_DumpSource). Feature names and line prefixes are literals in it. A child
whose class is its slot's type, concrete and without containments, is written
inline; any other by its own class's dumper, on the grammar's trampoline, so
no nesting recurses. Objects are numbered as their heads are written; cross
reference lines are filled in after the walk. A stand-in's qualified name is
looked up once per dump.

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

from .grammar import _compiled, _run
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
    """The canonical dump of ``m``, written by the dumper of each object's
    class (``_DumpSource``), generated from validate_model's rows for the
    class (``meta._checks``) on its first dump and kept on its tables. The
    dumper of a class with a containment is a generator that yields each
    child's to the grammar's trampoline (``grammar._run``), which writes
    the child's subtree before the parent goes on, so no nesting recurses.
    Each object is numbered as its head is written, so the ids follow the
    preorder; cross references may point forward, so their lines are
    written after the walk. A value that does not fit where a dumper reads
    it, or an object reached again while its block is open, raises
    validate_model's diagnostics (``meta.rejecting``)."""
    root = m.root
    out, ids, crosses, refs = [f"{root.cls.name} #1 {{"], {root: 1}, [], _StandIns(m.metamodel)
    _run(_dumper(root.cls)(root, "", (out, ids, set(), crosses, refs)))

    def ref(v: ModelObject) -> str:
        return f"-> #{ids[v]}" if v.represents is None else refs[v]

    for i, start, v, many in crosses:
        out[i] = start + (f"[{', '.join(map(ref, v))}]" if many else f"-> #{ids[v]}")
    return "\n".join(out) + "\n"


class _StandIns(dict):
    """Stand-in -> its reference, ``-> pkg::Name``, each looked up once per
    dump among the homes of the model's metamodel, or of ecore."""

    def __init__(self, mm: Metamodel | None):
        super().__init__()
        self.mm = mm or builtin_ecore()

    def __missing__(self, v: ModelObject) -> str:
        ref = self[v] = "-> " + classifier_qname(v.represents, self.mm.homes().get(v.represents))
        return ref


def _dumper(cls: MetaClass):
    """``cls``'s dumper, generated on its first dump and kept on its tables."""
    t = cls.tables()
    if t.dump is None:
        source = _DumpSource(cls)
        names = dict(source.names, __name__=__name__)
        exec(_compiled("dump", cls.name, source.text), names)
        t.dump = names["dump"]
    return t.dump


def _text(s: str) -> str:
    """``s`` as it reads inside a single-quoted f-string."""
    return repr(s + '"')[1:-2].replace("{", "{{").replace("}", "}}")


class _DumpSource:
    """The source of a class's dumper (``text``) and its constants
    (``names``): Futamura's first projection of the dump on the class's
    rows (``meta._checks``), as grammar._Code is of the parser.
    ``dump(o, pad, run)`` writes the lines of object ``o`` after the head
    its caller wrote at indent ``pad``, then its closing brace; ``run`` is
    the dump's (lines, ids, open objects, queued cross references,
    stand-in references). Feature names and line prefixes are literals.
    A string with no escape is written inline, any other value through
    format_literal. A stand-in reference is written inline; any
    other cross reference is queued with its line, which dump_model fills
    in. A child whose class is its slot's type, where that type is
    concrete and has no containment, is written inline; any other child
    by its own class's dumper, whose generator, if it is one, is
    yielded. A many-valued slot that holds no list, or a child whose
    block is open, raises TypeError. Names and shapes alone make the text,
    so classes alike in both compile once (grammar._compiled)."""

    def __init__(self, cls: MetaClass):
        self.names = {"F": format_literal, "J": ", ".join, "D": _dumper}
        rows = _checks(cls.tables())
        opens = any(exact is None and f.containment for f, *_, exact in rows)
        self.text = "\n".join([
            "def dump(o, pad, run):", "    out, I, O, X, Q = run", "    w = out.append",
            "    s = o.slots", *["    O.add(o)"] * opens,
            *["    " + x for x in self.fields(rows, "s", "v", "  ")],
            *["    O.discard(o)"] * opens, "    w(f'{pad}}}')", ""])

    def fields(self, rows, s: str, v: str, indent: str) -> list[str]:
        """The statements that write an object's ``rows`` from its slots
        ``s``, each value read into ``v``, each line indented by ``pad``
        and ``indent``."""
        out = []
        for f, name, many, _, _, tp, exact in rows:
            head = f"{{pad}}{indent}{_text(name)} = "  # the line up to the value
            write = self.attribute if exact is not None else self.child if f.containment \
                else self.cross
            body = write(tp, many, v, head, indent)
            if many:
                body = [f"if type({v}) is not list: raise TypeError({v})", f"if {v}:",
                        *["    " + x for x in body]]
            out += [f"{v} = {s}.get({name!r})", f"if {v} is not None:", *["    " + x for x in body]]
        return out

    def attribute(self, tp, many, v, head, indent) -> list[str]:
        if many:
            return [f"w(f'{head}[{{J(map(F, {v}))}}]')"]
        if tp is not str:
            return [f"w(f'{head}{{F({v})}}')"]
        return [f"if type({v}) is str and {v}.isprintable() and '\"' not in {v} and "
                f"'\\\\' not in {v}: w(f'{head}\"{{{v}}}\"')", f"else: w(f'{head}{{F({v})}}')"]

    def cross(self, tp, many, v, head, indent) -> list[str]:
        queue = f"X.append((len(out), f'{head}', {v}, {many})); w(None)"
        return [queue] if many else [f"if {v}.represents is None: {queue}",
                                     f"else: w(f'{head}{{Q[{v}]}}')"]

    def child(self, tp, many, v, head, indent) -> list[str]:
        """A containment slot's children ``c`` (or its one child ``v``), each
        written inline or by its dumper, indented by ``pad`` and ``at``."""
        at = indent + "  " if many else indent  # the children's indent, past ``pad``
        c = "c" if many else v
        start = f"{{pad}}{at}" if many else head  # a child's head line, up to its class name
        each = [f"d = {c}.cls.tables().dump or D({c}.cls)", f"if {c} in O: raise TypeError({c})",
                f"w(f'{start}{{{c}.cls.name}} #{{I.setdefault({c}, len(I) + 1)}} {{{{')",
                f"r = d({c}, {'q' if many else f'pad + {at!r}'}, run)",
                "if r is not None: yield r"]
        if isinstance(tp, MetaClass) and not tp.abstract and not tp.containments():
            k = len(self.names)
            self.names[f"L{k}"] = tp
            each = [f"if {c}.cls is L{k}:",
                    f"    w(f'{start}{_text(tp.name)} #{{I.setdefault({c}, len(I) + 1)}} {{{{')",
                    f"    t = {c}.slots",
                    *["    " + x for x in self.fields(_checks(tp.tables()), "t", "u", at + "  ")],
                    f"    w(f'{{pad}}{at}}}}}')", "else:", *["    " + x for x in each]]
        if not many:
            return each
        return [f"w(f'{head}[')", f"q = pad + {at!r}", f"for c in {v}:",
                *["    " + x for x in each], f"w(f'{{pad}}{indent}]')"]


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
