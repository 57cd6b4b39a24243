"""Grammar notation interpreted in both directions.

A grammar file (`.gr`) holds rules over an AST metamodel:

    Name : body ;                     -- concrete rule, Name is an AST class
    Abstract Name : Alt1 | Alt2 ;     -- dispatch rule for an abstract class

Rule bodies combine double-quoted keywords, assignments (``feat=Callee``,
``feat+=Callee``, boolean flags ``feat?"kw"``), parenthesized groups with
``|`` alternation, ``?`` optionals and ``*``/``+`` repetitions. Callees are
other rules or the terminals ID, STRING, INT.

Grammar.analysis compiles a grammar once: by fixpoint, each rule's FIRST
set, whether it can be empty and its least derivation height, and those
facts on every element; then each concrete rule body as a flat tuple of
ops (keywords, assignments holding their MetaFeature, jumps, and tests and
choices that dispatch on a token key and carry the assignments below
them), and each abstract rule as a table from token key to alternative.

parse_text (text to model, one token of lookahead) and render_ast (model
to text) run that same code, each in one loop over an explicit stack, so
nesting is bounded by memory, not by the recursion limit.
generate_random_model walks the elements to make models for round-trip
tests. check_grammar enforces what they need: no reachable left recursion,
no reachable rule that derives no finite text, and disjoint first-token
sets at every choice point (alternatives, optionals and repetition
continuations are checked against their local follow in the enclosing
sequence).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, SourceLocation, error
from .lexer import Lexer, Token, TokenStream, escape_string
from .meta import (
    UNBOUNDED, MetaAttribute, MetaClass, Metamodel, Model, ModelObject, Tree, is_subtype,
    miscount, validate_metamodel, validate_model,
)

TERMINALS = ("ID", "STRING", "INT")


# ---------------------------------------------------------------------------
# Grammar model


class _Facts:
    """What _Analysis compiles onto every element of a grammar: ``first``,
    ``nullable``, ``assigns`` and ``height``, the least height of a
    derivation tree."""

    __slots__ = ("first", "nullable", "assigns", "height")


@dataclass(slots=True)
class Keyword(_Facts):
    text: str
    loc: SourceLocation | None = None


@dataclass(slots=True)
class Assignment(_Facts):
    feature: str
    op: str  # "=" | "+=" | "?"
    callee: str | None = None  # rule name or terminal; None for flags
    keyword: str | None = None  # flag keyword
    loc: SourceLocation | None = None


@dataclass(slots=True)
class Sequence(_Facts):
    items: list


@dataclass(slots=True)
class Opt(_Facts):
    inner: object


@dataclass(slots=True)
class Repeat(_Facts):
    inner: object
    kind: str  # "*" | "+"


@dataclass(slots=True)
class Group(_Facts):
    alternatives: list


Element = Keyword | Assignment | Sequence | Opt | Repeat | Group


@dataclass
class ConcreteRule:
    name: str
    cls: MetaClass
    body: Element
    loc: SourceLocation | None = None


@dataclass
class AbstractRule:
    name: str
    cls: MetaClass
    alternatives: list[str] = field(default_factory=list)
    loc: SourceLocation | None = None


Rule = ConcreteRule | AbstractRule


@dataclass
class Grammar:
    rules: list[Rule]
    ast: Metamodel
    entry: str = ""

    def __post_init__(self):
        if not self.entry and self.rules:
            self.entry = self.rules[0].name
        self.by_name = {r.name: r for r in self.rules}
        self._analysis = None
        self._lexer = None

    def keywords(self) -> set[str]:
        return set(self.analysis().keywords)

    def analysis(self) -> "_Analysis":
        if self._analysis is None:
            self._analysis = _Analysis(self)
        return self._analysis

    def lexer(self) -> Lexer:
        """The lexer of parse_text: the keywords as reserved words and symbols."""
        if self._lexer is None:
            self._lexer = Lexer.for_keywords(self.keywords(), phase="parse")
        return self._lexer


def _children(e) -> list | tuple:
    """The elements directly below ``e``, in text order."""
    if isinstance(e, Sequence):
        return e.items
    if isinstance(e, Group):
        return e.alternatives
    if isinstance(e, (Opt, Repeat)):
        return (e.inner,)
    return ()


# ---------------------------------------------------------------------------
# Grammar file parsing

_GR_LEXER = Lexer(reserved={"Abstract"},
                  symbols={":", ";", "|", "(", ")", "?", "*", "+", "+=", "="},
                  phase="grammar")


def parse_grammar(text: str, ast: Metamodel, file: str = "<grammar>") -> Grammar:
    stream = TokenStream(_GR_LEXER.tokenize(text, file), phase="grammar")
    rules: list[Rule] = []
    diags: list[Diagnostic] = []

    def parse_alternation():
        alts = [parse_sequence()]
        while stream.accept_kw("|"):
            alts.append(parse_sequence())
        return alts[0] if len(alts) == 1 else Group(alts)

    def parse_sequence():
        items = [parse_element()]
        while not (stream.at_kw(";") or stream.at_kw("|") or stream.at_kw(")") or stream.at("EOF")):
            items.append(parse_element())
        return items[0] if len(items) == 1 else Sequence(items)

    def parse_element():
        e = parse_primary()
        while stream.at_kw("?") or stream.at_kw("*") or stream.at_kw("+"):
            op = stream.next().text
            e = Opt(e) if op == "?" else Repeat(e, op)
        return e

    def parse_primary():
        tok = stream.current
        if tok.kind == "STRING":
            stream.next()
            if not tok.value:
                diags.append(error("grammar", "syntax", "empty keyword", location=tok.location))
            return Keyword(tok.value, tok.location)
        if tok.is_kw("("):
            stream.next()
            inner = parse_alternation()
            stream.expect_kw(")")
            return inner
        if tok.kind == "ID":
            stream.next()
            if stream.at_kw("?"):
                # flag form feat?"kw"; only when a keyword literal follows,
                # otherwise the '?' is a postfix optional
                if stream.peek().kind == "STRING":
                    stream.next()
                    kw = stream.expect("STRING")
                    return Assignment(tok.text, "?", keyword=kw.value, loc=tok.location)
            if stream.at_kw("=") or stream.at_kw("+="):
                op = stream.next().text
                callee = stream.expect("ID")
                return Assignment(tok.text, op, callee=callee.text, loc=tok.location)
            stream.fail(f"expected '=', '+=' or '?\"kw\"' after '{tok.text}'")
        stream.fail(f"expected a keyword, assignment or group, found '{tok.text}'")

    while not stream.at("EOF"):
        kind = AbstractRule if stream.accept_kw("Abstract") else ConcreteRule
        name = stream.expect("ID")
        stream.expect_kw(":")
        if kind is ConcreteRule:
            body = parse_alternation()
        else:
            body = [stream.expect("ID").text]
            while stream.accept_kw("|"):
                body.append(stream.expect("ID").text)
        stream.expect_kw(";")
        rules.append(kind(name.text, None, body, name.location))

    seen = set()
    for r in rules:
        if r.name in seen:
            diags.append(error("grammar", "name-duplicate",
                               f"duplicate rule name {r.name!r}", location=r.loc))
        seen.add(r.name)
        if r.name in TERMINALS:
            diags.append(error("grammar", "name-duplicate",
                               f"{r.name!r} is a terminal and cannot name a rule", location=r.loc))
        cls = ast.classifier(r.name)
        r.cls = cls if isinstance(cls, MetaClass) else None
    g = Grammar(rules, ast)
    diags += g.analysis().problems
    if diags:
        raise DiagnosticError(diags)
    return g


def _check_rules(g: Grammar) -> list[Diagnostic]:
    """What makes each object parse_text builds valid but for its bounds:
    each rule's class is in ``g.ast``, concrete unless the rule is Abstract;
    each assignment names one of its features, with an operator and callee
    that fit the feature's multiplicity, kind and type, never a cross one."""
    diags: list[Diagnostic] = []

    def bad(code, message, at):  # ``at``: the rule or assignment at fault
        diags.append(error("grammar", code, message, location=at.loc))

    known = {id(c) for c in g.ast.classifiers}
    for r in g.rules:
        cls = r.cls
        if not isinstance(cls, MetaClass) or id(cls) not in known:
            bad("gr-unknown-class", f"rule {r.name!r} does not match an AST class", r)
        elif isinstance(r, AbstractRule):
            if not cls.abstract:
                bad("gr-unknown-class", f"Abstract rule {r.name!r} needs an abstract class", r)
            for alt in r.alternatives:
                sub = g.by_name.get(alt)
                if sub is None:
                    bad("gr-unknown-rule", f"alternative {alt!r} of {r.name!r} is not a rule", r)
                elif isinstance(sub.cls, MetaClass) and not is_subtype(sub.cls, cls):
                    bad("gr-type", f"alternative {alt!r} is not a subtype of {r.name!r}", r)
        else:
            if cls.abstract:
                bad("gr-unknown-class", f"class {r.name!r} is abstract; use an Abstract rule", r)
            for e in r.body.assigns:
                _check_assignment(e, cls, g.by_name, bad)
    return diags


def _check_assignment(e: Assignment, cls: MetaClass, by_name, bad):
    feat = cls.find_feature(e.feature)
    if feat is None:
        return bad("gr-unknown-feature", f"class {cls.name} has no feature {e.feature!r}", e)
    if e.op == "?":
        if not (feat.is_attribute and feat.type.kind == "boolean" and not feat.many):
            bad("gr-type", f"flag {e.feature!r} needs a single-valued boolean attribute", e)
        return
    if e.op == "=" and feat.many:
        bad("gr-operator", f"'=' on multi-valued feature {e.feature!r}; use '+='", e)
    if e.op == "+=" and not feat.many:
        bad("gr-operator", f"'+=' on single-valued feature {e.feature!r}; use '='", e)
    callee = by_name.get(e.callee)
    if e.callee in TERMINALS:
        if not feat.is_attribute:
            bad("gr-type", f"terminal {e.callee} cannot fill reference {e.feature!r}", e)
        elif feat.type.kind != ("integer" if e.callee == "INT" else "string"):
            bad("gr-type", f"{e.callee} does not fit {feat.type.name} attribute {e.feature!r}", e)
    elif callee is None:
        bad("gr-unknown-rule", f"assignment callee {e.callee!r} is not a rule or terminal", e)
    elif feat.is_attribute:
        bad("gr-type", f"rule callee {e.callee!r} cannot fill attribute {e.feature!r}", e)
    elif not feat.containment:
        bad("gr-cross-reference",
            f"{cls.name}.{e.feature} is a cross reference; grammars only build containment "
            f"trees", e)
    elif isinstance(callee.cls, MetaClass) and not is_subtype(callee.cls, feat.type):
        bad("gr-type", f"rule {e.callee!r} builds {callee.cls.name}, which does not conform "
            f"to {feat.type.name}", e)


# ---------------------------------------------------------------------------
# FIRST/nullability analysis and the compiled code

TokenKey = tuple  # ("kw", text) or ("term", "ID"|"STRING"|"INT")

# The ops of compiled rule code, each a tuple that starts with its opcode:
#   (KW, text)   (JUMP, target)   (RET,): the end of a rule's code
#   (TERM | CALL | FLAG, feat, name, many, callee | proc | keyword, plus)
#   (TEST, first, end, reads, must): unless the part is there, go to end
#   (CHOICE, table, default, first, end, alts, bare)
# ``feat`` is the MetaFeature the rule's class holds under ``name``; ``reads``
# are the assignment ops below a decision; a '+' loop starts with a TEST that
# ``must`` find its part. A CHOICE goes to table[key], else to ``default`` (its
# end if it may be empty, else None: an error); rendering takes the first of
# ``alts``, (reads, start) pairs, with a value, else ``bare``, the start of the
# first alternative without assignments (or the end).
KW, TERM, CALL, FLAG, TEST, JUMP, CHOICE, RET = range(8)
_INF = float("inf")


class _Proc:
    """A compiled rule: a concrete rule's ``code``, ``flags`` and ``feats``
    (its assignments' features by name); an abstract rule's ``table`` from
    token key to alternative and ``default``, its first that may be empty."""

    def __init__(self, name: str, cls=None):
        self.name, self.cls, self.code, self.default = name, cls, None, None
        self.first, self.flags, self.feats, self.table = frozenset(), (), {}, {}


class _Analysis:
    """The grammar's compiled facts: per rule, ``first``, ``nullable``,
    ``height`` (the least height of a derivation tree; inf if the rule
    derives no finite text) and its compiled ``procs`` entry; per concrete
    rule, the features its flag assignments set (``flags``); on every
    element, ``first``, ``nullable`` and ``assigns``; the ``keywords``; the
    ``problems`` of _check_rules; and ``sound``: there are none and
    ``g.ast`` is valid, so parse_text builds valid objects but for bounds."""

    def __init__(self, g: Grammar):
        self.nullable: dict[str, bool] = {r.name: False for r in g.rules}
        self.height: dict[str, float] = {r.name: _INF for r in g.rules}
        self.first: dict[str, frozenset[TokenKey]] = {r.name: frozenset() for r in g.rules}
        self.procs = {r.name: _Proc(r.name, r.cls) for r in g.rules}
        self.keywords: set[str] = set()
        # A worklist fixpoint: a rule is compiled again whenever the facts of
        # a rule it reads change, so the facts and code left are final.
        # Rules are mostly written callers first; taking the last first lets
        # most rules be compiled once.
        readers: dict[str, set[str]] = {r.name: set() for r in g.rules}
        todo, queued = list(g.rules), set(readers)
        while todo:
            r = todo.pop()
            queued.discard(r.name)
            proc = self.procs[r.name]
            if isinstance(r, AbstractRule):
                callees = r.alternatives
                n = any(self.nullable.get(a, False) for a in callees)
                f = frozenset().union(*(self.first.get(a, ()) for a in callees))
                h = min((self.height.get(a, 0) for a in callees), default=_INF)
                proc.table = {k: self.procs.get(a)  # the first alternative wins a key
                              for a in reversed(callees) for k in self.first.get(a, ())}
                proc.default = next((self.procs[a] for a in callees if self.nullable.get(a)), None)
            else:
                code: list = []
                self._compile(r.body, proc, code, {})
                proc.code, proc.flags = (*code, (RET,)), tuple(
                    [x.feature for x in r.body.assigns if x.op == "?"])
                callees = [x.callee for x in r.body.assigns]
                n, f, h = r.body.nullable, r.body.first, 1 + r.body.height
            proc.first = f
            for c in callees:
                if c in readers:
                    readers[c].add(r.name)
            if (n, f, h) != (self.nullable[r.name], self.first[r.name], self.height[r.name]):
                self.nullable[r.name], self.first[r.name], self.height[r.name] = n, f, h
                for name in readers[r.name] - queued:
                    queued.add(name)
                    todo.append(g.by_name[name])
        self.flags: dict[str, list[str]] = {
            r.name: list(self.procs[r.name].flags) for r in g.rules if isinstance(r, ConcreteRule)}
        self.problems = _check_rules(g)
        self.sound = not self.problems and not validate_metamodel(g.ast)

    def _compile(self, e, proc: _Proc, code: list, ops: dict):
        """Store the facts of ``e`` and of every element below it, each from
        its children's and by the rule facts found so far (unknown callees
        count as finite: _check_rules reports them), and append the code of
        ``e`` in rule ``proc`` to ``code``; ``ops`` holds each assignment's op."""
        if isinstance(e, Keyword):
            e.first, e.nullable, e.assigns, e.height = frozenset((("kw", e.text),)), False, (), 0
            self.keywords.add(e.text)
            code.append((KW, e.text))
            return
        if isinstance(e, Assignment):
            e.assigns, e.height = (e,), self.height.get(e.callee, 0)
            if e.op == "?":
                e.first, e.nullable = frozenset((("kw", e.keyword),)), True
                kind, arg = FLAG, e.keyword
                self.keywords.add(e.keyword)
            elif e.callee in TERMINALS:
                e.first, e.nullable = frozenset((("term", e.callee),)), False
                kind, arg = TERM, e.callee
            else:
                e.first = self.first.get(e.callee, frozenset())
                e.nullable = self.nullable.get(e.callee, False)
                kind, arg = CALL, self.procs.get(e.callee) or _Proc(e.callee)  # unknown: no entry
            if (f := proc.feats.get(e.feature)) is None:  # an unknown one is read by name
                known = isinstance(proc.cls, MetaClass) and proc.cls.find_feature(e.feature)
                f = proc.feats[e.feature] = known or MetaAttribute(e.feature)
            code.append(ops.setdefault(id(e), (kind, f, f.name, f.many, arg, e.op == "+=")))
            return
        at, starts, kids = len(code), [], _children(e)
        if not isinstance(e, Sequence):  # decisions, set once their targets are known
            code.extend([None, None] if isinstance(e, Repeat) and e.kind == "+" else [None])
        for x in kids:
            starts.append(len(code))
            self._compile(x, proc, code, ops)
            if isinstance(e, Group):
                code.append(None)  # a jump to the end
        e.assigns = tuple([a for x in kids for a in x.assigns])
        if isinstance(e, Sequence):  # FIRST up to the first item that cannot be empty
            n = next((i for i, x in enumerate(kids) if not x.nullable), len(kids))
            e.first = frozenset().union(*[x.first for x in kids[:n + 1]])
            e.nullable, e.height = n == len(kids), max([x.height for x in kids])
        elif isinstance(e, Group):
            e.first = frozenset().union(*[x.first for x in kids])
            e.nullable = any([x.nullable for x in kids])
            e.height = min([x.height for x in kids])
            code.pop()
            end = len(code)
            code[at + 1:] = [(JUMP, end) if op is None else op for op in code[at + 1:]]
            pairs = list(zip(kids, starts))
            table = {k: start for x, start in reversed(pairs) for k in x.first}
            alts = tuple([(tuple([ops[id(y)] for y in x.assigns]), start) for x, start in pairs])
            bare = next((start for x, start in pairs if not x.assigns), end)
            code[at] = (CHOICE, table, end if e.nullable else None, e.first, end, alts, bare)
        else:
            e.first = e.inner.first
            e.nullable = isinstance(e, Opt) or e.kind == "*" or e.inner.nullable
            e.height = e.inner.height if isinstance(e, Repeat) and e.kind == "+" else 0
            head, reads = starts[0] - 1, tuple([ops[id(x)] for x in e.assigns])
            if isinstance(e, Repeat):  # a '+' loop's first TEST, before ``head``, must pass
                code.append((JUMP, head))
            code[head] = (TEST, e.first, len(code), reads, False)
            if head != at:
                code[at] = (TEST, e.first, len(code), reads, True)


def _reachable_rules(g: Grammar) -> list[str]:
    """The rules reachable from the entry rule; needs the compiled facts."""
    out, frontier = [], [g.entry]
    seen = set()
    while frontier:
        name = frontier.pop()
        if name in seen or name not in g.by_name:
            continue
        seen.add(name)
        out.append(name)
        r = g.by_name[name]
        if isinstance(r, AbstractRule):
            frontier.extend(r.alternatives)
        else:
            frontier.extend(x.callee for x in r.body.assigns
                            if x.callee and x.callee not in TERMINALS)
    return out


def _unproductive(g: Grammar) -> list[Diagnostic]:
    """The rules reachable from the entry rule that derive no finite text."""
    height = g.analysis().height
    return [error("grammar", "gr-unproductive", f"rule {name!r} derives no finite text",
                  location=g.by_name[name].loc) for name in _reachable_rules(g)
            if height[name] == _INF]


def check_grammar(g: Grammar) -> list[Diagnostic]:
    """Reject grammars the interpreters cannot handle: among the rules
    reachable from the entry rule, left recursion, rules that derive no
    finite text, and choice points whose first-token sets overlap (group and
    abstract-rule alternatives pairwise; optionals and repetitions against
    the first tokens of their local continuation in the enclosing sequence)."""
    diags: list[Diagnostic] = []
    a = g.analysis()
    reachable = _reachable_rules(g)

    # left recursion: cycle over leftmost rule references
    def left_refs(e, acc):
        if isinstance(e, Assignment):
            if e.op != "?" and e.callee and e.callee not in TERMINALS:
                acc.add(e.callee)
        for x in _children(e):
            left_refs(x, acc)
            if isinstance(e, Sequence) and not x.nullable:
                break

    graph: dict[str, set[str]] = {}
    for name in reachable:
        r = g.by_name[name]
        acc: set[str] = set()
        if isinstance(r, AbstractRule):
            acc.update(al for al in r.alternatives if al in g.by_name)
        else:
            left_refs(r.body, acc)
        graph[name] = acc

    def reaches_itself(start: str) -> bool:
        seen: set[str] = set()
        frontier = list(graph.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                frontier.extend(graph.get(node, ()))
        return False

    for name in reachable:
        if reaches_itself(name):
            diags.append(error("grammar", "gr-left-recursion",
                               f"rule {name!r} is left-recursive",
                               location=g.by_name[name].loc))
    diags += _unproductive(g)

    if any(d.code == "gr-left-recursion" for d in diags):
        return diags  # FIRST sets are meaningless under left recursion

    def describe(keys):
        return ", ".join(sorted(
            f'"{k[1]}"' if k[0] == "kw" else k[1] for k in keys))

    def overlaps(rule, firsts):
        """Report each pair of ``firsts``, (label, FIRST set) pairs, that overlap."""
        for i, (x, fx) in enumerate(firsts):
            for y, fy in firsts[i + 1:]:
                if fx & fy:
                    diags.append(error("grammar", "gr-ambiguous", f"in rule {rule!r}: "
                                       f"alternatives {x} and {y} both start with "
                                       f"{describe(fx & fy)}"))

    def check_choices(e, rule, follow: set[TokenKey]):
        if isinstance(e, Sequence):
            # the local follow of each item: the first tokens of what comes
            # after it, up to the first item that cannot be empty
            follows = [follow]
            for x in reversed(e.items[1:]):
                follows.append(x.first | follows[-1] if x.nullable else x.first)
            for x, local in zip(e.items, reversed(follows)):
                check_choices(x, rule, local)
            return
        if isinstance(e, (Opt, Repeat)):
            part = "optional" if isinstance(e, Opt) else "repeated"
            if e.first & follow:
                diags.append(error("grammar", "gr-ambiguous", f"in rule {rule!r}: {part} part "
                                   f"and its continuation both start with "
                                   f"{describe(e.first & follow)}"))
            check_choices(e.inner, rule, follow if isinstance(e, Opt) else e.first | follow)
            return
        if isinstance(e, Group):
            overlaps(rule, [(i, x.first) for i, x in enumerate(e.alternatives, 1)])
            if sum([x.nullable for x in e.alternatives]) > 1:
                diags.append(error("grammar", "gr-ambiguous",
                                   f"in rule {rule!r}: more than one alternative can be empty"))
            for x in e.alternatives:
                check_choices(x, rule, follow)
            return

    for name in reachable:
        r = g.by_name[name]
        if isinstance(r, AbstractRule):
            overlaps(name, [(repr(alt), a.first.get(alt, frozenset())) for alt in r.alternatives])
        else:
            check_choices(r.body, name, set())
    return diags


# ---------------------------------------------------------------------------
# Text to model


def parse_text(text: str, g: Grammar, ast: Metamodel | None = None,
               file: str = "<input>") -> Model:
    """Run the grammar's compiled code from its entry rule over the tokens
    of ``text`` with one token of lookahead, in one loop on an explicit
    stack: a rule call pushes a frame for the new object, the rule's end
    pops it into the caller's slot. The result is a valid Model over
    ``ast``, by default ``g.ast``. If ``g`` is sound (see _Analysis) and
    ``ast`` is ``g.ast``, each object is valid by construction but for its
    bounds, which the parser checks as it finishes the object; otherwise
    the model goes through validate_model."""
    a = g.analysis()
    checked = a.sound and (ast is None or ast is g.ast)
    miscounts: list[tuple[ModelObject, str]] = []  # read only if checked
    tokens = g.lexer().tokenize(text, file)
    # Without left recursion the frames opened at one token are of different
    # rules, so more frames than this allows mean left recursion.
    limit = len(a.procs)
    stack = []  # below the top frame: (code, pc, obj, op, proc), op the CALL it fills
    pos, tok = 0, tokens[0]
    proc = _enter(a.procs[g.entry], tok)
    code, pc, obj = proc.code, 0, ModelObject(proc.cls)
    slots = obj.slots
    while True:
        op = code[pc]
        pc += 1
        kind = op[0]
        if kind is KW:
            if tok.text != op[1] or tok.kind != "KW":
                _unexpected(tok, f"'{op[1]}'")
            tok = tokens[pos := pos + 1]
            continue
        if kind is TERM:
            if tok.kind != op[4]:
                _unexpected(tok, op[4])
            value = tok.value
            tok = tokens[pos := pos + 1]
        elif kind is TEST:
            if (("kw", tok.text) if tok.kind == "KW" else ("term", tok.kind)) not in op[1]:
                if op[4]:
                    _unexpected(tok, _expected(op[1]))
                pc = op[2]
            continue
        elif kind is JUMP:
            pc = op[1]
            continue
        elif kind is CALL:
            callee = op[4] if op[4].code is not None else _enter(op[4], tok)
            if len(stack) >= limit * (pos + 1):
                _fail(tok, f"rule {callee.name!r} is left-recursive", "gr-left-recursion")
            stack.append((code, pc, obj, op, proc))
            proc, code, pc, obj = callee, callee.code, 0, ModelObject(callee.cls)
            slots = obj.slots
            continue
        elif kind is CHOICE:
            pc = op[1].get(("kw", tok.text) if tok.kind == "KW" else ("term", tok.kind), op[2])
            if pc is None:
                _unexpected(tok, _expected(op[3]))
            continue
        elif kind is FLAG:
            if tok.text == op[4] and tok.kind == "KW":
                slots[op[2]] = True
                tok = tokens[pos := pos + 1]
            continue
        else:  # RET: finish the object, then fill the slot of the CALL that opened it
            for f in proc.flags:
                slots.setdefault(f, False)
            miscounts += [(obj, message) for f in proc.cls.tables().bounded
                          if (message := miscount(obj, f, len(obj.values_of(f))))]
            if not stack:
                break
            value = obj
            code, pc, obj, op, proc = stack.pop()
            slots = obj.slots
        # written in place: in a sound grammar each operator fits its feature
        name = op[2]
        if op[5]:
            slots.setdefault(name, []).append(value)
        elif name in slots:
            _fail(tok, f"feature {name!r} assigned twice")
        else:
            slots[name] = value
    if tok.kind != "EOF":
        _unexpected(tok, "end of input")
    model = Model(obj, ast or g.ast)
    if not checked:
        problems = [(d.code, d.message, d.path) for d in validate_model(model)]
    else:
        tree = miscounts and Tree(obj)  # for the paths, only once a problem was found
        problems = [("model-multiplicity", message, tree.path(o)) for o, message in miscounts]
    if problems:
        raise DiagnosticError([error("parse", code, message, path=path)
                               for code, message, path in problems])
    return model


def _expected(keys) -> str:
    names = sorted(f"'{k[1]}'" if k[0] == "kw" else k[1] for k in keys)
    return " or ".join(names) if names else "nothing"


def _fail(tok: Token, message: str, code: str = "syntax"):
    raise DiagnosticError([error("parse", code, message, location=tok.location)])


def _unexpected(tok: Token, expected: str):
    _fail(tok, f"expected {expected}, found "
               + ("end of input" if tok.kind == "EOF" else f"'{tok.text}'"))


def _enter(p: _Proc, tok: Token) -> _Proc:
    """The concrete rule that parsing rule ``p`` enters at ``tok``."""
    key, seen = ("kw", tok.text) if tok.kind == "KW" else ("term", tok.kind), set()
    while p.code is None:
        if p in seen:
            _fail(tok, f"rule {p.name!r} is left-recursive", "gr-left-recursion")
        seen.add(p)
        q = p.table.get(key, p.default)
        if q is None:
            _unexpected(tok, _expected(p.first))
        p = q
    return p


# ---------------------------------------------------------------------------
# Model to text


def render_ast(m: Model, g: Grammar) -> str:
    """Deterministic inverse of parse_text: one space between tokens, a
    newline after ';' and '}', 4-space indentation inside braces.
    parse_text(render_ast(m)) is model-equal to m. Runs the same compiled
    code in one loop on an explicit stack, deciding by what each object
    holds: an optional or loop runs while an assignment below it has a value
    left; a choice takes the first alternative with one, else the first
    without assignments. Each frame counts the values it used per feature,
    reading slots through the features the code holds."""
    procs, reads_as_id = g.analysis().procs, g.lexer().reads_as_id
    tokens: list[str] = []
    problems: list[tuple[ModelObject, str, str]] = []  # (object, code, message)
    append = tokens.append
    obj, proc = m.root, procs.get(m.root.cls.name)
    if proc is None or proc.code is None:
        raise DiagnosticError([error("grammar", "gr-no-rule", f"no concrete rule for class "
                                     f"{obj.cls.name!r}", path="/")])
    code, pc, used, slots = proc.code, 0, {}, obj.slots
    stack = []  # below the top frame: (code, pc, obj, used, proc)
    opened = {obj}  # the objects with a frame, so a containment cycle ends
    while True:
        op = code[pc]
        pc += 1
        kind = op[0]
        if kind is KW:
            append(op[1])
        elif kind is TEST:
            if not _available(op[3], slots, used, reads_as_id):
                if op[4]:
                    problems.append((obj, "gr-unset-mandatory",
                                     "'+' repetition has nothing to render"))
                pc = op[2]
        elif kind is JUMP:
            pc = op[1]
        elif kind is TERM or kind is CALL:
            f, name, callee = op[1], op[2], op[4]
            i, v = used.get(f, 0), slots.get(name)
            if v is None or i >= (len(v) if op[3] else 1):
                problems.append((obj, "gr-unset-mandatory",
                                 f"{obj.cls.name}.{name} has no value to render"))
                continue
            value = v[i] if op[3] else v
            if callee == "ID" and type(value) is str and not reads_as_id(value):
                problems.append((obj, "gr-unset-mandatory",
                                 f"{obj.cls.name}.{name} value {value!r} is not an ID"))
                continue
            used[f] = i + 1
            if kind is TERM:
                if (type(value) is int) if callee == "INT" else isinstance(value, str):
                    append(escape_string(value) if callee == "STRING" else str(value))
                else:
                    problems.append((obj, "model-kind", f"{obj.cls.name}.{name}: value "
                                     f"{value!r} does not fit attribute type {f.type.name}"))
            elif not isinstance(value, ModelObject):
                problems.append((obj, "model-kind",
                                 f"{obj.cls.name}.{name}: expected an object, found {value!r}"))
            elif value in opened:
                problems.append((obj, "model-containment", f"object of class "
                                 f"{value.cls.name} is contained more than once"))
            elif (sub := procs.get(value.cls.name)) is None or sub.code is None:
                problems.append((value, "gr-no-rule",
                                 f"no concrete rule for class {value.cls.name!r}"))
            else:
                stack.append((code, pc, obj, used, proc))
                proc, code, pc, obj, used, slots = sub, sub.code, 0, value, {}, value.slots
                opened.add(obj)
        elif kind is CHOICE:
            for reads, start in op[5]:
                if _available(reads, slots, used, reads_as_id):
                    pc = start
                    break
            else:
                pc = op[6]
                if pc == op[4] and op[2] is None:
                    problems.append((obj, "gr-unset-mandatory",
                                     "no renderable alternative in group"))
        elif kind is FLAG:
            if not used.get(op[1], 0) and slots.get(op[2], op[1].default) is True:
                append(op[4])
                used[op[1]] = 1
        else:  # RET: report each slot with values left, but flags and cross slots
            for name, v in slots.items():
                if v is None or name in proc.flags:
                    continue
                # looked up by name only for a slot that no assignment of the rule reads
                f = proc.feats.get(name) or obj.cls.find_feature(name)
                if f is not None and (used.get(f, 0) >= (len(v) if f.many else 1)
                                      or not f.is_attribute and not f.containment):
                    continue
                problems.append((obj, "gr-unset-mandatory", f"rule {proc.name!r} cannot emit "
                                 f"all values of {obj.cls.name}.{name}"))
            opened.discard(obj)
            if not stack:
                break
            code, pc, obj, used, proc = stack.pop()
            slots = obj.slots
    if problems:
        tree = Tree(m.root)
        raise DiagnosticError([error("grammar", code, message, path=tree.path(obj))
                               for obj, code, message in problems])
    return _layout(tokens)


def _available(reads, slots: dict, used: dict, reads_as_id) -> bool:
    """Whether one of the assignment ops ``reads`` has a value left to
    render: a set flag not written yet, or a value past its feature's use
    count; an ID assignment's string must read back as an ID (another
    alternative must carry it)."""
    for kind, f, name, many, callee, _ in reads:
        i = used.get(f, 0)
        if kind is FLAG:
            if not i and slots.get(name, f.default) is True:
                return True
        elif (v := slots.get(name)) is not None and i < (len(v) if many else 1):
            if callee != "ID" or type(v := v[i] if many else v) is not str or reads_as_id(v):
                return True
    return False


def _layout(tokens: list[str]) -> str:
    lines: list[str] = []
    current: list[str] = []
    depth = 0
    for tok in tokens:
        if tok == "}":
            depth = max(0, depth - 1)
        if not current:
            current.append("    " * depth + tok)
        else:
            current.append(tok)
        if tok == "{":
            depth += 1
        if tok in (";", "}"):
            lines.append(" ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Skeleton generation


def generate_grammar_skeleton(ast: Metamodel) -> str:
    """One rule per AST class: keyword-framed blocks listing every feature.
    The output always passes parse_grammar and check_grammar for ``ast``.
    A refusal names the class it is about by path, ``/<ast>/<Class>``, as
    validate_metamodel does."""
    diags: list[Diagnostic] = []
    classes = ast.classes()
    if not any(not c.abstract for c in classes):
        diags.append(error("grammar", "gr-unknown-class",
                           "AST metamodel has no concrete class", path=f"/{ast.name}"))
    for cls in classes:
        for f in cls.features:
            if not f.is_attribute and not f.containment:
                diags.append(error("grammar", "gr-cross-reference",
                                   f"{cls.name}.{f.name} is a cross reference; translate it "
                                   f"before generating a grammar", path=f"/{ast.name}/{cls.name}"))
    for cls in classes:
        if cls.abstract and not _has_concrete_descendant(cls, classes):
            diags.append(error("grammar", "gr-unknown-class",
                               f"abstract class {cls.name!r} has no concrete subtype",
                               path=f"/{ast.name}/{cls.name}"))
    if diags:
        raise DiagnosticError(diags)

    lines = []
    for cls in classes:
        if cls.abstract:
            subs = [c.name for c in classes if cls in c.supertypes]
            lines.append(f"Abstract {cls.name} :")
            lines.append("    " + " | ".join(subs) + " ;")
            lines.append("")
            continue
        parts = []
        for f in cls.all_features():
            if f.is_attribute and f.type.kind == "boolean":
                parts.append(f'( {f.name} ? "{f.name}" )?')
                continue
            if f.is_attribute:
                callee = "INT" if f.type.kind == "integer" else "STRING"
            else:
                callee = f.type.name
            op = "+=" if f.many else "="
            unit = f'"{f.name}" "=" {f.name} {op} {callee}'
            if f.many:
                if f.lower == 0:
                    parts.append(f"( {unit} )*")
                else:
                    parts.append(f"{unit} ( {unit} )*")
            else:
                if f.lower == 0:
                    parts.append(f"( {unit} )?")
                else:
                    parts.append(unit)
        lines.append(f"{cls.name} :")
        body = " ".join([f'"{cls.name}"', '"{"'] + parts + ['"}"'])
        lines.append(f"    {body} ;")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _has_concrete_descendant(cls, classes) -> bool:
    return any(not c.abstract and is_subtype(c, cls) for c in classes)


# ---------------------------------------------------------------------------
# Grammar-respecting random models (round-trip test support)


def generate_random_model(g: Grammar, rng: random.Random, max_depth: int = 8) -> Model:
    """Walk the grammar generatively, making random choices; the result is a
    valid model that render_ast can always emit."""
    if stuck := _unproductive(g):
        raise DiagnosticError(stuck)
    a = g.analysis()
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

    def gen_rule(name: str, depth: int) -> ModelObject:
        rule = g.by_name[name]
        if isinstance(rule, AbstractRule):
            alts = rule.alternatives  # past max_depth, the least height ends soonest
            return gen_rule(min(alts, key=lambda x: a.height.get(x, 0)) if depth > max_depth
                            else rng.choice(alts), depth + 1)
        obj = ModelObject(rule.cls)
        gen(rule.body, obj, depth, None)
        for f in a.flags[name]:
            if not obj.is_set(f):
                obj.set(f, False)
        return obj

    def later_adds(rest) -> Counter:
        """Per feature, the '+=' assignments still to run in the object after
        the element whose ``rest`` this is, each repetition counted once."""
        adds = Counter()
        while rest is not None:
            items, at, rest = rest
            adds.update(x.feature for y in items[at:] for x in y.assigns if x.op == "+=")
        return adds

    # ``rest`` is what follows ``e`` in its object: (items, index, rest) of
    # each enclosing sequence, or None
    def gen(e, obj, depth, rest):
        if isinstance(e, Keyword):
            return
        if isinstance(e, Assignment):
            if e.op == "?":
                if rng.random() < 0.5:
                    obj.set(e.feature, True)
                return
            if e.callee == "ID":
                value = rand_id()
            elif e.callee == "STRING":
                value = rand_string()
            elif e.callee == "INT":
                value = rng.randint(0, 20)
            else:
                value = gen_rule(e.callee, depth + 1)
            if e.op == "=":
                if not obj.is_set(e.feature):
                    obj.set(e.feature, value)
            else:
                obj.add(e.feature, value)
            return
        if isinstance(e, Sequence):
            for i, x in enumerate(e.items):
                gen(x, obj, depth, (e.items, i + 1, rest))
            return
        if isinstance(e, Opt):
            if depth <= max_depth and rng.random() < 0.5:
                gen(e.inner, obj, depth + 1, rest)
            return
        if isinstance(e, Repeat):
            count = 1 if e.kind == "+" else 0
            if depth <= max_depth:
                while rng.random() < 0.5 and count < 4:
                    count += 1
            # a pass adds at most k values to a feature named by k '+=' assignments
            # below it, and what follows adds at most later_adds: stop before a
            # pass could leave no room for them under a finite upper bound
            adds = Counter(x.feature for x in e.inner.assigns if x.op == "+=")
            bounded = [(f, k) for name, k in adds.items()
                       if (f := obj.cls.find_feature(name)) is not None
                       and f.upper is not UNBOUNDED]
            if bounded:
                later = later_adds(rest)
                bounded = [(f, k + later[f.name]) for f, k in bounded]
            for i in range(count):
                if (i or e.kind == "*") and any(
                        len(obj.values_of(f)) + k > f.upper for f, k in bounded):
                    break
                gen(e.inner, obj, depth + 1, rest)
            return
        # Group
        alts = e.alternatives
        gen(min(alts, key=lambda x: x.height) if depth > max_depth else rng.choice(alts),
            obj, depth + 1, rest)

    return Model(gen_rule(g.entry, 0), g.ast)
