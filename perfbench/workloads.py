"""The workloads: corpus generation, the measured passes, and the
oracles that check every output against the generator's ground truth.

A run repeats passes over one seeded corpus until its time is up; the
first pass always runs whole. The first pass checks every output against
its oracle; later passes must reproduce the first pass's outputs byte for
byte. Set-up, text->model and model->text are timed separately, one
sample per operation and pass. An operation
that raises anything but an expected DiagnosticError, or whose output
disagrees with its oracle, fails: it is an infinitely slow sample and adds
no KB.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from mmdsl import (
    builtin_ecore, derive_ast_metamodel, dump_model, format_trace, generate_grammar_skeleton,
    generate_random_model, model_equals, parse_metamodel, parse_text, parse_transformation,
    print_metamodel, render_ast, validate_model,
)
from mmdsl.lexer import Lexer
from mmdsl.meta import iter_tree

import gen
from chain import Direct, Tracer, ast_to_text, load_language, model_to_text, text_to_model

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SETUP_REPS = 10  # shipped-language loads per pass
REFERENCE_SECONDS = 5e-4  # reference_seconds() at the speed timings are scaled to
SPEED_WINDOW = 7  # documents on each side whose reference times give a sample's speed
LANG_SIZES = [round(8 * 16 ** (i / 7)) for i in range(8)]  # 8 .. 128 classes
LANG_DOCS = 25  # random models kept per generated language
LANG_CANDIDATES = 3  # random models drawn per one kept
LANG_MAX_DEPTH = 6
LANG_CFG = "name.attribute = name\n"


def reference_seconds() -> float:
    """Time one fixed piece of interpretive work that shares no code with
    mmdsl: object creation, dict and list traffic, calls, isinstance and
    string building. Taken next to every sample, it gives the machine's
    speed at that moment. The collector is paused so that garbage left by
    the code under test is not charged to the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        nodes = []
        for i in range(360):
            node = {"name": "n" + str(i), "attrs": {"k" + str(i % 7): i}}
            nodes.append(node)
        total = 0
        for node in nodes:
            for k, v in node["attrs"].items():
                if isinstance(v, int) and k.startswith("k"):
                    total += v
            total += len(" ".join((node["name"], "x", str(total))))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_medians(values: list[float], window: int) -> list[float]:
    """Median of each value's neighbourhood of +-window values."""
    return [statistics.median(values[max(0, i - window): i + window + 1])
            for i in range(len(values))]


@dataclass
class Doc:
    id: str
    text: str
    truth: object  # the generator's ground truth
    lang: int = 0  # index of the language that reads it
    m2t_input: str | None = None  # .astm or .model text, set by the first pass
    t2m_hash: str | None = None
    m2t_hash: str | None = None


@dataclass
class Record:
    """Samples and accounting of one run. Timings are kept per item (a
    document, or a language for set-up) with one sample per pass, so that
    metrics can take each item's fastest pass: interference from other
    work on the machine then slows samples, not the item's figure."""
    setup_s: dict[str, list[float]] = field(default_factory=dict)
    # doc id -> per pass (seconds, bytes): input bytes for text->model,
    # output bytes for model->text, 0 when the operation failed
    t2m: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    m2t: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    # doc id -> per pass, the local reference_seconds(), parallel to t2m/m2t
    ref: dict[str, list[float]] = field(default_factory=dict)
    # operations ("stage:item") attempted and failed, each counted once
    # however many passes repeat it, so a faster run does not fail more
    attempted: set[str] = field(default_factory=set)
    failed: set[str] = field(default_factory=set)
    mismatches: list[str] = field(default_factory=list)
    causes: dict[str, set[str]] = field(default_factory=dict)  # "stage: cause" -> operations
    passes: int = 0
    untraced_s: float = 0.0  # chain seconds of the docs also run traced
    traced_s: float = 0.0
    sizes: dict[str, int] = field(default_factory=dict)  # doc id -> input bytes

    def attempt(self, stage: str, item: str) -> str:
        op = f"{stage}:{item}"
        self.attempted.add(op)
        return op

    def fail(self, op: str, exc: BaseException | None = None, mismatch: str | None = None,
             skipped: bool = False):
        """Record a failed operation: it raised exc, its output disagreed
        with the oracle (mismatch), or it was skipped because the operation
        it depends on failed."""
        self.failed.add(op)
        if exc is not None or skipped:
            stage = op.split(":", 1)[0]
            cause = f"{stage}: {type(exc).__name__ if exc else 'skipped'}"
            self.causes.setdefault(cause, set()).add(op)
        if mismatch is not None:
            self.mismatches.append(f"{op}: {mismatch}")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, label: str, text: str):
        self.h.update(f"{label}\0{text}\0".encode())

    def hexdigest(self) -> str:
        return self.h.hexdigest()


# ---------------------------------------------------------------------------
# Views of mmdsl's output, read through ModelObject.get/values, for the oracles


def css_view(model, container: str, key: str) -> list:
    return [(s.get(key), [(d.get("property"), d.get("value")) for d in s.values("declarations")])
            for s in model.root.values(container)]


def _opt(obj, name, default=None):
    return obj.get(name) if obj.cls.find_feature(name) is not None else default


def xf_action_view(obj) -> tuple:
    refs = []
    for f in obj.cls.all_features():
        if not f.is_attribute and not f.containment and obj.values(f.name):
            refs.append((f.name, tuple(v.represents.name for v in obj.values(f.name))))
    feats = tuple(
        (s.cls.name, s.get("name"),
         s.get("type").represents.name if s.get("type") is not None else None,
         s.get("lowerBound"), s.get("upperBound"), _opt(s, "containment", False))
        for s in _opt(obj, "structuralFeatures", []))
    return (obj.cls.name, _opt(obj, "name"), _opt(obj, "abstract", False),
            _opt(obj, "includeDescendants", False), tuple(sorted(refs)), feats)


_UNRESOLVED = re.compile(r"unresolved reference '(.*)' in ")


def diagnostic_names(diags) -> list[tuple[str, str]]:
    out = []
    for d in diags:
        m = _UNRESOLVED.match(d.message)
        out.append((d.code, m.group(1) if m else d.message))
    return sorted(out)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One seeded corpus and the passes that run it over one shipped
    language. Subclasses make the corpus and judge the outputs."""

    name = ""
    sample: tuple[str, str, str, str, str | None, str] = ("", "", "", "", None, "")
    transform = True  # text->model runs the trace-driven transform

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.languages = self.make_languages()
        self.docs: list[Doc] = self.make_corpus()
        self.corpus = Digest()
        self.outputs = Digest()

    def make_languages(self) -> list[tuple]:
        d = SAMPLES / self.sample[0]
        read = lambda f: (d / f).read_text() if f else None  # noqa: E731
        return [(read(self.sample[2]), self.sample[1], read(self.sample[3]),
                 read(self.sample[4]), read(self.sample[5]))]

    def make_corpus(self) -> list[Doc]:
        raise NotImplementedError

    # -- one pass -----------------------------------------------------------

    def run_pass(self, rec: Record, first: bool, tracer: Tracer | None,
                 deadline: float | None = None):
        """One pass over the corpus; past the deadline, stop between documents."""
        langs = self.setup(rec, first, tracer)
        refs: list[float] = []
        for doc in self.docs:
            if deadline is not None and perf_counter() > deadline:
                break
            refs.append(reference_seconds())
            lang, traced_lang = langs[doc.lang]
            rec.sizes[doc.id] = len(doc.text)
            elapsed, verdict = self.t2m(rec, doc, first, lang, Direct)
            rec.t2m.setdefault(doc.id, []).append(
                (elapsed, len(doc.text) if verdict is not None else 0))
            back_s, produced = self.m2t(rec, doc, first, lang, Direct)
            rec.m2t.setdefault(doc.id, []).append((back_s, produced))
            if tracer is not None:
                rec.untraced_s += elapsed + back_s
                tracer.doc = doc.id
                elapsed, verdict = self.t2m(rec, doc, False, traced_lang, tracer)
                back_s, _ = self.m2t(rec, doc, False, traced_lang, tracer)
                rec.traced_s += elapsed + back_s
                self.probes(tracer, doc, traced_lang, verdict)
        for doc, speed in zip(self.docs, local_medians(refs, SPEED_WINDOW)):
            rec.ref.setdefault(doc.id, []).append(speed)
        if first:
            for i, args in enumerate(self.languages):
                self.corpus.add(f"language{i}", "\0".join(a or "" for a in args))
            for doc in self.docs:
                self.corpus.add(doc.id, doc.text)

    def setup(self, rec: Record, first: bool, tracer: Tracer | None) -> list[tuple]:
        """Load the language SETUP_REPS times untraced (each load is one
        setup_s sample) and, when tracing, once more traced."""
        op = rec.attempt("setup", "language0")
        lang = None
        for _ in range(SETUP_REPS):
            start = perf_counter()
            lang = load_language(Direct, *self.languages[0])
            rec.setup_s.setdefault("language0", []).append(perf_counter() - start)
        if first and lang.problems:
            rec.fail(op, mismatch=f"check_grammar reported {len(lang.problems)} problem(s)")
        return [(lang, self.traced_setup(tracer, self.languages[0]) if tracer else None)]

    @staticmethod
    def traced_setup(tracer: Tracer, args: tuple):
        """A traced load plus the calls the CLI makes around set-up that
        set-up itself does not: printing the derived metamodel and trace,
        and the grammar skeleton."""
        tracer.doc = "setup"
        lang = load_language(tracer, *args)
        tracer.wrap_registry(lang.registry)
        tracer.call("emfatic.print_metamodel", print_metamodel, lang.ast)
        tracer.call("xf.format_trace", format_trace, lang.trace)
        if args[3] is not None:  # otherwise set-up generated the skeleton itself
            tracer.call("grammar.generate_grammar_skeleton", generate_grammar_skeleton, lang.ast)
        tracer.count("xf.ast_classes", len(lang.ast.classes()))
        return lang

    # -- text -> model ------------------------------------------------------

    def t2m(self, rec: Record, doc: Doc, first: bool, lang, t):
        """Time one document to its verdict and judge it. Returns (seconds,
        verdict), the verdict None when the document failed."""
        op = rec.attempt("text_to_model", doc.id)
        if lang is None:  # its language failed to load, and was counted, first
            rec.fail(op, skipped=True)
            return 0.0, None
        start = perf_counter()
        try:
            verdict = text_to_model(t, doc.text, lang, transform=self.transform)
        except Exception as exc:  # a crash is this document's verdict
            elapsed = perf_counter() - start
            rec.fail(op, exc)
            if first:
                self.outputs.add(doc.id + ":t2m", f"<{type(exc).__name__}>")
            return elapsed, None
        elapsed = perf_counter() - start
        if first:
            self.outputs.add(doc.id + ":t2m", verdict.text)
            problem = self.check_t2m(doc, verdict, lang)
            if problem is not None:
                rec.fail(op, mismatch=problem)
                return elapsed, None
            doc.t2m_hash = sha(verdict.text)
            doc.m2t_input = self.m2t_input(doc, verdict)
        elif doc.t2m_hash != sha(verdict.text):
            rec.fail(op, mismatch="output differs from the first pass")
            return elapsed, None
        return elapsed, verdict

    def check_t2m(self, doc: Doc, verdict, lang) -> str | None:
        raise NotImplementedError

    def m2t_input(self, doc: Doc, verdict) -> str | None:
        """The .astm a `mmdsl render` would read: the parsed AST, dumped."""
        return dump_model(verdict.ast_model) if verdict.ast_model is not None else None

    # -- model -> text ------------------------------------------------------

    def m2t(self, rec: Record, doc: Doc, first: bool, lang, t) -> tuple[float, int]:
        """Time one reverse operation and judge it. Returns (seconds, bytes
        of text produced), 0 bytes when it failed."""
        op = rec.attempt("model_to_text", doc.id)
        if doc.m2t_input is None:  # text->model failed, and was counted, first
            rec.fail(op, skipped=True)
            return 0.0, 0
        start = perf_counter()
        try:
            text = self.backward(t, doc.m2t_input, lang)
        except Exception as exc:  # DiagnosticError too: every input is a valid model
            elapsed = perf_counter() - start
            rec.fail(op, exc)
            if first:
                self.outputs.add(doc.id + ":m2t", f"<{type(exc).__name__}>")
            return elapsed, 0
        elapsed = perf_counter() - start
        if first:
            self.outputs.add(doc.id + ":m2t", text)
            problem = self.check_m2t(doc, text, lang)
            if problem is not None:
                rec.fail(op, mismatch=problem)
                doc.m2t_input = None
                return elapsed, 0
            doc.m2t_hash = sha(text)
        elif doc.m2t_hash != sha(text):
            rec.fail(op, mismatch="output differs from the first pass")
            return elapsed, 0
        return elapsed, len(text)

    def backward(self, t, text: str, lang) -> str:
        return ast_to_text(t, text, lang)

    def check_m2t(self, doc: Doc, text: str, lang) -> str | None:
        """Default AST-level oracle: the rendered text parses back to a
        model equal to the AST it was rendered from."""
        again = parse_text(text, lang.grammar)
        original = parse_text(doc.text, lang.grammar)
        return None if model_equals(original, again) else "render -> parse changed the AST"

    # -- traced-only probes -------------------------------------------------

    @staticmethod
    def probes(tracer: Tracer, doc: Doc, lang, verdict):
        """Calls that split parse_text and the transform into the layers
        they hide: tokenize and validate the same inputs on their own."""
        if lang is None:
            return
        lexer = Lexer.for_keywords(lang.grammar.keywords())
        tokens = tracer.call("lexer.tokenize", lexer.tokenize, doc.text)
        tracer.count("lexer.tokens", len(tokens))
        if verdict is None or verdict.ast_model is None:
            return
        tracer.count("grammar.ast_objects", sum(1 for _ in iter_tree(verdict.ast_model.root)))
        tracer.call("meta.validate_model", validate_model, verdict.ast_model, note="ast")
        if verdict.model is not None and verdict.model is not verdict.ast_model:
            tracer.count("meta.target_objects", sum(1 for _ in iter_tree(verdict.model.root)))
            tracer.call("meta.validate_model", validate_model, verdict.model, note="target")
        if verdict.model is not None:
            tracer.count("modeltext.dump_bytes", len(verdict.text))
        for d in verdict.diagnostics:
            tracer.count("diagnostics.errors")
            code = d.code if d.code == "resolve-unresolved" else "other"
            tracer.count("diagnostics.code." + code)


class CssMerge(Workload):
    """Rule files whose selectors come from a Zipf-skewed pool, so many
    rules merge into one Selector through the placer."""

    name = "css_merge"
    sample = ("css", "css", "css.mm", "css.xf", "css.gr", "ns.cfg")

    def make_corpus(self):
        sizes = gen.stratified_sizes(self.rng, 200, 64, 64 * 64)
        docs = []
        for i, size in enumerate(sizes):
            d = gen.css_doc(self.rng, size)
            docs.append(Doc(f"css{i:04d}", d.text, d))
        return docs

    def check_t2m(self, doc, verdict, lang):
        if verdict.model is None:
            return "expected a target model, got diagnostics"
        if css_view(verdict.model, "selectors", "name") != doc.truth.expected_selectors():
            return "selectors or declarations differ from the merged rules"
        return None

    def check_m2t(self, doc, text, lang):
        again = parse_text(text, lang.grammar)
        if css_view(again, "rules", "selector") != doc.truth.rules:
            return "rendered text does not parse back to the generated rules"
        return None


def selfhost_names() -> gen.XfNames:
    """Every classifier a selfhost reference may name: ns.cfg seeds the
    ecore, target (xf.mm) and derived AST classifiers."""
    d = SAMPLES / "selfhost"
    target = parse_metamodel((d / "xf.mm").read_text(), "xf")
    ast, _ = derive_ast_metamodel(target, parse_transformation((d / "xf.xf").read_text(),
                                                               target))
    ecore = builtin_ecore()
    mms = (ecore, target, ast)
    return gen.XfNames(tuple(c.name for mm in mms for c in mm.classes()),
                       tuple(c.name for mm in mms for c in mm.datatypes()),
                       frozenset(c.name for c in ecore.classifiers))


class XfScripts(Workload):
    """Transformation scripts in the self-hosted language: a mix of create,
    refer, skip and make statements over ecore, target and AST classifiers."""

    sample = ("selfhost", "xf", "xf.mm", "xf.xf", "xf.gr", "ns.cfg")
    unresolved = 0.0  # share of references naming no classifier
    deep_share = 0.0  # share of documents with one 100-400 segment name

    def make_corpus(self):
        sizes = gen.stratified_sizes(self.rng, 200, 48, 48 * 64)
        deep = set(self.rng.sample(range(len(sizes)), round(self.deep_share * len(sizes))))
        # segment counts stratified over 100..400, one per deep document
        segments = iter(sorted(round(100 + 300 * (k + self.rng.random()) / len(deep))
                               for k in range(len(deep))))
        xg = gen.XfGenerator(self.rng, selfhost_names(), self.unresolved)
        return [Doc(f"xf{i:04d}", d.text, d)
                for i, size in enumerate(sizes)
                for d in [xg.doc(size, next(segments) if i in deep else 0)]]


class XfRoundtrip(XfScripts):
    """Every reference resolves; each document runs forward, then back
    from its dumped .model."""

    name = "xf_roundtrip"

    def check_t2m(self, doc, verdict, lang):
        if verdict.model is None:
            return f"expected a target model, got {len(verdict.diagnostics)} diagnostic(s)"
        got = [xf_action_view(a) for a in verdict.model.root.values("actions")]
        want = [gen.expected_action_view(a) for a in doc.truth.actions]
        return None if got == want else "actions differ from the generated script"

    def m2t_input(self, doc, verdict):
        return verdict.text  # the .model dump

    def backward(self, t, text, lang):
        return model_to_text(t, text, lang)

    def check_m2t(self, doc, text, lang):
        """model -> text -> model identity under model_equals."""
        fwd = text_to_model(Direct, doc.text, lang)
        back = text_to_model(Direct, text, lang)
        if back.model is None or not model_equals(fwd.model, back.model):
            return "model -> text -> model changed the model"
        return None


class XfUnresolved(XfScripts):
    """About a quarter of references name classifiers that do not exist,
    and 2% of documents carry one qualified name of 100-400 segments."""

    name = "xf_unresolved"
    unresolved = 0.25
    deep_share = 0.02

    def check_t2m(self, doc, verdict, lang):
        if verdict.model is not None:
            return "expected resolve-unresolved diagnostics, got a model"
        got = diagnostic_names(verdict.diagnostics)
        return None if got == doc.truth.planted else "diagnostics differ from the planted names"


class LangSetup(Workload):
    """Generated languages from 8 to 128 classes, with grammars from the
    skeleton generator; their documents are random models rendered to text."""

    name = "lang_setup"
    transform = False

    def make_languages(self):
        self.truth = [gen.lang_doc(self.rng, n) for n in LANG_SIZES]
        return [(d.mm_text, "lang", d.xf_text, None, LANG_CFG) for d in self.truth]

    def make_corpus(self):
        return []  # random models need each language's grammar: made by the first pass

    def setup(self, rec, first, tracer):
        """Load each generated language once (one setup_s sample each)."""
        langs = []
        for i, args in enumerate(self.languages):
            op = rec.attempt("setup", f"language{i}")
            start = perf_counter()
            try:
                lang = load_language(Direct, *args)
            except Exception as exc:
                rec.fail(op, exc)
                langs.append((None, None))
                continue
            rec.setup_s.setdefault(f"language{i}", []).append(perf_counter() - start)
            problem = self.check_setup(self.truth[i], lang) if first else None
            if problem is not None:
                rec.fail(op, mismatch=problem)
                lang = None
            langs.append((lang, self.traced_setup(tracer, args) if tracer and lang else None))
        if first:
            self.docs = self.random_documents(langs)
        return langs

    @staticmethod
    def check_setup(truth: gen.LangDoc, lang) -> str | None:
        names = sorted(c.name for c in lang.ast.classes())
        if names != sorted(truth.expected_ast_classes):
            return "AST classes differ from the expected images"
        if any(not f.is_attribute and not f.containment
               for c in lang.ast.classes() for f in c.features):
            return "AST metamodel still has cross references"
        if lang.problems:
            return f"check_grammar reported {len(lang.problems)} problem(s)"
        return None

    def random_documents(self, langs) -> list[Doc]:
        """Per language, LANG_DOCS random models whose object counts spread
        log-uniformly over 1..64: from LANG_CANDIDATES times as many draws,
        the one nearest each target count. Most raw draws are one object."""
        docs = []
        for i, (lang, _) in enumerate(langs):
            if lang is None:
                continue
            rng = random.Random(f"{self.name}:docs:{self.seed}:{i}")
            pool = []
            for _ in range(LANG_DOCS * LANG_CANDIDATES):
                model = generate_random_model(lang.grammar, rng, max_depth=LANG_MAX_DEPTH)
                pool.append((math.log(sum(1 for _ in iter_tree(model.root))), model))
            for k in range(LANG_DOCS):
                target = math.log(64) * k / (LANG_DOCS - 1)
                best = min(range(len(pool)), key=lambda j: abs(pool[j][0] - target))
                model = pool.pop(best)[1]
                docs.append(Doc(f"lang{i}.{k:02d}", render_ast(model, lang.grammar), model, i))
        return docs

    def check_t2m(self, doc, verdict, lang):
        """parse_text(render_ast(m)) equals m: the random model is the truth."""
        if not model_equals(doc.truth, verdict.model):
            return "render -> parse changed the random model"
        return None

    def check_m2t(self, doc, text, lang):
        return None if text == doc.text else "rendering the loaded .astm differs"


WORKLOADS = {w.name: w for w in (CssMerge, XfRoundtrip, XfUnresolved, LangSetup)}
