import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mmdsl.cli import main, mm_name_from_path
from mmdsl.emfatic import parse_metamodel
from mmdsl.meta import model_equals
from mmdsl.modeltext import load_model

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDENS = SAMPLES.parent / "tests" / "goldens"


@pytest.fixture()
def selfhost_dir(tmp_path):
    d = tmp_path / "selfhost"
    shutil.copytree(SAMPLES / "selfhost", d, ignore=shutil.ignore_patterns("out"))
    return d


@pytest.fixture()
def css_dir(tmp_path):
    d = tmp_path / "css"
    shutil.copytree(SAMPLES / "css", d, ignore=shutil.ignore_patterns("out"))
    return d


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv, **env):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a
    traceback on stderr instead of failing the test run; ``env`` adds to
    its environment."""
    env = dict(os.environ, PYTHONPATH=str(SAMPLES.parent / "src"), **env)
    return subprocess.run([sys.executable, "-m", "mmdsl", *map(str, argv)],
                          capture_output=True, text=True, env=env)


class TestDerive:
    def test_selfhost(self, selfhost_dir, capsys):
        out = selfhost_dir / "xf.ast.mm"
        trace = selfhost_dir / "xf.trace"
        code = run("derive", "--target", selfhost_dir / "xf.mm",
                   "--xf", selfhost_dir / "xf.xf", "--out", out, "--trace", trace)
        assert code == 0
        assert "class QualifiedName {" in out.read_text()
        assert "created QualifiedName" in trace.read_text()

    def test_missing_file(self, tmp_path, capsys):
        code = run("derive", "--target", tmp_path / "nope.mm",
                   "--out", tmp_path / "o.mm", "--trace", tmp_path / "o.trace")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error[") == 1

    def test_without_xf_is_default_mapping(self, selfhost_dir):
        out = selfhost_dir / "default.ast.mm"
        code = run("derive", "--target", selfhost_dir / "xf.mm",
                   "--out", out, "--trace", selfhost_dir / "default.trace")
        assert code == 0
        text = out.read_text()
        assert "class ClassMappingAS extends ActionAS {" in text
        assert "ref EClassAS prototype;" in text


class TestGrammarInit:
    def test_skeleton_for_selfhost(self, selfhost_dir):
        ast = selfhost_dir / "xf.ast.mm"
        run("derive", "--target", selfhost_dir / "xf.mm", "--xf", selfhost_dir / "xf.xf",
            "--out", ast, "--trace", selfhost_dir / "xf.trace")
        out = selfhost_dir / "skeleton.gr"
        assert run("grammar-init", "--ast", ast, "--out", out) == 0
        text = out.read_text()
        assert "TransformationAS :" in text
        assert "Abstract ActionAS :" in text

    def test_cross_reference_rejected(self, tmp_path, capsys):
        mm = tmp_path / "x.mm"
        mm.write_text("class A { ref A other; }\n")
        code = run("grammar-init", "--ast", mm, "--out", tmp_path / "x.gr")
        assert code == 1
        assert "gr-cross-reference" in capsys.readouterr().err

    def test_refusals_name_their_class(self, tmp_path, capsys):
        """An abstract class with no concrete subtype, and a cross reference,
        are reported at /<ast>/<Class>, the path validate_metamodel uses."""
        mm = tmp_path / "x.mm"
        mm.write_text("class A { val B b; ref A other; }\nabstract class B { }\n")
        assert run("grammar-init", "--ast", mm, "--out", tmp_path / "x.gr") == 1
        assert capsys.readouterr().err.splitlines() == [
            "model:/x/A: error[gr-cross-reference]: A.other is a cross reference; translate "
            "it before generating a grammar",
            "model:/x/B: error[gr-unknown-class]: abstract class 'B' has no concrete subtype"]
        assert not (tmp_path / "x.gr").exists()


class TestParseCmd:
    def setup_outputs(self, d):
        run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
            "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")

    def test_parse_selfhost_script(self, selfhost_dir):
        self.setup_outputs(selfhost_dir)
        out = selfhost_dir / "xf.astm"
        code = run("parse", "--grammar", selfhost_dir / "xf.gr",
                   "--ast", selfhost_dir / "xf.ast.mm", selfhost_dir / "xf.xf",
                   "--out", out)
        assert code == 0
        text = out.read_text()
        assert text.startswith("TransformationAS #1 {")
        ast = parse_metamodel((selfhost_dir / "xf.ast.mm").read_text(), "xf_ast")
        model = load_model(text, ast)
        assert len(model.root.values("actions")) == 4

    def test_bad_token_has_line_and_column(self, selfhost_dir, capsys):
        self.setup_outputs(selfhost_dir)
        bad = selfhost_dir / "bad.xf"
        bad.write_text("skip X;\nskip @Y;\n")
        code = run("parse", "--grammar", selfhost_dir / "xf.gr",
                   "--ast", selfhost_dir / "xf.ast.mm", bad,
                   "--out", selfhost_dir / "bad.astm")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error[") == 1
        assert ":2:6:" in err and "lexical" in err

    def test_syntax_error_reported_with_position(self, selfhost_dir, capsys):
        self.setup_outputs(selfhost_dir)
        bad = selfhost_dir / "bad.xf"
        bad.write_text("skip skip;\n")
        code = run("parse", "--grammar", selfhost_dir / "xf.gr",
                   "--ast", selfhost_dir / "xf.ast.mm", bad,
                   "--out", selfhost_dir / "bad.astm")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error[") == 1
        assert ":1:6:" in err

    def test_empty_input_fails_for_keyword_grammar(self, css_dir, capsys):
        (css_dir / "strict.gr").write_text('DeclarationAS : "p" property=ID ";" ;\n')
        run("derive", "--target", css_dir / "css.mm", "--xf", css_dir / "css.xf",
            "--out", css_dir / "css.ast.mm", "--trace", css_dir / "css.trace")
        empty = css_dir / "empty.css"
        empty.write_text("")
        code = run("parse", "--grammar", css_dir / "strict.gr",
                   "--ast", css_dir / "css.ast.mm", empty, "--out", css_dir / "e.astm")
        assert code == 1
        assert ":1:1:" in capsys.readouterr().err


    def test_numeric_character_is_a_lexical_error(self, css_dir):
        run("derive", "--target", css_dir / "css.mm", "--xf", css_dir / "css.xf",
            "--out", css_dir / "css.ast.mm", "--trace", css_dir / "css.trace")
        bad = css_dir / "bad.css"
        bad.write_text("a { color: ²; }\n")
        done = run_process("parse", "--grammar", css_dir / "css.gr", "--ast",
                           css_dir / "css.ast.mm", bad, "--out", css_dir / "x.astm")
        assert done.returncode == 1
        assert "error[lexical]" in done.stderr and ":1:12:" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("text, at", [("", "1:1"), ("// no rules\n", "2:1")])
    def test_grammar_without_rules_is_a_syntax_error(self, selfhost_dir, text, at):
        d = selfhost_dir
        self.setup_outputs(d)
        (d / "empty.gr").write_text(text)
        done = run_process("parse", "--grammar", d / "empty.gr", "--ast", d / "xf.ast.mm",
                           d / "xf.xf", "--out", d / "o.astm")
        assert done.returncode == 1
        assert done.stderr == (f"{d / 'empty.gr'}:{at}: error[syntax]: expected ID, found end "
                               f"of input\n")

    def test_deep_grammar_nesting_is_a_syntax_error(self, selfhost_dir):
        d = selfhost_dir
        self.setup_outputs(d)
        (d / "deep.gr").write_text("TransformationAS : " + "( " * 250 + '"x"' + " )" * 250
                                   + " ;\n")
        done = run_process("parse", "--grammar", d / "deep.gr", "--ast", d / "xf.ast.mm",
                           d / "xf.xf", "--out", d / "o.astm")
        assert done.returncode == 1
        assert done.stderr == (f"{d / 'deep.gr'}:1:220: error[syntax]: groups nested more "
                               f"than 100 deep\n")


class TestTransformCmd:
    def full_forward(self, d, source, out_name):
        run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
            "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")
        run("parse", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
            source, "--out", d / "s.astm")
        return run("transform", "--trace", d / "xf.trace", "--target", d / "xf.mm",
                   "--ast", d / "xf.ast.mm", "--resolver-config", d / "ns.cfg",
                   d / "s.astm", "--out", d / out_name)

    def test_selfhost_transform_equals_direct(self, selfhost_dir):
        assert self.full_forward(selfhost_dir, selfhost_dir / "xf.xf", "s.model") == 0
        from mmdsl.xf import parse_transformation, derive_ast_metamodel, \
            transformation_to_model
        target = parse_metamodel((selfhost_dir / "xf.mm").read_text(), "xf")
        t = parse_transformation((selfhost_dir / "xf.xf").read_text(), target)
        ast, _ = derive_ast_metamodel(target, t)
        direct = transformation_to_model(t, target, ast)
        loaded = load_model((selfhost_dir / "s.model").read_text(), target,
                            extra_metamodels=[ast])
        assert model_equals(direct, loaded)

    def test_dangling_name_exits_nonzero(self, selfhost_dir, capsys):
        bad = selfhost_dir / "dangling.xf"
        bad.write_text("skip Missing;\n")
        code = self.full_forward(selfhost_dir, bad, "d.model")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error[") == 1
        assert "resolve-unresolved" in err and "Missing" in err
        assert not (selfhost_dir / "d.model").exists()

    def test_unknown_resolver(self, selfhost_dir, capsys):
        d = selfhost_dir
        run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
            "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")
        run("parse", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
            d / "xf.xf", "--out", d / "s.astm")
        code = run("transform", "--trace", d / "xf.trace", "--target", d / "xf.mm",
                   "--ast", d / "xf.ast.mm", "--resolver", "magic",
                   d / "s.astm", "--out", d / "s.model")
        assert code == 1
        assert "config" in capsys.readouterr().err


class TestRenderCmds:
    def test_render_reparses_equal(self, selfhost_dir, tmp_path, capsys):
        d = selfhost_dir
        run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
            "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")
        run("parse", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
            d / "xf.xf", "--out", d / "s.astm")
        capsys.readouterr()
        assert run("render", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
                   d / "s.astm") == 0
        text = capsys.readouterr().out
        rendered = tmp_path / "rendered.xf"
        rendered.write_text(text)
        assert run("parse", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
                   rendered, "--out", d / "s2.astm") == 0
        assert (d / "s2.astm").read_text() == (d / "s.astm").read_text()

    def test_deep_qualified_name_renders(self, selfhost_dir):
        """A 3,000-deep QualifiedName chain renders in a fresh interpreter,
        at its default recursion limit."""
        d = selfhost_dir
        run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
            "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")
        depth = 3000
        heads = " subQN = ".join(f'QualifiedName #{i + 3} {{ name = "n{i}"' for i in range(depth))
        (d / "deep.astm").write_text(
            f"TransformationAS #1 {{ actions = [ SkipClassAS #2 {{ target = {heads}"
            + " }" * depth + " } ] }\n")
        done = run_process("render", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
                           d / "deep.astm")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "skip " + " :: ".join(f"n{i}" for i in range(depth)) + " ;\n"

    @pytest.mark.parametrize("command, sample, dump", [
        ("to-text", "selfhost", "xf.model"), ("render", "selfhost", "xf.astm"),
        ("render", "css", "grouped.astm")])
    def test_a_dump_relaid_by_hand_prints_alike(self, command, sample, dump, tmp_path, capsys):
        """A golden dump and the same with a comment line and CRLF line
        ends, which the line reader declines, print the same text and exit
        the same way."""
        d, golden = SAMPLES / sample, GOLDENS / sample
        stem = "xf" if sample == "selfhost" else "css"
        lines = (golden / dump).read_text().split("\n")
        edited = tmp_path / dump
        edited.write_bytes("\r\n".join([lines[0], "  // edited by hand", *lines[1:]]).encode())
        argv = ["--grammar", d / f"{stem}.gr", "--ast", golden / f"{stem}.ast.mm"]
        if command == "to-text":
            argv += ["--trace", golden / f"{stem}.trace", "--target", d / f"{stem}.mm",
                     "--resolver-config", d / "ns.cfg"]
        outcomes = []
        for path in (golden / dump, edited):
            code = run(command, *argv, path)
            outcomes.append((code, capsys.readouterr().out))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0 and outcomes[0][1]

    def test_to_text_feeds_the_forward_pipeline(self, selfhost_dir, tmp_path, capsys):
        d = selfhost_dir
        run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
            "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")
        run("parse", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
            d / "xf.xf", "--out", d / "s.astm")
        run("transform", "--trace", d / "xf.trace", "--target", d / "xf.mm",
            "--ast", d / "xf.ast.mm", "--resolver-config", d / "ns.cfg",
            d / "s.astm", "--out", d / "s.model")
        capsys.readouterr()
        assert run("to-text", "--trace", d / "xf.trace", "--target", d / "xf.mm",
                   "--ast", d / "xf.ast.mm", "--grammar", d / "xf.gr",
                   "--resolver-config", d / "ns.cfg", d / "s.model") == 0
        text = capsys.readouterr().out
        regenerated = tmp_path / "regen.xf"
        regenerated.write_text(text)
        run("parse", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
            regenerated, "--out", d / "r.astm")
        run("transform", "--trace", d / "xf.trace", "--target", d / "xf.mm",
            "--ast", d / "xf.ast.mm", "--resolver-config", d / "ns.cfg",
            d / "r.astm", "--out", d / "r.model")
        target = parse_metamodel((d / "xf.mm").read_text(), "xf")
        from mmdsl.xf import parse_transformation, derive_ast_metamodel
        t = parse_transformation((d / "xf.xf").read_text(), target)
        ast, _ = derive_ast_metamodel(target, t)
        first = load_model((d / "s.model").read_text(), target, extra_metamodels=[ast])
        second = load_model((d / "r.model").read_text(), target, extra_metamodels=[ast])
        assert model_equals(first, second)

    def test_list_for_single_valued_feature_is_refused(self, css_dir):
        d = css_dir
        run("derive", "--target", d / "css.mm", "--xf", d / "css.xf",
            "--out", d / "css.ast.mm", "--trace", d / "css.trace")
        run("parse", "--grammar", d / "css.gr", "--ast", d / "css.ast.mm",
            d / "split.css", "--out", d / "split.astm")
        astm = d / "split.astm"
        astm.write_text(astm.read_text().replace(
            'selector = "some"', 'selector = ["some", "other"]', 1))
        done = run_process("render", "--grammar", d / "css.gr", "--ast",
                           d / "css.ast.mm", astm)
        assert done.returncode == 1
        assert "error[model-multiplicity]" in done.stderr and ":4:7:" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""

    @pytest.mark.parametrize("edit", [("lowerBound = 0", 'lowerBound = "zero"'),
                                      ('name = "QualifiedName"', "name = 5")])
    def test_to_text_validates_its_input(self, selfhost_dir, edit):
        d = derived(selfhost_dir)
        run("parse", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
            d / "xf.xf", "--out", d / "s.astm")
        run("transform", "--trace", d / "xf.trace", "--target", d / "xf.mm",
            "--ast", d / "xf.ast.mm", "--resolver-config", d / "ns.cfg",
            d / "s.astm", "--out", d / "s.model")
        model = d / "s.model"
        assert edit[0] in model.read_text()
        model.write_text(model.read_text().replace(*edit, 1))
        done = run_process("to-text", "--trace", d / "xf.trace", "--target", d / "xf.mm",
                           "--ast", d / "xf.ast.mm", "--grammar", d / "xf.gr",
                           "--resolver-config", d / "ns.cfg", model)
        assert done.returncode == 1
        assert "error[model-kind]" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""

    def test_render_problem_is_located_at_the_object(self, css_dir):
        d = css_dir
        run("derive", "--target", d / "css.mm", "--xf", d / "css.xf",
            "--out", d / "css.ast.mm", "--trace", d / "css.trace")
        run("parse", "--grammar", d / "css.gr", "--ast", d / "css.ast.mm",
            d / "grouped.css", "--out", d / "g.astm")
        astm = d / "g.astm"
        astm.write_text(astm.read_text().replace('      selector = "some"\n', "", 1))
        done = run_process("render", "--grammar", d / "css.gr", "--ast",
                           d / "css.ast.mm", astm)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("model:/rules[0]: error[gr-unset-mandatory]: ")

    def test_render_without_rule_fails(self, selfhost_dir, css_dir, capsys):
        d = selfhost_dir
        run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
            "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")
        run("derive", "--target", css_dir / "css.mm", "--xf", css_dir / "css.xf",
            "--out", css_dir / "css.ast.mm", "--trace", css_dir / "css.trace")
        run("parse", "--grammar", css_dir / "css.gr", "--ast", css_dir / "css.ast.mm",
            css_dir / "grouped.css", "--out", css_dir / "g.astm")
        code = run("render", "--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm",
                   css_dir / "g.astm")
        assert code == 1


class TestPipelineCmd:
    def test_css_merge(self, css_dir):
        assert run("pipeline", css_dir / "pipeline.cfg") == 0
        out = css_dir / "out"
        grouped = (out / "grouped.model").read_text()
        split = (out / "split.model").read_text()
        assert grouped == split
        assert grouped.count("Selector #") == 1

    def test_selfhost(self, selfhost_dir):
        assert run("pipeline", selfhost_dir / "pipeline.cfg") == 0
        assert (selfhost_dir / "out" / "xf.model").exists()

    def test_bad_config_path(self, tmp_path, capsys):
        assert run("pipeline", tmp_path / "missing.cfg") == 1
        assert capsys.readouterr().err.count("error[") == 1

    def test_deterministic_outputs(self, css_dir, selfhost_dir):
        for d in (css_dir, selfhost_dir):
            assert run("pipeline", d / "pipeline.cfg") == 0
            first = {p.name: p.read_bytes() for p in (d / "out").iterdir()}
            shutil.rmtree(d / "out")
            assert run("pipeline", d / "pipeline.cfg") == 0
            second = {p.name: p.read_bytes() for p in (d / "out").iterdir()}
            assert first == second

    def test_malformed_resolver_config(self, css_dir):
        (css_dir / "ns.cfg").write_text("name.attribute = name\n@@@\n")
        done = run_process("pipeline", css_dir / "pipeline.cfg")
        assert done.returncode == 1
        assert "error[config]" in done.stderr
        assert "Traceback" not in done.stderr

    def test_placement_naming_a_missing_feature(self, css_dir, capsys):
        """A placement config whose collection the root class lacks is one
        config diagnostic, at configuration, before any rule is placed."""
        mm = css_dir / "css.mm"
        mm.write_text(mm.read_text().replace("selectors", "chosen"))
        assert run("pipeline", css_dir / "pipeline.cfg") == 1
        err = capsys.readouterr().err
        assert err.count("error[config]: ") == 1
        assert "error[config]: place.Rule.collection: class Stylesheet has no feature " \
            "'selectors'" in err

    def test_config_errors_name_their_line(self, css_dir):
        (css_dir / "ns.cfg").write_text("name.attribute = name\n@@@\n")
        done = run_process("pipeline", css_dir / "pipeline.cfg")
        assert done.returncode == 1
        assert done.stderr.startswith(f"{css_dir / 'ns.cfg'}:2:1: error[config]: ")
        assert "Traceback" not in done.stderr
        pipeline = css_dir / "pipeline.cfg"
        pipeline.write_text("# css\ntarget = css.mm\n\n@@@\nalso bad\n")
        done = run_process("pipeline", pipeline)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            f"{pipeline}:4:1: error[config]: expected 'key = value', got '@@@'",
            f"{pipeline}:5:1: error[config]: expected 'key = value', got 'also bad'"]

    @pytest.mark.parametrize("grammar", ["css.gr", None])
    def test_failed_set_up_writes_no_outputs(self, css_dir, grammar):
        (css_dir / "ns.cfg").write_text("@@@\n")
        cfg = css_dir / "p.cfg"
        cfg.write_text("target = css.mm\nxf = css.xf\nresolver.config = ns.cfg\n"
                       "inputs = grouped.css\n" + (f"grammar = {grammar}\n" if grammar else ""))
        done = run_process("pipeline", cfg)
        assert done.returncode == 1
        assert "error[config]" in done.stderr
        assert list((css_dir / "out").iterdir()) == []

    def test_skeleton_of_untranslated_cross_reference(self, tmp_path):
        (tmp_path / "a.mm").write_text("class A { ref A other; }\n")
        (tmp_path / "p.cfg").write_text("target = a.mm\n")
        done = run_process("pipeline", tmp_path / "p.cfg")
        assert done.returncode == 1
        assert "error[gr-cross-reference]" in done.stderr
        assert "Traceback" not in done.stderr

    def test_diagnostics_name_the_opened_path(self, css_dir, capsys):
        xf = css_dir / "css.xf"
        xf.write_text(xf.read_text() + "skip Nope ;\n")
        assert run("pipeline", css_dir / "pipeline.cfg") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{xf}:") and "error[" in err

    def test_pipeline_without_grammar_uses_skeleton(self, css_dir):
        cfg = css_dir / "nogr.cfg"
        cfg.write_text("target = css.mm\nxf = css.xf\nresolver.config = ns.cfg\nout = out2\n")
        assert run("pipeline", cfg) == 0
        assert (css_dir / "out2" / "css.gr").exists()


def derived(d):
    """The selfhost sample with its AST metamodel and trace derived."""
    run("derive", "--target", d / "xf.mm", "--xf", d / "xf.xf",
        "--out", d / "xf.ast.mm", "--trace", d / "xf.trace")
    return d


class TestIoDiagnostics:
    @pytest.mark.parametrize("command", ["derive", "grammar-init", "parse", "transform",
                                         "render", "to-text", "pipeline"])
    def test_non_utf8_file(self, selfhost_dir, command):
        d = derived(selfhost_dir)
        bad = d / "bad.txt"
        bad.write_bytes(b"\xff\xfeskip X;\n")
        plan = ["--trace", d / "xf.trace", "--target", d / "xf.mm", "--ast", d / "xf.ast.mm"]
        argv = {
            "derive": ["--target", d / "xf.mm", "--xf", bad,
                       "--out", d / "o.mm", "--trace", d / "o.trace"],
            "grammar-init": ["--ast", bad, "--out", d / "o.gr"],
            "parse": ["--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm", bad,
                      "--out", d / "o.astm"],
            "transform": ["--trace", bad, "--target", d / "xf.mm", "--ast", d / "xf.ast.mm",
                          d / "xf.xf", "--out", d / "o.model"],
            "render": ["--grammar", bad, "--ast", d / "xf.ast.mm", d / "xf.xf"],
            "to-text": plan + ["--grammar", d / "xf.gr", "--resolver-config", bad, d / "xf.xf"],
            "pipeline": [bad],
        }[command]
        done = run_process(command, *argv)
        assert done.returncode == 1
        assert f"error[io]: cannot read {bad}: not UTF-8 text" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", ["parse", "derive", "pipeline"])
    def test_unwritable_output(self, selfhost_dir, command):
        d = derived(selfhost_dir)
        missing = d / "no" / "such"
        (d / "p.cfg").write_text("target = xf.mm\nout = xf.mm\n")
        argv = {
            "parse": ["--grammar", d / "xf.gr", "--ast", d / "xf.ast.mm", d / "xf.xf",
                      "--out", missing / "o.astm"],
            "derive": ["--target", d / "xf.mm", "--out", d / "o.mm",
                       "--trace", missing / "o.trace"],
            "pipeline": [d / "p.cfg"],
        }[command]
        done = run_process(command, *argv)
        assert done.returncode == 1
        assert "error[io]: cannot " in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("key, value, verb", [("inputs", "grouped\0.css", "read"),
                                                  ("out", "o\0ut", "create")])
    def test_nul_in_a_config_path(self, css_dir, key, value, verb):
        cfg = css_dir / "pipeline.cfg"
        cfg.write_text(re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", cfg.read_text()))
        done = run_process("pipeline", cfg)
        assert done.returncode == 1
        assert done.stderr == (f"{css_dir / value}: error[io]: cannot {verb} "
                               f"{css_dir / value}: embedded null byte\n")

    def test_nul_in_an_output_argument(self, selfhost_dir, capsys):
        d = selfhost_dir
        assert run("derive", "--target", d / "xf.mm", "--out", d / "o\0.mm",
                   "--trace", d / "o.trace") == 1
        err = capsys.readouterr().err
        assert err == f"{d / 'o'}\0.mm: error[io]: cannot write {d / 'o'}\0.mm: embedded null byte\n"
        assert not (d / "o.trace").exists()

    @pytest.mark.parametrize("trace", ["nodir/o.trace", "."])
    def test_derive_leaves_no_partial_output(self, selfhost_dir, trace):
        d = selfhost_dir
        done = run_process("derive", "--target", d / "xf.mm", "--out", d / "o.mm",
                           "--trace", d / trace)
        assert done.returncode == 1
        assert f"error[io]: cannot write {d / trace}: " in done.stderr
        assert "Traceback" not in done.stderr
        assert not (d / "o.mm").exists()
        assert sorted(p.name for p in d.iterdir()) == sorted(
            p.name for p in (SAMPLES / "selfhost").iterdir() if p.name != "out")


    def test_io_diagnostic_is_located_at_its_file(self, selfhost_dir):
        d = selfhost_dir
        argv = ["derive", "--target", d / "xf.mm", "--out", d / "o2.mm", "--trace", d]
        done = run_process(*argv)
        assert done.returncode == 1
        assert done.stderr == f"{d}: error[io]: cannot write {d}: not a regular file\n"
        done = run_process("--diagnostics-json", *argv)
        assert json.loads(done.stderr) == {
            "code": "io", "file": str(d), "message": f"cannot write {d}: not a regular file",
            "phase": "parse", "severity": "error"}


class TestJsonDiagnostics:
    def test_json_lines(self, tmp_path, capsys):
        code = run("--diagnostics-json", "derive", "--target", tmp_path / "nope.mm",
                   "--out", tmp_path / "o", "--trace", tmp_path / "t")
        assert code == 1
        import json
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        data = json.loads(err_lines[0])
        assert data["severity"] == "error"
        assert data["code"] == "io"


def test_mm_name_from_path():
    assert mm_name_from_path(Path("xf.mm")) == "xf"
    assert mm_name_from_path(Path("dir/xf.ast.mm")) == "xf_ast"
    assert mm_name_from_path(Path("9lives.mm")) == "m_9lives"


class TestPipelineGoldens:
    """Both sample pipelines write the .ast.mm, .trace, .astm and .model
    files kept in tests/goldens/<sample>/, byte for byte."""

    @pytest.mark.parametrize("sample", ["css", "selfhost"])
    def test_outputs_are_the_goldens(self, sample, tmp_path):
        d = tmp_path / sample
        shutil.copytree(SAMPLES / sample, d, ignore=shutil.ignore_patterns("out"))
        assert run("pipeline", d / "pipeline.cfg") == 0
        goldens = sorted((GOLDENS / sample).iterdir())
        assert sorted(p.name for p in (d / "out").iterdir()) == [p.name for p in goldens]
        for golden in goldens:
            assert (d / "out" / golden.name).read_bytes() == golden.read_bytes(), golden.name


class TestPipelineAcrossProcesses:
    """Both sample pipelines write the same bytes in two interpreters whose
    string hashes differ."""

    @pytest.mark.parametrize("sample", ["css", "selfhost"])
    def test_outputs_do_not_depend_on_the_hash_seed(self, sample, tmp_path):
        outputs = []
        for seed in ("0", "1"):
            d = tmp_path / seed
            shutil.copytree(SAMPLES / sample, d, ignore=shutil.ignore_patterns("out"))
            done = run_process("pipeline", d / "pipeline.cfg", PYTHONHASHSEED=seed)
            assert done.returncode == 0, done.stderr
            outputs.append({p.name: p.read_bytes() for p in (d / "out").iterdir()})
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == sorted(p.name for p in (GOLDENS / sample).iterdir())

    def test_the_reverse_does_not_depend_on_the_hash_seed(self):
        """to-text prints the same text of the selfhost golden model in both."""
        d, golden = SAMPLES / "selfhost", GOLDENS / "selfhost"
        argv = ["to-text", "--trace", golden / "xf.trace", "--target", d / "xf.mm",
                "--ast", golden / "xf.ast.mm", "--grammar", d / "xf.gr",
                "--resolver-config", d / "ns.cfg", golden / "xf.model"]
        outputs = []
        for seed in ("0", "1"):
            done = run_process(*argv, PYTHONHASHSEED=seed)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert "create class" in outputs[0]


# Every command of each sample, by the files it reads (the sample's own and
# the goldens of its pipeline): (sample, text input, .astm, .model).
FUZZ_SAMPLES = {"css": ("css", "grouped.css", "grouped.astm", "grouped.model"),
                "selfhost": ("xf", "xf.xf", "xf.astm", "xf.model")}
FUZZ_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"|\w+|::|->|\+=|//|/\*|\*/|\s+|.', re.DOTALL)
FUZZ_VOCABULARY = ["(", ")", "{", "}", "[", "]", ";", ":", ",", "=", "+=", "?", "*", "+", "|", "#",
                   "#1", "->", "::", "-", "x", "7", '"s"', "@", "Abstract", "class", "val", "ref",
                   "attr", "create", "skip", "img", "true", "9" * 30, "²", '"open']


def fuzz_argv(d: Path, stem: str, text: str, astm: str, model: str) -> list[list]:
    plan = ["--trace", d / f"{stem}.trace", "--target", d / f"{stem}.mm",
            "--ast", d / f"{stem}.ast.mm"]
    grammar = ["--grammar", d / f"{stem}.gr", "--ast", d / f"{stem}.ast.mm"]
    config = ["--resolver-config", d / "ns.cfg"]
    return [["derive", "--target", d / f"{stem}.mm", "--xf", d / f"{stem}.xf",
             "--out", d / "o.ast.mm", "--trace", d / "o.trace"],
            ["grammar-init", "--ast", d / f"{stem}.ast.mm", "--out", d / "o.gr"],
            ["parse", *grammar, d / text, "--out", d / "o.astm"],
            ["transform", *plan, *config, d / astm, "--out", d / "o.model"],
            ["render", *grammar, d / astm],
            ["to-text", *plan, *config, "--grammar", d / f"{stem}.gr", d / model],
            ["pipeline", d / "pipeline.cfg"]]


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    """Each sample with the outputs of its pipeline next to its inputs."""
    base = tmp_path_factory.mktemp("fuzz")
    for sample in FUZZ_SAMPLES:
        shutil.copytree(SAMPLES / sample, base / sample, ignore=shutil.ignore_patterns("out"))
        for golden in (GOLDENS / sample).iterdir():
            shutil.copy(golden, base / sample / golden.name)
    return base


class TestFuzz:
    """Every command, run in-process on both samples with one input file
    mutated (tokens dropped, duplicated, swapped or replaced), exits 0 or 1
    with diagnostics: no exception escapes, and no run is slow."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sample=st.sampled_from(sorted(FUZZ_SAMPLES)),
           kind=st.sampled_from([".mm", ".xf", ".gr", "text", ".astm", ".model", ".trace",
                                 ".ast.mm"]),
           edits=st.lists(st.tuples(st.sampled_from(["drop", "dup", "swap", "replace"]),
                                    st.integers(0, 10 ** 6), st.sampled_from(FUZZ_VOCABULARY)),
                          min_size=1, max_size=3))
    def test_mutated_inputs_end_in_diagnostics(self, fuzz_dirs, sample, kind, edits):
        stem, text, astm, model = FUZZ_SAMPLES[sample]
        name = {"text": text, ".astm": astm, ".model": model}.get(kind, stem + kind)
        with tempfile.TemporaryDirectory(dir=fuzz_dirs) as tmp:
            d = Path(tmp) / sample
            shutil.copytree(fuzz_dirs / sample, d)
            toks = FUZZ_TOKEN.findall((d / name).read_text())
            at = [i for i, t in enumerate(toks) if not t.isspace()]
            for edit, pick, word in edits:
                i = at[pick % len(at)]
                if edit == "drop":
                    toks[i] = ""
                elif edit == "dup":
                    toks[i] += " " + toks[i]
                elif edit == "swap":
                    j = at[(pick + 1) % len(at)]
                    toks[i], toks[j] = toks[j], toks[i]
                else:
                    toks[i] = word
            (d / name).write_text("".join(toks))
            for argv in fuzz_argv(d, stem, text, astm, model):
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([str(a) for a in argv])
                assert code in (0, 1), argv
                assert "Traceback" not in err.getvalue()
                assert time.perf_counter() - start < 5, argv


class TestFuzzConfig:
    """Every command, run in-process on both samples with one value of
    ns.cfg or pipeline.cfg spliced with arbitrary text, truncated or
    replaced whole, exits 0 or 1 with diagnostics: no exception escapes,
    and no run is slow. The text holds no '/', so that no value names a
    path outside the example's own directory: the pipeline writes to
    ``out`` and reads the other paths."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sample=st.sampled_from(sorted(FUZZ_SAMPLES)),
           cfg=st.sampled_from(["ns.cfg", "pipeline.cfg"]),
           pick=st.integers(0, 10 ** 6), at=st.integers(0, 10 ** 6),
           edit=st.sampled_from(["splice", "truncate", "replace"]),
           junk=st.text(st.characters(exclude_characters="/"), max_size=12))
    def test_mutated_config_values_end_in_diagnostics(self, fuzz_dirs, sample, cfg, pick, at,
                                                      edit, junk):
        with tempfile.TemporaryDirectory(dir=fuzz_dirs) as tmp:
            d = Path(tmp) / sample
            shutil.copytree(fuzz_dirs / sample, d)
            lines = (d / cfg).read_text().splitlines()
            values = [n for n, line in enumerate(lines) if "=" in line and line[0] != "#"]
            i = values[pick % len(values)]
            key, _, value = lines[i].partition("=")
            value = value.strip()
            cut = at % (len(value) + 1)
            lines[i] = key + "= " + {"splice": value[:cut] + junk + value[cut:],
                                     "truncate": value[:cut], "replace": junk}[edit]
            # a lone surrogate has no UTF-8 form: it is written as its bytes, which no
            # UTF-8 text holds, so the run reports the file as not UTF-8
            (d / cfg).write_text("\n".join(lines) + "\n", encoding="utf-8",
                                 errors="surrogatepass")
            for argv in fuzz_argv(d, *FUZZ_SAMPLES[sample]):
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([str(a) for a in argv])
                assert code in (0, 1), argv
                assert "Traceback" not in err.getvalue()
                assert time.perf_counter() - start < 5, argv
