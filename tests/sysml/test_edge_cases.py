"""Edge-case coverage for the SysML front end gathered during review."""

import pytest

from repro.sysml import (LexerError, ParseError, ResolutionError,
                         elaborate, instance_counts, load_model,
                         print_element, validate_model)


class TestLexerEdges:
    def test_empty_block_comment(self):
        model = load_model("/**/ part def M { attribute a : Real; }")
        assert model.find("M") is not None

    def test_comment_at_eof_without_newline(self):
        model = load_model("part def M { attribute a : Real; } // tail")
        assert model.find("M") is not None

    def test_adjacent_operators(self):
        # ':>>' then '>' would be junk; make sure ':>' ':>' parses as two
        from fixtures import tokenize
        from repro.sysml.tokens import TokenKind
        kinds = [t.kind for t in tokenize(":>:>")][:-1]
        assert kinds == [TokenKind.SPECIALIZES, TokenKind.SPECIALIZES]

    def test_number_then_ident(self):
        from fixtures import tokenize
        tokens = tokenize("5557x")
        assert tokens[0].value == "5557"
        assert tokens[1].value == "x"


class TestParserEdges:
    def test_deeply_nested_bodies(self):
        depth = 30
        source = ""
        for i in range(depth):
            source += f"part def L{i} {{ "
        source += "attribute leaf : Real;" + " }" * depth
        model = load_model(source)
        assert model.find("L0") is not None

    def test_trailing_content_after_package(self):
        model = load_model("package P { } part def M "
                           "{ attribute a : Real; }")
        assert model.find("M") is not None

    def test_doc_only_body(self):
        model = load_model("part def M { doc /* only docs */ }")
        assert model.find("M").documentation == "only docs"

    def test_empty_source(self):
        model = load_model("")
        assert list(model.all_elements())  # stdlib only

    def test_string_value_with_path_chars(self):
        model = load_model("""
            part def P { attribute path : String; }
            part p : P { :>> path = '/opt/programs/part 42.nc'; }
        """)
        assert model.find("p").member("path").value.value == \
            "/opt/programs/part 42.nc"


class TestResolutionEdges:
    def test_self_typed_usage_caught_by_validation(self):
        # 'part x : x;' resolves (the name finds the usage itself) but
        # the resulting type cycle is a validation error
        model = load_model("part x : x;")
        report = validate_model(model)
        assert any(d.rule == "cyclic-specialization"
                   for d in report.errors)

    def test_deep_qualified_name(self):
        model = load_model("""
            package A { package B { package C { part def D; } } }
            part d : A::B::C::D;
        """)
        assert model.find("d").typ.qualified_name == "A::B::C::D"

    def test_import_of_single_member(self):
        model = load_model("""
            package Lib { part def M; part def Hidden; }
            package App {
                import Lib::M;
                part m : M;
            }
        """)
        assert model.find("App::m").typ.name == "M"
        with pytest.raises(ResolutionError):
            load_model("""
                package Lib { part def M; part def Hidden; }
                package App {
                    import Lib::M;
                    part h : Hidden;
                }
            """)

    def test_diamond_specialization(self):
        model = load_model("""
            abstract part def Base { attribute common : Real; }
            part def Left :> Base;
            part def Right :> Base;
            part def Both :> Left, Right;
            part b : Both;
        """)
        tree = elaborate(model.find("b"))
        # 'common' inherited once despite the diamond
        assert len([c for c in tree.children
                    if c.name == "common"]) == 1


class TestElaborationEdges:
    def test_scope_counts_on_minimal_usage(self):
        model = load_model("part def M; part m : M;")
        counts = instance_counts(model.find("m"))
        assert counts.part_instances == 1
        assert counts.attribute_instances == 0

    def test_print_element_of_enum_nested_in_package(self):
        model = load_model("""
            package P { enum def E { a; b; } }
        """)
        text = print_element(model.find("P"))
        assert "enum def E {" in text

    def test_validation_of_empty_model(self):
        assert validate_model(load_model("")).ok
