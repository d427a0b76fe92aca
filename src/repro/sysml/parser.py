"""Recursive-descent parser for the SysML v2 textual notation subset.

The grammar covers everything the paper's modeling methodology uses
(Codes 1-5): packages, part/attribute/port/action/interface/connection
definitions and usages, `abstract`, `ref`, direction prefixes,
specialization ``:>``, redefinition ``:>>``, conjugated port types ``~T``,
multiplicities ``[*]``, value assignments, ``bind``, ``connect ... to ...``,
``perform``, ``end``, imports and ``doc`` comments.

The parser builds the semantic elements of :mod:`repro.sysml.elements`
directly, in one pass over the token stream: each element is created
when its declaration starts, before its body is parsed, so
``element_id`` runs in pre-order. The first non-empty doc comment in a
body documents the body's owner; top-level docs are dropped.
:func:`parse` returns the root elements of one source, unresolved;
:func:`build_model` folds the roots of several sources into one
:class:`~repro.sysml.elements.Model` for the resolver.

The parser never backtracks. It reads the current token and at most
two more (``_peek(1)``, ``_peek(2)``), so its working set stays that
small however large a source grows. Bodies nest at most
:data:`MAX_NESTING` deep.
"""

from __future__ import annotations

from .ast_nodes import (Expr, FeatureChain, FeatureRefExpr, Literal,
                        ModelNode, Multiplicity, QualifiedName)
from .elements import (Alias, Assignment, BindingConnector, Connector,
                       DEFINITION_CLASSES, Definition, Element, EndUsage,
                       EnumerationDefinition, EnumerationLiteral, Import,
                       Model, Package, PerformAction, RedefinitionUsage,
                       USAGE_CLASSES)
from .errors import ParseError, SysMLError
from .lexer import iter_tokens
from .tokens import Token, TokenKind

_USAGE_KINDS = ("part", "attribute", "port", "action", "interface",
                "connection", "item")
_DIRECTIONS = ("in", "out", "inout")
_NAME_KINDS = (TokenKind.IDENT, TokenKind.STRING)

#: Deepest nesting of ``{ ... }`` bodies a source may have. It keeps the
#: recursion of every later pass (and of the parse cache's pickling)
#: far from Python's limit; generated factory models nest 9 deep.
MAX_NESTING = 128


class Parser:
    """Parses one source text into a :class:`ModelNode`."""

    def __init__(self, text: str, filename: str = "<model>"):
        self._stream = iter_tokens(text, filename)
        #: The current token, and up to two tokens after it.
        self._token: Token = next(self._stream)
        self._ahead: list[Token] = []
        self._depth = 0
        self.token_count = 1
        self.filename = filename

    # -- token stream helpers ---------------------------------------------

    def _next(self) -> Token:
        token = next(self._stream)
        self.token_count += 1
        return token

    def _peek(self, offset: int) -> Token:
        """The token *offset* (1 or 2) places after the current one."""
        ahead = self._ahead
        while len(ahead) < offset:
            last = ahead[-1] if ahead else self._token
            ahead.append(last if last.kind is TokenKind.EOF
                         else self._next())
        return ahead[offset - 1]

    def _advance(self) -> Token:
        token = self._token
        if token.kind is not TokenKind.EOF:
            self._token = self._ahead.pop(0) if self._ahead \
                else self._next()
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._token.kind is kind

    def _check_keyword(self, *words: str) -> bool:
        token = self._token
        return token.kind is TokenKind.IDENT and token.value in words

    def _match(self, kind: TokenKind) -> Token | None:
        if self._token.kind is kind:
            return self._advance()
        return None

    def _expect(self, kind: TokenKind) -> Token:
        token = self._token
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} but found {token.value!r}",
                token.location)
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._token
        if not token.is_keyword(word):
            raise ParseError(
                f"expected keyword {word!r} but found {token.value!r}",
                token.location)
        return self._advance()

    # SysML v2 "unrestricted names" are single-quoted and legal wherever
    # a declared name or name-part may appear; the lexer exposes them as
    # STRING tokens and the parser accepts them contextually.

    def _check_name(self) -> bool:
        return self._token.kind in _NAME_KINDS

    def _expect_name(self) -> str:
        token = self._token
        if token.kind not in _NAME_KINDS:
            raise ParseError(
                f"expected a name but found {token.value!r}", token.location)
        return self._advance().value

    # -- entry point --------------------------------------------------------

    def parse_model(self) -> ModelNode:
        members: list[Element] = []
        while self._token.kind is not TokenKind.EOF:
            if not self._take_doc(None):
                members.append(self._parse_member())
        return ModelNode(members=members, filename=self.filename)

    # -- bodies and docs ----------------------------------------------------

    def _open_body(self) -> None:
        brace = self._expect(TokenKind.LBRACE)
        if self._depth == MAX_NESTING:
            raise ParseError(
                f"bodies nest deeper than {MAX_NESTING} levels",
                brace.location)
        self._depth += 1

    def _parse_body(self, owner: Element) -> None:
        self._open_body()
        while self._token.kind is not TokenKind.RBRACE:
            if self._token.kind is TokenKind.EOF:
                raise ParseError("unterminated body: missing '}'",
                                 self._token.location)
            if not self._take_doc(owner):
                owner.add_owned(self._parse_member())
        self._advance()
        self._depth -= 1

    def _take_doc(self, owner: Element | None) -> bool:
        """Consume a doc comment if one comes next; the first non-empty
        one documents *owner* (``None``: dropped)."""
        token = self._token
        if token.is_keyword("doc"):
            self._advance()
            token = self._token
            if token.kind is not TokenKind.DOC_COMMENT:
                raise ParseError("expected /* ... */ block after 'doc'",
                                 token.location)
        elif token.kind is not TokenKind.DOC_COMMENT:
            return False
        self._advance()
        if owner is not None and not owner.documentation:
            owner.documentation = token.value
        return True

    # -- member dispatch ----------------------------------------------------

    def _parse_member(self) -> Element:
        token = self._token
        if token.kind is TokenKind.REDEFINES:
            return self._parse_shorthand_redefinition()
        if token.kind is TokenKind.IDENT:
            word = token.value
            if word == "package":
                return self._parse_package()
            if word == "import":
                return self._parse_import()
            if word == "bind":
                return self._parse_bind()
            if word == "perform":
                return self._parse_perform()
            if word == "connect":
                return self._parse_connect("connection", None, None, token)
            if word == "end":
                return self._parse_end()
            if word == "alias":
                return self._parse_alias()
            if word == "enum":
                return self._parse_enum_definition()
        return self._parse_prefixed_member()

    def _parse_alias(self) -> Alias:
        start = self._advance()
        name = self._expect_name()
        self._expect_keyword("for")
        target = self._parse_qualified_name()
        self._expect(TokenKind.SEMI)
        return Alias(name, target, start.location)

    def _parse_enum_definition(self) -> EnumerationDefinition:
        start = self._advance()
        self._expect_keyword("def")
        definition = EnumerationDefinition(self._expect_name(),
                                           location=start.location)
        if self._match(TokenKind.SPECIALIZES):
            definition.specialization_names.append(
                self._parse_qualified_name())
        self._open_body()
        while not self._check(TokenKind.RBRACE):
            if not self._take_doc(definition):
                location = self._token.location
                literal = self._expect_name()
                self._expect(TokenKind.SEMI)
                definition.add_owned(
                    EnumerationLiteral(literal, location=location))
        self._advance()
        self._depth -= 1
        return definition

    def _parse_package(self) -> Package:
        start = self._advance()
        package = Package(self._expect_name(), start.location)
        self._parse_body(package)
        return package

    def _parse_import(self) -> Import:
        start = self._advance()
        parts = [self._expect_name()]
        wildcard = False
        recursive = False
        while self._match(TokenKind.DOUBLE_COLON):
            if self._match(TokenKind.STAR):
                wildcard = True
                if self._match(TokenKind.DOUBLE_COLON):
                    self._expect(TokenKind.STAR)
                    recursive = True
                break
            parts.append(self._expect_name())
        self._expect(TokenKind.SEMI)
        return Import(QualifiedName(parts, start.location), wildcard,
                      recursive, start.location)

    def _parse_bind(self) -> BindingConnector:
        start = self._advance()
        left = self._parse_feature_chain()
        self._expect(TokenKind.EQUALS)
        right = self._parse_feature_chain()
        self._expect(TokenKind.SEMI)
        return BindingConnector(left, right, start.location)

    def _parse_perform(self) -> PerformAction:
        start = self._advance()
        perform = PerformAction(self._parse_feature_chain(), start.location)
        if self._check(TokenKind.LBRACE):
            self._parse_body(perform)
        else:
            self._expect(TokenKind.SEMI)
        return perform

    def _parse_connect(self, kind: str, name: str | None,
                       type_name: QualifiedName | None,
                       start: Token) -> Connector:
        """``connect a to b;``, the current token being ``connect``."""
        self._advance()
        source = self._parse_feature_chain()
        self._expect_keyword("to")
        target = self._parse_feature_chain()
        self._expect(TokenKind.SEMI)
        connector = Connector(kind, name, source, target, start.location)
        connector.type_name = type_name
        return connector

    def _parse_end(self) -> EndUsage:
        start = self._advance()
        end = EndUsage(self._expect_name(), location=start.location)
        if self._match(TokenKind.COLON):
            end.type_name, end.conjugated = self._parse_type_ref()
        self._expect(TokenKind.SEMI)
        return end

    def _parse_shorthand_redefinition(self) -> RedefinitionUsage:
        """``:>> name = value;`` — redefinition with a bound value."""
        start = self._advance()
        usage = RedefinitionUsage(location=start.location)
        usage.redefinition_names.append(self._parse_qualified_name())
        if self._match(TokenKind.COLON):
            usage.type_name, usage.conjugated = self._parse_type_ref()
        if self._match(TokenKind.EQUALS):
            usage.value = self._parse_expr()
        if self._check(TokenKind.LBRACE):
            self._parse_body(usage)
        else:
            self._expect(TokenKind.SEMI)
        return usage

    # -- prefixed definitions / usages / assignments ------------------------

    def _parse_prefixed_member(self) -> Element:
        start = self._token
        is_abstract = False
        is_ref = False
        direction: str | None = None
        while True:
            if self._check_keyword("abstract"):
                self._advance()
                is_abstract = True
                continue
            if self._check_keyword("ref"):
                self._advance()
                is_ref = True
                continue
            if self._check_keyword(*_DIRECTIONS) and direction is None:
                # A direction keyword starts either a parameter/usage
                # declaration or an assignment ``out x = chain;``.
                next_token = self._peek(1)
                if (next_token.kind is TokenKind.IDENT
                        and next_token.value not in _USAGE_KINDS
                        and self._peek(2).kind is TokenKind.EQUALS):
                    return self._parse_assignment()
                direction = self._advance().value
                continue
            break

        token = self._token
        if self._check_keyword(*_USAGE_KINDS):
            # With a direction prefix, a kind word directly followed by
            # ':'/'='/';' is actually a *parameter name* that collides
            # with a keyword, e.g. ``in item : String;``.
            next_kind = self._peek(1).kind
            if direction is not None and next_kind in (
                    TokenKind.COLON, TokenKind.EQUALS, TokenKind.SEMI):
                return self._parse_usage("attribute", is_abstract, is_ref,
                                         direction, start)
            kind = self._advance().value
            if self._check_keyword("def"):
                self._advance()
                return self._parse_definition(kind, is_abstract, start)
            return self._parse_usage(kind, is_abstract, is_ref, direction,
                                     start)
        if direction is not None and self._check_name():
            # ``out ready : Boolean;`` — a bare parameter declaration
            # (the name may be a quoted unrestricted name).
            return self._parse_usage("attribute", is_abstract, is_ref,
                                     direction, start)
        raise ParseError(
            f"unexpected token {token.value!r} at start of member",
            token.location)

    def _parse_assignment(self) -> Assignment:
        start = self._advance()
        name = self._expect_name()
        self._expect(TokenKind.EQUALS)
        value = self._parse_expr()
        self._expect(TokenKind.SEMI)
        return Assignment(start.value, name, value, start.location)

    def _parse_definition(self, kind: str, is_abstract: bool,
                          start: Token) -> Definition:
        cls = DEFINITION_CLASSES.get(kind)
        if cls is None:
            raise SysMLError(f"unknown definition kind {kind!r}",
                             start.location)
        definition = cls(self._expect_name(), is_abstract=is_abstract,
                         location=start.location)
        if self._match(TokenKind.SPECIALIZES) or self._check_keyword("specializes"):
            if self._check_keyword("specializes"):
                self._advance()
            specializes = definition.specialization_names
            specializes.append(self._parse_qualified_name())
            while self._match(TokenKind.COMMA):
                specializes.append(self._parse_qualified_name())
        if self._check(TokenKind.LBRACE):
            self._parse_body(definition)
        else:
            self._expect(TokenKind.SEMI)
        return definition

    def _parse_usage(self, kind: str, is_abstract: bool, is_ref: bool,
                     direction: str | None, start: Token) -> Element:
        """A usage of *kind* after its prefixes and kind word.

        A connection or interface whose optional name and ``: Type``
        are followed by ``connect`` is a :class:`Connector` instead;
        otherwise the name and type parsed so far open the usage.
        """
        connects = kind in ("connection", "interface")
        name: str | None = None
        if self._check_name() and \
                not self._check_keyword("connect" if connects else "def"):
            name = self._advance().value
        typing: tuple[QualifiedName, bool] | None = None
        if connects:
            if self._token.kind is TokenKind.COLON and (
                    self._peek(1).kind in _NAME_KINDS
                    or self._peek(1).kind is TokenKind.TILDE):
                self._advance()
                type_location = self._token.location
                typing = self._parse_type_ref()
            if self._check_keyword("connect"):
                if typing is not None and typing[1]:
                    raise ParseError(
                        f"{kind} type before 'connect' cannot be "
                        f"conjugated", type_location)
                return self._parse_connect(
                    kind, name, typing[0] if typing else None, start)
        cls = USAGE_CLASSES.get(kind)
        if cls is None:
            raise SysMLError(f"unknown usage kind {kind!r}", start.location)
        usage = cls(name, is_abstract=is_abstract, location=start.location)
        usage.direction = direction
        usage.is_reference = is_ref
        if typing is not None:
            usage.type_name, usage.conjugated = typing
        # header clauses in any order: [mult] : type :> spec :>> redef
        while True:
            if self._check(TokenKind.LBRACKET):
                usage.multiplicity = self._parse_multiplicity()
                continue
            if self._check(TokenKind.COLON):
                self._advance()
                usage.type_name, usage.conjugated = self._parse_type_ref()
                continue
            if self._check(TokenKind.SPECIALIZES):
                self._advance()
                usage.specialization_names.append(
                    self._parse_qualified_name())
                while self._match(TokenKind.COMMA):
                    usage.specialization_names.append(
                        self._parse_qualified_name())
                continue
            if self._check_keyword("specializes"):
                self._advance()
                usage.specialization_names.append(
                    self._parse_qualified_name())
                continue
            if self._check(TokenKind.REDEFINES) \
                    or self._check_keyword("redefines"):
                self._advance()
                usage.redefinition_names.append(self._parse_qualified_name())
                continue
            break
        if self._match(TokenKind.EQUALS):
            usage.value = self._parse_expr()
        if self._check(TokenKind.LBRACE):
            self._parse_body(usage)
        else:
            self._expect(TokenKind.SEMI)
        return usage

    # -- small grammar pieces ------------------------------------------------

    def _parse_multiplicity(self) -> Multiplicity:
        self._expect(TokenKind.LBRACKET)
        if self._match(TokenKind.STAR):
            self._expect(TokenKind.RBRACKET)
            return Multiplicity(lower=0, upper=None)
        lower_token = self._expect(TokenKind.INTEGER)
        lower = int(lower_token.value)
        upper: int | None = lower
        if self._match(TokenKind.DOT):
            self._expect(TokenKind.DOT)
            if self._match(TokenKind.STAR):
                upper = None
            else:
                upper = int(self._expect(TokenKind.INTEGER).value)
        self._expect(TokenKind.RBRACKET)
        return Multiplicity(lower=lower, upper=upper)

    def _parse_type_ref(self) -> tuple[QualifiedName, bool]:
        """A type name and whether it is conjugated (``~T`` or ``T~``)."""
        conjugated = bool(self._match(TokenKind.TILDE))
        name = self._parse_qualified_name()
        if self._match(TokenKind.TILDE):
            conjugated = True
        return name, conjugated

    def _parse_qualified_name(self) -> QualifiedName:
        location = self._token.location
        parts = [self._expect_name()]
        while self._match(TokenKind.DOUBLE_COLON):
            parts.append(self._expect_name())
        return QualifiedName(parts, location)

    def _parse_feature_chain(self) -> FeatureChain:
        location = self._token.location
        parts = [self._expect_name()]
        while self._match(TokenKind.DOT) or \
                self._match(TokenKind.DOUBLE_COLON):
            parts.append(self._expect_name())
        return FeatureChain(parts, location)

    def _parse_expr(self) -> Expr:
        token = self._token
        if token.kind is TokenKind.MINUS:
            self._advance()
            number = self._token
            if number.kind is TokenKind.INTEGER:
                self._advance()
                return Literal(-int(number.value), token.location)
            if number.kind is TokenKind.REAL:
                self._advance()
                return Literal(-float(number.value), token.location)
            raise ParseError(
                f"expected numeric literal after '-', found {number.value!r}",
                number.location)
        if token.kind is TokenKind.STRING:
            self._advance()
            return Literal(token.value, token.location)
        if token.kind is TokenKind.INTEGER:
            self._advance()
            return Literal(int(token.value), token.location)
        if token.kind is TokenKind.REAL:
            self._advance()
            return Literal(float(token.value), token.location)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True, token.location)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False, token.location)
        if token.kind is TokenKind.IDENT:
            return FeatureRefExpr(self._parse_feature_chain())
        raise ParseError(f"expected expression, found {token.value!r}",
                         token.location)


def parse(text: str, filename: str = "<model>") -> ModelNode:
    """Parse SysML v2 textual notation into its root elements."""
    from ..obs import span
    with span("parse", file=filename) as s:
        parser = Parser(text, filename)
        tree = parser.parse_model()
        if s.enabled:
            s.set("tokens", parser.token_count)
            s.set("bytes", len(text))
            s.set("members", len(tree.members))
    return tree


def build_model(*trees: ModelNode) -> Model:
    """Fold the root elements of parsed sources into one unresolved
    model; the trees' elements become the model's."""
    model = Model()
    for tree in trees:
        for element in tree.members:
            model.add_owned(element)
    return model
