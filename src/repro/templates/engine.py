"""A minimal text template engine (step 2 of the paper's pipeline).

The paper renders Kubernetes YAML "by using template files rendered
according to the information contained in the JSON files". This engine
provides the three constructs those templates need:

* ``{{ expr }}``         — substitution; ``expr`` is a dotted path into the
  context (``machine.name``), with optional filters ``{{ name | upper }}``.
* ``{% for x in expr %} ... {% endfor %}``  — iteration.
* ``{% if expr %} ... {% else %} ... {% endif %}`` — conditionals
  (truthiness of the resolved value).

Filters: ``upper``, ``lower``, ``k8s_name`` (DNS-1123 sanitization),
``json`` (compact JSON), ``yaml_str`` (quoted YAML string), ``indent:N``.
"""

from __future__ import annotations

import functools
import json
import re

from ..obs import METRICS

_RENDERS = METRICS.counter("templates.renders")


class TemplateError(ValueError):
    pass


_TOKEN_RE = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)


@functools.lru_cache(maxsize=4096)
def _k8s_name(text: str) -> str:
    cleaned = re.sub(r"[^a-z0-9-]+", "-", text.lower()).strip("-")
    if not cleaned:
        raise TemplateError(f"cannot derive a k8s name from {text!r}")
    return cleaned[:63]


def k8s_name(text: str) -> str:
    """Sanitize into a DNS-1123 label (lowercase alnum and dashes).

    Memoized: every render re-sanitizes the same handful of component
    names (the ``| k8s_name`` filter fires several times per manifest).
    """
    return _k8s_name(str(text))


def _yaml_str(value: object) -> str:
    from ..yamlgen import needs_quoting
    text = str(value)
    if needs_quoting(text):
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return text


_FILTERS = {
    "upper": lambda v: str(v).upper(),
    "lower": lambda v: str(v).lower(),
    "k8s_name": k8s_name,
    "json": lambda v: json.dumps(v, separators=(",", ":"), sort_keys=True),
    "yaml_str": _yaml_str,
    "length": lambda v: len(v),
}


def _resolve(path: str, context: dict):
    """Resolve a dotted path (with optional index access ``items.0``)."""
    path = path.strip()
    if not path:
        raise TemplateError("empty expression")
    current: object = context
    for part in path.split("."):
        if isinstance(current, dict):
            if part not in current:
                raise TemplateError(f"unknown name {part!r} in {path!r}")
            current = current[part]
        elif isinstance(current, (list, tuple)):
            try:
                current = current[int(part)]
            except (ValueError, IndexError) as exc:
                raise TemplateError(
                    f"bad index {part!r} in {path!r}") from exc
        else:
            attr = getattr(current, part, _MISSING)
            if attr is _MISSING:
                raise TemplateError(
                    f"cannot access {part!r} of "
                    f"{type(current).__name__} in {path!r}")
            current = attr
    return current


_MISSING = object()


def _apply_filters(value: object, filters: list[str]):
    for spec in filters:
        name, _, arg = spec.strip().partition(":")
        if name == "indent":
            pad = " " * int(arg)
            value = ("\n" + pad).join(str(value).splitlines())
        elif name in _FILTERS:
            value = _FILTERS[name](value)
        else:
            raise TemplateError(f"unknown filter {name!r}")
    return value


class _Node:
    def render(self, context: dict, out: list[str]) -> None:
        raise NotImplementedError


class _Text(_Node):
    def __init__(self, text: str):
        self.text = text

    def render(self, context, out):
        out.append(self.text)


class _Expr(_Node):
    def __init__(self, expression: str):
        parts = expression.split("|")
        self.path = parts[0].strip()
        self.filters = parts[1:]

    def render(self, context, out):
        value = _apply_filters(_resolve(self.path, context), self.filters)
        out.append("" if value is None else str(value))


class _For(_Node):
    def __init__(self, var: str, expression: str, body: list[_Node]):
        self.var = var
        self.expression = expression
        self.body = body

    def render(self, context, out):
        items = _resolve(self.expression, context)
        if not isinstance(items, (list, tuple)):
            raise TemplateError(
                f"cannot iterate over {type(items).__name__} "
                f"({self.expression!r})")
        for index, item in enumerate(items):
            scope = dict(context)
            scope[self.var] = item
            scope["loop"] = {"index": index, "first": index == 0,
                             "last": index == len(items) - 1}
            for node in self.body:
                node.render(scope, out)


class _If(_Node):
    def __init__(self, expression: str, then: list[_Node],
                 otherwise: list[_Node]):
        self.expression = expression
        self.negated = expression.startswith("not ")
        self.path = expression[4:] if self.negated else expression
        self.then = then
        self.otherwise = otherwise

    def render(self, context, out):
        try:
            value = _resolve(self.path, context)
        except TemplateError:
            value = None
        truthy = bool(value)
        if self.negated:
            truthy = not truthy
        for node in (self.then if truthy else self.otherwise):
            node.render(context, out)


class Template:
    """A compiled template."""

    def __init__(self, source: str, name: str = "<template>"):
        self.name = name
        tokens = _TOKEN_RE.split(source)
        self.nodes, remaining = self._parse(tokens, 0, None)
        if remaining != len(tokens):
            raise TemplateError(f"{name}: unexpected trailing block tag")

    def _parse(self, tokens: list[str], index: int,
               until: str | None) -> tuple[list[_Node], int]:
        nodes: list[_Node] = []
        while index < len(tokens):
            token = tokens[index]
            if token.startswith("{{"):
                nodes.append(_Expr(token[2:-2]))
                index += 1
            elif token.startswith("{%"):
                tag = token[2:-2].strip()
                if tag.startswith("for "):
                    match = re.fullmatch(r"for\s+(\w+)\s+in\s+(.+)", tag)
                    if not match:
                        raise TemplateError(f"malformed for tag: {tag!r}")
                    body, index = self._parse(tokens, index + 1, "endfor")
                    nodes.append(_For(match.group(1),
                                      match.group(2).strip(), body))
                elif tag.startswith("if "):
                    then, index = self._parse(tokens, index + 1,
                                              "endif-or-else")
                    otherwise: list[_Node] = []
                    if tokens[index - 1][2:-2].strip() == "else":
                        otherwise, index = self._parse(tokens, index, "endif")
                    nodes.append(_If(tag[3:].strip(), then, otherwise))
                elif tag in ("endfor", "endif", "else"):
                    if until is None:
                        raise TemplateError(f"unexpected {{% {tag} %}}")
                    if until == "endfor" and tag != "endfor":
                        raise TemplateError(
                            f"expected endfor, found {tag!r}")
                    if until == "endif" and tag != "endif":
                        raise TemplateError(f"expected endif, found {tag!r}")
                    if until == "endif-or-else" and tag not in ("endif",
                                                                "else"):
                        raise TemplateError(
                            f"expected endif/else, found {tag!r}")
                    return nodes, index + 1
                else:
                    raise TemplateError(f"unknown block tag {tag!r}")
            else:
                if token:
                    nodes.append(_Text(token))
                index += 1
        if until is not None:
            raise TemplateError(f"missing closing tag for {until!r}")
        return nodes, index

    def render(self, context: dict) -> str:
        out: list[str] = []
        for node in self.nodes:
            node.render(dict(context), out)
        _RENDERS.inc()
        return "".join(out)


def render(source: str, context: dict, name: str = "<template>") -> str:
    """One-shot compile and render."""
    return Template(source, name).render(context)
