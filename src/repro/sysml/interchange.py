"""JSON interchange for SysML v2 models.

Mirrors (a small slice of) the SysML v2 API & Services JSON shape: every
element becomes a dictionary with ``@type``, ``name``, its kind-specific
fields, and ``ownedElements``. ``model_to_json`` / ``model_from_json``
round-trip a model losslessly for the supported subset.

JSON models come from outside, so reading one is a typed boundary:
invalid JSON, elements nesting deeper than the text parser allows
(:data:`~repro.sysml.parser.MAX_NESTING` bodies) and a missing or
ill-typed required key each raise :class:`SysMLError`.
"""

from __future__ import annotations

import json

from .ast_nodes import (FeatureChain, FeatureRefExpr, Literal, Multiplicity,
                        QualifiedName)
from .elements import (Assignment, BindingConnector, Connector, Definition,
                       DEFINITION_CLASSES, Element, Import, Model, Package,
                       PerformAction, Usage, USAGE_CLASSES)
from .errors import SysMLError
from .parser import MAX_NESTING
from .resolver import resolve_model


def element_to_dict(element: Element) -> dict:
    """Serialize one element subtree to a JSON-compatible dict."""
    from .elements import Alias
    data: dict = {"@type": type(element).__name__}
    # "is not None", not truthiness: '' is a legal declared name and
    # must survive the round-trip
    if element.name is not None:
        data["name"] = element.name
    if element.documentation:
        data["documentation"] = element.documentation
    if isinstance(element, Alias):
        data["aliasOf"] = _qname_json(element.target_name)
    elif isinstance(element, Package):
        if element.is_library:
            data["isLibrary"] = True
    elif isinstance(element, Definition):
        data["kind"] = element.kind
        data["isAbstract"] = element.is_abstract
        if element.specialization_names:
            data["specializes"] = [_qname_json(n)
                                   for n in element.specialization_names]
    elif isinstance(element, Usage):
        data["kind"] = element.kind
        data["isAbstract"] = element.is_abstract
        data["isReference"] = element.is_reference
        if element.direction:
            data["direction"] = element.direction
        if element.multiplicity is not None:
            data["multiplicity"] = {
                "lower": element.multiplicity.lower,
                "upper": element.multiplicity.upper,
            }
        if element.type_name is not None:
            data["type"] = _qname_json(element.type_name)
            data["isConjugated"] = element.conjugated
        if element.specialization_names:
            data["specializes"] = [_qname_json(n)
                                   for n in element.specialization_names]
        if element.redefinition_names:
            data["redefines"] = [_qname_json(n)
                                 for n in element.redefinition_names]
        if element.value is not None:
            data["value"] = _expr_to_json(element.value)
    elif isinstance(element, Import):
        data["target"] = _qname_json(element.target_name)
        data["wildcard"] = element.wildcard
        data["recursive"] = element.recursive
    elif isinstance(element, BindingConnector):
        data["left"] = _chain_json(element.left_chain)
        data["right"] = _chain_json(element.right_chain)
    elif isinstance(element, Connector):
        data["connectorKind"] = element.connector_kind
        data["source"] = _chain_json(element.source_chain)
        data["target"] = _chain_json(element.target_chain)
        if element.type_name is not None:
            data["type"] = _qname_json(element.type_name)
    elif isinstance(element, PerformAction):
        data["target"] = _chain_json(element.target_chain)
    elif isinstance(element, Assignment):
        if element.direction:
            data["direction"] = element.direction
        data["value"] = _expr_to_json(element.value)
    owned = [element_to_dict(child) for child in element.owned_elements]
    if owned:
        data["ownedElements"] = owned
    return data


def model_to_dict(model: Model) -> dict:
    return {
        "@type": "Model",
        "ownedElements": [element_to_dict(e) for e in model.owned_elements],
    }


def model_to_json(model: Model, *, indent: int | None = 2) -> str:
    return json.dumps(model_to_dict(model), indent=indent)


# -- deserialization -----------------------------------------------------------

def element_from_dict(data: dict, depth: int = 1) -> Element:
    """Rebuild an element subtree from :func:`element_to_dict` output.

    *depth* counts the element's ancestors plus one; an element that
    owns children at a depth past :data:`MAX_NESTING` would open a body
    the text parser refuses.
    """
    element = _construct(data.get("@type", ""), data)
    element.documentation = data.get("documentation", "")
    children = data.get("ownedElements", [])
    if children and depth > MAX_NESTING:
        raise SysMLError(f"elements nest more than {MAX_NESTING} bodies "
                         f"deep in JSON")
    for child_data in children:
        element.add_owned(element_from_dict(child_data, depth + 1))
    return element


def _construct(type_name: str, data: dict) -> Element:
    name = data.get("name")
    if type_name == "Alias":
        from .elements import Alias
        return Alias(name or "", _qname(data["aliasOf"]))
    if type_name == "EnumerationLiteral":
        from .elements import EnumerationLiteral
        return EnumerationLiteral(name)
    if type_name == "Package":
        package = Package(name)
        package.is_library = data.get("isLibrary", False)
        return package
    if type_name == "Import":
        return Import(_qname(data["target"]), data.get("wildcard", False),
                      data.get("recursive", False))
    if type_name == "BindingConnector":
        return BindingConnector(_chain(data["left"]), _chain(data["right"]))
    if type_name == "Connector":
        connector = Connector(data["connectorKind"], name,
                              _chain(data["source"]), _chain(data["target"]))
        if "type" in data:
            connector.type_name = _qname(data["type"])
        return connector
    if type_name == "PerformAction":
        return PerformAction(_chain(data["target"]))
    if type_name == "Assignment":
        return Assignment(data.get("direction"), name or "",
                          _expr_from_json(data["value"]))
    kind = data.get("kind", "")
    if type_name.endswith("Definition"):
        cls = DEFINITION_CLASSES.get(kind)
        if cls is None:
            raise SysMLError(f"unknown definition kind {kind!r} in JSON")
        definition = cls(name, is_abstract=data.get("isAbstract", False))
        definition.specialization_names = [
            _qname(s) for s in data.get("specializes", [])]
        return definition
    if type_name.endswith("Usage"):
        cls = USAGE_CLASSES.get(kind)
        if cls is None:
            raise SysMLError(f"unknown usage kind {kind!r} in JSON")
        usage = cls(name, is_abstract=data.get("isAbstract", False))
        usage.is_reference = data.get("isReference", False)
        usage.direction = data.get("direction")
        if "multiplicity" in data:
            usage.multiplicity = Multiplicity(
                lower=data["multiplicity"]["lower"],
                upper=data["multiplicity"]["upper"])
        if "type" in data:
            usage.type_name = _qname(data["type"])
            usage.conjugated = data.get("isConjugated", False)
        usage.specialization_names = [
            _qname(s) for s in data.get("specializes", [])]
        usage.redefinition_names = [
            _qname(s) for s in data.get("redefines", [])]
        if "value" in data:
            usage.value = _expr_from_json(data["value"])
        return usage
    raise SysMLError(f"unknown element @type {type_name!r} in JSON")


def model_from_dict(data: dict, *, resolve: bool = True) -> Model:
    model = Model()
    try:
        for child_data in data.get("ownedElements", []):
            model.add_owned(element_from_dict(child_data))
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        # a missing or ill-typed key, caught here at the boundary
        raise SysMLError(f"malformed JSON model: "
                         f"{type(error).__name__}: {error}") from None
    if resolve:
        resolve_model(model)
    return model


def model_from_json(text: str, *, resolve: bool = True) -> Model:
    try:
        data = json.loads(text)
    except ValueError as error:
        raise SysMLError(f"invalid JSON model: {error}") from None
    except RecursionError:
        raise SysMLError("invalid JSON model: nested too deeply") from None
    return model_from_dict(data, resolve=resolve)


# -- expression helpers ----------------------------------------------------------

def _expr_to_json(expr: object) -> dict:
    if isinstance(expr, Literal):
        return {"@type": "Literal", "value": expr.value}
    if isinstance(expr, FeatureRefExpr):
        return {"@type": "FeatureRef", "chain": _chain_json(expr.chain)}
    raise SysMLError(f"cannot serialize expression {expr!r}")


def _expr_from_json(data: dict):
    if data.get("@type") == "Literal":
        return Literal(data["value"])
    if data.get("@type") == "FeatureRef":
        return FeatureRefExpr(_chain(data["chain"]))
    raise SysMLError(f"cannot deserialize expression {data!r}")


def _qname_json(qname: QualifiedName | str) -> str | list[str]:
    """A qualified name for JSON: the joined string normally, the raw
    part list when a part itself contains ``::`` (the join would not be
    invertible)."""
    if not isinstance(qname, QualifiedName):
        return str(qname)
    parts = list(qname.parts)
    if any("::" in part for part in parts):
        return parts
    return "::".join(parts)


def _chain_json(chain: FeatureChain | str) -> str | list[str]:
    """A feature chain for JSON; part list when a part contains '.'."""
    if not isinstance(chain, FeatureChain):
        return str(chain)
    parts = list(chain.parts)
    if any("." in part for part in parts):
        return parts
    return ".".join(parts)


def _qname(value: str | list[str]) -> QualifiedName:
    if isinstance(value, list):
        return QualifiedName(list(value))
    return QualifiedName(value.split("::"))


def _chain(value: str | list[str]) -> FeatureChain:
    if isinstance(value, list):
        return FeatureChain(list(value))
    return FeatureChain(value.split("."))
