"""SysML v2 textual-notation front end and semantic model.

Public API::

    from repro.sysml import load_model, parse, validate_model

    model = load_model(source_text)
    report = validate_model(model)
    report.raise_if_errors()

The subset implemented is exactly what the paper's modeling methodology
exercises (Codes 1-5 of the paper): KerML-style definition/usage pairs
for parts, attributes, ports, actions, interfaces and connections, with
specialization (``:>``), redefinition (``:>>``), port conjugation
(``~``), multiplicities, reference parts, binding connectors,
``connect``/``interface`` connectors, ``perform`` actions, packages,
imports and documentation comments.
"""

from .depgraph import (DepGraph, DepRecorder, NodeKey, ROOT_KEY,
                       anchor_key, deep_fingerprint, node_key, node_path,
                       scope_fingerprint)
from .files import (convert_model_file, load_model_file, load_model_files,
                    save_model_file)
from .elements import (Alias, Assignment, AttributeDefinition,
                       AttributeUsage, BindingConnector,
                       ConnectionDefinition, ConnectionUsage, Connector,
                       Definition, Element, EndUsage,
                       EnumerationDefinition, EnumerationLiteral, Import,
                       InterfaceDefinition, InterfaceUsage,
                       Model, Namespace, Package, PartDefinition, PartUsage,
                       PerformAction, PortDefinition, PortUsage,
                       RedefinitionUsage, Type, Usage)
from .errors import (Diagnostic, DiagnosticReport, LexerError, ParseError,
                     ResolutionError, SourceLocation, SysMLError,
                     ValidationError)
from .incremental import ModelSession, ModelUpdate, clear_resolved_state
from .instances import (ElaborationError, InstanceNode, elaborate,
                        propagate_bindings)
from .interchange import (model_from_dict, model_from_json, model_to_dict,
                          model_to_json)
from .lexer import tokenize
from .parser import build_model, parse
from .printer import print_element, print_model
from .queries import (ElementCounts, count_definition_closure,
                      instance_counts, specializations_of, usages_typed_by)
from .resolver import (content_fingerprint_of_sources, load_model,
                       resolve_model)
from .validation import validate_model

__all__ = [
    "Alias", "Assignment", "AttributeDefinition", "AttributeUsage",
    "EnumerationDefinition", "EnumerationLiteral",
    "BindingConnector", "ConnectionDefinition", "ConnectionUsage",
    "Connector", "Definition", "Diagnostic", "DiagnosticReport",
    "ElaborationError", "Element", "ElementCounts", "EndUsage", "Import",
    "InstanceNode", "InterfaceDefinition", "InterfaceUsage", "LexerError",
    "Model", "Namespace", "Package", "ParseError", "PartDefinition",
    "PartUsage", "PerformAction", "PortDefinition", "PortUsage",
    "RedefinitionUsage", "ResolutionError", "SourceLocation", "SysMLError",
    "DepGraph", "DepRecorder", "ModelSession",
    "ModelUpdate", "NodeKey", "ROOT_KEY", "anchor_key",
    "clear_resolved_state", "content_fingerprint_of_sources",
    "convert_model_file", "deep_fingerprint",
    "load_model_file", "load_model_files", "node_key",
    "node_path", "save_model_file", "scope_fingerprint",
    "Type", "Usage", "ValidationError", "build_model",
    "count_definition_closure", "elaborate", "instance_counts",
    "load_model", "model_from_dict", "model_from_json",
    "model_to_dict", "model_to_json", "parse", "print_element",
    "print_model", "propagate_bindings", "resolve_model",
    "specializations_of", "tokenize", "usages_typed_by",
    "validate_model",
]
