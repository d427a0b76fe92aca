"""YAML emitter/parser written from scratch (Kubernetes-manifest subset)."""

from .emitter import YamlEmitError, emit, needs_quoting
from .parser import YamlParseError, parse, parse_documents, parse_scalar

__all__ = ["YamlEmitError", "YamlParseError", "emit", "needs_quoting",
           "parse", "parse_documents", "parse_scalar"]
