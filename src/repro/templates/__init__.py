"""Minimal template engine + built-in Kubernetes manifest templates."""

from .engine import Template, TemplateError, k8s_name, render
from .library import TEMPLATE_SOURCES, get_template

__all__ = ["TEMPLATES", "TEMPLATE_SOURCES", "Template", "TemplateError",
           "get_template", "k8s_name", "render"]


def __getattr__(name: str):
    if name == "TEMPLATES":
        from . import library
        return library.TEMPLATES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
