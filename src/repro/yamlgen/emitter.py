"""YAML emitter (from scratch, block style).

Supports the subset Kubernetes manifests need: mappings, sequences,
scalars (str/int/float/bool/None), nesting, and multi-document streams.
Strings are quoted whenever a bare rendering would be re-parsed as a
different type or break the syntax.
"""

from __future__ import annotations

_INDENT = "  "

#: Words that would be re-parsed as non-string scalars (any case mix).
_SPECIAL_WORDS = {"true", "false", "yes", "no", "on", "off", "null",
                  "none", "nan", "inf", "~", ""}
_SYNTAX_CHARS = set(":#{}[],&*!|>'\"%@`")


class YamlEmitError(ValueError):
    pass


def needs_quoting(text: str) -> bool:
    """Would *text* be misread if emitted bare?"""
    if text.lower() in _SPECIAL_WORDS:
        return True
    if text != text.strip():
        return True
    if text[0] in "-?! " or text[0].isdigit() or text[0] in "+.":
        return True
    if any(ch in _SYNTAX_CHARS for ch in text):
        return True
    if "\n" in text or "\t" in text:
        return True
    if ": " in text or " #" in text:
        return True
    try:
        float(text)
        return True
    except ValueError:
        pass
    return False


def _scalar(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        return text
    if isinstance(value, str):
        if needs_quoting(value):
            escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                       .replace("\n", "\\n").replace("\t", "\\t"))
            return f'"{escaped}"'
        return value
    raise YamlEmitError(f"cannot emit scalar of type {type(value).__name__}")


def _is_scalar(value: object) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _emit_node(value: object, lines: list[str], depth: int) -> None:
    pad = _INDENT * depth
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}{{}}")
            return
        for key, item in value.items():
            if not isinstance(key, str):
                raise YamlEmitError(
                    f"mapping keys must be strings, got {key!r}")
            rendered_key = _scalar(key) if not needs_quoting(key) else _scalar(key)
            if _is_scalar(item):
                lines.append(f"{pad}{rendered_key}: {_scalar(item)}")
            elif isinstance(item, (dict, list)) and not item:
                empty = "{}" if isinstance(item, dict) else "[]"
                lines.append(f"{pad}{rendered_key}: {empty}")
            else:
                lines.append(f"{pad}{rendered_key}:")
                _emit_node(item, lines, depth + 1)
        return
    if isinstance(value, (list, tuple)):
        if not value:
            lines.append(f"{pad}[]")
            return
        for item in value:
            if _is_scalar(item):
                lines.append(f"{pad}- {_scalar(item)}")
            elif isinstance(item, dict) and item:
                # inline the first key after the dash, K8s style
                sub: list[str] = []
                _emit_node(item, sub, depth + 1)
                first = sub[0][len(_INDENT) * (depth + 1):]
                lines.append(f"{pad}- {first}")
                lines.extend(sub[1:])
            elif isinstance(item, (dict, list)) and not item:
                empty = "{}" if isinstance(item, dict) else "[]"
                lines.append(f"{pad}- {empty}")
            else:
                sub = []
                _emit_node(item, sub, depth + 1)
                first = sub[0][len(_INDENT) * (depth + 1):]
                lines.append(f"{pad}- {first}")
                lines.extend(sub[1:])
        return
    if _is_scalar(value):
        lines.append(f"{pad}{_scalar(value)}")
        return
    raise YamlEmitError(f"cannot emit value of type {type(value).__name__}")


def emit(value: object) -> str:
    """Render one document."""
    lines: list[str] = []
    _emit_node(value, lines, 0)
    return "\n".join(lines) + "\n"
