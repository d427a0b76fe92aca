"""Model file I/O: ``.sysml`` textual notation and ``.json`` interchange.

Convenience layer over the parser/printer/interchange modules so tools
(and the CLI ``convert`` command) can move models between the two
on-disk representations.
"""

from __future__ import annotations

from pathlib import Path

from .elements import Model
from .errors import SysMLError
from .interchange import model_from_json, model_to_json
from .printer import print_model
from .resolver import load_model

TEXT_SUFFIXES = (".sysml", ".kerml", ".txt")
JSON_SUFFIXES = (".json",)


def load_model_file(path: str | Path, *, include_stdlib: bool = True,
                    cache=None) -> Model:
    """Load a model from a ``.sysml`` or ``.json`` file (by suffix).

    *cache* (an :class:`~repro.cache.ArtifactCache`) reuses the parse
    tree across runs when the file content is unchanged.
    """
    path = Path(path)
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix in JSON_SUFFIXES:
        return model_from_json(text)
    if suffix in TEXT_SUFFIXES or not suffix:
        return load_model(text, filenames=[str(path)],
                          include_stdlib=include_stdlib, cache=cache)
    raise SysMLError(
        f"unknown model file suffix {suffix!r} "
        f"(expected one of {TEXT_SUFFIXES + JSON_SUFFIXES})")


def load_model_files(*paths: str | Path, include_stdlib: bool = True,
                     cache=None) -> Model:
    """Load several ``.sysml`` sources into one model.

    *cache* passes through to :func:`~repro.sysml.resolver.load_model`:
    per-file parse trees are cached on content.
    """
    texts: list[str] = []
    names: list[str] = []
    for path in paths:
        path = Path(path)
        if path.suffix.lower() in JSON_SUFFIXES:
            raise SysMLError(
                "load_model_files only combines textual sources; "
                f"got {path}")
        texts.append(path.read_text())
        names.append(str(path))
    return load_model(*texts, filenames=names,
                      include_stdlib=include_stdlib, cache=cache)


def save_model_file(model: Model, path: str | Path,
                    *, include_library: bool = False) -> Path:
    """Write a model as ``.sysml`` text or ``.json`` (by suffix)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in JSON_SUFFIXES:
        path.write_text(model_to_json(model) + "\n")
        return path
    if suffix in TEXT_SUFFIXES or not suffix:
        if include_library:
            path.write_text(print_model(model))
        else:
            from .printer import print_element
            parts = [print_element(e) for e in model.owned_elements
                     if not getattr(e, "is_library", False)]
            path.write_text("".join(parts))
        return path
    raise SysMLError(f"unknown model file suffix {suffix!r}")


def convert_model_file(source: str | Path, destination: str | Path) -> Path:
    """Convert between textual notation and JSON interchange."""
    model = load_model_file(source)
    return save_model_file(model, destination)
