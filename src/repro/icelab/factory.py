"""Convenience entry points for the ICE Laboratory guiding example."""

from __future__ import annotations

from ..codegen import DEFAULT_CLIENT_CAPACITY
from ..isa95 import FactoryTopology, extract_topology
from ..machines.specs import ICE_LAB_SPECS
from ..pipeline import EndToEndResult, run_factory
from ..sysml.elements import Model
from .model_gen import load_icelab_model


def icelab_model() -> Model:
    """The full ICE Laboratory SysML v2 model, parsed and resolved."""
    return load_icelab_model()


def icelab_topology(model: Model | None = None) -> FactoryTopology:
    """The extracted ISA-95 topology of the ICE lab."""
    return extract_topology(model if model is not None else icelab_model())


def run_icelab(*, capacity: int = DEFAULT_CLIENT_CAPACITY,
               smoke_steps: int = 5, seed: int = 0) -> EndToEndResult:
    """The complete Figure-1 flow on the ICE Laboratory."""
    return run_factory(list(ICE_LAB_SPECS), capacity=capacity,
                       namespace="icelab", smoke_steps=smoke_steps,
                       seed=seed)
