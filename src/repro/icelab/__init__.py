"""The ICE Laboratory guiding example: model generator and entry points."""

from .factory import icelab_model, run_icelab
from .model_gen import (generate_driver_instance, generate_library,
                        generate_machine_instance, generate_topology_source,
                        icelab_model_text, icelab_sources, load_icelab_model)

__all__ = [
    "generate_driver_instance", "generate_library",
    "generate_machine_instance", "generate_topology_source",
    "icelab_model", "icelab_model_text", "icelab_sources",
    "load_icelab_model", "run_icelab",
]
