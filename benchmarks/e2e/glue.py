"""Traced replays of the program's front end and compile path.

``load_model`` and ``generate_configuration`` are single calls; to see
their layers from outside, the traced run calls the public functions
they are made of, in the same order and with the same glue, each inside
a benchmark span. The cold workload proves the glue faithful: the
replay's output digest must equal the golden digest of an untraced
``load_model`` + ``generate_configuration`` run.
"""

from __future__ import annotations

from measure import SpanRecorder


def traced_load_model(recorder: SpanRecorder, texts: list[str], *,
                      lexer: bool = False):
    """``load_model(*texts)`` as parse / build / resolve spans.

    With *lexer*, each source is first drained through ``iter_tokens``
    in a shadow span, so the lexer's share of parsing is measured
    without changing what the parser spans time.
    """
    from repro.sysml import build_model, parse, resolve_model
    from repro.sysml.elements import Package
    from repro.sysml.lexer import iter_tokens
    from repro.sysml.resolver import model_fingerprint
    from repro.sysml.stdlib import SCALAR_VALUES_SOURCE

    sources = [SCALAR_VALUES_SOURCE, *texts]
    names = ["<stdlib>"] + [f"<model{i}>" for i in range(len(texts))]
    if lexer:
        for text, name in zip(sources, names):
            with recorder.span("sysml.lexer", shadow=True,
                               within="sysml.parser") as record:
                record["attrs"]["tokens"] = sum(
                    1 for _ in iter_tokens(text, name))
    trees = []
    for text, name in zip(sources, names):
        with recorder.span("sysml.parser", bytes=len(text)):
            trees.append(parse(text, name))
    with recorder.span("sysml.builder") as built:
        model = build_model(*trees)
        for element in model.owned_elements[:len(trees[0].members)]:
            if isinstance(element, Package):
                element.is_library = True
        model.content_fingerprint = model_fingerprint(
            sources, names, include_stdlib=True)
    with recorder.span("sysml.resolver") as resolved:
        resolve_model(model)
    elements = sum(1 for _ in model.descendants())
    built["attrs"]["elements"] = resolved["attrs"]["elements"] = elements
    return model


def traced_topology(recorder: SpanRecorder, model):
    """``extract_topology`` + ``validate_topology`` spans."""
    from repro.isa95 import extract_topology
    from repro.isa95.validation import validate_topology

    with recorder.span("isa95.topology") as extracted:
        topology = extract_topology(model)
    with recorder.span("isa95.validation") as validated:
        report = validate_topology(topology)
    machines = len(topology.machines)
    points = sum(machine.point_count for machine in topology.machines)
    extracted["attrs"].update(machines=machines, points=points)
    validated["attrs"].update(machines=machines, ok=report.ok)
    return topology, report


def traced_compile(recorder: SpanRecorder, texts: list[str], options, *,
                   lexer: bool = False):
    """``generate_configuration(load_model(*texts), options)`` by layer."""
    from repro.codegen import GenerationPipeline, group_machines

    model = traced_load_model(recorder, texts, lexer=lexer)
    topology, _ = traced_topology(recorder, model)
    # run_on_topology groups the machines again itself: this span is
    # shadow work, moved out of the pipeline's self time and the wall
    with recorder.span("codegen.grouping", shadow=True,
                       within="codegen.pipeline") as grouped:
        groups = group_machines(topology.machines, options.capacity,
                                algorithm=options.grouping)
    grouped["attrs"].update(machines=len(topology.machines),
                            clients=len(groups))
    # validation already ran in its own span
    pipeline = GenerationPipeline(options.replace(validate=False))
    with recorder.span("codegen.pipeline") as generated:
        result = pipeline.run_on_topology(topology)
    generated["attrs"]["config_bytes"] = result.config_size_bytes
    return result
