"""One cold-x10 sample: a fresh interpreter compiles the x10 sources.

Usage: ``python cold_child.py SOURCE_DIR [--trace]`` with ``src`` on
``PYTHONPATH``. Prints one JSON line: when the imports and the compile
ran (``time.perf_counter`` intervals, so the parent can put them at the
reference speed), peak RSS, the output digest and the topology counts;
with ``--trace`` the compile runs layer by layer
(``glue.traced_compile``) and the line carries the spans.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import repro.codegen  # noqa: E402,F401
import repro.sysml  # noqa: E402,F401

_IMPORTED = time.perf_counter()

from measure import SpanRecorder, output_digest, peak_rss_mb  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.codegen import PipelineOptions, generate_configuration
    from repro.sysml import load_model

    source_dir = Path(argv[0])
    traced = "--trace" in argv[1:]
    texts = [path.read_text() for path in sorted(source_dir.glob("*.sysml"))]
    options = PipelineOptions()
    recorder = SpanRecorder()
    if traced:
        from glue import traced_compile
        with recorder.gc_attribution():
            result = traced_compile(recorder, texts, options, lexer=True)
        # the compile is what the layer spans cover; the shadow work
        # and the bookkeeping between spans are not part of it
        compiled = [(s["start"], s["end"]) for s in recorder.spans
                    if s["parent"] is None and not s["attrs"].get("shadow")]
    else:
        started = time.perf_counter()
        result = generate_configuration(load_model(*texts), options)
        compiled = [(started, time.perf_counter())]
    machines = result.topology.machines
    print(json.dumps({
        "imported": (_STARTED, _IMPORTED),
        "compiled": compiled,
        "rss_mb": peak_rss_mb(),
        "digest": output_digest(result),
        "machines": len(machines),
        "points": sum(machine.point_count for machine in machines),
        "servers": result.opcua_server_count,
        "clients": result.opcua_client_count,
        "spans": recorder.spans,
        "gc_unattributed_s": recorder.gc_unattributed_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
