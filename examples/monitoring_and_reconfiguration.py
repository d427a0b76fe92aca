"""Day-2 operations: monitoring, failures, and model-driven reconfiguration.

The paper's pipeline is not a one-shot: the model stays the source of
truth while the plant runs. This example shows the operational loop:

1. deploy the ICE lab and read ISA-95 KPIs off the historian data,
2. lose a cluster node, self-heal, verify the KPIs recover,
3. detect a machine gone silent (stale-data alarm),
4. change the *model* (a new warehouse sensor) and regenerate
   incrementally — only the touched manifests redeploy.

Run with:  python examples/monitoring_and_reconfiguration.py
"""

import copy
import tempfile

from repro.cache import ArtifactCache
from repro.codegen import IncrementalEngine, PipelineOptions
from repro.icelab import run_icelab
from repro.icelab.model_gen import icelab_sources
from repro.isa95.levels import VariableSpec
from repro.k8s import heal
from repro.machines.specs import ICE_LAB_SPECS
from repro.pipeline import smoke_test
from repro.som import KpiMonitor


def main() -> None:
    print("== deploy and warm up ==")
    result = run_icelab(smoke_steps=4, seed=5)
    monitor = KpiMonitor(result.world.store, result.topology)
    print(monitor.line_kpi().render())

    print("\n== 2. node failure and self-healing ==")
    victim = result.cluster.running_pods()[0].node
    evicted = result.cluster.fail_node(victim)
    print(f"node {victim} failed; {len(evicted)} pods evicted; "
          f"{result.cluster.stats()['pods_running']} still running")
    outcome = heal(result.cluster)
    print(f"healed: {outcome['running']} pods running "
          f"({outcome['restarted_downstream']} downstream restarts)")
    smoke = smoke_test(result, steps=3)
    print(f"factory after healing: "
          f"{'OPERATIONAL' if smoke.all_ok else 'BROKEN'} "
          f"({smoke.variables_flowing}/{smoke.variables_total} variables)")

    print("\n== 3. stale-machine alarm ==")
    checkpoint = result.world.clock
    result.world.clock += 5.0
    for name, simulator in result.world.simulators.items():
        if name != "spea":  # SPEA stops reporting
            simulator.step()
    stale = monitor.stale_machines(newer_than=checkpoint + 0.5)
    print(f"machines silent since t={checkpoint}: {stale}")

    print("\n== 4. model change -> incremental regeneration ==")
    with tempfile.TemporaryDirectory() as cache_dir:
        engine = IncrementalEngine(PipelineOptions(namespace="icelab"),
                                   cache=ArtifactCache(cache_dir))
        engine.generate(*icelab_sources())
        specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS]
        warehouse = next(s for s in specs if s.name == "warehouse")
        warehouse.categories["Storage"].append(
            VariableSpec("humidity", "Real", unit="%"))
        regenerated = engine.generate(*icelab_sources(specs))
    update = engine.last_update
    print(f"sources changed: {list(update.changed_sources)}")
    print(f"dirty model anchors: "
          f"{sorted(str(key) for key in update.changed_anchors)}")
    touched = sorted(artifact for artifact, state
                     in regenerated.provenance.items()
                     if state == "regenerated")
    reused = [artifact for artifact, state
              in regenerated.provenance.items()
              if state == "reused" and artifact.startswith("manifest:")]
    print(f"artifacts regenerated: {touched}")
    print(f"manifests reused unchanged: "
          f"{len(reused)}/{len(regenerated.manifests)}")

    result.shutdown()
    print("\ndone.")


if __name__ == "__main__":
    main()
