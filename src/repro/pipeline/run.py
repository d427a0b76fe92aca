"""The end-to-end methodology of Figure 1.

``model -> automatic toolchain -> configured smart factory``:

1. generate the SysML v2 model from the machine catalog and load it
   through the full front end;
2. run the two-step configuration generation;
3. stand up the plant floor (machine simulators + their networks) and a
   simulated Kubernetes cluster;
4. deploy the generated manifests; every pod starts its real simulated
   software component;
5. smoke-test the running factory: machine data must flow end-to-end
   into the database, and every machine's services must be invocable
   through the broker (the SOM property).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen import (DEFAULT_CLIENT_CAPACITY, GenerationResult,
                       PipelineOptions, generate_configuration, topic_root)
from ..isa95.levels import FactoryTopology
from ..k8s import Cluster, deploy_manifests, make_component_factory
from ..machines.catalog import MachineSpec
from ..som import (FactoryWorld, OrchestrationError, Orchestrator,
                   ServiceLookupError, ServiceRegistry)
from ..sysml.elements import Model


@dataclass
class SmokeReport:
    """What the post-deployment functional check observed."""

    pods_running: int = 0
    pods_failed: int = 0
    pods_pending: int = 0
    variables_total: int = 0
    variables_flowing: int = 0
    machines_with_data: int = 0
    machines_total: int = 0
    services_invoked: int = 0
    services_failed: int = 0
    data_points_stored: int = 0

    @property
    def all_ok(self) -> bool:
        return (self.pods_failed == 0 and self.pods_pending == 0
                and self.services_failed == 0
                and self.machines_with_data == self.machines_total
                and self.variables_flowing > 0)


@dataclass
class EndToEndResult:
    model: Model
    generation: GenerationResult
    world: FactoryWorld
    cluster: Cluster
    registry: ServiceRegistry
    orchestrator: Orchestrator
    smoke: SmokeReport = field(default_factory=SmokeReport)

    @property
    def topology(self) -> FactoryTopology:
        return self.generation.topology

    def shutdown(self) -> None:
        self.cluster.shutdown()
        self.world.driver_factory.shutdown()


def run_factory(specs: list[MachineSpec], *,
                capacity: int = DEFAULT_CLIENT_CAPACITY,
                namespace: str = "factory",
                smoke_steps: int = 5,
                seed: int = 0) -> EndToEndResult:
    """Run the whole Figure-1 flow for a list of machine specs."""
    from ..icelab.model_gen import load_icelab_model

    model = load_icelab_model(specs)
    generation = generate_configuration(
        model, options=PipelineOptions(capacity=capacity,
                                       namespace=namespace))
    world = FactoryWorld.for_specs(specs, seed=seed)
    cluster = Cluster(component_factory=make_component_factory(world))
    deploy_manifests(cluster, generation.manifests)
    registry = ServiceRegistry.from_topology(
        generation.topology, topic_root(generation.topology))
    orchestrator = Orchestrator(registry, world.broker)
    result = EndToEndResult(model=model, generation=generation, world=world,
                            cluster=cluster, registry=registry,
                            orchestrator=orchestrator)
    result.smoke = smoke_test(result, steps=smoke_steps)
    return result


def smoke_test(result: EndToEndResult, *, steps: int = 5) -> SmokeReport:
    """Exercise the deployed factory and report what worked."""
    report = SmokeReport()
    stats = result.cluster.stats()
    report.pods_running = stats["pods_running"]
    report.pods_failed = stats["pods_failed"]
    report.pods_pending = stats["pods_pending"]

    topology = result.topology
    report.machines_total = len(topology.machines)
    report.variables_total = sum(len(m.variables)
                                 for m in topology.machines)

    # 1. let the plant run: every step perturbs machine variables, which
    #    must propagate driver -> workcell server -> bridge -> broker ->
    #    historian -> time-series store.
    for _ in range(steps):
        result.world.step()

    flowing = result.world.store.series("machine_data")
    report.variables_flowing = len(flowing)
    report.data_points_stored = result.world.store.stats()["points"]
    machines_seen = {series.tags.get("machine") for series in flowing}
    report.machines_with_data = sum(
        1 for machine in topology.machines if machine.name in machines_seen)

    # 2. invoke one service per machine through the broker (SOM check).
    for machine in topology.machines:
        if not machine.services:
            continue
        service = machine.services[0]
        args = [_default_argument(a.data_type) for a in service.inputs]
        try:
            result.orchestrator.invoke(machine.name, service.name, *args)
            report.services_invoked += 1
        except (OrchestrationError, ServiceLookupError):
            # a failing service is a smoke *finding*, not a crash; any
            # other exception is a harness bug and must propagate
            report.services_failed += 1
    return report


def _default_argument(data_type: str):
    return {"Boolean": False, "Integer": 0, "Natural": 0,
            "Real": 0.0, "Double": 0.0}.get(data_type, "smoke")
