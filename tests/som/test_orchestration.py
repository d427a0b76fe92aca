"""Service registry, production process, and orchestrator tests."""

import pytest

from repro.broker import MessageBroker
from repro.isa95.levels import (ArgumentSpec, DriverInfo, FactoryTopology,
                                MachineInfo, ServiceSpec, WorkcellInfo)
from repro.som import (MachineService, OrchestrationError, Orchestrator,
                       ProductionProcess, ServiceLookupError,
                       ServiceRegistry)


def mini_topology():
    topology = FactoryTopology(enterprise="e", site="s", area="ICELab",
                               production_lines=["line1"])
    workcell = WorkcellInfo(name="wc1", production_line="line1")
    workcell.machines.append(MachineInfo(
        name="mill", type_name="Mill", workcell="wc1",
        services=[
            ServiceSpec("is_ready",
                        outputs=[ArgumentSpec("ready", "Boolean")]),
            ServiceSpec("start",
                        inputs=[ArgumentSpec("program", "String")],
                        outputs=[ArgumentSpec("ok", "Boolean")]),
        ],
        driver=DriverInfo(name="d", protocol="P")))
    topology.workcells.append(workcell)
    return topology


@pytest.fixture
def registry():
    return ServiceRegistry.from_topology(mini_topology(), "icelab/line1")


class TestServiceRegistry:
    def test_services_registered_with_topics(self, registry):
        service = registry.lookup("mill", "is_ready")
        assert service.topic == "icelab/line1/wc1/mill/services/is_ready"
        assert service.output_names == ("ready",)

    def test_lookup_missing(self, registry):
        with pytest.raises(ServiceLookupError):
            registry.lookup("mill", "fly")
        with pytest.raises(ServiceLookupError):
            registry.lookup("ghost", "is_ready")

    def test_machines_listing(self, registry):
        assert registry.machines() == ["mill"]

    def test_duplicate_registration_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register(MachineService(
                machine="mill", workcell="wc1", name="is_ready",
                topic="x"))

    def test_len_and_iter(self, registry):
        assert len(registry) == 2
        assert {s.qualified_name for s in registry} == \
            {"mill.is_ready", "mill.start"}


class TestProductionProcess:
    def test_add_step_chained(self):
        process = ProductionProcess("p").add_step(
            "mill", "start", "prog.nc").add_step("mill", "is_ready")
        assert len(process) == 2
        assert process.steps[0].args == ("prog.nc",)

    def test_validate_against_registry(self, registry):
        good = ProductionProcess("ok").add_step("mill", "start", "p.nc")
        assert good.validate_against(registry) == []
        bad = ProductionProcess("bad").add_step("mill", "fly")
        assert bad.validate_against(registry) == ["mill.fly"]

    def test_validate_detects_arity(self, registry):
        process = ProductionProcess("p").add_step("mill", "start")
        problems = process.validate_against(registry)
        assert problems and "arity" in problems[0]


class TestOrchestrator:
    @pytest.fixture
    def served(self, registry):
        broker = MessageBroker()
        from repro.broker import BrokerClient
        responder = BrokerClient(broker, "bridge")
        calls = []

        def handle(topic, request):
            calls.append((topic, request.get("args")))
            if topic.endswith("is_ready"):
                return {"ok": True, "outputs": [True]}
            if request.get("args") == ["bad.nc"]:
                return {"ok": False, "error": "no such program"}
            return {"ok": True, "outputs": [True]}

        responder.serve("icelab/line1/wc1/mill/services/+", handle)
        return Orchestrator(registry, broker), calls

    def test_invoke(self, served):
        orchestrator, calls = served
        assert orchestrator.invoke("mill", "is_ready") == [True]
        assert calls[-1][0].endswith("is_ready")

    def test_invoke_failure_raises(self, served):
        orchestrator, _ = served
        with pytest.raises(OrchestrationError, match="no such program"):
            orchestrator.invoke("mill", "start", "bad.nc")

    def test_invoke_unreachable_raises(self, registry):
        orchestrator = Orchestrator(registry, MessageBroker())
        with pytest.raises(OrchestrationError, match="unreachable"):
            orchestrator.invoke("mill", "is_ready")

    def test_execute_process(self, served):
        orchestrator, _ = served
        process = (ProductionProcess("job")
                   .add_step("mill", "is_ready")
                   .add_step("mill", "start", "good.nc"))
        result = orchestrator.execute(process)
        assert result.ok
        assert result.completed_steps == 2

    def test_execute_stops_on_error(self, served):
        orchestrator, calls = served
        process = (ProductionProcess("job")
                   .add_step("mill", "start", "bad.nc")
                   .add_step("mill", "is_ready"))
        result = orchestrator.execute(process)
        assert not result.ok
        assert result.completed_steps == 0
        assert len(result.steps) == 1  # stopped early

    def test_execute_continue_on_error(self, served):
        orchestrator, _ = served
        process = (ProductionProcess("job")
                   .add_step("mill", "start", "bad.nc")
                   .add_step("mill", "is_ready"))
        result = orchestrator.execute(process, stop_on_error=False)
        assert len(result.steps) == 2
        assert result.steps[1].ok

    def test_execute_rejects_unknown_services_upfront(self, served):
        orchestrator, calls = served
        process = ProductionProcess("job").add_step("mill", "fly")
        with pytest.raises(OrchestrationError, match="unknown services"):
            orchestrator.execute(process)
        assert calls == []  # nothing was invoked
