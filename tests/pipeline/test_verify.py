"""Model-vs-deployment conformance tests (the paper's consistency claim)."""

import pytest

from repro.icelab import run_icelab
from repro.isa95.levels import VariableSpec
from repro.pipeline import verify_conformance


@pytest.fixture(scope="module")
def deployed():
    result = run_icelab(smoke_steps=4, seed=13)
    yield result
    result.shutdown()


class TestConsistentDeployment:
    def test_fresh_deployment_is_conformant(self, deployed):
        report = verify_conformance(deployed)
        assert report.ok, report.render()

    def test_all_quantities_checked(self, deployed):
        report = verify_conformance(deployed)
        assert report.checked_variables == 498
        assert report.checked_methods == 66
        assert report.checked_services == 66
        assert report.checked_pods == 14

    def test_render_ok(self, deployed):
        text = verify_conformance(deployed).render()
        assert "consistent" in text


class TestDriftDetection:
    def test_missing_server_detected(self, deployed):
        # take workcell01's server down
        from repro.codegen.machine_config import workcell_endpoint
        server = deployed.world.network.lookup(
            workcell_endpoint("workCell01"))
        server.stop()
        try:
            report = verify_conformance(deployed, require_data=False)
            assert not report.ok
            assert any(f.check == "variable-node"
                       and "no OPC UA server" in f.message
                       for f in report.findings)
        finally:
            server.start()

    def test_model_extension_detected_as_missing_node(self, deployed):
        # add a variable to the *model topology* without redeploying
        machine = deployed.topology.machine("warehouse")
        machine.variables.append(VariableSpec("ghost_sensor", "Real"))
        try:
            report = verify_conformance(deployed, require_data=False)
            assert any(f.check == "variable-node"
                       and "ghost_sensor" in f.subject
                       for f in report.findings)
        finally:
            machine.variables.pop()

    def test_orphan_node_detected(self, deployed):
        # add a UA node the model does not know about
        from repro.codegen.machine_config import workcell_endpoint
        server = deployed.world.network.lookup(
            workcell_endpoint("workCell05"))
        data = server.space.browse_path("warehouse/data")
        node = server.add_variable(data, "rogue", data_type="Real",
                                   namespace=2)
        try:
            report = verify_conformance(deployed, require_data=False)
            assert any(f.check == "orphan-node" and "rogue" in f.subject
                       for f in report.findings)
        finally:
            data.children.remove(node)
            server.space._nodes.pop(node.node_id, None)

    def test_missing_responder_detected(self, deployed):
        # disconnect one bridge: its services lose their responders
        bridge_pod = next(p for p in deployed.cluster.running_pods()
                          if p.labels.get("component") == "opcua-client")
        bridge_pod.component.broker_client.disconnect()
        try:
            report = verify_conformance(deployed, require_data=False)
            assert any(f.check == "service-responder"
                       for f in report.findings)
        finally:
            # restore by redeploying the bridge
            from repro.k8s import heal
            deployed.cluster.delete_pod(bridge_pod)
            heal(deployed.cluster)

    def test_pod_shortfall_detected(self, deployed):
        pod = deployed.cluster.running_pods()[0]
        deployed.cluster.delete_pod(pod)
        try:
            report = verify_conformance(deployed, require_data=False)
            assert any(f.check == "pod-per-component"
                       for f in report.findings)
        finally:
            from repro.k8s import heal
            heal(deployed.cluster)

    def test_deployment_conformant_again_after_healing(self, deployed):
        report = verify_conformance(deployed, require_data=False)
        assert report.ok, report.render()
