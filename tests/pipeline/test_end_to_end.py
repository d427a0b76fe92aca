"""End-to-end (Figure 1) and Table I report tests.

The full ICE-lab deployment is exercised once per test session (it
stands up 10 machines, 6 UA servers, 4 bridges, 4 historians on the
simulated cluster) and inspected from many angles.
"""

import pytest

from repro.codegen.machine_config import workcell_endpoint
from repro.icelab import run_icelab
from repro.som import ProductionProcess


@pytest.fixture(scope="module")
def deployed():
    result = run_icelab(smoke_steps=5, seed=42)
    yield result
    result.shutdown()


class TestDeployment:
    def test_all_pods_running(self, deployed):
        stats = deployed.cluster.stats()
        assert stats["pods_failed"] == 0
        assert stats["pods_pending"] == 0
        assert stats["pods_running"] == 14  # 6 servers + 4 clients + 4 hist

    def test_smoke_all_ok(self, deployed):
        assert deployed.smoke.all_ok

    def test_every_variable_flows_to_database(self, deployed):
        assert deployed.smoke.variables_flowing == 498
        assert deployed.smoke.machines_with_data == 10

    def test_every_machine_service_invocable(self, deployed):
        assert deployed.smoke.services_invoked == 10
        assert deployed.smoke.services_failed == 0

    def test_six_ua_servers_listening(self, deployed):
        workcells = {m.workcell for m in deployed.topology.machines}
        assert len(workcells) == 6
        for workcell in workcells:
            server = deployed.world.network.lookup(workcell_endpoint(workcell))
            assert server.running

    def test_data_tagged_with_isa95_coordinates(self, deployed):
        series = deployed.world.store.series(
            "machine_data", tags={"machine": "emco"})
        assert series
        assert all(s.tags["workcell"] == "workcell02" for s in series)


class TestServiceInvocation:
    def test_direct_invoke(self, deployed):
        outputs = deployed.orchestrator.invoke("emco", "is_ready")
        assert outputs == [True] or outputs == [False]

    def test_invoke_with_arguments(self, deployed):
        outputs = deployed.orchestrator.invoke("conveyor", "route_pallet",
                                               7, 12)
        assert outputs == [True]

    def test_production_process_across_machines(self, deployed):
        process = (ProductionProcess("assemble-and-check")
                   .add_step("warehouse", "fetch_tray", 4)
                   .add_step("kairos2", "move_to", 0.5, 1.5)
                   .add_step("ur5", "load_program", "pick")
                   .add_step("ur5", "play")
                   .add_step("siemensPlc", "start_cycle")
                   .add_step("qcPc", "inspect", "unit-1"))
        result = deployed.orchestrator.execute(process)
        assert result.ok
        assert result.completed_steps == 6

    def test_process_effects_visible_in_machine(self, deployed):
        deployed.orchestrator.invoke("ur5", "play")
        assert deployed.world.simulators["ur5"].read("is_running") is True
        deployed.orchestrator.invoke("ur5", "stop")
        assert deployed.world.simulators["ur5"].read("is_running") is False


class TestTable1Report:
    @pytest.fixture(scope="class")
    def report(self, deployed):
        from repro.pipeline import build_table1_report
        return build_table1_report(deployed.model, deployed.topology,
                                   deployed.generation)

    def test_rows_for_all_machines(self, report):
        assert len(report.rows) == 10

    def test_port_instances_double_the_points(self, report):
        # the modeling strategy yields a machine-side and a driver-side
        # port per data point — exactly the paper's numbers for EMCO,
        # UR5e, PLC, QC PC, warehouse, SPEA and conveyor
        for machine, expected in [("emco", 106), ("ur5", 206),
                                  ("siemensPlc", 68), ("qcPc", 30),
                                  ("warehouse", 16), ("spea", 16),
                                  ("conveyor", 612)]:
            assert report.row(machine).port_instances == expected, machine

    def test_variables_services_columns(self, report):
        row = report.row("conveyor")
        assert row.machine_variables == 296
        assert row.machine_services == 10

    def test_conveyor_dominates_counts(self, report):
        conveyor = report.row("conveyor")
        for row in report.rows:
            if row.machine == "conveyor":
                continue
            assert conveyor.attribute_instances >= row.attribute_instances
            assert conveyor.port_instances >= row.port_instances

    def test_attribute_ratio_in_paper_band(self, report):
        # paper ratios: 4.0 (conveyor) .. 6.2 (SPEA); ours must stay in
        # the same modeling regime (a few attributes per data point)
        for row in report.rows:
            points = row.machine_variables + row.machine_services
            ratio = row.attribute_instances / points
            assert 2.0 <= ratio <= 8.0, (row.machine, ratio)

    def test_summary_row(self, report):
        assert report.opcua_servers == 6
        assert report.opcua_clients == 4
        assert report.generation_time_s < 30
        assert 200 <= report.config_size_kb <= 1500

    def test_render_contains_all_machines(self, report):
        text = report.render()
        for machine in ("emco", "ur5", "conveyor"):
            assert machine in text
        assert "OPC UA servers: 6" in text

    def test_row_lookup_missing(self, report):
        with pytest.raises(KeyError):
            report.row("ghost")


class TestDiagrams:
    def test_figure1_renders(self, deployed):
        from repro.diagrams import overview_ascii, overview_dot
        dot = overview_dot(deployed.generation)
        assert "digraph methodology" in dot
        assert "10 machines" in dot
        ascii_art = overview_ascii(deployed.generation)
        assert "SysML v2 model" in ascii_art
        assert "6 UA servers" in ascii_art

    def test_figure2_measures_emco(self, deployed):
        from repro.diagrams import (connections_ascii, connections_dot,
                                    measure_connections)
        figure = measure_connections(deployed.model, "emco",
                                     "emcoDriverInstance")
        assert figure.machine_data_ports == 34
        assert figure.machine_service_ports == 19
        assert figure.driver_variable_ports == 34
        assert figure.driver_method_ports == 19
        assert figure.balanced
        assert figure.total_ports == 106  # the Table-I EMCO cell
        assert "EMCODriver" in connections_dot(figure)
        assert "balanced: True" in connections_ascii(figure)

    def test_figure2_unknown_machine(self, deployed):
        from repro.diagrams import measure_connections
        with pytest.raises(KeyError):
            measure_connections(deployed.model, "ghost", "emcoDriver")
