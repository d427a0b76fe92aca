"""Driver runtime tests: EMCO, UR, generic OPC UA, and the factory."""

import pytest

from repro.drivers import (DriverError, DriverFactory, EMCODriver,
                           OpcUaGenericDriver, URDriver, decode_value,
                           encode_value, host_machine_server)
from repro.machines import MachineSimulator
from repro.machines.catalog import DriverSpec
from repro.machines.specs import (EMCO_SPEC, SPEA_SPEC, UR5_SPEC)
from repro.opcua import UaNetwork


@pytest.fixture
def emco_sim():
    return MachineSimulator(EMCO_SPEC, seed=1)


@pytest.fixture
def emco_driver(emco_sim):
    driver = EMCODriver(EMCO_SPEC.driver, emco_sim)
    driver.connect()
    return driver


class TestWireEncoding:
    @pytest.mark.parametrize("value,data_type", [
        (1.5, "Real"), (-3, "Integer"), (True, "Boolean"),
        (False, "Boolean"), ("hello world", "String"),
        ("50%", "String"), ("", "String"),
    ])
    def test_roundtrip(self, value, data_type):
        assert decode_value(encode_value(value), data_type) == value


class TestEMCODriver:
    def test_protocol_mismatch_rejected(self, emco_sim):
        with pytest.raises(DriverError, match="implements"):
            EMCODriver(DriverSpec(protocol="URDriver"), emco_sim)

    def test_requires_ip_parameter(self, emco_sim):
        driver = EMCODriver(DriverSpec(protocol="EMCODriver"), emco_sim)
        with pytest.raises(DriverError, match="no 'ip'"):
            driver.connect()

    def test_read_variable(self, emco_driver, emco_sim):
        emco_sim.write("actual_X", 12.5)
        assert emco_driver.read_variable("actual_X") == 12.5

    def test_read_string_variable_with_spaces(self, emco_driver, emco_sim):
        emco_sim.write("error_message", "spindle over temp")
        assert emco_driver.read_variable("error_message") == \
            "spindle over temp"

    def test_read_unknown_variable(self, emco_driver):
        with pytest.raises(DriverError, match="ERR"):
            emco_driver.read_variable("bogus")

    def test_call_method(self, emco_driver):
        assert emco_driver.call_method("is_ready") == (True,)

    def test_call_with_arguments(self, emco_driver):
        assert emco_driver.call_method("move_to", 1.0, 2.0, 3.0) == (True,)

    def test_call_bad_arity(self, emco_driver):
        with pytest.raises(DriverError, match="arity"):
            emco_driver.call_method("move_to", 1.0)

    def test_requires_connection(self, emco_sim):
        driver = EMCODriver(EMCO_SPEC.driver, emco_sim)
        with pytest.raises(DriverError, match="not connected"):
            driver.read_variable("actual_X")

    def test_subscription_events(self, emco_driver, emco_sim):
        seen = []
        emco_driver.subscribe(lambda n, v: seen.append((n, v)))
        emco_sim.write("spindle_speed", 4000.0)
        assert ("spindle_speed", 4000.0) in seen

    def test_disconnect_stops_events(self, emco_driver, emco_sim):
        seen = []
        emco_driver.subscribe(lambda n, v: seen.append(n))
        emco_driver.disconnect()
        emco_sim.write("spindle_speed", 1.0)
        assert seen == []

    def test_frame_counters(self, emco_driver):
        emco_driver.read_variable("actual_X")
        emco_driver.call_method("is_ready")
        assert emco_driver.frames_sent == 2
        assert emco_driver.frames_received == 2

    def test_names(self, emco_driver):
        assert len(emco_driver.variable_names()) == 34


class TestURDriver:
    @pytest.fixture
    def ur_driver(self):
        sim = MachineSimulator(UR5_SPEC, seed=2)
        driver = URDriver(UR5_SPEC.driver, sim)
        driver.connect()
        return driver, sim

    def test_telegram_contains_all_variables(self, ur_driver):
        driver, _sim = ur_driver
        telegram = driver.receive_telegram()
        assert len(telegram) == 99

    def test_read_variable_via_telegram(self, ur_driver):
        driver, sim = ur_driver
        sim.write("base_position", 1.57)
        assert driver.read_variable("base_position") == 1.57

    def test_unknown_telegram_field(self, ur_driver):
        driver, _sim = ur_driver
        with pytest.raises(DriverError):
            driver.read_variable("bogus")

    def test_dashboard_play(self, ur_driver):
        driver, sim = ur_driver
        assert driver.send_dashboard_command("play") == "Starting program"
        assert sim.read("is_running") is True

    def test_dashboard_load_program(self, ur_driver):
        driver, _sim = ur_driver
        reply = driver.send_dashboard_command("load_program", "pickplace")
        assert reply == "Loading program: pickplace"

    def test_dashboard_unknown_command(self, ur_driver):
        driver, _sim = ur_driver
        assert "could not understand" in \
            driver.send_dashboard_command("fly")

    def test_call_method_maps_to_dashboard(self, ur_driver):
        driver, _sim = ur_driver
        assert driver.call_method("stop") == (True,)
        with pytest.raises(DriverError):
            driver.call_method("fly")


class TestOpcUaGenericDriver:
    @pytest.fixture
    def setup(self):
        network = UaNetwork()
        sim = MachineSimulator(SPEA_SPEC, seed=3)
        server = host_machine_server(
            sim, SPEA_SPEC.driver.parameters["endpoint"], network)
        driver = OpcUaGenericDriver(SPEA_SPEC.driver, "spea", network)
        driver.connect()
        yield driver, sim, server
        server.stop()

    def test_read_variable(self, setup):
        driver, sim, _server = setup
        sim.write("tests_passed", 17)
        assert driver.read_variable("tests_passed") == 17

    def test_call_method(self, setup):
        driver, _sim, _server = setup
        assert driver.call_method("is_ready") == (True,)

    def test_machine_writes_propagate_to_server(self, setup):
        driver, sim, server = setup
        sim.write("test_status", "running")
        node = server.space.browse_path("spea/data/test_status")
        assert node.value == "running"

    def test_subscription_events(self, setup):
        driver, sim, _server = setup
        seen = []
        driver.subscribe(lambda n, v: seen.append((n, v)))
        sim.write("tests_failed", 2)
        assert ("tests_failed", 2) in seen

    def test_names(self, setup):
        driver, _sim, _server = setup
        assert len(driver.variable_names()) == 3

    def test_missing_endpoint(self):
        network = UaNetwork()
        driver = OpcUaGenericDriver(
            DriverSpec(protocol="OPCUADriver"), "x", network)
        with pytest.raises(DriverError, match="endpoint"):
            driver.connect()

    def test_unreachable_endpoint(self):
        network = UaNetwork()
        driver = OpcUaGenericDriver(
            DriverSpec(protocol="OPCUADriver",
                       parameters={"endpoint": "opc.tcp://ghost:4840"}),
            "x", network)
        with pytest.raises(DriverError):
            driver.connect()


class TestDriverFactory:
    def test_creates_proper_runtimes(self):
        network = UaNetwork()
        factory = DriverFactory(network)
        emco = factory.create(EMCO_SPEC, MachineSimulator(EMCO_SPEC))
        assert isinstance(emco, EMCODriver)
        ur = factory.create(UR5_SPEC, MachineSimulator(UR5_SPEC))
        assert isinstance(ur, URDriver)
        spea = factory.create(SPEA_SPEC, MachineSimulator(SPEA_SPEC))
        assert isinstance(spea, OpcUaGenericDriver)
        factory.shutdown()

    def test_machine_server_hosted_once(self):
        network = UaNetwork()
        factory = DriverFactory(network)
        sim = MachineSimulator(SPEA_SPEC)
        factory.create(SPEA_SPEC, sim)
        factory.create(SPEA_SPEC, sim)
        assert len(factory.machine_servers) == 1
        factory.shutdown()
        assert len(network) == 0

    def test_unknown_protocol(self):
        from repro.machines.catalog import MachineSpec
        spec = MachineSpec(
            name="x", display_name="x", type_name="X", workcell="wc",
            driver=DriverSpec(protocol="Banana"))
        factory = DriverFactory(UaNetwork())
        with pytest.raises(DriverError, match="no driver runtime"):
            factory.create(spec, MachineSimulator(spec))
