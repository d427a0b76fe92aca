"""Modbus driver.

Modbus is the second standardized protocol the paper names (Section II).
This runtime models the essential Modbus abstraction faithfully: the
machine state is addressed as *registers* — discrete inputs/coils for
booleans, 16-bit holding/input registers for numbers (floats as two
registers, IEEE-754 big-endian word order) — and all access goes through
a register map derived from the machine spec. Strings and method calls
ride on a vendor-typical "command register + parameter block"
convention.

Implemented from scratch: register-map construction, value
encode/decode, and the driver runtime over a simulated machine.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from ..machines.catalog import DriverSpec
from ..machines.simulator import MachineSimulator, SimulationError
from .base import DriverError, SimulatorBackedDriver

#: Register layout constants (addresses are 0-based).
COIL_BASE = 0          # booleans, one coil each
HOLDING_BASE = 1000    # numeric values, 1 or 2 registers each
STRING_BASE = 30000    # strings, fixed 16-register (32-byte) slots
COMMAND_REGISTER = 40000   # write method index to invoke
PARAMETER_BASE = 40001     # method parameters (2 registers each)
RESULT_BASE = 40100        # method results
STRING_SLOT_REGISTERS = 16


@dataclass(frozen=True)
class RegisterBinding:
    """Where one machine variable lives in the register space."""

    variable: str
    data_type: str
    address: int
    count: int  # registers (or coils) occupied

    @property
    def end(self) -> int:
        return self.address + self.count


def encode_float(value: float) -> tuple[int, int]:
    """IEEE-754 float32 as two big-endian 16-bit registers."""
    packed = struct.pack(">f", value)
    high, low = struct.unpack(">HH", packed)
    return high, low


def decode_float(high: int, low: int) -> float:
    return struct.unpack(">f", struct.pack(">HH", high, low))[0]


def encode_int(value: int) -> tuple[int, int]:
    """32-bit signed integer as two registers."""
    packed = struct.pack(">i", int(value))
    high, low = struct.unpack(">HH", packed)
    return high, low


def decode_int(high: int, low: int) -> int:
    return struct.unpack(">i", struct.pack(">HH", high, low))[0]


def encode_string(value: str, slot_registers: int = STRING_SLOT_REGISTERS
                  ) -> list[int]:
    """UTF-8 bytes packed two-per-register, zero-padded."""
    raw = value.encode("utf-8")[:slot_registers * 2]
    if len(raw) % 2:
        raw += b"\x00"
    registers = [int.from_bytes(raw[i:i + 2], "big")
                 for i in range(0, len(raw), 2)]
    registers.extend([0] * (slot_registers - len(registers)))
    return registers


def decode_string(registers: list[int]) -> str:
    raw = b"".join(int(r).to_bytes(2, "big") for r in registers)
    return raw.rstrip(b"\x00").decode("utf-8", errors="replace")


def build_register_map(machine: MachineSimulator) -> dict[str, RegisterBinding]:
    """Deterministic register layout for a machine spec."""
    bindings: dict[str, RegisterBinding] = {}
    coil = COIL_BASE
    holding = HOLDING_BASE
    string_slot = STRING_BASE
    for variable in machine.spec.variables:
        if variable.data_type == "Boolean":
            bindings[variable.name] = RegisterBinding(
                variable.name, "Boolean", coil, 1)
            coil += 1
        elif variable.data_type in ("Integer", "Natural"):
            bindings[variable.name] = RegisterBinding(
                variable.name, "Integer", holding, 2)
            holding += 2
        elif variable.data_type in ("Real", "Double"):
            bindings[variable.name] = RegisterBinding(
                variable.name, "Real", holding, 2)
            holding += 2
        else:  # String
            bindings[variable.name] = RegisterBinding(
                variable.name, "String", string_slot,
                STRING_SLOT_REGISTERS)
            string_slot += STRING_SLOT_REGISTERS
    return bindings


class ModbusDriver(SimulatorBackedDriver):
    """Runtime for the generic ``ModbusDriver`` protocol."""

    protocol = "ModbusDriver"

    def __init__(self, spec: DriverSpec, machine: MachineSimulator):
        super().__init__(spec, machine)
        self.register_map = build_register_map(machine)
        self.method_index = {name: idx for idx, name
                             in enumerate(machine.service_names)}
        self.reads = 0
        self.writes = 0

    # -- raw register access (the wire level) ----------------------------------

    def read_coil(self, address: int) -> bool:
        self._ensure_connected()
        binding = self._binding_at(address, kind="Boolean")
        self.reads += 1
        return bool(self.machine.read(binding.variable))

    def read_holding_registers(self, address: int,
                               count: int) -> list[int]:
        self._ensure_connected()
        binding = self._binding_at(address)
        if count != binding.count:
            raise DriverError(
                f"partial register read at {address} "
                f"(need {binding.count}, got {count})")
        self.reads += 1
        value = self.machine.read(binding.variable)
        if binding.data_type == "Real":
            number = float(value) if isinstance(value, (int, float)) else 0.0
            if not math.isfinite(number):
                number = 0.0
            return list(encode_float(number))
        if binding.data_type == "Integer":
            return list(encode_int(int(value)))
        return encode_string(str(value))

    def _binding_at(self, address: int,
                    kind: str | None = None) -> RegisterBinding:
        for binding in self.register_map.values():
            if binding.address == address and \
                    (kind is None or binding.data_type == kind):
                return binding
        raise DriverError(f"no register mapped at address {address}")

    # -- DriverRuntime interface -------------------------------------------------

    def read_variable(self, name: str) -> object:
        self._ensure_connected()
        binding = self.register_map.get(name)
        if binding is None:
            raise DriverError(f"variable {name!r} is not in the register "
                              f"map")
        if binding.data_type == "Boolean":
            return self.read_coil(binding.address)
        registers = self.read_holding_registers(binding.address,
                                                binding.count)
        if binding.data_type == "Real":
            # float32 round trip loses precision; keep it visible
            return decode_float(*registers)
        if binding.data_type == "Integer":
            return decode_int(*registers)
        return decode_string(registers)

    def call_method(self, name: str, *args) -> tuple:
        self._ensure_connected()
        index = self.method_index.get(name)
        if index is None:
            raise DriverError(f"method {name!r} not in command table")
        self.writes += 1  # the command-register write
        try:
            results = self.machine.call(name, *args)
        except SimulationError as exc:
            raise DriverError(str(exc)) from exc
        return results
