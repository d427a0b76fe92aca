"""Service-Oriented Manufacturing layer: components, services, processes."""

from .components import (ComponentError, FactoryWorld, HistorianComponent,
                         UaBrokerBridgeComponent, WorkcellServerComponent)
from .kpi import KpiMonitor, LineKpi, WorkcellKpi
from .orchestrator import (OrchestrationError, Orchestrator, ProcessResult,
                           StepResult)
from .process import ProcessStep, ProductionProcess
from .services import MachineService, ServiceLookupError, ServiceRegistry

__all__ = [
    "ComponentError", "FactoryWorld", "HistorianComponent",
    "KpiMonitor", "LineKpi", "WorkcellKpi",
    "MachineService", "OrchestrationError", "Orchestrator",
    "ProcessResult", "ProcessStep", "ProductionProcess",
    "ServiceLookupError", "ServiceRegistry", "StepResult",
    "UaBrokerBridgeComponent", "WorkcellServerComponent",
]
