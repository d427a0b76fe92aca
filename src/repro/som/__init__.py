"""Service-Oriented Manufacturing layer: components, services, processes."""

from .components import (ComponentError, FactoryWorld, HistorianComponent,
                         UaBrokerBridgeComponent, WorkcellServerComponent)
from .kpi import KpiMonitor, LineKpi, WorkcellKpi
from .orchestrator import (OrchestrationError, Orchestrator, ProcessResult,
                           StepResult)
from .process import ProcessStep, ProductionProcess
from .scheduler import (Schedule, ScheduledStep, Scheduler, SchedulingError)
from .services import MachineService, ServiceLookupError, ServiceRegistry

__all__ = [
    "ComponentError", "FactoryWorld", "HistorianComponent",
    "KpiMonitor", "LineKpi", "WorkcellKpi",
    "MachineService", "OrchestrationError", "Orchestrator",
    "ProcessResult", "ProcessStep", "ProductionProcess",
    "Schedule", "ScheduledStep", "Scheduler", "SchedulingError",
    "ServiceLookupError", "ServiceRegistry", "StepResult",
    "UaBrokerBridgeComponent", "WorkcellServerComponent",
]
