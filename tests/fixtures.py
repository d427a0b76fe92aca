"""Shared model sources and helpers used across the test suite.

``EMCO_WORKCELL_SOURCE`` is a faithful expansion of the paper's running
example (Codes 1-5): the ISA-95 base library, the EMCO driver/machine
specializations, and the instantiated workcell 02 topology with bound
ports and a performed method.
"""

from repro.isa95 import extract_topology
from repro.service.server import MAX_BODY_BYTES
from repro.yamlgen import emit

ISA95_BASE_SOURCE = """
package ISA95 {
    doc /* ISA-95 base library: hierarchy plus Machine/Driver abstractions. */
    abstract part def Driver {
        part def DriverParameters;
        part def DriverVariables;
        part def DriverMethods;
    }
    abstract part def MachineDriver :> Driver;
    abstract part def GenericDriver :> Driver;
    abstract part def Machine {
        part def MachineData;
        part def MachineServices;
        ref part driver : Driver;
    }
    part def Topology {
        part def Enterprise {
            part def Site {
                part def Area {
                    part def ProductionLine {
                        attribute def ProductionLineVariables;
                        part def Workcell {
                            ref part machines : Machine [*];
                            part def WorkCellVariables;
                        }
                    }
                }
            }
        }
    }
}
"""

EMCO_LIBRARY_SOURCE = """
package EMCO {
    import ISA95::*;
    part def EMCODriver :> MachineDriver {
        part def EMCOParameters :> Driver::DriverParameters {
            attribute ip : String;
            attribute ip_port : Integer;
            attribute program_file_path : String;
        }
        part def EMCOVariables :> Driver::DriverVariables {
            port def EMCOVar {
                in attribute value : Real;
                attribute description : String;
                attribute identifier : String;
            }
            part def AxesPositions;
            part def SystemStatus;
        }
        part def EMCOMethods :> Driver::DriverMethods {
            port def EMCOMethod {
                attribute description : String;
                out action operation {
                    out ready : Boolean;
                }
            }
        }
    }
    part def EMCO :> Machine {
        part def EMCOMachineData :> Machine::MachineData {
            part def AxesPositions;
            part def SystemStatus;
        }
        part def EMCOServices :> Machine::MachineServices;
    }
}
"""

EMCO_INSTANCE_SOURCE = """
part ICETopology : ISA95::Topology {
    part UniVR : ISA95::Topology::Enterprise {
        part Verona : ISA95::Topology::Enterprise::Site {
            part ICELab : ISA95::Topology::Enterprise::Site::Area {
                part ICEProductionLine :
                        ISA95::Topology::Enterprise::Site::Area::ProductionLine {
                    part workCell02 :
                            ISA95::Topology::Enterprise::Site::Area::ProductionLine::Workcell {
                        part emco : EMCO::EMCO {
                            ref part emcoDriverRef : EMCO::EMCODriver;
                            part emcoMachineData : EMCOMachineData {
                                part emcoAxesPosition : AxesPositions {
                                    attribute actualX : Real;
                                    port actual_X_EMCOVar_conj :
                                        ~EMCO::EMCODriver::EMCOVariables::EMCOVar;
                                    bind actual_X_EMCOVar_conj.value = actualX;
                                }
                                part emcoSystemStatus : SystemStatus;
                            }
                            part emcoServices : EMCOServices {
                                action isReady {
                                    out ready : Boolean;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

part emcoDriver : EMCO::EMCODriver {
    part emcoParameters : EMCOParameters {
        :>> ip = '10.197.12.11';
        :>> ip_port = 5557;
        :>> program_file_path = 'path/program/file';
    }
    part emcoVariables : EMCOVariables {
        part emcoSystemStatus : SystemStatus;
        part emcoAxesPositions : AxesPositions {
            attribute actualX : Real;
            port pp_actual_X_EMCOVar : EMCOVar;
            bind pp_actual_X_EMCOVar.value = actualX;
        }
    }
    part emcoMethods : EMCOMethods {
        action call_is_ready {
            out ready : Boolean;
            perform pp_is_ready_EMCOMthd.operation {
                out ready = call_is_ready.ready;
            }
        }
        port pp_is_ready_EMCOMthd : EMCOMethod;
    }
}
"""

EMCO_WORKCELL_SOURCE = (ISA95_BASE_SOURCE + EMCO_LIBRARY_SOURCE
                        + EMCO_INSTANCE_SOURCE)


def graph_signature(graph):
    """``(sha256, target edges, scope edges)`` of a resolution
    dependency graph: two graphs with equal signatures record the same
    edges, whatever order the resolver recorded them in."""
    import hashlib

    def edges(deps):
        return sorted((str(consumer), sorted(map(str, producers)))
                      for consumer, producers in deps.items())

    text = repr((edges(graph.target_deps), edges(graph.scope_deps)))
    return (hashlib.sha256(text.encode("utf-8")).hexdigest(),
            sum(map(len, graph.target_deps.values())),
            sum(map(len, graph.scope_deps.values())))


def front_end_signature(model):
    """Per element of *model*, in pre-order: its class, node path,
    source location and the repr of every field in its class's
    ``syntax_fields`` — what the front end wrote, nothing the process
    numbered (``element_id``, so no ``qualified_name`` either)."""
    from repro.sysml import node_path
    return [(type(element).__name__, node_path(element),
             repr(element.location),
             *(repr(getattr(element, field))
               for field in type(element).syntax_fields))
            for element in model.descendants()]


def front_end_digest(model):
    """sha256 of :func:`front_end_signature`."""
    import hashlib
    text = repr(front_end_signature(model))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rejected_revision(sources):
    """Revisions B and C of an ICE-lab source list (revision A).

    B raises the first driver's ``session_timeout_ms`` to 77777 and
    points ``siemensPlc``'s driver reference at a part that does not
    exist: it resolves, then fails topology validation with
    ``unresolved-driver``. C is B with the reference restored, so a
    cold run of C carries the 77777.
    """
    b_sources = list(sources)
    timeout = next(i for i, text in enumerate(sources)
                   if ":>> session_timeout_ms = 30000;" in text)
    b_sources[timeout] = sources[timeout].replace(
        ":>> session_timeout_ms = 30000;",
        ":>> session_timeout_ms = 77777;", 1)
    reference = next(i for i, text in enumerate(sources)
                     if "= siemensPlcDriverInstance;" in text)
    b_sources[reference] = sources[reference].replace(
        "= siemensPlcDriverInstance;", "= siemensPlcDriverInstanceGone;")
    c_sources = list(b_sources)
    c_sources[reference] = sources[reference]
    return b_sources, c_sources


#: ``Content-Length`` values neither front end may take as a body size.
MALFORMED_CONTENT_LENGTHS = ("abc", "-5", "1e3", "1_0")

#: Well-formed ``Content-Length`` values above the body cap: one byte
#: over it, and one too long for ``int()`` to convert at all.
OVERSIZED_CONTENT_LENGTHS = (str(MAX_BODY_BYTES + 1), "9" * 5000)

#: Request ``options`` that ``PipelineOptions`` refuses; each must get a
#: typed ``400 bad-option`` from a worker and from the router.
BAD_OPTIONS = ({"capacity": "abc"}, {"capacity": 0}, {"capacity": True},
               {"namespace": "Bad Name!"})
BAD_OPTION_IDS = ("capacity-abc", "capacity-0", "capacity-true",
                  "namespace-bad-name")


def post_with_content_length(port, value, body=b"part def X;"):
    """``POST /v1/generate`` over a raw socket with a verbatim
    ``Content-Length: value`` header; returns ``(status, document)``.

    A client library would refuse to send a malformed length, so the
    request is written by hand.
    """
    import json
    import socket

    request = (b"POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               b"Content-Type: text/plain\r\n"
               b"Content-Length: " + value.encode("ascii") + b"\r\n\r\n"
               + body)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        response = sock.makefile("rb")
        status_line = response.readline()
        assert status_line, "connection closed without a response"
        headers = {}
        while (line := response.readline()) not in (b"\r\n", b""):
            name, _, field_value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = field_value.strip()
        payload = response.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), json.loads(payload)


def emit_documents(documents):
    """A ``---``-separated multi-document YAML stream: the inverse of
    :func:`repro.yamlgen.parse_documents`."""
    return "---\n" + "---\n".join(emit(doc) for doc in documents)


def icelab_topology(model=None):
    """The extracted ISA-95 topology of the ICE lab."""
    from repro.icelab import icelab_model
    return extract_topology(model if model is not None else icelab_model())
