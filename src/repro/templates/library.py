"""Built-in Kubernetes manifest templates.

One template per software-component type of the paper's stack. Each
renders a multi-document YAML stream with the resources the component
needs in the cluster: a ConfigMap embedding the intermediate JSON
configuration, a Deployment running the component image, and (for OPC UA
servers) a Service exposing the endpoint.

Context contract (produced by :mod:`repro.codegen`):

``component``  mapping with ``name``, ``kind``, ``image``, ``replicas``,
               ``config_json`` (the serialized intermediate JSON) and
               optionally ``port``.
"""

from __future__ import annotations

import functools

from .engine import Template

OPCUA_SERVER_TEMPLATE = """\
---
apiVersion: v1
kind: ConfigMap
metadata:
  name: {{ component.name | k8s_name }}-config
  namespace: {{ namespace }}
  labels:
    app: {{ component.name | k8s_name }}
    component: opcua-server
    managed-by: sysmlv2-factory-config
data:
  config.json: {{ component.config_json | json | yaml_str }}
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ component.name | k8s_name }}
  namespace: {{ namespace }}
  labels:
    app: {{ component.name | k8s_name }}
    component: opcua-server
spec:
  replicas: {{ component.replicas }}
  selector:
    matchLabels:
      app: {{ component.name | k8s_name }}
  template:
    metadata:
      labels:
        app: {{ component.name | k8s_name }}
        component: opcua-server
    spec:
      containers:
        - name: opcua-server
          image: {{ component.image }}
          ports:
            - containerPort: {{ component.port }}
          env:
            - name: CONFIG_PATH
              value: /etc/factory/config.json
          volumeMounts:
            - name: config
              mountPath: /etc/factory
          resources:
            requests:
              cpu: {{ component.cpu_request }}
              memory: {{ component.memory_request }}
      volumes:
        - name: config
          configMap:
            name: {{ component.name | k8s_name }}-config
---
apiVersion: v1
kind: Service
metadata:
  name: {{ component.name | k8s_name }}
  namespace: {{ namespace }}
  labels:
    app: {{ component.name | k8s_name }}
spec:
  selector:
    app: {{ component.name | k8s_name }}
  ports:
    - name: opcua
      port: {{ component.port }}
      targetPort: {{ component.port }}
"""

OPCUA_CLIENT_TEMPLATE = """\
---
apiVersion: v1
kind: ConfigMap
metadata:
  name: {{ component.name | k8s_name }}-config
  namespace: {{ namespace }}
  labels:
    app: {{ component.name | k8s_name }}
    component: opcua-client
    managed-by: sysmlv2-factory-config
data:
  config.json: {{ component.config_json | json | yaml_str }}
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ component.name | k8s_name }}
  namespace: {{ namespace }}
  labels:
    app: {{ component.name | k8s_name }}
    component: opcua-client
spec:
  replicas: {{ component.replicas }}
  selector:
    matchLabels:
      app: {{ component.name | k8s_name }}
  template:
    metadata:
      labels:
        app: {{ component.name | k8s_name }}
        component: opcua-client
    spec:
      containers:
        - name: opcua-client
          image: {{ component.image }}
          env:
            - name: CONFIG_PATH
              value: /etc/factory/config.json
            - name: BROKER_URL
              value: {{ broker_url | yaml_str }}
          volumeMounts:
            - name: config
              mountPath: /etc/factory
          resources:
            requests:
              cpu: {{ component.cpu_request }}
              memory: {{ component.memory_request }}
      volumes:
        - name: config
          configMap:
            name: {{ component.name | k8s_name }}-config
"""

HISTORIAN_TEMPLATE = """\
---
apiVersion: v1
kind: ConfigMap
metadata:
  name: {{ component.name | k8s_name }}-config
  namespace: {{ namespace }}
  labels:
    app: {{ component.name | k8s_name }}
    component: historian
    managed-by: sysmlv2-factory-config
data:
  config.json: {{ component.config_json | json | yaml_str }}
---
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ component.name | k8s_name }}
  namespace: {{ namespace }}
  labels:
    app: {{ component.name | k8s_name }}
    component: historian
spec:
  replicas: {{ component.replicas }}
  selector:
    matchLabels:
      app: {{ component.name | k8s_name }}
  template:
    metadata:
      labels:
        app: {{ component.name | k8s_name }}
        component: historian
    spec:
      containers:
        - name: historian
          image: {{ component.image }}
          env:
            - name: CONFIG_PATH
              value: /etc/factory/config.json
            - name: BROKER_URL
              value: {{ broker_url | yaml_str }}
            - name: DATABASE_URL
              value: {{ database_url | yaml_str }}
          volumeMounts:
            - name: config
              mountPath: /etc/factory
          resources:
            requests:
              cpu: {{ component.cpu_request }}
              memory: {{ component.memory_request }}
      volumes:
        - name: config
          configMap:
            name: {{ component.name | k8s_name }}-config
"""

#: Template sources by component kind; compiled lazily by
#: :func:`get_template`.
TEMPLATE_SOURCES: dict[str, str] = {
    "opcua-server": OPCUA_SERVER_TEMPLATE,
    "opcua-client": OPCUA_CLIENT_TEMPLATE,
    "historian": HISTORIAN_TEMPLATE,
}


@functools.lru_cache(maxsize=None)
def get_template(kind: str) -> Template:
    """The compiled template for *kind*, compiled once per process."""
    try:
        source = TEMPLATE_SOURCES[kind]
    except KeyError:
        raise KeyError(
            f"no template for component kind {kind!r}; "
            f"known: {sorted(TEMPLATE_SOURCES)}") from None
    return Template(source, kind)


def __getattr__(name: str):
    # TEMPLATES predates lazy compilation; keep it importable without
    # forcing every template to compile at module import.
    if name == "TEMPLATES":
        return {kind: get_template(kind) for kind in TEMPLATE_SOURCES}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
