"""Namespace constants and IRI helpers used across the package."""

from __future__ import annotations

import re
from urllib.parse import urljoin

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"
OWL_TIME = "http://www.w3.org/2006/time#"
SOSA = "http://www.w3.org/ns/sosa/"
SSN = "http://www.w3.org/ns/ssn/"
BRICK = "http://buildsys.org/ontologies/Brick#"
BF = "http://buildsys.org/ontologies/BrickFrame#"

RDF_TYPE = RDF + "type"
RDF_VALUE = RDF + "value"
RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"
RDF_LANG_STRING = RDF + "langString"
RDFS_SUBCLASS = RDFS + "subClassOf"

XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATETIME = XSD + "dateTime"
XSD_DATETIMESTAMP = XSD + "dateTimeStamp"
XSD_TIME = XSD + "time"

# The default graph of a dataset is modeled as one reserved graph name so
# quads stay uniform. It is never served over HTTP.
DEFAULT_GRAPH = "urn:ldsim:default"

# Server-relative vocabulary. These are resolved against the run base IRI so
# query and rule files stay independent of host and port.
SIM_PATH = "sim"
SIM_VOCAB = "vocab/sim#"

DEFAULT_BASE = "http://localhost:8080/"

# Prefixes offered by serializers and pre-bound in authored files.
PREFIXES = {
    "rdf": RDF,
    "rdfs": RDFS,
    "xsd": XSD,
    "time": OWL_TIME,
    "sosa": SOSA,
    "ssn": SSN,
    "brick": BRICK,
    "bf": BF,
}

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")


def resolve(ref: str, base: str | None) -> str:
    """Resolve an IRI reference against a base; absolute refs pass through."""
    if _SCHEME_RE.match(ref):
        return ref
    if not base:
        raise ValueError(f"relative IRI {ref!r} without a base")
    out = urljoin(base, ref)
    # urljoin drops an empty fragment, which namespace IRIs rely on.
    if ref.endswith("#") and not out.endswith("#"):
        out += "#"
    return out


def defrag(iri: str) -> str:
    """Strip a fragment; fragment IRIs share their document's graph."""
    return iri.split("#", 1)[0]
