"""The datapath registry package.

One registration per transfer method: host codec (how the driver encodes
SQE + payload), capability flags, and, for layered methods, a benchmark
factory.  The registry is the single source of truth for which methods
exist — the driver, the controller,
``make_methods``, the async engine, the CLI and the Figure-5 sweep all
resolve methods here instead of keeping private literal tuples.

Only the leaf modules are imported eagerly (``names``, ``spec``,
``registry``); codecs, decoders and the built-in registrations load
lazily on first registry lookup so importing :mod:`repro.datapath` can
never create a cycle with the driver/controller layers.
"""

from repro.datapath import names
from repro.datapath.registry import (
    UnknownMethodError,
    is_registered,
    method_names,
    register,
    resolve,
    specs,
    unregister,
)
from repro.datapath.spec import DatapathCaps, DatapathSpec, MethodFactory

__all__ = [
    "names",
    "DatapathCaps",
    "DatapathSpec",
    "MethodFactory",
    "UnknownMethodError",
    "register",
    "unregister",
    "resolve",
    "is_registered",
    "specs",
    "method_names",
]
