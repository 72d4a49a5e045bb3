"""golp: gated OLAP offload kernel with modeled and proxy device backends.

A columnar store feeds two execution paths for Top-K and hash-join probe
queries: the host primitives, and a device backend reached by shipping only
(key, row id) pairs and materializing payloads late. A cost-model gate picks
the path per query; the harness measures both and exports figure data.

The package root holds the names the README quick start imports; every
other name is imported from its module, for example golp.gate.execute_path.
"""

from .device import OP_TOPK, make_device
from .gate import GateConfig, execute_gated
from .store import generate_table

__version__ = "0.1.0"

__all__ = ["GateConfig", "OP_TOPK", "execute_gated", "generate_table", "make_device"]
