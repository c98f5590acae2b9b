"""Hardware model: nodes, topology, stable-storage plane, cluster presets.

Approximates the paper's Parsytec Xplorer (8 × T805, host file system as
stable storage) as a deterministic discrete-event model, generalised to
a racks × nodes machine (one uplink hop between any two racks) with a
multi-server storage plane. The flat 8-node default remains
bit-identical to the paper's machine. See ``DESIGN.md`` §2 and §11.
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "Cluster": "cluster",
    "Node": "node",
    "MachineParams": "params",
    "NodeParams": "params",
    "LinkParams": "params",
    "LocalDiskParams": "params",
    "StorageParams": "params",
    "TopologyParams": "params",
    "StoragePlaneParams": "params",
    "SharedServer": "shared_server",
    "TransferJob": "shared_server",
    "StableStorage": "storage",
    "StoragePlane": "storage_plane",
    "Topology": "topology",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
