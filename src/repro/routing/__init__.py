"""``repro.routing`` — grid global router (NCTU-GR 2.0 stand-in).

Routing grid with capacities and blockages, Steiner decomposition, L/Z
pattern routing, congestion-aware A* maze routing, the negotiated
rip-up-and-reroute driver, and extraction of the paper's demand /
congestion label maps.
"""

from .grid import RoutingGrid, flatten, path_cells, path_edges, unflatten
from .steiner import decompose_net, mst_edges
from .pattern import (l_paths, z_paths, path_cost, best_pattern_path,
                      straight_path)
from .maze import astar_route
from .router import RouterConfig, RoutingResult, GlobalRouter
from .congestion import CongestionMaps, extract_maps, congestion_rate

__all__ = [
    "RoutingGrid", "path_edges", "path_cells", "flatten", "unflatten",
    "decompose_net", "mst_edges",
    "l_paths", "z_paths", "path_cost", "best_pattern_path", "straight_path",
    "astar_route",
    "RouterConfig", "RoutingResult", "GlobalRouter",
    "CongestionMaps", "extract_maps", "congestion_rate",
]
