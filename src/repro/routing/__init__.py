"""``repro.routing`` — grid global router (NCTU-GR 2.0 stand-in).

Routing grid with capacities and blockages, Steiner decomposition, L/Z
pattern routing, congestion-aware A* maze routing, the negotiated
rip-up-and-reroute driver, and extraction of the paper's demand /
congestion label maps.
"""

from .grid import RoutingGrid
from .steiner import decompose_net, mst_edges, net_terminals
from .pattern import (l_paths, z_paths, path_cost, best_pattern_path,
                      straight_path)
from .maze import astar_route
from .router import RouterConfig, RoutingResult, GlobalRouter
from .congestion import CongestionMaps, extract_maps, congestion_rate

__all__ = [
    "RoutingGrid",
    "decompose_net", "mst_edges", "net_terminals",
    "l_paths", "z_paths", "path_cost", "best_pattern_path", "straight_path",
    "astar_route",
    "RouterConfig", "RoutingResult", "GlobalRouter",
    "CongestionMaps", "extract_maps", "congestion_rate",
]
