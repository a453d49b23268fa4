"""``repro.features`` — crafted feature generators.

Reference implementations of the hand-designed G-cell maps CNN baselines
consume (net density, pin density, RUDY, terminal mask) and the G-net
feature table (span_v, span_h, npin, area) that seeds the LH-graph.
"""

from .gnet import GNetData, compute_gnets
from .gcell import net_density_maps, rudy_map, gcell_feature_stack

__all__ = ["GNetData", "compute_gnets", "net_density_maps", "rudy_map",
           "gcell_feature_stack"]
