"""Technology-mapping flows: HYDE, baselines, LUT costing, XC3000 CLB
packing and support-minimising resubstitution."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "baselines": (
        "map_column_encoding",
        "map_per_output",
        "map_per_output_resub",
        "map_shannon",
    ),
    "clb": ("ClbPacking", "can_pair", "pack_xc3000"),
    "hyde": ("MapResult", "cluster_outputs", "hyde_map"),
    "lut": (
        "absorb_inverters", "cleanup_for_lut_count", "count_luts", "dedup_nodes",
    ),
    "parallel": (
        "RunReport", "TaskPolicy", "run_group_tasks", "structural_fragment",
    ),
    "resub": ("functionally_dependent", "resubstitute"),
    "structural": ("map_structural",),
    "time_multiplex": ("TimeMultiplexResult", "map_time_multiplexed"),
    "ti_extract": ("ExtractionReport", "extract_common_sublogic"),
})

__all__ = [
    "MapResult",
    "hyde_map",
    "cluster_outputs",
    "map_per_output",
    "map_per_output_resub",
    "map_column_encoding",
    "map_shannon",
    "count_luts",
    "absorb_inverters",
    "dedup_nodes",
    "cleanup_for_lut_count",
    "ClbPacking",
    "pack_xc3000",
    "can_pair",
    "resubstitute",
    "functionally_dependent",
    "ExtractionReport",
    "extract_common_sublogic",
    "map_structural",
    "TimeMultiplexResult",
    "map_time_multiplexed",
    "TaskPolicy",
    "RunReport",
    "run_group_tasks",
    "structural_fragment",
]
