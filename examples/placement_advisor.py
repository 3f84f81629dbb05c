"""The placement advisor: the paper's methodology, mechanised.

The authors built Figure 2 by hand from their knowledge of TPC-C's access
patterns.  The DBMS already has that knowledge — this example profiles a
short TPC-C run, feeds the measured per-object statistics to the advisor,
and prints the placement it derives, next to the paper's hand-built one.

Run:  python examples/placement_advisor.py   (~1 minute)
"""

from dataclasses import replace

from repro.bench import profile_objects, tpcc_experiment
from repro.core import FIGURE2_GROUPS, suggest_placement, traditional_placement
from repro.mapping import die_reserve_blocks


def main() -> None:
    config = replace(
        tpcc_experiment("fig3.quick"),
        name="profile",
        placement=traditional_placement(64),
        num_transactions=1500,
    )
    print("profiling 1500 TPC-C transactions under traditional placement ...")
    stats = sorted(profile_objects(config)[0], key=lambda s: s.update_density)
    print(f"\n{'object':<14} {'pages':>6} {'reads':>8} {'writes':>8} {'writes/page':>12}")
    for s in stats:
        print(f"{s.name:<14} {s.size_pages:>6} {s.reads:>8} {s.writes:>8} {s.update_density:>12.1f}")

    geometry = config.geometry
    safe_per_die = (geometry.blocks_per_die - die_reserve_blocks()) * geometry.pages_per_block
    placement = suggest_placement(
        stats, total_dies=64, max_regions=6, safe_pages_per_die=safe_per_die, headroom=1.6
    )
    print("\nadvised placement (cluster by update density, dies by size & I/O rate):")
    for spec in placement.specs:
        print(f"  {spec.config.name:<12} {spec.num_dies:>2} dies  <- {', '.join(spec.objects)}")

    print("\nthe paper's hand-built Figure 2, for comparison:")
    for name, dies, objects in FIGURE2_GROUPS:
        print(f"  {name:<12} {dies:>2} dies  <- {', '.join(objects)}")
    print(
        "\nSame qualitative structure: scorching WAREHOUSE/DISTRICT isolated, the"
        "\nappend streams separated from update-hot tables, read-mostly data apart."
    )


if __name__ == "__main__":
    main()
