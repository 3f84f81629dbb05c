"""The paper's motivation: what the FTL's black box costs.

Runs one skewed write workload against four storage stacks — a
page-mapping FTL, a resource-limited DFTL, NoFTL with one region, and
NoFTL with hot/cold regions — and prints the GC work and sustained
throughput of each.

Run:  python examples/ftl_vs_noftl.py
"""

from repro.bench import run_ftl_synthetic, run_noftl_synthetic, synthetic_experiment


def main() -> None:
    config = synthetic_experiment("ftl.quick")  # what `repro ftl` runs at its defaults
    results = [
        ("FTL (page mapping)", run_ftl_synthetic(config, ftl="page")),
        ("FTL (DFTL, small CMT)", run_ftl_synthetic(config, ftl="dftl", cmt_entries=256)),
        ("NoFTL, one region", run_noftl_synthetic(config, separated=False)),
        ("NoFTL, hot/cold regions", run_noftl_synthetic(config, separated=True)),
    ]
    print(f"{'stack':<24} {'copybacks':>10} {'erases':>8} {'WA':>6} {'writes/s':>10}")
    for label, r in results:
        print(
            f"{label:<24} {r.copybacks:>10,} {r.erases:>8,} "
            f"{r.write_amplification:>6.2f} {r.writes_per_second:>10,.0f}"
        )
    print(
        "\nDFTL pays translation I/O for its tiny mapping cache (the paper's"
        "\n'limited on-device resources'); NoFTL regions exploit DBMS knowledge"
        "\nthe FTL can never have."
    )


if __name__ == "__main__":
    main()
