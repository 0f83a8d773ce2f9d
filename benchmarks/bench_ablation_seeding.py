"""Ablation — cross-correlation seeding of GRITE's first level.

DESIGN.md: the paper reduces GRITE's complexity by seeding the first tree
level with the 2-pair cross-correlations instead of all attributes.  The
statistical filters (confidence floor, chance-surprise, Mann-Whitney) are
part of that seeding; this ablation disables them and measures both the
blow-up of the correlation set and the extra mining time.
"""

from conftest import save_report

from repro.mining.grite import GriteConfig, GriteMiner


def _loose_config() -> GriteConfig:
    # No statistical seeding filters.  Growth is capped at the pair level
    # because the unpruned candidate tree explodes combinatorially (gigabytes
    # of near-duplicate itemsets) — which is exactly the complexity the
    # paper's seeding avoids; measuring level 1 alone already shows the
    # blow-up of the working set every later level would multiply.
    return GriteConfig(
        min_confidence=0.05,
        alpha=1.0,
        alpha_chance=1.0,
        max_chance_hit=1.0,
        min_support=2,
        max_chain_size=2,
    )


def test_ablation_seed_filtering(elsa_bg, benchmark):
    trains = elsa_bg.model.trains

    filtered_miner = GriteMiner(elsa_bg.config.grite)
    filtered = benchmark.pedantic(
        filtered_miner.mine, args=(trains,), rounds=2, iterations=1
    )
    n_filtered_pairs = len(filtered_miner.seed_pairs)

    import time

    loose_miner = GriteMiner(_loose_config())
    t0 = time.perf_counter()
    loose_pairs = loose_miner.mine(trains)
    loose_time = time.perf_counter() - t0
    n_loose_pairs = len(loose_miner.seed_pairs)

    text = (
        f"{'':<28} {'seeded+filtered':>16} {'unfiltered':>12}\n"
        f"{'level-1 pairs':<28} {n_filtered_pairs:>16} {n_loose_pairs:>12}\n"
        f"{'maximal chains/pairs kept':<28} {len(filtered):>16} "
        f"{len(loose_pairs):>12}\n"
        f"\nunfiltered growth past level 1 explodes combinatorially "
        f"(candidate tree in the\ngigabytes), so the ablation caps it at "
        f"pairs.  paper: 'By merging it with a fast\nsignal analysis "
        f"module we were able to guide the extraction process toward "
        f"the\nfinal result, thereby reducing the complexity of the "
        f"original data-mining algorithm.'\n"
    )
    save_report("ablation_seeding", text)
    # the wall time varies run to run, so it stays out of the report
    print(f"unfiltered level-1 wall time {loose_time:.2f}s")

    assert n_loose_pairs > 2 * n_filtered_pairs


def test_ablation_maximal_pruning(elsa_bg, benchmark):
    """The 'most frequent subset' pruning that keeps the online set small."""
    trains = elsa_bg.model.trains
    cfg_all = GriteConfig(maximal_only=False)
    miner = GriteMiner(cfg_all)
    all_frequent = benchmark.pedantic(
        miner.mine, args=(trains,), rounds=1, iterations=1
    )
    maximal = GriteMiner(GriteConfig()).mine(trains)
    text = (
        f"frequent itemsets (all levels): {len(all_frequent)}\n"
        f"maximal syndromes kept        : {len(maximal)}\n"
    )
    save_report("ablation_maximal", text)
    assert len(maximal) <= len(all_frequent)
