#!/usr/bin/env python
"""Operations tour: the machinery that keeps a SPRITE network healthy.

Walks through the operational features beyond basic retrieval:

1. **Maintenance probing** — owners heartbeat their terms' indexing
   peers and republish postings lost to crashes (paper Section 1's
   "periodically probe the indexing peers").
2. **Hot-term advice** — maintenance-hot terms (huge indexed document
   frequency, tiny IDF) are discarded and replaced (Section 7(a)).
"""

from __future__ import annotations

from repro import small_experiment_config
from repro.core import MaintenanceDaemon
from repro.evaluation import build_environment
from repro.evaluation.experiments import build_trained_sprite
from repro.extensions import HotTermAdvisor


def main() -> None:
    print("Building and training a SPRITE network...")
    env = build_environment(small_experiment_config())
    system = build_trained_sprite(env)
    print(f"  {system.ring.num_live} peers, {system.total_published_terms()} postings\n")

    # 1. Maintenance: crash a slot-bearing peer, repair, heal.
    print("1) Maintenance probing and self-healing")
    daemon = MaintenanceDaemon(system)
    victim = next(n for n in system.ring.live_ids if system.ring.node(n).store)
    lost = len(system.ring.node(victim).store)
    system.ring.fail(victim)
    system.ring.stabilize()
    healed = daemon.heal_until_stable()
    print(f"   crashed a peer holding {lost} term slots")
    print(f"   maintenance republished {healed} postings; index whole again\n")

    # 2. Hot-term advice.
    print("2) Hot-term advice (Section 7a)")
    advisor = HotTermAdvisor(system, df_threshold=max(5, len(env.corpus) // 4))
    hot_terms, switches = advisor.rebalance()
    print(f"   hot terms detected: {hot_terms}; document term switches: {switches}")


if __name__ == "__main__":
    main()
