"""Walkthrough: the three localization regimes on 70-node networks.

Anchors 1 and 2 pin the similarity gauge; all measurements are exact.
Propagation fixes every edge up to one free reference per measurement
index component (2 numbers per angle component, 1 per ratio component),
and one linear cycle-closure system in those references finishes the job
in every regime:

- angle side connected   -> bearings propagate, the closure solves the
                            free distance references;
- ratio side connected   -> distances propagate, the closure solves the
                            free bearing references (plus a small search
                            over its null space when it has one);
- neither connected      -> the closure solves both kinds at once.

The quadrilateralized network also has an invalid sibling whose distance
system loses rank: localization is impossible and the solver says so.
"""

import time

from sarod import (
    build_network,
    generate_bilateration,
    generate_mixed,
    generate_quadrilateralized,
    generate_two_step,
    localize_network,
    propagate_bearings,
    propagate_distances,
    triple_index_components,
)
from sarod.rigidity import numerical_rank
from sarod.snl import assemble_distance_system

print("network                         m   regime    key system            MSE        time")
rows = [
    ("quadrilateralized", generate_quadrilateralized(70, seed=42)),
    ("bilateration", generate_bilateration(70, seed=7)),
    ("mixed ratio-connected", generate_mixed(70, seed=3)),
    ("two-step disconnected", generate_two_step(70, seed=11)),
]
for label, con in rows:
    net = build_network(con.framework, (1, 2))
    t0 = time.perf_counter()
    result = localize_network(net)
    dt = time.perf_counter() - t0
    info = result.solution.info
    if "rank_distance_system" in info:
        key = f"distance rank {info['rank_distance_system']}/{net.graph.m}"
    elif "rank_bearing_system" in info:
        key = f"bearing rank {info['rank_bearing_system']}, null {info['null_dim']}"
    else:
        key = f"{info['variables']} free refs, null {info['null_dim']}"
    print(f"{label:28s} {net.graph.m:4d}   {result.method:7s}   {key:20s}  {result.mse:.2e}  {dt:.3f}s")

# Connectivity fingerprints of the two-step network.
net = build_network(generate_two_step(70, seed=11).framework, (1, 2))
_, c_a = triple_index_components(net.sa_triples, net.graph)
_, c_d = triple_index_components(net.rod_triples, net.graph)
bear, dist = propagate_bearings(net), propagate_distances(net)
print(f"\ntwo-step network: {c_a} angle components, {c_d} ratio components ->"
      f" {bear.dim} + {dist.dim} free numbers, solved by one {2 * (net.graph.m - net.graph.n + 1)}-row closure system")

# The invalid quadrilateralization: same edge count, deficient rank.
sib = generate_quadrilateralized(70, seed=42, defect_quads=2)
net = build_network(sib.framework, (1, 2))
bearings = propagate_bearings(net).offset
A, _ = assemble_distance_system(net, bearings)
rank, _ = numerical_rank(A)
result = localize_network(net)
print(f"\ninvalid sibling: distance-system rank {rank} < m={net.graph.m} -> {result.solution.status}"
      f" (position error would be {result.mse:.1e})")
