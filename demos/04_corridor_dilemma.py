"""The symmetric corridor dilemma: homogeneous selfishness deadlocks, a single
prosocial role dissolves it.

Both corridor kinds put two agents at swapped ends. With every agent greedy
(SVO 0), intents mirror each other, the resolver idles both, and the episode
freezes at the step cap. The heterogeneous scripted policy gives the lower
-indexed member of the conflicted pair a 45-degree SVO; that agent withdraws
to a cell off its partner's path, lets it pass, and both finish.

Run: python demos/04_corridor_dilemma.py
"""

from svo_mapf import corridor_case_study, gen_corridor, run_episode
from svo_mapf.gridworld import EnvConfig
from svo_mapf.harness import GreedyPolicy, HeterogeneousScriptedPolicy

cfg = EnvConfig(blocking_rewards=False)

for kind in ("recess", "i_shape"):
    scn = gen_corridor(kind, 7, seed=11)
    homo = run_episode(scn, GreedyPolicy(), cfg)
    hetero = run_episode(scn, HeterogeneousScriptedPolicy(), cfg)
    print(f"{kind:8s}: selfish team -> {homo.metrics.goals_reached}/2 goals "
          f"in {homo.metrics.episode_length} steps (deadlock at the cap); "
          f"mixed SVOs -> {hetero.metrics.goals_reached}/2 goals "
          f"in {hetero.metrics.episode_length} steps")

print("\nagent 0's yield on the recess map (positions per step):")
scn = gen_corridor("recess", 7, seed=11)
result = run_episode(scn, HeterogeneousScriptedPolicy(), cfg)
for t, pos in enumerate(result.paths[0]):
    marker = " <- refuge" if pos[0] != 1 else ""
    print(f"  t={t:2d} {pos}{marker}")

print("\ncase study over the 80/20 recess/I-shape mixture (300 episodes each):")
hetero = corridor_case_study(0.8, 300, "hetero", seed=5, env_cfg=cfg)
homo = corridor_case_study(0.8, 300, "homo", seed=5, env_cfg=cfg)
print(f"  heterogeneous roles: mean goals = {hetero.mean_goals:.3f}")
print(f"  homogeneous selfish: mean goals = {homo.mean_goals:.3f}")
print("a policy solving only recess maps would average 0.8*2 + 0.2*1 = 1.7;")
print("solving both kinds is what lifts the mixture to exactly 2")
