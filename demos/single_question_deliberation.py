"""Watch one model deliberate on one question, step by step.

Trains a deliberately small looped model (d=16, 1/1/1 layers, 8 recurrence
steps) on a pocket-sized benchmark for a couple of minutes, then decodes the
model's belief over the four answer options at every recurrence step on one
of the learned questions and renders the trajectory as an SVG.  A model this
small memorizes rather than generalizes; the point here is the per-step
readout, not held-out accuracy (the full pipeline demo covers that).

Run:  python3 demos/single_question_deliberation.py
Writes:  demo_trajectory.svg in the current directory
"""

import numpy as np

from loopscope import (
    LoopedConfig,
    TrainConfig,
    belief_trajectory,
    build_world,
    emit_trajectory_plot,
    generate_benchmark,
    init_params,
    run_deliberation,
    train,
)
from loopscope.taskgen import RENDER_LEN, render_tokens
from loopscope.training import evaluate_accuracy

K = 8

print("building a synthetic world and benchmark ...")
world = build_world(seed=3, n_categories=4, entities_per_category=8,
                    n_values=6)
bench = generate_benchmark(world, n_stems=60, seed=3, n_permutations=10)

config = LoopedConfig(vocab_size=len(world.vocab), d_model=16, n_heads=2,
                      prelude_layers=1, recurrent_layers=1, coda_layers=1,
                      max_seq=RENDER_LEN, k_max=K)
params = init_params(config, seed=0)

train_items = [p for it in bench.items
               if it.variant in ("Base", "Easy")
               for p in bench.permutations_for(it)]

print(f"training on {len(train_items)} permuted items "
      f"({params.n_params()} parameters, depths sampled from 1..{K}) ...")
log = train(params, train_items, world,
            TrainConfig(epochs=16, batch_size=32, lr=3e-3, warmup_steps=30,
                        seed=1))
for epoch, loss in zip(log.epochs, log.mean_losses):
    print(f"  epoch {epoch}: mean loss {loss:.3f}")

base_items = [it for it in bench.items if it.variant == "Base"]
eval_perms = [bench.permutations_for(it)[0] for it in base_items]
accs = evaluate_accuracy(params, eval_perms, world, depths=(K // 2, K))
print("training-set accuracy: "
      + ", ".join(f"{a:.2f} at depth {d}" for d, a in accs.items())
      + " (chance 0.25)\n")

item = base_items[0]
perm = bench.permutations_for(item)[0]
tokens = world.encode(render_tokens(perm))
print(f"question stem: {' '.join(item.stem_tokens)}")
for i, opt in enumerate(perm.options):
    marker = " <- correct" if i == perm.correct_index else ""
    print(f"  option {i}: {opt}{marker}")

dists = run_deliberation(tokens, params, k=K)
traj = belief_trajectory(
    dists, world.encode(perm.options), item_id=item.item_id,
    variant=item.variant, correct_index=perm.correct_index,
    similarities=perm.similarities, options=perm.options)

print("\nstep  " + "  ".join(f"P(opt{i})" for i in range(4)) + "  argmax")
for s in range(traj.k):
    probs = "  ".join(f"{traj.option_probs[s, i]:7.3f}" for i in range(4))
    print(f"{s + 1:4d}  {probs}  {traj.argmax_series[s]:6d}")

final = traj.final_answer
print(f"\nfinal answer: option {final} "
      f"({'correct' if traj.is_correct else 'wrong'})")

with open("demo_trajectory.svg", "w", encoding="utf-8") as f:
    f.write(emit_trajectory_plot(traj, title="one deliberation, step by step"))
print("wrote demo_trajectory.svg")
