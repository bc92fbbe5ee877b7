"""Adaptive sparsity: online learning of k during federated training.

The headline capability of the paper: instead of hand-tuning the sparsity
k, Algorithm 3 + the derivative-sign estimator learn a near-optimal k
online, adapting to the communication/computation ratio.  This example
trains the same federation under cheap (β = 0.5) and expensive (β = 50)
communication and shows the learned k settling at very different levels —
large k when communication is cheap, small k when it is dear.

Run:  python examples/adaptive_sparsification.py
"""

import numpy as np

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.online.algorithm3 import AdaptiveSignOGD
from repro.online.interval import SearchInterval
from repro.online.policy import SignPolicy
from repro.simulation.timing import TimingModel
from repro.sparsify.fab_topk import FABTopK


def run_one(comm_time: float, num_rounds: int = 250) -> None:
    dataset = make_femnist_like(
        num_writers=15, samples_per_writer=30, num_classes=10,
        classes_per_writer=4, image_size=10, seed=0,
    )
    federation = partition_by_writer(dataset)
    model = make_mlp(dataset.feature_dim, 10, hidden=(32,), seed=0)
    timing = TimingModel(dimension=model.dimension, comm_time=comm_time)

    # The paper's search interval: K = [0.002*D, D], with Algorithm 3's
    # parameters alpha = 1.5 and update window M_u = 20.
    interval = SearchInterval(max(2.0, 0.002 * model.dimension),
                              float(model.dimension))
    policy = SignPolicy(AdaptiveSignOGD(interval, alpha=1.5, update_window=20))

    # Handing run() a policy instead of a k makes it the engine's k rule.
    trainer = FLTrainer(
        model, federation, FABTopK(), timing,
        learning_rate=0.05, batch_size=16, eval_every=25, seed=0,
    )
    trainer.run(num_rounds, policy)

    ks = trainer.history.ks()
    print(f"\n=== communication time beta = {comm_time} ===")
    print(f"k trajectory: start {ks[0]:.0f} -> "
          f"mean(last 50) {np.mean(ks[-50:]):.0f} "
          f"(D = {model.dimension})")
    restarts = policy.algorithm.restart_rounds
    print(f"Algorithm 3 interval restarts at rounds: {restarts or 'none'}")
    print(f"final loss {trainer.history.final_loss:.4f} "
          f"after normalized time {trainer.clock:.0f}")
    sample = ks[:: max(1, len(ks) // 10)]
    print("k samples:", " ".join(f"{k:.0f}" for k in sample))


def main() -> None:
    print(__doc__)
    run_one(comm_time=0.5)
    run_one(comm_time=50.0)
    print("\nNote how expensive communication drives the learned k down —")
    print("the trade-off the paper's online algorithm optimizes automatically.")


if __name__ == "__main__":
    main()
