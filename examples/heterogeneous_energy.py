"""Extension in action: stragglers and client sampling.

The paper's conclusion sketches *heterogeneous client resources* as
future work: some clients are much slower, and a synchronous round waits
for the slowest participant, so sampling a fast subset each round can
beat full participation in time-to-loss.  This example runs that
comparison under one fixed time budget.

Run:  python examples/heterogeneous_energy.py
"""

from repro.data.partition import partition_by_writer
from repro.data.synthetic import make_femnist_like
from repro.fl.trainer import FLTrainer
from repro.nn.models import make_mlp
from repro.simulation.heterogeneous import (
    ClientProfile,
    ClientSampler,
    HeterogeneousTimingModel,
)
from repro.sparsify.fab_topk import FABTopK


def build():
    dataset = make_femnist_like(
        num_writers=16, samples_per_writer=25, num_classes=10,
        classes_per_writer=4, image_size=10, seed=2,
    )
    federation = partition_by_writer(dataset)
    model = make_mlp(dataset.feature_dim, 10, hidden=(24,), seed=2)
    return dataset, federation, model


def straggler_demo() -> None:
    print("=" * 60)
    print("Straggler avoidance via fastest-biased sampling")
    print("=" * 60)
    _, federation, _ = build()
    # Every fourth client is an 8x straggler.
    profiles = [
        ClientProfile(c.client_id,
                      compute_factor=8.0 if c.client_id % 4 == 0 else 1.0,
                      comm_factor=8.0 if c.client_id % 4 == 0 else 1.0)
        for c in federation.clients
    ]
    ids = [c.client_id for c in federation.clients]
    budget = 350.0
    for label, sampler in (
        ("full participation", None),
        ("uniform half", ClientSampler(ids, count=8, seed=0)),
        ("fastest-biased half", ClientSampler(
            ids, count=8, strategy="fastest-biased", profiles=profiles,
            seed=0)),
    ):
        _, federation, model = build()
        timing = HeterogeneousTimingModel(
            model.dimension, comm_time=10.0, profiles=profiles,
        )
        trainer = FLTrainer(model, federation, FABTopK(), timing=timing,
                            sampler=sampler, learning_rate=0.05,
                            batch_size=16, eval_every=10, seed=2)
        k = max(2, int(0.4 * model.dimension / federation.num_clients))
        while trainer.clock < budget:
            trainer.step(k)
        print(f"  {label:<22} rounds={len(trainer.history):>4} "
              f"loss={trainer.history.final_loss:.4f}")


if __name__ == "__main__":
    print(__doc__)
    straggler_demo()
