"""The float64 reference forward against loopscope on a tiny float64 model.

Run with: python3 -m pytest perfbench
"""

import numpy as np
import pytest

import reference
from loopscope.model import LoopedConfig, init_params, run_deliberation
from loopscope.training import AdamW, TrainConfig, train_step

K = 5


@pytest.fixture
def tiny():
    config = LoopedConfig(vocab_size=11, d_model=8, n_heads=2,
                          prelude_layers=1, recurrent_layers=2, coda_layers=1,
                          max_seq=6, k_max=K)
    params = init_params(config, seed=3, dtype=np.float64)
    rng = np.random.default_rng(0)
    # move every weight off its initial value so no tensor is trivially zero
    # or one, and beliefs change from step to step
    for _, t in params.named_tensors():
        t.data += rng.normal(0.0, 0.3, t.data.shape)
    tokens = rng.integers(0, config.vocab_size, size=(3, config.max_seq))
    return config, params, tokens


def program_beliefs(params, tokens):
    return np.stack([np.atleast_2d(d.probs)
                     for d in run_deliberation(tokens, params, K)])


def test_matches_run_deliberation_to_1e10(tiny):
    config, params, tokens = tiny
    ref = reference.step_beliefs(reference.as_float64(params.named_tensors()),
                                 config.to_dict(), tokens, K)
    got = program_beliefs(params, tokens)
    assert ref.shape == got.shape == (K, 3, config.vocab_size)
    assert np.abs(ref - got).max() < 1e-10
    # the beliefs move across steps, so the comparison covers the recurrence
    assert np.abs(np.diff(got, axis=0)).max() > 1e-3


def test_detects_one_perturbed_weight_in_every_tensor(tiny):
    config, params, tokens = tiny
    got = program_beliefs(params, tokens)
    weights = reference.as_float64(params.named_tensors())
    for name in weights:
        moved = dict(weights)
        moved[name] = weights[name].copy()
        moved[name].reshape(-1)[0] += 1e-3
        ref = reference.step_beliefs(moved, config.to_dict(), tokens, K)
        assert np.abs(ref - got).max() > 1e-8, name


def test_cross_entropy_matches_train_step_loss(tiny):
    config, params, tokens = tiny
    targets = np.array([1, 4, 7])
    ce = reference.cross_entropy(reference.as_float64(params.named_tensors()),
                                 config.to_dict(), tokens, targets, 3)
    # at lr 0 the optimizer step leaves the weights as they are
    loss = train_step(params, (tokens, targets), 3,
                      AdamW(params, TrainConfig(lr=0.0)))
    assert ce.shape == (3,)
    assert abs(ce[-1] - loss) < 1e-10
