import numpy as np
import pytest
from hypothesis import settings

from latentcast.cvae import CvaePair
from latentcast.data import SyntheticSpec, generate_synthetic
from latentcast.training import TrainConfig

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic, and a bounded number of them, so it stays fast.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("tier1")


@pytest.fixture
def tiny_pair():
    """Small decomposed VAE pair for structural and gradient tests."""
    rng = np.random.default_rng(7)
    return CvaePair.build(rng, lookback=6, d_z=4, hidden=5, beta=2.0, alpha=0.5,
                          kernel=3, num_domains=2, encoder_kind="mlp",
                          conditional=True, decomposed=True, drop=0.0)


@pytest.fixture
def tiny_datasets():
    spec = SyntheticSpec(num_domains=4, series_per_domain=2, length=60,
                         shared_period=12.0, shared_amplitude=2.0,
                         noise_std=0.05, seed=11)
    return generate_synthetic(spec)


@pytest.fixture
def tiny_config():
    """Fast-running config matched to tiny_datasets."""
    return TrainConfig(lookback=12, horizon=4, d_z=4, hidden=8, kernel=5,
                       batch_size=16, dropout=0.0, learning_rate=3e-3,
                       beta=1.0, alpha=0.5, reg_weight=1.0,
                       epochs_stage1=3, epochs_stage2=4, patience=3,
                       seed=3, variant="full", decoder="linear", encoder="mlp",
                       sample_paths=20, test_fraction=0.25, val_fraction=0.25)
