"""Edge cells of the operating range: configurations where the estimator once failed, each
run on fixed seeds against its pass condition.  A cell whose fault is still open stays out
of this file until the mend that makes it pass."""

import pytest

from turbomp import ExperimentConfig, run_single_trial

# exact channel with known priors at 80 dB, stopping at a 1e-6 relative change: with the
# activity log-odds clipped at 40 nats, trial 0 declared all 953 inactive devices active
KNOWN_PRIORS_80_DB = dict(K=1000, N=72, T=8, Q=4, M=8, lam=0.05, channel="exact",
                          theta_H=1.0, theta_C=0.01, sigma_w2=1e-8, em_enabled=False,
                          rel_change_tol=1e-6, max_iters=50, master_seed=5, snr_db=[80.0])


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_known_priors_at_80_db_make_no_detection_error(trial):
    config = ExperimentConfig(**KNOWN_PRIORS_80_DB, trials=3)
    record = run_single_trial(config, 0, 80.0, trial)
    assert (record["miss"], record["false"]) == (0, 0)
