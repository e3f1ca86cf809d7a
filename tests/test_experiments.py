import math
import warnings

import numpy as np
import pytest

from pencilpow import kernels
from pencilpow.errors import DomainError
from pencilpow.harness import emit, experiments as ex


def small_config(**kw):
    defaults = dict(experiment="general_square", n=8, trials=3, p_max=3,
                    spectrum="disk", seed=5)
    defaults.update(kw)
    return ex.ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(DomainError):
        ex.ExperimentConfig(experiment="nope")
    with pytest.raises(DomainError):
        ex.ExperimentConfig(trials=0)
    with pytest.raises(DomainError):
        ex.ExperimentConfig(annulus_r_lo=1.2, annulus_r_hi=1.0)
    with pytest.raises(DomainError):
        ex.ExperimentConfig(precision="binary16")
    # every value a runner reads is checked when the config is built
    for bad in (dict(seed=-1), dict(spectrum="ring"), dict(annulus_r_hi=math.inf),
                dict(annulus_r_lo=math.nan), dict(delta=0.0), dict(delta=2.0),
                dict(experiment="expm_compare", delta=-1e-8), dict(conditioning="bad")):
        with pytest.raises(DomainError):
            ex.ExperimentConfig(**bad)
    # the boundary values still build
    ex.ExperimentConfig(delta=1.0, seed=0)


def test_square_experiment_records_every_step():
    config = small_config()
    records = ex.run_square_experiment(config)
    assert len(records) == config.trials * config.p_max
    for r in records:
        assert 1 <= r.p <= config.p_max
        assert r.err_irs >= 0 and r.err_es >= 0
        assert r.kappa_ap >= 1.0
    by_trial = {t: [r.p for r in records if r.trial == t] for t in range(config.trials)}
    assert all(ps == list(range(1, config.p_max + 1)) for ps in by_trial.values())


def test_square_experiment_deterministic_csv(tmp_path):
    config = small_config()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit.emit_csv(ex.run_square_experiment(config), p1, config.experiment)
    emit.emit_csv(ex.run_square_experiment(config), p2, config.experiment)
    assert p1.read_bytes() == p2.read_bytes()


def test_square_experiment_seed_changes_output():
    r1 = ex.run_square_experiment(small_config(seed=5))
    r2 = ex.run_square_experiment(small_config(seed=6))
    assert r1[0].err_irs != r2[0].err_irs


def test_toy_identity_uses_unit_diagonal():
    config = small_config(experiment="toy_identity", trials=2)
    records = ex.run_square_experiment(config)
    # oracle is the identity, so errors stay near roundoff for tiny p
    assert all(r.err_irs < 1e-10 for r in records)


def test_disk_spectrum_absolute_errors_become_negligible():
    # eigenvalues inside the disk drive the true power to zero, so the
    # absolute error of both algorithms heads down toward roundoff
    from pencilpow.harness.generators import gen_ginibre, gen_haar, rng_from_seed, sample_spectrum

    config = ex.ExperimentConfig(
        experiment="general_square", n=64, trials=6, p_max=12, spectrum="disk", seed=71
    )
    records = ex.run_square_experiment(config)
    # replay each trial's draws to recover ||oracle(p)||_2 = max|d|^(2^p)
    max_mod = {}
    for t in range(config.trials):
        rng = rng_from_seed(71 ^ t)
        gen_ginibre(64, rng)
        gen_haar(64, rng)
        d = sample_spectrum("disk", 64, rng)
        max_mod[t] = float(np.max(np.abs(d)))
    absolute = {"err_irs": {"first": [], "last": []}, "err_es": {"first": [], "last": []}}
    for r in records:
        scale = max_mod[r.trial] ** (2 ** r.p)
        for series in absolute:
            if r.p == 1:
                absolute[series]["first"].append(getattr(r, series) * scale)
            elif r.p == config.p_max:
                absolute[series]["last"].append(getattr(r, series) * scale)
    for series, ends in absolute.items():
        assert np.median(ends["last"]) < np.median(ends["first"])
        assert np.median(ends["last"]) <= 1e-12


def test_condition_evolution_records():
    config = small_config(experiment="condition_evolution", trials=2)
    records = ex.run_condition_evolution(config)
    assert len(records) == 2 * config.p_max
    for r in records:
        assert math.isnan(r.err_irs) and math.isnan(r.err_es)
        assert r.kappa_ap >= 1.0 and r.sigma_n_ap > 0
        assert r.kappa_a_input >= 1.0


def test_expm_records():
    config = small_config(experiment="expm_compare", n=8, trials=2, delta=1.0)
    records = ex.run_expm_experiment(config)
    assert len(records) == 2
    for r in records:
        assert r.s_selected is not None and r.p == r.s_selected
        assert r.err_irs >= 0 and r.err_es >= 0


@pytest.mark.parametrize("n, seed, delta", [
    # both trials overflow at squaring 28 or 29 of s = 33 and 35, five or more
    # squarings early, so the last bits of the Pade stage cannot decide it
    pytest.param(8, 0, 1e-10, id="8-0"),
    pytest.param(16, 2, 1e-8, id="16-2"),
])
def test_expm_failed_backend_writes_sentinel_rows(n, seed, delta, tmp_path):
    # with V this ill-conditioned the explicit path overflows in some trials:
    # the rows are still written, with NaN in the failed column
    config = small_config(experiment="expm_compare", n=n, trials=2, seed=seed,
                          delta=delta)
    records = ex.run_expm_experiment(config)
    assert [r.trial for r in records] == [0, 1]
    assert any(math.isnan(r.err_es) for r in records)
    assert all(math.isnan(r.err_irs) or math.isfinite(r.err_irs) for r in records)
    path = emit.emit_csv(records, tmp_path / "expm_compare.csv", "expm_compare")
    _, parsed = emit.parse_csv(path)
    assert [math.isnan(r.err_es) for r in parsed] == [math.isnan(r.err_es) for r in records]


def test_annulus_trial_stops_before_oracle_overflow():
    # 1.048^(2^14) > 1.8e308: the oracle V D^(2^p) V^H overflows at p = 14
    config = ex.ExperimentConfig(n=16, trials=1, spectrum="annulus", seed=5)
    records = ex.run_square_experiment(config)
    assert [r.p for r in records] == list(range(1, 14))


def test_expm_consistent_with_library_expm():
    from pencilpow.expm import ExpmConfig, expm as lib_expm, select_scaling
    from pencilpow.harness.generators import gen_ginibre, make_ill_conditioned, rng_from_seed, sample_spectrum

    config = small_config(experiment="expm_compare", n=8, trials=1, delta=1e-2, seed=77)
    records = ex.run_expm_experiment(config)
    # reproduce trial 0 by hand through the public expm and compare errors
    rng = rng_from_seed(77 ^ 0)
    g = gen_ginibre(8, rng)
    v = make_ill_conditioned(g, 1e-2)
    d = sample_spectrum("disk", 8, rng)
    v_inv = np.linalg.inv(v)
    m = (v * d[None, :]) @ v_inv
    reference = (v * np.exp(d)[None, :]) @ v_inv
    assert records[0].p == select_scaling(m)
    irs_result = lib_expm(m, ExpmConfig(squaring_backend="irs"))
    # the runner measures with the library's one spectral norm
    err = kernels.spectral_norm(irs_result - reference) / kernels.spectral_norm(reference)
    assert err == records[0].err_irs


def test_rel_err_overflowing_difference_is_a_quiet_sentinel(capfd):
    # x and the oracle are finite, but x - oracle overflows
    x = np.full((4, 4), 1.5e308, dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = ex._rel_err(lambda: x, -x, 1.0)
    assert math.isnan(err)
    out, errout = capfd.readouterr()
    assert errout == ""


def test_bound_report_measured_below_bound():
    config = ex.ExperimentConfig(experiment="bound_report", n=8, trials=1, p_max=3, seed=3)
    report = ex.run_bound_report(config)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.err_irs <= row.bound_irs
        assert row.err_es <= row.bound_es


def test_bound_report_ratio_grows_with_p():
    config = ex.ExperimentConfig(experiment="bound_report", n=8, trials=1, p_max=4, seed=3)
    report = ex.run_bound_report(config)
    ratios_irs = [r.ratio_irs for r in report.rows]
    ratios_es = [r.ratio_es for r in report.rows]
    assert all(b >= a for a, b in zip(ratios_irs, ratios_irs[1:]))
    assert all(b >= a for a, b in zip(ratios_es, ratios_es[1:]))


def test_bound_report_flop_identities():
    # the measured loop's calls: p steps (2 MM + 1 QR each) and p conversions
    # (1 INV + 1 MM each), plus D_0 (1 INV + 1 MM) and p explicit squarings
    config = ex.ExperimentConfig(experiment="bound_report", n=6, trials=1, p_max=3, seed=1)
    report = ex.run_bound_report(config)
    assert len(report.rows) == 3
    assert report.kernel_calls == kernels.KernelCounts(matmul=13, qr=3, inv=4)
    # the oracle overflows at p = 13: that step is never taken
    config = ex.ExperimentConfig(experiment="bound_report", n=16, p_max=14, seed=5)
    report = ex.run_bound_report(config)
    assert [row.p for row in report.rows] == list(range(1, 13))
    assert report.kernel_calls.qr == 12


def test_run_experiment_dispatch():
    config = small_config(experiment="condition_evolution", trials=1)
    records = ex.run_experiment(config)
    assert all(math.isnan(r.err_irs) for r in records)
    with pytest.raises(DomainError):
        ex.run_experiment(ex.ExperimentConfig(experiment="bound_report"))
