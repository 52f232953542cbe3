"""Autotune tests: profile lifecycle, calibrated selection, refinement.

Covers the ``repro-calibration/1`` schema round-trip and rejection paths,
the activation precedence (explicit > env > absent), bit-identical static
fallback when no profile is present, numerics-unchanged selection under a
profile (hypothesis), the online refiner's EWMA semantics, and the
PlanCache revisit loop that lets refined corrections overturn a cached
``"auto"`` resolution.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CalibrationProfile,
    ConfigError,
    PlanCache,
    SpgemmOptions,
    active_profile,
    csr_from_dense,
    load_profile,
    recommend,
    recommend_calibrated,
    set_active_profile,
    spgemm,
)
from repro.autotune import (
    PROFILE_ENV_VAR,
    PROFILE_SCHEMA,
    AlgorithmCurve,
    OnlineRefiner,
    candidate_algorithms,
    clear_active_profile,
    regime_key,
    resolve_auto,
    validate_profile_schema,
)
from repro.autotune.online import MAX_CORRECTION
from repro.core import plan as plan_mod
from repro.core.spgemm import ALGORITHMS

NEVER_SELECTED = {n for n, i in ALGORITHMS.items() if i.selected_by == "never"}
CALIBRATED_ONLY = {n for n, i in ALGORITHMS.items() if i.selected_by == "calibrated"}
from repro.matrix.stats import row_skew
from repro.perfmodel.quantities import ProblemQuantities
from repro.rmat import er_matrix

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def _no_ambient_profile(monkeypatch):
    """Every test starts (and ends) with no active profile."""
    monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
    clear_active_profile()
    yield
    clear_active_profile()


def make_profile(base_costs: "dict[str, float] | None" = None):
    """A hand-written profile whose predictions are pure constants.

    With only the ``base`` coefficient set, ``predict_seconds`` returns
    that constant for every problem — so the selector's winner is simply
    the candidate with the smallest base, which makes tests deterministic.
    """
    if base_costs is None:
        base_costs = {}
    curves = {}
    for i, name in enumerate(candidate_algorithms()):
        base = float(base_costs.get(name, 1.0 + 0.1 * i))
        curves[name] = AlgorithmCurve(
            algorithm=name,
            coefficients=(0.0, 0.0, 0.0, base),
            samples=10,
            rmse_seconds=0.0,
        )
    return CalibrationProfile(
        machine="KNL",
        engine="fast",
        nthreads=1,
        grid={"scale": 8, "seed": 7},
        curves=curves,
    )


class TestProfileLifecycle:
    def test_payload_round_trip(self):
        p = make_profile()
        payload = p.to_payload()
        validate_profile_schema(payload)
        rebuilt = CalibrationProfile.from_payload(
            json.loads(json.dumps(payload))
        )
        assert rebuilt == p

    def test_save_load_round_trip(self, tmp_path):
        p = make_profile()
        path = str(tmp_path / "profile.json")
        p.save(path)
        assert load_profile(path) == p

    def test_schema_version_mismatch_rejected(self, tmp_path):
        payload = make_profile().to_payload()
        payload["schema"] = "repro-calibration/2"
        with pytest.raises(ConfigError, match="schema"):
            validate_profile_schema(payload)
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="schema"):
            load_profile(str(path))

    @pytest.mark.parametrize(
        "key", ["schema", "machine", "engine", "nthreads", "grid", "curves"]
    )
    def test_partial_payload_rejected(self, key):
        payload = make_profile().to_payload()
        del payload[key]
        with pytest.raises(ConfigError):
            validate_profile_schema(payload)

    def test_corrupt_curves_rejected(self):
        good = make_profile().to_payload()

        short = json.loads(json.dumps(good))
        next(iter(short["curves"].values()))["coefficients"] = [1.0]
        with pytest.raises(ConfigError, match="coefficients"):
            CalibrationProfile.from_payload(short)

        negative = json.loads(json.dumps(good))
        next(iter(negative["curves"].values()))["coefficients"] = [
            -1.0, 0.0, 0.0, 0.0,
        ]
        with pytest.raises(ConfigError, match="finite"):
            CalibrationProfile.from_payload(negative)

        nonnum = json.loads(json.dumps(good))
        next(iter(nonnum["curves"].values()))["coefficients"] = [
            "x", 0.0, 0.0, 0.0,
        ]
        with pytest.raises(ConfigError, match="corrupt"):
            CalibrationProfile.from_payload(nonnum)

        gutted = json.loads(json.dumps(good))
        del next(iter(gutted["curves"].values()))["samples"]
        with pytest.raises(ConfigError, match="missing"):
            validate_profile_schema(gutted)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_profile(str(path))
        with pytest.raises(ConfigError, match="read"):
            load_profile(str(tmp_path / "does-not-exist.json"))

    def test_empty_curves_rejected(self):
        payload = make_profile().to_payload()
        payload["curves"] = {}
        with pytest.raises(ConfigError, match="curves"):
            validate_profile_schema(payload)

    def test_curve_key_algorithm_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="corrupt"):
            CalibrationProfile(
                machine="KNL", engine="fast", nthreads=1, grid={},
                curves={"hash": AlgorithmCurve(
                    algorithm="heap", coefficients=(0.0, 0.0, 0.0, 1.0),
                    samples=1, rmse_seconds=0.0,
                )},
            )

    def test_unknown_machine_rejected(self):
        payload = make_profile().to_payload()
        payload["machine"] = "M1"
        with pytest.raises(ConfigError, match="machine"):
            CalibrationProfile.from_payload(payload)


class TestActivation:
    def test_explicit_set_and_clear(self):
        assert active_profile() is None
        p = make_profile()
        assert set_active_profile(p) is None
        assert active_profile() is p
        clear_active_profile()
        assert active_profile() is None

    def test_env_var_activation(self, tmp_path, monkeypatch):
        p = make_profile()
        path = str(tmp_path / "env-profile.json")
        p.save(path)
        monkeypatch.setenv(PROFILE_ENV_VAR, path)
        ambient = active_profile()
        assert ambient == p
        assert active_profile() is ambient  # cached, not re-loaded

        explicit = make_profile({"heap": 0.01})
        set_active_profile(explicit)
        assert active_profile() is explicit  # explicit beats env

    def test_env_broken_profile_raises_every_call(self, tmp_path, monkeypatch):
        path = tmp_path / "broken.json"
        path.write_text("[]")
        monkeypatch.setenv(PROFILE_ENV_VAR, str(path))
        with pytest.raises(ConfigError):
            active_profile()
        with pytest.raises(ConfigError):  # not silently cached as absent
            active_profile()

    def test_options_calibration_field_validated(self):
        with pytest.raises(ConfigError, match="calibration"):
            SpgemmOptions(calibration=42)
        opts = SpgemmOptions(calibration=make_profile())
        assert "calibration" not in opts.to_wire()  # process-local


class TestCalibratedSelector:
    def test_profile_absent_is_static_recommend(self):
        a = er_matrix(7, 8, seed=3)
        for sort_output in (True, False):
            assert recommend_calibrated(
                a, sort_output=sort_output
            ) == recommend(a, sort_output=sort_output)

    def test_cheapest_candidate_wins(self):
        a = er_matrix(7, 8, seed=3)
        p = make_profile({"heap": 0.001})
        d = recommend_calibrated(a, profile=p)
        assert d.algorithm == "heap"
        assert "calibrated" in d.reason
        assert d.compression_ratio > 0 and d.skew >= 1.0

    def test_excluded_proxies_never_priced(self):
        assert not set(candidate_algorithms()) & NEVER_SELECTED
        # Even a curve for an excluded proxy cannot make it win.
        p = make_profile()
        p.curves["mkl"] = AlgorithmCurve(
            algorithm="mkl", coefficients=(0.0, 0.0, 0.0, 1e-9),
            samples=1, rmse_seconds=0.0,
        )
        d = recommend_calibrated(er_matrix(7, 8, seed=3), profile=p)
        assert d.algorithm not in NEVER_SELECTED

    def test_autotune_only_algorithms_reachable(self):
        assert CALIBRATED_ONLY <= set(candidate_algorithms())
        a = er_matrix(7, 8, seed=3)
        p = make_profile({"esc": 1e-6})
        d = recommend_calibrated(a, profile=p)
        assert d.algorithm == "esc"
        # ... which the static recipe can never name.
        assert recommend(a).algorithm not in CALIBRATED_ONLY

    def test_degenerate_delegates_to_static_guard(self):
        empty = csr_from_dense(np.zeros((4, 4)))
        d = recommend_calibrated(empty, profile=make_profile())
        assert d == recommend(empty)
        assert "degenerate" in d.reason

    def test_profile_without_candidate_curves_falls_back(self):
        p = make_profile()
        p.curves = {"mkl": AlgorithmCurve(
            algorithm="mkl", coefficients=(0.0, 0.0, 0.0, 1.0),
            samples=1, rmse_seconds=0.0,
        )}
        a = er_matrix(7, 8, seed=3)
        assert recommend_calibrated(a, profile=p) == recommend(a)

    def test_resolve_auto_static_path_has_no_observer(self):
        a = er_matrix(7, 8, seed=3)
        algorithm, observe = resolve_auto(a, a)
        assert algorithm == recommend(a, a).algorithm
        assert observe is None

    def test_resolve_auto_calibrated_path_observes(self):
        a = er_matrix(7, 8, seed=3)
        p = make_profile({"hash": 0.001})
        algorithm, observe = resolve_auto(a, a, profile=p)
        assert algorithm == "hash"
        assert observe is not None
        observe(0.002)
        assert p.refiner.observations("hash") == 1

    @pytest.mark.parametrize("engine", ["faithful", "fast"])
    def test_spgemm_auto_honours_profile(self, engine):
        a = er_matrix(6, 8, seed=12)
        assert resolve_auto(a, a, sort_output=False)[0] == "hash"
        p = make_profile({"heap": 0.001})
        c = spgemm(
            a, a, algorithm="auto", sort_output=False, calibration=p,
            engine=engine,
        )
        ref = spgemm(a, a, algorithm="heap")
        assert c.sorted_rows  # heap's sorted rows, not hash's unsorted ones
        assert np.array_equal(c.indptr, ref.indptr)
        assert np.array_equal(c.indices, ref.indices)
        assert np.array_equal(c.data.view(np.uint64), ref.data.view(np.uint64))


class TestAutoNumerics:
    def test_profile_absent_auto_bit_identical_to_static(self):
        a = er_matrix(8, 8, seed=11)
        static = recommend(a, a, sort_output=True).algorithm
        c_auto = spgemm(a, a, algorithm="auto")
        c_direct = spgemm(a, a, algorithm=static)
        assert np.array_equal(c_auto.indptr, c_direct.indptr)
        assert np.array_equal(c_auto.indices, c_direct.indices)
        assert np.array_equal(c_auto.data, c_direct.data)

    @given(
        seed=st.integers(0, 1000),
        scale=st.integers(4, 7),
        sort_output=st.booleans(),
        winner=st.sampled_from(["hash", "hashvec", "heap", "spa", "esc"]),
    )
    @settings(**COMMON)
    def test_calibrated_selection_never_changes_numerics(
        self, seed, scale, sort_output, winner
    ):
        """auto + profile == the chosen algorithm called directly."""
        a = er_matrix(scale, 4, seed=seed)
        profile = make_profile({winner: 1e-9})
        c_auto = spgemm(
            a, a, algorithm="auto", sort_output=sort_output,
            calibration=profile,
        )
        c_direct = spgemm(a, a, algorithm=winner, sort_output=sort_output)
        assert np.array_equal(c_auto.indptr, c_direct.indptr)
        assert np.array_equal(c_auto.indices, c_direct.indices)
        assert np.array_equal(c_auto.data, c_direct.data)


class TestOnlineRefiner:
    REGIME = (0, False, True)

    def test_first_observation_seeds_bucket(self):
        r = OnlineRefiner()
        r.observe("hash", self.REGIME,
                  predicted_seconds=1.0, measured_seconds=2.0)
        assert r.correction("hash", self.REGIME) == pytest.approx(2.0)

    def test_ewma_converges_to_true_ratio(self):
        r = OnlineRefiner()
        for _ in range(40):
            r.observe("hash", self.REGIME,
                      predicted_seconds=1.0, measured_seconds=4.0)
        assert r.correction("hash", self.REGIME) == pytest.approx(4.0, rel=1e-3)

    def test_correction_clamped(self):
        r = OnlineRefiner()
        r.observe("hash", self.REGIME,
                  predicted_seconds=1.0, measured_seconds=1e9)
        assert r.correction("hash", self.REGIME) <= MAX_CORRECTION
        r.observe("heap", self.REGIME,
                  predicted_seconds=1e9, measured_seconds=1.0)
        assert r.correction("heap", self.REGIME) >= 1.0 / MAX_CORRECTION

    def test_nonpositive_samples_ignored(self):
        r = OnlineRefiner()
        r.observe("hash", self.REGIME,
                  predicted_seconds=0.0, measured_seconds=1.0)
        r.observe("hash", self.REGIME,
                  predicted_seconds=1.0, measured_seconds=-1.0)
        assert r.observations() == 0
        assert r.correction("hash", self.REGIME) == 1.0

    def test_repeat_fingerprints_damped(self):
        loud = OnlineRefiner()
        for _ in range(10):
            loud.observe("hash", self.REGIME, predicted_seconds=1.0,
                         measured_seconds=8.0, fingerprint="fp-new-%d" % _)
        damped = OnlineRefiner()
        damped.observe("hash", self.REGIME, predicted_seconds=1.0,
                       measured_seconds=1.0, fingerprint="fp-hot")
        for _ in range(9):
            damped.observe("hash", self.REGIME, predicted_seconds=1.0,
                           measured_seconds=8.0, fingerprint="fp-hot")
        # distinct structures pull the bucket to 8x; one hot structure
        # repeating the same story barely moves it
        assert loud.correction("hash", self.REGIME) == pytest.approx(8.0)
        assert damped.correction("hash", self.REGIME) < 3.0

    def test_unseen_regime_falls_back_to_algorithm_average(self):
        r = OnlineRefiner()
        r.observe("hash", (0, False, True),
                  predicted_seconds=1.0, measured_seconds=2.0)
        r.observe("hash", (3, True, False),
                  predicted_seconds=1.0, measured_seconds=8.0)
        # geometric mean of 2x and 8x is 4x
        assert r.correction("hash", (9, False, False)) == pytest.approx(4.0)
        assert r.correction("heap", (9, False, False)) == 1.0

    def test_snapshot_is_jsonable(self):
        r = OnlineRefiner()
        r.observe("hash", self.REGIME,
                  predicted_seconds=1.0, measured_seconds=2.0,
                  fingerprint="fp")
        snap = json.loads(json.dumps(r.snapshot()))
        assert snap["fingerprints"] == 1
        (bucket,) = snap["buckets"]
        assert bucket["algorithm"] == "hash"
        assert bucket["correction"] == pytest.approx(2.0)
        assert bucket["observations"] == 1

    def test_regime_key_axes(self):
        assert regime_key(1.0, 1.0, True) == (0, False, True)
        assert regime_key(16.0, 1.0, False) == (4, False, False)
        assert regime_key(0.5, 99.0, True)[0] == 0  # CR floored at 1
        assert regime_key(1.0, 99.0, True)[1] is True

    def test_refinement_flips_the_selection(self):
        """An algorithm measured far above its curve loses the next pick."""
        a = er_matrix(7, 8, seed=5)
        p = make_profile({"hash": 0.5, "heap": 0.7})
        algorithm, observe = resolve_auto(a, a, profile=p)
        assert algorithm == "hash"
        # hash keeps measuring ~64x its predicted second; distinct
        # fingerprints so each report carries full weight
        q = ProblemQuantities.compute(a, a)
        regime = regime_key(q.compression_ratio, row_skew(a), True)
        for i in range(16):
            p.refiner.observe("hash", regime, predicted_seconds=1.0,
                              measured_seconds=64.0, fingerprint=i)
        flipped, _ = resolve_auto(a, a, profile=p)
        assert flipped == "heap"


class TestPlanCacheRevisit:
    def test_refined_corrections_overturn_cached_auto_entry(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "AUTO_REVISIT_PERIOD", 2)
        a = er_matrix(7, 8, seed=9)
        p = make_profile({"hash": 0.5, "heap": 0.7})
        cache = PlanCache(maxsize=8)
        opts = SpgemmOptions(algorithm="auto", calibration=p)

        c0 = cache.execute(a, a, opts)
        (entry,) = cache._entries.values()
        assert getattr(entry, "algorithm", entry) == "hash"

        # production keeps telling the refiner hash is mispriced
        q = ProblemQuantities.compute(a, a)
        regime = regime_key(q.compression_ratio, row_skew(a), True)
        for i in range(16):
            p.refiner.observe("hash", regime, predicted_seconds=1.0,
                              measured_seconds=64.0, fingerprint=(i, "fp"))

        # hit 1 keeps the entry; hit 2 triggers the revisit, drops the
        # stale hash plan and rebuilds under the refined winner
        c1 = cache.execute(a, a, opts)
        c2 = cache.execute(a, a, opts)
        (entry,) = cache._entries.values()
        assert getattr(entry, "algorithm", entry) == "heap"
        for c in (c1, c2):
            assert np.array_equal(c.indptr, c0.indptr)
            assert np.array_equal(c.indices, c0.indices)
            assert np.array_equal(c.data, c0.data)

    def test_static_auto_entries_never_revisited(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "AUTO_REVISIT_PERIOD", 1)
        a = er_matrix(6, 8, seed=10)
        cache = PlanCache(maxsize=8)
        calls = []
        import repro.autotune as autotune_mod

        real = autotune_mod.resolve_auto

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(autotune_mod, "resolve_auto", counting)
        opts = SpgemmOptions(algorithm="auto")
        cache.execute(a, a, opts)
        n_after_miss = len(calls)
        for _ in range(4):
            cache.execute(a, a, opts)
        # no profile active: hits never re-run the selector
        assert len(calls) == n_after_miss


class TestCalibrationRun:
    """One real (tiny) calibration sweep end to end."""

    def test_run_calibration_tiny_grid(self):
        from repro.autotune import run_calibration

        profile = run_calibration(
            scale=4, algorithms=["hash", "heap"], repeats=1, seed=3
        )
        assert set(profile.curves) == {"hash", "heap"}
        for curve in profile.curves.values():
            assert curve.samples > 0
            assert all(c >= 0 for c in curve.coefficients)
            assert math.isfinite(curve.rmse_seconds)
        validate_profile_schema(profile.to_payload())
        assert profile.to_payload()["schema"] == PROFILE_SCHEMA
        # the freshly fitted profile actually drives selection
        a = er_matrix(6, 6, seed=4)
        d = recommend_calibrated(a, profile=profile)
        assert d.algorithm in {"hash", "heap"}

    def test_run_calibration_rejects_bad_inputs(self):
        from repro.autotune import run_calibration
        from repro.autotune.calibrate import calibration_grid

        with pytest.raises(ConfigError):
            run_calibration(scale=4, algorithms=["mkl"])
        with pytest.raises(ConfigError):
            run_calibration(scale=4, repeats=0)
        with pytest.raises(ConfigError):
            calibration_grid(scale=3)
