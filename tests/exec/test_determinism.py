"""The execution layer's core guarantee: backend choice never changes
results.  Serial and process-pool runs of the same seeded scenario must
be bit-identical (the ISSUE's acceptance criterion)."""

import pytest

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.scale import Scale
from repro.experiments.sweep import sraa_config, sweep_policies


def _replicate(backend):
    return run_replications(
        PAPER_CONFIG,
        arrival=ArrivalSpec.poisson(PAPER_CONFIG.arrival_rate_for_load(6.0)),
        policy=PolicySpec.sraa(2, 5, 3),
        n_transactions=300,
        replications=3,
        seed=42,
        backend=backend,
    )


class TestRunReplicationsDeterminism:
    def test_serial_and_pool_bit_identical(self):
        serial = _replicate(SerialBackend())
        pooled = _replicate(ProcessPoolBackend(workers=2))
        assert serial == pooled  # every field of every RunResult

    def test_serial_is_reproducible(self):
        assert _replicate(SerialBackend()) == _replicate(SerialBackend())


class TestRiskThresholdDeterminism:
    """``risk-threshold`` draws its Bernoulli trials from a named stream
    of the run, so a seeded run reproduces on any backend, on one node
    and on many."""

    def _replicate(self, backend, system=None):
        return run_replications(
            PAPER_CONFIG,
            arrival=ArrivalSpec.poisson(
                PAPER_CONFIG.arrival_rate_for_load(9.0)
            ),
            policy=PolicySpec("risk-threshold"),
            n_transactions=3000,
            replications=2,
            seed=7,
            backend=backend,
            system=system,
        )

    @pytest.mark.parametrize("system", [None, "cluster"])
    def test_serial_is_reproducible(self, system):
        first = self._replicate(SerialBackend(), system)
        assert all(run.rejuvenations > 0 for run in first.runs)
        assert first == self._replicate(SerialBackend(), system)

    def test_serial_and_pool_bit_identical(self):
        serial = self._replicate(SerialBackend())
        assert serial == self._replicate(ProcessPoolBackend(workers=2))


class TestWithoutDegradationRoundTrip:
    """SystemConfig.without_degradation() through picklable job specs.

    The derived config (GC, overhead and downtime disabled) must
    produce the same results whether the job is executed in-process or
    pickled into a worker -- i.e. the derived dataclass survives the
    round trip field-exactly.  The fault-scenario zoo runs entirely on
    this config, so a drift here would silently change every campaign.
    """

    def _replicate(self, backend):
        config = PAPER_CONFIG.without_degradation()
        return run_replications(
            config,
            arrival=ArrivalSpec.poisson(
                PAPER_CONFIG.arrival_rate_for_load(6.0)
            ),
            policy=PolicySpec.sraa(2, 5, 3),
            n_transactions=300,
            replications=3,
            seed=11,
            backend=backend,
        )

    def test_config_pickle_round_trip_is_identity(self):
        import pickle

        config = PAPER_CONFIG.without_degradation()
        assert pickle.loads(pickle.dumps(config)) == config
        assert not config.enable_gc
        assert not config.enable_overhead
        assert config.rejuvenation_downtime_s == 0.0

    def test_serial_and_pool_bit_identical(self):
        serial = self._replicate(SerialBackend())
        pooled = self._replicate(ProcessPoolBackend(workers=2))
        assert serial == pooled

    def test_degradation_actually_disabled_in_workers(self):
        pooled = self._replicate(ProcessPoolBackend(workers=2))
        assert all(run.gc_count == 0 for run in pooled.runs)


class TestSweepDeterminism:
    def test_serial_and_pool_bit_identical(self):
        scale = Scale(
            transactions=150, replications=2, loads=(0.5, 6.0), label="tiny"
        )
        configs = (sraa_config(2, 5, 3), sraa_config(5, 3, 1))

        def sweep(backend):
            return sweep_policies(configs, scale, seed=7, backend=backend)

        serial = sweep(SerialBackend())
        pooled = sweep(ProcessPoolBackend(workers=2))
        assert serial.loads == pooled.loads == (0.5, 6.0)
        assert list(serial.results) == [c.label for c in configs]
        # Dict-of-dict-of-ReplicatedResult equality is field-exact.
        assert serial.results == pooled.results
