"""Determinism and plumbing tests for the parallel sweep executor."""

import pickle

import pytest

from repro.experiments import figure8, parallel
from repro.experiments.config import Figure8Config
from repro.experiments.parallel import (
    PointSpec,
    build_sweep_specs,
    derive_seed,
    parse_jobs,
    resolve_jobs,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(2021, "gnutella", "ERGO", 64.0) == derive_seed(
            2021, "gnutella", "ERGO", 64.0
        )

    def test_distinct_points_get_distinct_seeds(self):
        seeds = {
            derive_seed(2021, network, defense, t)
            for network in ("gnutella", "bitcoin")
            for defense in ("ERGO", "CCOM")
            for t in (1.0, 64.0, 4096.0)
        }
        assert len(seeds) == 12

    def test_base_seed_matters(self):
        assert derive_seed(1, "gnutella", "ERGO", 1.0) != derive_seed(
            2, "gnutella", "ERGO", 1.0
        )


class TestJobsParsing:
    def test_explicit_pair(self):
        assert parse_jobs(["--quick", "--jobs", "4"]) == 4

    def test_equals_form(self):
        assert parse_jobs(["--jobs=3"]) == 3

    def test_absent_defaults_to_cpu_count(self):
        assert parse_jobs(["--quick"]) == resolve_jobs(None) >= 1

    def test_missing_value_raises(self):
        with pytest.raises(SystemExit):
            parse_jobs(["--jobs"])

    def test_non_integer_exits_with_message(self):
        with pytest.raises(SystemExit, match="--jobs expects an integer, got 'x'"):
            parse_jobs(["--jobs", "x"])

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1


class TestSpecs:
    def test_picklable(self):
        spec = PointSpec(
            network="gnutella", defense="ERGO", t_rate=64.0,
            seed=7, horizon=100.0, n0=400,
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_cartesian_product_order(self):
        specs = build_sweep_specs(
            networks=["gnutella", "bitcoin"],
            defenses=["A", "B"],
            t_rates=[1.0, 2.0],
            horizon=10.0,
            seed=0,
        )
        assert len(specs) == 8
        assert [s.network for s in specs[:4]] == ["gnutella"] * 4
        assert [(s.defense, s.t_rate) for s in specs[:4]] == [
            ("A", 1.0), ("A", 2.0), ("B", 1.0), ("B", 2.0),
        ]


class TestParallelMatchesSerial:
    """The tentpole guarantee: jobs=N is row-for-row identical to jobs=1."""

    @pytest.fixture(scope="class")
    def config(self):
        return Figure8Config.quick()

    @pytest.fixture(scope="class")
    def serial_rows(self, config):
        return figure8.run(config, jobs=1)

    def test_parallel_rows_identical(self, config, serial_rows):
        parallel_rows = figure8.run(config, jobs=4)
        assert parallel_rows == serial_rows

    def test_same_seed_bit_identical(self, config, serial_rows):
        again = figure8.run(config, jobs=1)
        assert again == serial_rows

    def test_rows_carry_queue_counters(self, serial_rows):
        # SweepResult equality covers counters, so identical rows above
        # really did compare event traffic; make sure it is populated.
        assert all(r.counters.get("queue_pops", 0) > 0 for r in serial_rows)


class TestParallelMapSmallInputs:
    def test_single_item_stays_serial(self):
        assert parallel.map_report(len, [[1, 2, 3]], jobs=8).rows == [3]

    def test_star_unpacks(self):
        report = parallel.map_report(pow, [(2, 3), (3, 2)], jobs=1, star=True)
        assert report.rows == [8, 9]


class TestChunkedSubmission:
    """Points fanned out over several workers come back in order."""

    def test_chunked_map_preserves_order(self):
        items = list(range(23))
        out = parallel.map_report(str, items, jobs=2).rows
        assert out == [str(i) for i in items]

    def test_chunked_star_map_preserves_order(self):
        items = [(i, 2) for i in range(17)]
        out = parallel.map_report(pow, items, jobs=2, star=True).rows
        assert out == [i * i for i in range(17)]
