"""The `repro simulate` subcommand."""

import pytest

from repro.cli import _parse_params, main


class TestParseParams:
    def test_int_stays_int(self):
        params = _parse_params(["n=2", "K=5"])
        assert params == {"n": 2, "K": 5}
        assert all(isinstance(v, int) for v in params.values())

    def test_float_parsed(self):
        assert _parse_params(["z=2.33"]) == {"z": 2.33}

    def test_scientific_notation_accepted(self):
        assert _parse_params(["mu=1e-3"]) == {"mu": 0.001}
        assert _parse_params(["rate=2.5E2"]) == {"rate": 250.0}
        assert _parse_params(["limit=1e6"]) == {"limit": 1_000_000.0}

    def test_negative_values(self):
        assert _parse_params(["drift=-0.5"]) == {"drift": -0.5}

    def test_missing_separator_rejected(self):
        with pytest.raises(SystemExit):
            _parse_params(["n"])

    def test_missing_key_rejected(self):
        with pytest.raises(SystemExit):
            _parse_params(["=3"])

    def test_non_numeric_rejected(self):
        with pytest.raises(SystemExit):
            _parse_params(["n=abc"])


class TestSimulate:
    def test_sraa_run(self, capsys):
        code = main(
            [
                "simulate",
                "--policy", "sraa",
                "-p", "n=2", "-p", "K=5", "-p", "D=3",
                "--load", "9",
                "--transactions", "2000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SRAA(n=2, K=5, D=3)" in out
        assert "avg response time" in out
        assert "rejuvenations" in out

    def test_none_policy(self, capsys):
        code = main(
            ["simulate", "--policy", "none", "--load", "1",
             "--transactions", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no rejuvenation" in out
        assert "rejuvenations     : 0" in out

    def test_float_params(self, capsys):
        code = main(
            ["simulate", "--policy", "clta", "-p", "n=15", "-p", "z=2.33",
             "--load", "2", "--transactions", "1000"]
        )
        assert code == 0
        assert "CLTA(n=15, z=2.33)" in capsys.readouterr().out

    def test_replications_reported(self, capsys):
        code = main(
            ["simulate", "--policy", "periodic", "-p", "period=200",
             "--load", "3", "--transactions", "1000",
             "--replications", "2"]
        )
        assert code == 0
        assert "2 x 1000" in capsys.readouterr().out

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit):
            main(["simulate", "-p", "n", "--transactions", "1000"])

    def test_bad_param_value(self):
        with pytest.raises(SystemExit):
            main(["simulate", "-p", "n=abc", "--transactions", "1000"])

    @pytest.mark.parametrize(
        "policy, param, problem",
        [
            ("sraa", "K=inf", "must be an integer"),
            ("sraa", "n=nan", "must be a number"),
            ("sraa", "n=2.5", "must be an integer"),
            ("sraa", "n=0", "sample size"),
            ("sraa", "foo=1", "unknown parameter"),
            ("periodic", "period=-5", "period"),
            ("threshold", "limit=nan", "must be a number"),
            ("none", "n=2", "takes no parameters"),
        ],
    )
    def test_bad_policy_param_is_one_line(
        self, policy, param, problem, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--policy", policy, "-p", param,
                  "--transactions", "1000"])
        message = str(excinfo.value.code)
        assert message.startswith("--param: ") and problem in message
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    def test_unknown_policy(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "--policy", "quantum",
                 "--transactions", "1000"]
            )
        message = str(excinfo.value.code)
        assert message.startswith("--policy: unknown policy 'quantum'")
        assert "sraa" in message and "clta" in message
        assert "\n" not in message

    def test_workers_gives_identical_numbers(self, capsys):
        args = [
            "simulate", "--policy", "sraa",
            "-p", "n=2", "-p", "K=5", "-p", "D=3",
            "--load", "6", "--transactions", "1000",
            "--replications", "2", "--seed", "3",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # Everything except per-invocation metadata (wall-clock, the
        # sequential ledger entry id) must be identical.
        strip = lambda out: [
            line
            for line in out.splitlines()
            if "wall-clock" not in line and "ledger" not in line
        ]
        assert strip(serial_out) == strip(parallel_out)
        # The ledger ids differ only in sequence number: the manifest
        # hash suffix (run identity) is backend-independent.
        ids = [
            line.rsplit("-", 1)[-1]
            for out in (serial_out, parallel_out)
            for line in out.splitlines()
            if "ledger" in line
        ]
        assert len(ids) == 2 and ids[0] == ids[1]

    def test_scientific_notation_param_end_to_end(self, capsys):
        code = main(
            ["simulate", "--policy", "ewma", "-p", "lam=2e-1",
             "--load", "2", "--transactions", "1000"]
        )
        assert code == 0
        assert "avg response time" in capsys.readouterr().out
