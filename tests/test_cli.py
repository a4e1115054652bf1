"""CLI surface: subcommand plumbing, file outputs, exit codes."""

import json
import math
import os
import resource
import signal
import subprocess
import sys

import pytest

from hude import instances, subset_index
from hude.bench import ResultRow
from hude.cli import main
from hude.distributions import SupportSet, read_rows
from hude.instances import load_instance
from hude.rng import substream
from hude.tradeoff import TradeoffPoint


def _gen_args(out, problem="hude", seed="3"):
    base = ["gen", "--problem", problem, "--n", "100", "--k", "20", "--seed", seed,
            "--out", str(out)]
    if problem == "hude":
        return base + ["--s", "5", "--eps", "0.5"]
    if problem == "urde":
        return base + ["--s", "5", "--w-u", "0.5"]
    return base + ["--w-u", "0.5", "--w-q", "0.05"]


def _run_limited(argv, src_path, gigabytes=3):
    """``hude argv`` in a child whose address space is capped, so an allocation
    the size checks miss fails there instead of on the host."""
    limit = gigabytes << 30
    return subprocess.run(
        [sys.executable, "-m", "hude.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src_path)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestGen:
    @pytest.mark.parametrize("problem", ["hude", "urde", "gapss"])
    def test_writes_loadable_instance(self, tmp_path, problem):
        out = tmp_path / problem
        assert main(_gen_args(out, problem)) == 0
        instance = load_instance(out)
        assert instance.dataset.k == 20
        assert instance.dataset.n == 100

    def test_identical_seeds_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_gen_args(a)) == 0
        assert main(_gen_args(b)) == 0
        for name in ("dataset.txt", "instance.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize(
        "problem, flags",
        [("hude", ["--s", "5", "--eps", "0.5"]), ("urde", ["--s", "5", "--w-u", "0.5"]),
         ("gapss", ["--w-u", "0.5", "--w-q", "0.05"])],
    )
    def test_oversized_dataset_is_a_clean_error(self, tmp_path, src_path, problem, flags):
        # 1e12 cells: the boolean matrix alone would be 931 GiB.
        out = tmp_path / "inst"
        done = _run_limited(["gen", "--problem", problem, "--n", "100", "--k", "10000000000",
                             *flags, "--out", str(out)], src_path)
        assert done.returncode == 1
        assert "k=10,000,000,000 supports over n=100 elements" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_failed_separation_check_is_a_clean_error(self, tmp_path, capsys):
        # 80,000 half supports of 10 of 20 elements: every draw holds a pair
        # closer than eps = 0.5, so all 11 attempts fail the check.
        out = tmp_path / "inst"
        rc = main(["gen", "--problem", "hude", "--n", "20", "--k", "80000", "--s", "5",
                   "--eps", "0.5", "--seed", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: separation promise failed after 10 retries" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_truth_support_is_a_clean_error(self, tmp_path, capsys):
        # Every redraw of the truth row is empty at w_u = 1e-300; they once went on forever.
        out = tmp_path / "inst"
        rc = _main_within(["gen", "--problem", "urde", "--n", "10", "--k", "3", "--w-u",
                           "1e-300", "--s", "1e300", "--out", str(out)], seconds=5)
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: truth support still empty after 1,000 redraws" in err
        assert "empty with probability (1 - w_u)^n = 1 (w_u=1e-300)" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, seed):
        out = tmp_path / "inst"
        assert main(_gen_args(out, seed=seed)) == 1
        assert f"seed must be an integer in [0, 2**64) (got {seed})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem, given, message",
        [
            ("hude", [], "gen hude needs --eps and --s"),
            ("hude", ["--s", "5"], "gen hude needs --eps"),
            ("urde", [], "gen urde needs --w-u and --s"),
            ("gapss", ["--w-u", "0.5"], "gen gapss needs --w-q"),
        ],
        ids=["hude-none", "hude-s", "urde-none", "gapss-w-u"],
    )
    def test_missing_problem_flags_fail(self, tmp_path, capsys, problem, given, message):
        rc = main(["gen", "--problem", problem, "--n", "100", "--k", "10",
                   "--out", str(tmp_path / "x"), *given])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestQuery:
    def test_elimination_result_json(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(_gen_args(out))
        rc = main(["query", "--instance", str(out), "--algorithm", "elimination"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "found"
        assert payload["index"] == payload["truth_index"]
        assert payload["ops"] > 0
        assert payload["wall_time_ns"] >= 0

    def test_subset_result_with_index_dump(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(_gen_args(out))
        dump = tmp_path / "index.txt"
        rc = main([
            "query", "--instance", str(out), "--algorithm", "subset",
            "--ell", "2", "--num-probes", "400", "--seed", "5",
            "--dump-index", str(dump),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "found"
        assert payload["index"] == payload["truth_index"]
        lines = dump.read_text().strip().split("\n")
        assert lines[0].startswith("# L=400 ell=2")
        assert len(lines) == 401

    def test_subset_requires_probe_flags(self, tmp_path):
        out = tmp_path / "inst"
        main(_gen_args(out))
        assert main(["query", "--instance", str(out), "--algorithm", "subset"]) == 2

    def test_subset_space_exponent_rule(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(_gen_args(out))
        rc = main(["query", "--instance", str(out), "--algorithm", "subset",
                   "--rho-u", "0.9", "--c", "5.0", "--seed", "6"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] in ("found", "not_found")
        assert payload["ops"] > 0

    def test_probe_count_above_the_cap_is_a_clean_error(self, tmp_path, capsys):
        # L = 5 * 20**8 = 1.28e11 probes would need about 1 TB of probe matrix.
        out = tmp_path / "inst"
        main(_gen_args(out))
        rc = _main_within(["query", "--instance", str(out), "--algorithm", "subset",
                           "--rho-u", "8"])
        assert rc == 1
        captured = capsys.readouterr()
        assert ("probe count c * k**rho_u = 1.28e+11 exceeds 10,000,000 "
                "(c=5.0, rho_u=8.0, k=20)") in captured.err
        assert captured.out == ""

    def test_gapss_instances_are_rejected(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(_gen_args(out, "gapss"))
        assert main(["query", "--instance", str(out), "--algorithm", "elimination"]) == 2
        assert "hude.instances.reduce_gapss_to_urde" in capsys.readouterr().err

    def test_num_probes_above_the_cap_is_a_clean_error(self, tmp_path, capsys):
        # 2e9 probes of 3 elements would need about 15 GB before any check.
        out = tmp_path / "inst"
        main(_gen_args(out))
        rc = _main_within(["query", "--instance", str(out), "--algorithm", "subset",
                           "--ell", "3", "--num-probes", "2000000000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "num_probes must be at most 10,000,000 (got 2,000,000,000)" in captured.err
        assert captured.out == ""

    def test_mask_bytes_above_the_cap_is_a_clean_error(self, tmp_path, src_path):
        # 10,000,000 masks of 10,000 bytes would be 100 GB.
        out = tmp_path / "inst"
        assert main(["gen", "--problem", "hude", "--n", "100", "--k", "80000", "--s", "5",
                     "--eps", "0.5", "--seed", "3", "--out", str(out)]) == 0
        done = _run_limited(["query", "--instance", str(out), "--algorithm", "subset",
                             "--ell", "3", "--num-probes", "10000000"], src_path)
        assert done.returncode == 1
        assert ("--num-probes 10,000,000 over k=80,000 supports needs 100,000,000,000 bytes"
                in done.stderr)
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_missing_instance_dir_is_a_file_error(self, tmp_path):
        rc = main(["query", "--instance", str(tmp_path / "nope"),
                   "--algorithm", "elimination"])
        assert rc == 1

    def test_corrupt_dataset_is_a_clean_error(self, tmp_path, src_path):
        out = tmp_path / "inst"
        main(_gen_args(out))
        dataset = out / "dataset.txt"
        lines = dataset.read_text().split("\n")
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[header + 2] = "-1 " + lines[header + 2]
        dataset.write_text("\n".join(lines))
        done = subprocess.run(
            [sys.executable, "-m", "hude.cli", "query", "--instance", str(out),
             "--algorithm", "elimination"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src_path)),
        )
        assert done.returncode == 1
        assert f"line {header + 3}: support 1 has element -1 outside" in done.stderr
        assert "Traceback" not in done.stderr

    def test_missing_sidecar_key_is_a_clean_error(self, tmp_path, src_path):
        out = tmp_path / "inst"
        main(_gen_args(out))
        sidecar = json.loads((out / "instance.json").read_text())
        del sidecar["truth_index"]
        (out / "instance.json").write_text(json.dumps(sidecar))
        done = subprocess.run(
            [sys.executable, "-m", "hude.cli", "query", "--instance", str(out),
             "--algorithm", "elimination"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src_path)),
        )
        assert done.returncode == 1
        assert "sidecar lacks key(s) 'truth_index'" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps", "0"], "epsilon must be finite and positive (got 0.0)"),
            (["--eps", "-1"], "epsilon must be finite and positive (got -1.0)"),
            (["--c-query", "-5", "--variant", "uj-certify"],
             "c_query must be finite and positive (got -5.0)"),
            (["--c-query", "nan"], "c_query must be finite and positive (got nan)"),
            (["--rho-u", "0.5", "--c-query", "-5"], "c_query must be finite and positive"),
            (["--rho-u", "0.5", "--eps", "0"], "separation must be in (0, 2]"),
        ],
    )
    def test_bad_certificate_parameter_is_a_clean_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "inst"
        main(_gen_args(out))
        probes = [] if "--rho-u" in flags else ["--ell", "1", "--num-probes", "50"]
        rc = main(["query", "--instance", str(out), "--algorithm", "subset", *probes, *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize(
        "key, value, algorithm",
        [("epsilon", 7, "elimination"), ("epsilon", math.nan, "elimination"),
         ("s", -5, "subset"), ("epsilon", 7, "subset"), ("s", math.inf, "elimination")],
    )
    def test_sidecar_parameter_outside_its_domain_is_a_clean_error(
        self, tmp_path, capsys, key, value, algorithm
    ):
        out = tmp_path / "inst"
        main(_gen_args(out))
        sidecar = json.loads((out / "instance.json").read_text())
        (out / "instance.json").write_text(json.dumps({**sidecar, key: value}))
        probes = ["--ell", "2", "--num-probes", "50"] if algorithm == "subset" else []
        assert main(["query", "--instance", str(out), "--algorithm", algorithm, *probes]) == 1
        captured = capsys.readouterr()
        assert f"sidecar {key} {value!r} is outside" in captured.err
        assert captured.out == ""


class TestBench:
    def test_sweep_to_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main([
            "bench", "--sweep", "k", "--values", "100,200", "--seed", "7",
            "--queries", "8", "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out, ResultRow)
        assert len(rows) == 4
        assert {r.algorithm for r in rows} == {"subset", "elimination"}

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sweep_param": "k", "sweep_values": [100], "n": 64, "S": 30,
            "ell": 2, "queries_per_point": 5, "seed": 1,
        }))
        out = tmp_path / "rows.csv"
        rc = main(["bench", "--config", str(config), "--seed", "2", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out, ResultRow)
        assert all(r.seed == 2 for r in rows)

    def test_flag_seed_zero_overrides_config_seed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sweep_param": "k", "sweep_values": [100], "n": 64, "S": 30,
            "ell": 2, "queries_per_point": 5, "seed": 5,
        }))
        out = tmp_path / "rows.csv"
        assert main(["bench", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
        assert {r.seed for r in read_rows(out, ResultRow)} == {0}

    @pytest.mark.parametrize("config", [None, {"sweep_values": [100]}])
    def test_missing_sweep_param_is_a_clean_error(self, tmp_path, capsys, config):
        out = tmp_path / "rows.csv"
        argv = ["bench", "--out", str(out)]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 1
        assert "config lacks key(s) 'sweep_param'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_variant_refused_before_the_sweep(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sweep_param": "k", "sweep_values": [100], "variant": "x"}))
        out = tmp_path / "rows.csv"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "variant must be one of ('bucket-eliminate', 'uj-certify') (got 'x')" in err
        assert "sweeping" not in err
        assert not out.exists()

    def test_config_seed_outside_64_bits_rejected(self, tmp_path, capsys):
        # Seed 2**64 once ran as seed 0 under a seed column of 2**64.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sweep_param": "k", "sweep_values": [100], "n": 64, "S": 30,
            "ell": 2, "queries_per_point": 5, "seed": 2**64,
        }))
        out = tmp_path / "rows.csv"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 1
        assert ("seed must be an integer in [0, 2**64) (got 18446744073709551616)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_cap_abort_exits_nonzero(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main([
            "bench", "--sweep", "k", "--values", "200", "--seed", "3",
            "--queries", "10", "--L-init", "4", "--L-cap", "8",
            "--config", str(_write_hard_config(tmp_path)),
            "--out", str(out),
        ])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "config must be a JSON object, not list"),
            ({"sweep_param": "k", "sweep_values": [100], "k": "abc"}, "config key 'k'"),
            ({"sweep_param": "k", "sweep_values": [100], "epsilon": 0},
             "epsilon must be finite and positive (got 0)"),
            ({"sweep_param": "k", "sweep_values": [100], "epsilon": float("nan")},
             "epsilon must be finite and positive (got nan)"),
            ({"sweep_param": "k", "sweep_values": [100], "c_query": -5},
             "c_query must be finite and positive (got -5)"),
            ({"sweep_param": "k", "sweep_values": [0]},
             "sweep value 0 for k must be a positive integer"),
            ({"sweep_param": "k", "sweep_values": [100, -5]},
             "sweep value -5 for k must be a positive integer"),
            ({"sweep_param": "k", "sweep_values": [2.5]},
             "sweep value 2.5 for k must be a positive integer"),
            ({"sweep_param": "S", "sweep_values": [0]},
             "sweep value 0 for S must be a positive integer"),
            ({"sweep_param": "ell", "sweep_values": [0]},
             "sweep value 0 for ell must be a positive integer"),
            ({"sweep_param": "n", "sweep_values": [64, 63]},
             "sweep value 63 for n must be a positive even integer"),
            ({"sweep_param": "n", "sweep_values": [0]},
             "sweep value 0 for n must be a positive even integer"),
            ({"sweep_param": "k", "sweep_values": [100], "n": 63},
             "domain size n must be even for half-uniform supports (got 63)"),
        ],
    )
    def test_malformed_config_is_a_clean_error(self, tmp_path, capsys, payload, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "rows.csv"
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["2.5", "abc", "100,2.5"])
    def test_non_integer_sweep_value_names_the_flag(self, tmp_path, capsys, values):
        out = tmp_path / "rows.csv"
        assert main(["bench", "--sweep", "k", "--values", values, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        bad = values.split(",")[-1]
        assert f"--values entry {bad!r} is not an integer" in err
        assert "invalid literal" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--L-init", "1000000000", "--L-cap", "2000000000"],
             "L_cap must be at most 10,000,000 (got 2,000,000,000)"),
            (["--L-init", "500", "--L-cap", "100"], "L_init 500 exceeds L_cap 100"),
        ],
    )
    def test_probe_count_flags_are_bounded(self, tmp_path, capsys, flags, message):
        # Checked before the point is generated: nothing is scored or written.
        out = tmp_path / "rows.csv"
        rc = _main_within(["bench", "--sweep", "k", "--values", "100", *flags,
                           "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "sweeping" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--values", "10000000000"], "k=10,000,000,000 supports over n=500 elements"),
            (["--values", "100", "--queries", "100001"],
             "queries_per_point must be at most 100,000 (got 100,001)"),
        ],
    )
    def test_oversized_sweep_point_is_a_clean_error(self, tmp_path, src_path, flags, message):
        out = tmp_path / "rows.csv"
        done = _run_limited(["bench", "--sweep", "k", *flags, "--out", str(out)], src_path)
        assert done.returncode == 1
        assert message in done.stderr
        assert "Traceback" not in done.stderr
        assert "sweeping" not in done.stderr
        assert not out.exists()

    def test_oversized_sample_count_is_a_clean_error(self, tmp_path, src_path):
        # 1e12 draws would be 7.3 TiB of sample streams.
        out = tmp_path / "rows.csv"
        done = _run_limited(["bench", "--sweep", "S", "--values", "10000000000",
                             "--out", str(out)], src_path)
        assert done.returncode == 1
        assert "S=10,000,000,000 samples for each of 100 queries" in done.stderr
        assert "Traceback" not in done.stderr
        assert "sweeping" not in done.stderr
        assert not out.exists()

    def test_unit_probe_factor_is_a_clean_error(self, tmp_path, src_path):
        # Run in a child with a timeout: a factor of 1 used to loop forever.
        done = subprocess.run(
            [sys.executable, "-m", "hude.cli", "bench", "--sweep", "k", "--values", "100",
             "--L-init", "4", "--L-factor", "1", "--L-cap", "100",
             "--out", str(tmp_path / "rows.csv")],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src_path)),
        )
        assert done.returncode == 1
        assert "L_factor must exceed 1 (got 1.0)" in done.stderr
        assert "Traceback" not in done.stderr


def _write_hard_config(tmp_path):
    # Too few samples to disambiguate: the probe search cannot reach 100%.
    path = tmp_path / "hard.json"
    path.write_text(json.dumps({
        "sweep_param": "k", "sweep_values": [200], "n": 40, "S": 5, "ell": 2,
        "queries_per_point": 10,
    }))
    return path


class TestTradeoff:
    def test_curves_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = main([
            "tradeoff", "--rho-u", "0.5", "--s-grid", "20:80:log3",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out, TradeoffPoint)
        assert len(rows) == 12  # 3 grid points x 4 default curves
        assert all(0.0 <= r.rho_q <= 1.0 for r in rows)

    @pytest.mark.parametrize("rho_u", ["inf", "-1"])
    def test_rho_u_outside_its_domain_is_named(self, tmp_path, capsys, rho_u):
        # prior-general reads no rho_u, so only the up-front check refuses it.
        out = tmp_path / "curves.csv"
        rc = main(["tradeoff", "--rho-u", rho_u, "--curves", "prior-general",
                   "--prior-constant", "1", "--s-grid", "20:40:lin2", "--out", str(out)])
        assert rc == 1
        assert "space exponent rho_u must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_prior_general_without_constant_fails(self, tmp_path):
        rc = main([
            "tradeoff", "--rho-u", "0.5", "--s-grid", "20:40:lin2",
            "--curves", "prior-general", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--tu-points", "--tq-points", "--alpha-points"])
    def test_removed_search_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # The solver has no grid or alpha-grid size left to set; a script that
        # still passes one must fail rather than have it ignored.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main(["tradeoff", "--rho-u", "0.5", "--s-grid", "20:40:lin2",
                  flag, "41", "--out", str(out)])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0.01:0.04:lin2", "20:1e-320:log3"])
    def test_sample_ratio_too_small_for_numeric_lop_is_named(self, tmp_path, capsys, spec):
        # There the query density rounds to w_u, which the solver cannot take.
        out = tmp_path / "x.csv"
        rc = main(["tradeoff", "--rho-u", "0.5", "--s-grid", spec, "--curves", "numeric-lop",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "is too small: its query density" in err and "rounds to w_u = 0.5" in err
        assert "sample ratio s = " in err and "0 < w_q < w_u < 1" not in err
        assert not out.exists()

    def test_numeric_lop_at_w_u_one_is_named(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["tradeoff", "--rho-u", "0.5", "--s-grid", "20:40:lin2", "--w-u", "1",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "the numeric-lop curve needs w_u < 1 (got w_u = 1.0)" in err
        assert "0 < w_q < w_u < 1" not in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["oops", "20:40:log0", "20:40:lin-1", "20:40:geo5",
                                      "20:-1:log3"])
    def test_bad_grid_spec_is_usage_error(self, tmp_path, spec):
        with pytest.raises(SystemExit) as err:
            main(["tradeoff", "--rho-u", "0.5", "--s-grid", spec,
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()


class TestPathThroughAFile:
    # Each path runs through a regular file, so opening it raises
    # NotADirectoryError; main must return 1 with the message, not raise.
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--problem", "hude", "--n", "100", "--k", "20", "--s", "5", "--eps", "0.5",
             "--out", "{afile}/x"],
            ["query", "--instance", "{afile}", "--algorithm", "elimination"],
            ["bench", "--sweep", "k", "--values", "100", "--queries", "4", "--out",
             "{afile}/x.csv"],
            ["tradeoff", "--rho-u", "0.5", "--s-grid", "20:40:lin2", "--out", "{afile}/x.csv"],
        ],
        ids=["gen", "query", "bench", "tradeoff"],
    )
    def test_is_a_file_error(self, tmp_path, capsys, argv):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main([a.format(afile=afile) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "file error:" in err
        assert "Not a directory" in err
        assert "Traceback" not in err


class TestOutputCheckedFirst:
    # A bad --out must fail before the sweep or curve it would hold is computed.
    @pytest.mark.parametrize(
        "argv, work",
        [
            (["bench", "--sweep", "k", "--values", "100", "--queries", "4"], "run_sweep"),
            (["tradeoff", "--rho-u", "0.5", "--s-grid", "20:40:lin2"], "tradeoff_rows"),
        ],
        ids=["bench", "tradeoff"],
    )
    def test_bad_out_fails_before_the_work(self, tmp_path, capsys, monkeypatch, argv, work):
        def not_called(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(f"hude.cli.{work}", not_called)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main([*argv, "--out", str(afile / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "file error:" in err
        assert "Traceback" not in err

    def test_existing_out_kept_until_rows_are_ready(self, tmp_path, monkeypatch):
        def failing_sweep(config):
            raise ValueError("sweep failed")

        monkeypatch.setattr("hude.cli.run_sweep", failing_sweep)
        out = tmp_path / "rows.csv"
        out.write_text("previous rows\n")
        argv = ["bench", "--sweep", "k", "--values", "100", "--queries", "4", "--out", str(out)]
        assert main(argv) == 1
        assert out.read_text() == "previous rows\n"
        missing = tmp_path / "missing.csv"
        assert main([*argv[:-1], str(missing)]) == 1
        assert not missing.exists()


class TestVerifyAndUsage:
    def test_verify_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "distributions"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS counter-discipline" in out
        assert "FAIL" not in out

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "hude" in capsys.readouterr().out


def _within(call, seconds=30, name="the call"):
    """``call()``, or TimeoutError if it runs past ``seconds``."""

    def hung(signum, frame):
        raise TimeoutError(f"{name} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _main_within(argv, seconds=30):
    """``main(argv)``'s exit code, or TimeoutError if it runs past ``seconds``
    (a NaN rate once sent Poisson sampling into an endless loop)."""

    def run():
        try:
            return main(argv)
        except SystemExit as err:
            return err.code

    return _within(run, seconds, f"hude {' '.join(argv)}")


class _Validated(Exception):
    """Raised in place of the first large allocation once a value at its cap is accepted."""


def _validated(*args, **kwargs):
    raise _Validated


class TestCapEdges:
    """Each cap: the value at it is accepted and the next one is refused with its
    message, in-process under ``signal.alarm``.  Where accepting would allocate
    more than about 100 MB, the first step after the check raises ``_Validated``."""

    @pytest.mark.parametrize(
        "flags, message",
        [(["--ell", "3", "--num-probes"], "num_probes must be at most 10,000,000 (got 10,000,001)"),
         (["--rho-u", "0", "--c"], "probe count c * k**rho_u = 10000001 exceeds 10,000,000")],
        ids=["num-probes", "space-exponent-rule"],
    )
    def test_num_probes(self, tmp_path, capsys, monkeypatch, flags, message):
        out = tmp_path / "inst"
        assert main(_gen_args(out)) == 0
        argv = ["query", "--instance", str(out), "--algorithm", "subset", *flags]
        with monkeypatch.context() as patch:  # 10,000,000 probes: 80 MB of keys and more
            patch.setattr(subset_index, "sample_probes", _validated)
            with pytest.raises(_Validated):
                _main_within(argv + ["10000000"], seconds=10)
        assert _main_within(argv + ["10000001"], seconds=10) == 1
        assert message in capsys.readouterr().err

    def test_probe_search_cap(self, tmp_path, capsys):
        argv = ["bench", "--sweep", "k", "--values", "100", "--queries", "3", "--L-cap"]
        assert _main_within(argv + ["10000000", "--out", str(tmp_path / "a.csv")]) == 0
        assert _main_within(argv + ["10000001", "--out", str(tmp_path / "b.csv")]) == 1
        assert "L_cap must be at most 10,000,000 (got 10,000,001)" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_query_rate(self, tmp_path, capsys):
        # n / (s * w_u) = 15,625 * 64 = 1e6 exactly; the truth support holds about 244.
        argv = ["gen", "--problem", "urde", "--k", "1", "--w-u", "0.015625", "--s", "1"]
        assert _main_within(argv + ["--n", "15625", "--out", str(tmp_path / "a")]) == 0
        assert _main_within(argv + ["--n", "15626", "--out", str(tmp_path / "b")]) == 1
        assert ("s = 1.0 is too small: the query rate n/(s*w_u) = 1000064 exceeds 1e+06"
                in capsys.readouterr().err)
        assert not (tmp_path / "b").exists()

    def test_poisson_rate(self):
        cap = instances._MAX_POISSON_RATE
        above = math.nextafter(cap, math.inf)
        refused = r"at most 1e\+06 \(got 1000000.0000000001\)"
        # A draw at the cap takes about 0.1 s, truncated or not.
        for truncated in (True, False):
            draw = lambda lam: instances.poisson(lam, 1, substream(1, "cap"), truncated=truncated)
            assert _within(lambda: draw(cap))[0] > 0
            with pytest.raises(ValueError, match=refused):
                _within(lambda: draw(above))

    def test_query_samples(self, tmp_path, capsys, monkeypatch):
        # n / s = 10 / 1e-6 = 1e7 draws exactly (160 MB while drawn); then 10,000,001.
        argv = ["gen", "--problem", "hude", "--n", "10", "--k", "1", "--eps", "0.5"]
        with monkeypatch.context() as patch:
            patch.setattr(SupportSet, "sample", _validated)
            with pytest.raises(_Validated):
                _main_within(argv + ["--s", "1e-6", "--out", str(tmp_path / "a")])
        s_above = repr(10 / 10_000_001)
        assert _main_within(argv + ["--s", s_above, "--out", str(tmp_path / "b")]) == 1
        assert (f"n/s >= 1 query samples (got {s_above}), and at most 10,000,000 of them"
                in capsys.readouterr().err)


class TestSidecarFuzz:
    """Every sidecar key of a seeded instance of each family set to each bad
    value, then ``hude query``: a clean exit code and no escaping exception.
    A bad query is refused with a message naming its key."""

    VALUES = [2**70, -1, 1.5, True, "1", None, {}, [[]], [[1]], [[1, 2**62]], [1.5],
              [True, 1], [[2**70, 1]]]
    QUERY_KEY = {"hude": "query_stream", "urde": "query_stream", "gapss": "query"}

    @pytest.mark.parametrize("problem", ["hude", "urde", "gapss"])
    def test_clean_exit(self, tmp_path, capsys, problem):
        out = tmp_path / "inst"
        assert main(_gen_args(out, problem)) == 0
        path = out / "instance.json"
        sidecar = json.loads(path.read_text())
        argv = ["query", "--instance", str(out), "--algorithm", "elimination"]
        for key in sorted(sidecar):
            for value in self.VALUES:
                path.write_text(json.dumps({**sidecar, key: value}))
                code = _main_within(argv)
                err = capsys.readouterr().err
                case = (key, value, code, err)
                if key == self.QUERY_KEY[problem]:
                    assert code == 1 and "malformed query" in err and repr(key) in err, case
                elif problem == "gapss" and code == 2:  # a loaded gapss instance
                    assert "query runs on sample-based instances" in err, case
                else:
                    assert code in (0, 1) and (code == 0 or "error: " in err), case


class TestFloatFlagFuzz:
    """Every float flag with a non-finite, zero, negative or extreme finite
    value: a clean exit code, no escaping exception, and only finite numbers
    in what is written."""

    VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e308"]
    TRADEOFF = ["tradeoff", "--rho-u", "0.5", "--s-grid", "20:40:lin2", "--prior-constant", "1",
                "--curves", "numeric-lop,analytic-lower,explicit-gapss,upper-half-uniform,"
                "upper-simplified,prior-general"]
    BENCH = ["bench", "--sweep", "k", "--values", "100", "--queries", "3", "--L-cap", "1000"]
    # (command prefix, the fuzzed flag); the flag given last overrides a default.
    CASES = [
        *(("gen-" + problem, flag) for problem, flags in
          (("hude", ("--s", "--eps")), ("urde", ("--s", "--w-u")),
           ("gapss", ("--w-u", "--w-q"))) for flag in flags),
        *(("query", flag) for flag in ("--rho-u", "--c", "--c-query", "--eps")),
        *(("bench", flag) for flag in ("--scale", "--L-factor")),
        *(("tradeoff", flag) for flag in ("--rho-u", "--eps", "--w-u", "--prior-constant",
                                          "--s-grid")),
    ]

    @pytest.fixture(scope="class")
    def instance(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz") / "inst"
        assert main(_gen_args(out)) == 0
        return out

    @staticmethod
    def _strict_json(text):
        def refuse(constant):
            raise ValueError(f"non-finite constant {constant} in JSON")

        return json.loads(text, parse_constant=refuse)

    def _check_finite(self, path):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                self._strict_json(line[1:])
                continue
            for token in line.replace(",", " ").split():
                try:
                    number = float(token)
                except ValueError:
                    continue
                assert math.isfinite(number), f"{path.name}: {line!r}"

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("command, flag", CASES, ids=[f"{c}{f}" for c, f in CASES])
    def test_clean_exit_and_finite_output(self, tmp_path, capsys, instance, command, flag,
                                          value):
        out = tmp_path / "out"
        if command.startswith("gen-"):
            argv = _gen_args(out, command[4:]) + [flag, value]
        elif command == "query":
            argv = ["query", "--instance", str(instance), "--algorithm", "subset",
                    "--rho-u", "0.5", flag, value]
        else:
            if flag == "--s-grid":  # the grid's far end
                value = f"20:{value}:log3"
            argv = [*(self.BENCH if command == "bench" else self.TRADEOFF), "--out", str(out),
                    flag, value]
        self._check_clean_run(argv, out, capsys, json_stdout=command == "query")

    @pytest.mark.parametrize("value", [1e-320, 1e308])
    @pytest.mark.parametrize("key", ["epsilon", "c_query", "L_factor", "scale"])
    def test_config_key_clean_exit(self, tmp_path, capsys, key, value):
        # uj-certify, so epsilon and c_query reach the certificate budget.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variant": "uj-certify", key: value}))
        out = tmp_path / "out"
        self._check_clean_run([*self.BENCH, "--config", str(config), "--out", str(out)], out,
                              capsys)

    def _check_clean_run(self, argv, out, capsys, json_stdout=False):
        code = _main_within(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "cannot convert" not in captured.err
        if code != 0:
            assert not out.exists()
            return
        if json_stdout:
            self._strict_json(captured.out)
            return
        for path in sorted(out.iterdir()) if out.is_dir() else [out]:
            if path.suffix == ".json":
                self._strict_json(path.read_text(encoding="utf-8"))
            else:
                self._check_finite(path)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--problem", "urde", "--w-u", "0.5", "--s", "nan"],
             "s must be finite and positive (got nan)"),
            (["gen", "--problem", "hude", "--eps", "0.5", "--s", "nan"],
             "s must be finite and positive with n/s >= 1 query samples (got nan)"),
            (["query", "--rho-u", "inf"], "rho_u must be finite and nonnegative (got inf)"),
            (["query", "--rho-u", "nan"], "rho_u must be finite and nonnegative (got nan)"),
            (["query", "--rho-u", "0.5", "--c", "inf"], "c must be finite and positive (got inf)"),
            (["query", "--rho-u", "0.5", "--c", "nan"], "c must be finite and positive (got nan)"),
            (["query", "--rho-u", "1000"], "rho_u=1000.0"),
            (["query", "--rho-u", "0.5", "--c", "1e308"], "c=1e+308"),
            (["gen", "--problem", "urde", "--w-u", "0.5", "--s", "1e-300"],
             "s = 1e-300 is too small"),
            (["bench", "--scale", "inf"], "scale must be finite and positive (got inf)"),
            (["bench", "--scale", "nan"], "scale must be finite and positive (got nan)"),
            (["bench", "--L-factor", "inf"], "L_factor must exceed 1 (got inf) and be finite"),
            (["bench", "--L-factor", "nan"], "L_factor must exceed 1 (got nan) and be finite"),
            (["tradeoff", "--rho-u", "nan"], "rho_u must be finite and nonnegative (got nan)"),
            (["tradeoff", "--rho-u", "inf"], "rho_u must be finite and nonnegative (got inf)"),
            (["tradeoff", "--rho-u", "0.5", "--curves", "prior-general", "--prior-constant",
              "nan"], "prior-general needs a finite prior_constant > 0 (got nan)"),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else None,
    )
    def test_non_finite_value_is_named(self, tmp_path, capsys, instance, argv, message):
        out = tmp_path / "out"
        command, *flags = argv
        if command == "gen":
            argv = ["gen", "--n", "100", "--k", "20", "--out", str(out), *flags]
        elif command == "query":
            argv = ["query", "--instance", str(instance), "--algorithm", "subset", *flags]
        elif command == "bench":
            argv = [*self.BENCH, "--out", str(out), *flags]
        else:
            argv = ["tradeoff", "--s-grid", "20:40:lin2", "--out", str(out), *flags]
        assert _main_within(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
