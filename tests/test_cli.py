import tracemalloc

import numpy as np
import pytest
from scipy.fft import idst

from mirrorwave import oracle
from mirrorwave.cli import _BLOCK_ROWS, _write_table, main


def read_table(path):
    manifest, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].partition("=")
                manifest[key.strip()] = val.strip()
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return manifest, columns, np.array(rows)


def strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("# generated"))


class TestProfileCommand:
    def test_slow_mirror_profile_file(self, tmp_path):
        out = tmp_path / "slow.csv"
        rc = main(
            "profile --vk 1.0 --v 0.8 --t 10 --points 400 --out".split() + [str(out)]
        )
        assert rc == 0
        manifest, columns, rows = read_table(out)
        assert columns == ["x_um", "density"]
        assert len(rows) == 400
        assert manifest["x_minus_um"] == "-100"
        assert manifest["x_plus_um"] == "60"
        assert manifest["x_mirror_um"] == "80"
        # forbidden region reported as zero density
        assert np.all(rows[rows[:, 0] > 80.0, 1] == 0.0)

    def test_component_columns(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(
            "profile --vk 1.0 --v 1.5 --t 5 --points 64 --components --out".split()
            + [str(out)]
        )
        assert rc == 0
        _, columns, rows = read_table(out)
        assert columns == ["x_um", "density", "m1_abs2", "m2_abs2", "m3_abs2", "m4_abs2"]
        assert rows.shape == (64, 6)

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        rc = main(
            "profile --vk 1.0 --sudden --t 5 --xmin 12 --xmax 12 --points 1 --out".split()
            + [str(out)]
        )
        assert rc == 0
        _, _, rows = read_table(out)
        assert rows.shape == (1, 2)
        assert rows[0, 0] == 12.0

    def test_mirror_flag_conflicts(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(f"profile --vk 1.0 --v 0.8 --sudden --t 10 --out {out}".split()) == 1
        assert main(f"profile --vk 1.0 --t 10 --out {out}".split()) == 1

    def test_degenerate_range_rejected(self, tmp_path):
        out = str(tmp_path / "x.csv")
        rc = main(
            f"profile --vk 1.0 --sudden --t 5 --xmin 5 --xmax 5 --points 3 --out {out}".split()
        )
        assert rc == 1

    @pytest.mark.parametrize("command", ["profile --static", "components --v 0.5"])
    def test_empty_default_grid_names_its_cause(self, tmp_path, capsys, command):
        # at t = 0 the default grid, which spans v_k t, is one point, and no
        # --xmin/--xmax was given to blame
        out = tmp_path / "f.csv"
        assert main(f"{command} --vk 1 --t 0 --out {out}".split()) == 1
        err = capsys.readouterr().err
        assert "default grid spans" in err and "--xmin/--xmax or --t > 0" in err
        assert "need xmin < xmax" not in err
        assert not out.exists()

    def test_unknown_species(self, tmp_path):
        out = str(tmp_path / "x.csv")
        rc = main(f"profile --vk 1.0 --sudden --t 5 --species 6Li --out {out}".split())
        assert rc == 1

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = "profile --vk 1.0 --v 0.8 --t 10 --points 100 --out"
        assert main(args.split() + [str(a)]) == 0
        assert main(args.split() + [str(b)]) == 0
        assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())


class TestWriteTable:
    def data_lines(self, path):
        return [l for l in path.read_text().split("\n") if not l.startswith("#")][1:]

    def test_cells_match_per_cell_format(self, tmp_path):
        rows = np.array(
            [
                [0.0, -0.0, 1e-300, -1e-300],
                [5e-324, -5e-324, 1e16, -1e16],
                [123456789012.5, -123456789012.5, -2.5e-7, 1.0 / 3.0],
            ]
        )
        bits = np.random.default_rng(11).integers(0, 2**64, 4000, dtype=np.uint64)
        doubles = bits.view(np.float64)
        rows = np.vstack([rows, doubles[np.isfinite(doubles)][:3600].reshape(-1, 4)])
        out = tmp_path / "t.csv"
        names = ["d", "a", "c", "b"]  # not sorted: the header keeps insertion order
        _write_table(str(out), "test", {"x": 0.5}, dict(zip(names, rows.T)))
        expected = [",".join(f"{v:.12g}" for v in row) for row in rows.tolist()] + [""]
        assert self.data_lines(out) == expected
        header = [l for l in out.read_text().split("\n") if not l.startswith("#")][0]
        assert header == "d,a,c,b"

    def test_sweep_matches_per_cell_format(self, tmp_path):
        # ~1.0e6 cells that stress the numpy path: its exponent range, rounding
        # ties, carries into the next decade, trailing zeros and the edges of
        # the "%g" forms, plus the values it leaves to Python's "%.12g"
        rng = np.random.default_rng(13)
        n = 100_000

        def signed(v):
            return v * rng.choice([-1.0, 1.0], v.size)

        def neighbours(v):
            return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])

        spread = rng.uniform(1.0, 10.0, 9 * n // 2) * 10.0 ** rng.integers(-11, 34, 9 * n // 2)
        # 12-digit roundings: exact ties at 1e11 ... 1e12 and near ones elsewhere
        # (all left to Python), and ones 3e-4 ... 1e-3 off a tie (kept)
        scale = 10.0 ** rng.integers(-22, 23, n // 2)
        offset = np.where(np.arange(n // 2) < n // 4, 0.0, rng.uniform(3e-4, 1e-3, n // 2))
        ties = (rng.integers(10**11, 10**12, n // 2) + 0.5 + signed(offset)) * scale
        ties[: n // 8] = rng.integers(10**11, 10**12, n // 8) + 0.5
        carries = np.array(
            [float(f"{m}e{k}") for m in ("9.999999999995", "9.9999999999949", "9.99999999999951")
             for k in range(-13, 36)]
        )
        trailing = rng.integers(1, 10**6, n) * 10.0 ** rng.integers(-16, 28, n)
        # "%g" switches form between X = -5 and -4 and between 11 and 12; log10
        # may round up just below a power of ten
        decades = 10.0 ** np.array([-5.0, -4.0, 12.0])[:, None]
        edges = np.concatenate(
            [
                (decades * (1 + np.arange(-2000, 2000) * 1e-15)).ravel(),
                neighbours(neighbours(10.0 ** np.arange(-13.0, 36.0))),
                rng.uniform(1.0, 10.0, n) * 10.0 ** rng.choice([-6, -5, -4, -3, 10, 11, 12, 13], n),
            ]
        )
        bits = rng.integers(1, 2**52, 5000, dtype=np.uint64)  # subnormals
        special = np.concatenate(
            [bits.view(np.float64), [0.0, -0.0, np.nan, np.inf, -np.inf, 1.7976931348623157e308]]
        )
        cells = np.concatenate(
            [spread, neighbours(ties), neighbours(carries), trailing, neighbours(edges), special]
        )
        cells = signed(rng.permutation(cells))
        rows = np.resize(cells, (-(-cells.size // 6), 6))
        assert rows.size >= 1_000_000
        out = tmp_path / "sweep.csv"
        _write_table(str(out), "test", {}, dict(zip("abcdef", rows.T)))
        template = ",".join(["{:.12g}"] * 6)  # f"{v:.12g}" for each cell v of a row
        expected = [template.format(*row) for row in rows.tolist()] + [""]
        assert self.data_lines(out) == expected

    @pytest.mark.parametrize("miss", [-1, 1])
    def test_exponent_miss_falls_back(self, tmp_path, monkeypatch, miss):
        # a log10 that misses the decimal exponent costs speed, never bytes
        rows = np.random.default_rng(5).uniform(1.0, 10.0, (300, 4)) * 10.0 ** np.arange(-8, 12, 5)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
        out = tmp_path / "m.csv"
        _write_table(str(out), "test", {}, dict(zip("abcd", rows.T)))
        expected = [",".join(f"{v:.12g}" for v in row) for row in rows.tolist()] + [""]
        assert self.data_lines(out) == expected

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_row_count_across_block_edges(self, tmp_path, n):
        out = tmp_path / "n.csv"
        rows = np.column_stack([np.arange(n, dtype=float), -np.arange(n, dtype=float)])
        _write_table(str(out), "test", {}, dict(zip(["i", "minus_i"], rows.T)))
        text = out.read_text()
        assert text.endswith("\n") and "\n\n" not in text
        lines = self.data_lines(out)
        assert lines[-1] == "" and len(lines) == n + 1
        assert lines[0] == "0,-0" and lines[n - 1] == f"{n - 1},-{n - 1}"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal-length"):
            _write_table(str(tmp_path / "u.csv"), "test", {}, {"a": np.zeros(3), "b": np.zeros(2)})

    def test_no_full_table_in_memory(self, tmp_path):
        # the rows are stacked per block, so the traced peak stays far below
        # the 18.3 MiB of a stacked 4e5 x 6 table, whatever the row count
        n = 400_000
        table = {name: np.linspace(0.0, 1.0 + j, n) for j, name in enumerate("abcdef")}
        table_bytes = sum(c.nbytes for c in table.values())
        tracemalloc.start()
        try:
            _write_table(str(tmp_path / "big.csv"), "test", {}, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 2

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        args = "profile --vk 1.0 --v 0.8 --t 10 --points 5000 --components --out".split()
        assert main(args + [str(out)]) == 0
        capsys.readouterr()
        assert main(args + ["-"]) == 0
        assert strip_timestamp(capsys.readouterr().out) == strip_timestamp(out.read_text())


class TestComponentsCommand:
    def test_component_file(self, tmp_path):
        out = tmp_path / "comp.csv"
        rc = main("components --vk 1.0 --v 1.5 --t 5 --points 200 --out".split() + [str(out)])
        assert rc == 0
        manifest, columns, rows = read_table(out)
        assert columns == ["x_um", "m1_abs2", "m2_abs2", "m3_abs2", "m4_abs2", "density"]
        assert manifest["x_mirror_um"] == "75"
        # component IV front annotation: (2v + v_k) t = 200 um
        x = rows[:, 0]
        m4 = rows[:, 4]
        inside = m4[x > 210.0]
        outside = m4[x < 150.0]
        if inside.size and outside.size:
            assert inside.max() > 10 * outside.max()

    def test_requires_velocity(self, tmp_path):
        rc = main("components --vk 1.0 --t 5 --out".split() + [str(tmp_path / "x.csv")])
        assert rc == 1


class TestCornuCommand:
    def test_theta_zero_row(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(
            "cornu --theta-min -3 --theta-max 3 --points 7 --out".split() + [str(out)]
        )
        assert rc == 0
        _, columns, rows = read_table(out)
        assert columns == ["theta", "C", "S", "density_enhanced", "density_ordinary"]
        row0 = rows[np.isclose(rows[:, 0], 0.0)][0]
        assert np.allclose(row0, [0.0, 0.0, 0.0, 0.0, 0.25], atol=1e-12)

    def test_peak_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(
            "cornu --theta-min -3 --theta-max 3 --points 1201 --out".split() + [str(out)]
        )
        assert rc == 0
        _, _, rows = read_table(out)
        # grid sampling sits within (spacing/2)^2 curvature of the true peaks
        assert rows[:, 3].max() == pytest.approx(1.8014163538604137, abs=5e-5)
        assert rows[:, 4].max() == pytest.approx(1.3704429197031104, abs=5e-5)


class TestVisibilityCommand:
    def test_two_beam_velocities(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(
            "visibility --vk 0.5,1.0 --t 50 --ratio-min 1.2 --ratio-max 4 "
            "--ratio-points 5 --out".split()
            + [str(out)]
        )
        assert rc == 0
        _, columns, rows = read_table(out)
        assert columns == ["v_over_vk", "V_vk0.5", "Pmax_vk0.5", "V_vk1", "Pmax_vk1"]
        assert rows.shape == (5, 5)
        for col in (1, 3):
            assert all(b < a for a, b in zip(rows[:, col], rows[1:, col]))

    def test_single_ratio(self, tmp_path):
        out = tmp_path / "v1.csv"
        rc = main(
            "visibility --vk 1.0 --t 50 --ratio-min 2 --ratio-max 2 --ratio-points 1 --out".split()
            + [str(out)]
        )
        assert rc == 0
        _, _, rows = read_table(out)
        assert rows.shape == (1, 3)

    def test_scan_just_below_beam_speed(self, tmp_path):
        # at v = 0.99 v_k the reflected region is 0.47 fringe scales wide,
        # less than one standing-wave period: the front fringe is read
        out = tmp_path / "slow.csv"
        rc = main(
            "visibility --vk 1.0 --t 5 --ratio-min 0.3 --ratio-max 0.99 "
            "--ratio-points 5 --out".split()
            + [str(out)]
        )
        assert rc == 0
        _, _, rows = read_table(out)
        assert rows.shape == (5, 3)

    def test_no_resolvable_fringe_exit_1(self, tmp_path, capsys):
        # v_k t is only 5.4 fringe scales: no minimum behind the main peak
        out = tmp_path / "x.csv"
        rc = main(
            "visibility --vk 0.075 --t 120 --ratio-min 1.02 --ratio-max 1.02 "
            "--ratio-points 1 --out".split()
            + [str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: no local minimum behind the main peak\n"
        assert not out.exists()

    def test_nonpositive_ratio_rejected(self, tmp_path):
        rc = main(
            "visibility --vk 1.0 --t 50 --ratio-min -1 --ratio-max 2 --out".split()
            + [str(tmp_path / "x.csv")]
        )
        assert rc == 1


class TestOracleCommand:
    def test_quadrature_pass(self, tmp_path):
        out = tmp_path / "oq.csv"
        rc = main(
            "oracle --vk 1.0 --sudden --t 2 --oracle quadrature --tolerance 1e-4 "
            "--points 81 --out".split()
            + [str(out)]
        )
        assert rc == 0
        manifest, columns, rows = read_table(out)
        assert columns == ["x_um", "density_analytic", "density_oracle", "abs_error"]
        assert manifest["validation"] == "pass"
        assert float(manifest["max_abs_err"]) <= 1e-4

    def test_grid_pass(self, tmp_path):
        out = tmp_path / "og.csv"
        rc = main(
            "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --out".split()
            + [str(out)]
        )
        assert rc == 0

    def test_tolerance_failure_exit_2(self, tmp_path):
        out = tmp_path / "of.csv"
        rc = main(
            "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-15 --out".split()
            + [str(out)]
        )
        assert rc == 2
        manifest, _, _ = read_table(out)
        assert manifest["validation"] == "fail"

    def test_norm_drift_exit_2(self, tmp_path, capsys, monkeypatch):
        # an inverse transform that gains 1% of norm trips the drift check
        monkeypatch.setattr(oracle, "idst", lambda *a, **kw: 1.01 * idst(*a, **kw))
        rc = main(
            "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --out".split()
            + [str(tmp_path / "nd.csv")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("oracle numerical failure:")

    def test_guard_violation_exit_1(self, tmp_path, capsys):
        rc = main(
            "oracle --vk 1.0 --v 0.8 --t 2 --oracle grid --tolerance 1e-3 "
            "--domain-um 50 --out".split()
            + [str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "need domain_length" in err

    def test_underflowing_phase_budget_exit_1(self, tmp_path, capsys):
        # at v_k = 1e-60 cm/s, t * omega**3 underflows to 0 in default_config
        out = tmp_path / "x.csv"
        argv = "oracle --vk 1e-60 --static --t 2 --oracle grid --tolerance 1e-3 --out".split()
        assert main(argv + [str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("oracle configuration rejected: ") and "underflows" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_all_overrides_reach_the_config(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(
            "oracle --vk 1.0 --sudden --t 2 --oracle quadrature --tolerance 1e-3 --points 11 "
            "--domain-um 500 --grid-points 4096 --dt-us 0.05 --trunc-um 300 --out".split()
            + [str(out)]
        )
        assert rc == 0
        manifest, _, _ = read_table(out)
        assert float(manifest["domain_length_m"]) == 5e-4
        assert int(manifest["grid_points"]) == 4096
        assert float(manifest["time_step_s"]) == 5e-8
        assert float(manifest["truncation_window_m"]) == 3e-4

    def test_time_step_override(self, tmp_path):
        out = tmp_path / "dt.csv"
        rc = main(
            "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --dt-us 0.05 "
            "--out".split()
            + [str(out)]
        )
        assert rc == 0
        manifest, _, _ = read_table(out)
        assert float(manifest["time_step_s"]) == 5e-8

    def test_grid_points_override(self, tmp_path):
        out = tmp_path / "n.csv"
        rc = main(
            "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --grid-points 32768 "
            "--out".split()
            + [str(out)]
        )
        assert rc == 0
        manifest, _, _ = read_table(out)
        assert int(manifest["grid_points"]) == 32768

    def test_default_grid_past_cap_names_quadrature(self, tmp_path, capsys):
        # default_config sizes N = 3 * 2**23 here, past the 2**24 grid cap; a
        # smaller N would under-resolve the beam, so the message names the
        # other oracle
        out = tmp_path / "cap.csv"
        argv = "oracle --vk 1.0 --v 3.5 --t 100 --oracle grid --tolerance 1e-3 --out".split()
        assert main(argv + [str(out)]) == 1
        err = capsys.readouterr().err
        assert "grid_points N = 25165824" in err
        assert "--grid-points" in err and "--oracle quadrature" in err
        assert not out.exists()

    def test_small_truncation_window_passes(self, tmp_path):
        # a 20 um support puts the stationary points of many window points
        # in the tail, and a 0 um support leaves only the tail; it is
        # completed exactly, so the estimate stays finite
        for trunc_um in ("20", "0"):
            out = tmp_path / f"w{trunc_um}.csv"
            rc = main(
                "oracle --vk 1.0 --v 0.8 --t 10 --oracle quadrature --tolerance 1e-3 "
                "--trunc-um".split()
                + [trunc_um, "--out", str(out)]
            )
            assert rc == 0, trunc_um
            manifest, _, _ = read_table(out)
            assert manifest["validation"] == "pass"
            assert np.isfinite(float(manifest["max_truncation_estimate"]))

    @pytest.mark.parametrize("which", ["grid", "quadrature"])
    def test_window_ending_on_moving_wall(self, tmp_path, which):
        # 16.5 um converts to 3.4e-21 m past the wall at v t = 0.3 cm/s x 5.5 ms;
        # both oracles allow the same slack for it
        out = tmp_path / "w.csv"
        rc = main(
            f"oracle --vk 1.0 --v 0.3 --t 5.5 --oracle {which} --tolerance 1e-4 "
            "--window-lo -20 --window-hi 16.5 --out".split()
            + [str(out)]
        )
        assert rc == 0
        manifest, _, rows = read_table(out)
        assert manifest["validation"] == "pass"
        assert rows[-1, 0] <= 16.5

    def test_window_beyond_static_wall_exit_1(self, tmp_path, capsys):
        rc = main(
            "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 "
            "--window-lo -20 --window-hi 5 --out".split()
            + [str(tmp_path / "x.csv")]
        )
        assert rc == 1
        assert "beyond the mirror" in capsys.readouterr().err

    def test_fast_approaching_mirror_exit_1(self, tmp_path, capsys):
        rc = main(
            "oracle --vk 1.0 --v -0.6 --t 5 --oracle grid --tolerance 1e-3 --out".split()
            + [str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "v <= -v_k/2" in err and "--window-lo and --window-hi" in err


@pytest.mark.parametrize(
    "argv",
    [
        "profile --vk 1.0 --sudden --t 5 --points 0",
        "components --vk 1.0 --v 1.5 --t 5 --points 0",
        "cornu --points 0",
        "oracle --vk 1.0 --sudden --t 2 --oracle quadrature --tolerance 1e-4 --points 0",
        "visibility --vk 1.0 --t 50 --ratio-points 0",
        "visibility --vk , --t 50",
        "visibility --vk 1,abc --t 50",
        "visibility --vk 1.0 --t 50 --species 6Li",
        "profile --vk 1.0 --sudden --t 5 --xmin 5",
        # per-term columns exist only for a moving mirror
        "profile --vk 1.0 --sudden --t 5 --components",
        "profile --vk 1.0 --static --t 5 --components",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --window-lo -20",
        # non-finite range flags
        "profile --vk 1 --static --t 10 --xmin nan --xmax 5 --points 3",
        "profile --vk 1.0 --sudden --t 5 --xmin -5 --xmax inf",
        "components --vk 1.0 --v 1.5 --t 5 --xmin=-inf --xmax 5",
        "cornu --theta-min=-inf",
        "cornu --theta-max nan",
        "visibility --vk 1.0 --t 50 --ratio-min nan",
        "visibility --vk 1.0 --t 50 --ratio-max inf",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --window-lo nan --window-hi -5",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --window-lo -20 --window-hi inf",
        # oracle tolerances and config overrides: finite and > 0 (the
        # support depth --trunc-um finite and >= 0)
        "oracle --vk 1.0 --static --t 2 --oracle quadrature --tolerance nan --points 3",
        "oracle --vk 1.0 --static --t 2 --oracle quadrature --tolerance -1 --points 3",
        "oracle --vk 1.0 --static --t 2 --oracle quadrature --tolerance 0 --points 3",
        "oracle --vk 1.0 --static --t 2 --oracle quadrature --tolerance inf --points 3",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --domain-um nan",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --domain-um inf",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --domain-um 0",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --dt-us nan",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --dt-us inf",
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --dt-us -1",
        "oracle --vk 1.0 --static --t 2 --oracle quadrature --tolerance 1e-4 --trunc-um nan --points 3",
        "oracle --vk 1.0 --static --t 2 --oracle quadrature --tolerance 1e-4 --trunc-um inf --points 3",
        "oracle --vk 1.0 --static --t 2 --oracle quadrature --tolerance 1e-4 --trunc-um -1 --points 3",
        # more grid-oracle intervals than the cap, rejected before allocation
        "oracle --vk 1.0 --static --t 2 --oracle grid --tolerance 1e-3 --grid-points 1000000000000",
        # a repeated beam velocity would repeat its columns; 1 and
        # 1.0000000000001 share the column tag "1"
        "visibility --vk 1,1 --t 50",
        "visibility --vk 0.5,1,1.0000000000001 --t 50",
    ],
)
def test_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv.split() + ["--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: mirrorwave" in capsys.readouterr().out


@pytest.mark.parametrize(
    "exponent, plain",
    [
        ("profile --vk 1 --t 5 --v 0.5 --xmin -1.5e2 --xmax 50 --points 9",
         "profile --vk 1 --t 5 --v 0.5 --xmin -150 --xmax 50 --points 9"),
        ("profile --vk 1 --t 5 --v -5e-1 --points 9", "profile --vk 1 --t 5 --v -0.5 --points 9"),
        ("oracle --vk 1 --t 5 --static --oracle quadrature --tolerance 1e-3 --points 3"
         " --window-lo -2e1 --window-hi 0",
         "oracle --vk 1 --t 5 --static --oracle quadrature --tolerance 1e-3 --points 3"
         " --window-lo -20 --window-hi 0"),
        ("cornu --theta-min -3e0 --points 5", "cornu --theta-min -3 --points 5"),
    ],
    ids=["xmin", "v", "window-lo", "theta-min"],
)
def test_negative_exponent_values(tmp_path, capsys, exponent, plain):
    # argparse itself reads "-150" and "-1.5" as values but not "-1.5e2"
    texts = []
    for i, argv in enumerate((exponent, plain)):
        out = tmp_path / f"{i}.csv"
        assert main(argv.split() + ["--out", str(out)]) == 0
        texts.append(strip_timestamp(out.read_text()))
    assert texts[0] == texts[1]
    assert capsys.readouterr().err == ""


_MAGNITUDES = ("1e-300", "1e-100", "1e-20", "1e20", "1e100", "1e300")
_ORACLE_RUNS = (
    "--static --oracle grid",
    "--v 0.5 --oracle grid",
    "--static --oracle quadrature",
    "--sudden --oracle quadrature",
    "--v 0.5 --oracle quadrature",
)


def _extreme_runs():
    """Every subcommand at --vk or --t of 1e-300 ... 1e300, the other at 1 cm/s or 5 ms."""
    for scale in [f"--vk {m} --t 5" for m in _MAGNITUDES] + [f"--vk 1 --t {m}" for m in _MAGNITUDES]:
        for law in ("--static", "--sudden", "--v 0.5"):
            yield f"profile {scale} {law} --points 50"
        yield f"components {scale} --v 0.5 --points 50"
        yield f"visibility {scale} --ratio-points 3"
        for run in _ORACLE_RUNS:
            yield f"oracle {scale} {run} --tolerance 1e-3 --points 5"
    for m in _MAGNITUDES:
        yield f"profile --vk 1 --t 5 --v {m} --points 50"


def test_extreme_magnitudes_exit_with_one_line(tmp_path, capsys):
    # 126 runs; no exception or warning (an error under this suite's
    # filterwarnings) escapes main, and a rejected run writes no file
    out = tmp_path / "x.csv"
    runs = list(_extreme_runs())
    assert len(runs) == 126
    for argv in runs:
        code = main(argv.split() + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        # argparse usage lines start with "usage:" or are indented
        lines = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
        assert len(lines) <= 1, (argv, err)
        if code == 1:
            assert not out.exists(), argv
        out.unlink(missing_ok=True)


@pytest.mark.parametrize(
    "run", _ORACLE_RUNS, ids=["grid-static", "grid-moving", "quad-static", "quad-sudden", "quad-moving"]
)
@pytest.mark.parametrize(
    "scale, flag",
    [("--vk 1e100 --t 5", "--vk"), ("--vk 1e300 --t 5", "--vk"), ("--vk 1 --t 1e300", "--t")],
    ids=["vk1e100", "vk1e300", "t1e300"],
)
def test_extreme_oracle_scale_names_its_flag(tmp_path, capsys, scale, flag, run):
    out = tmp_path / "x.csv"
    assert main(f"oracle {scale} {run} --tolerance 1e-3 --points 5 --out {out}".split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("oracle configuration rejected: the phase budget is undefined")
    assert err.count("\n") == 1 and f"(CLI: {flag}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("oracle --vk 1 --t 1e250 --static --oracle grid --tolerance 1e-3",
         "oracle configuration rejected: the step count t / time_step overflows"),
        ("oracle --vk 1 --t 5 --static --oracle grid --tolerance 1e-3 --dt-us 1e-310",
         "oracle configuration rejected: the step count t / time_step overflows"),
        ("profile --vk 1e300 --t 5 --static --points 5", "error: initial_state: the phase k x"),
    ],
    ids=["long-time", "subnormal-step", "static-phase"],
)
def test_overflowing_scale_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert main(argv.split() + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()
