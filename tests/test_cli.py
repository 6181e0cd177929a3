import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ratpath
from ratpath.cli import _fmt, build_parser, main
from ratpath.distcmp import DistCmpConfig, PairwiseDeltaComparator
from ratpath.graph import gen_random, gen_small_diff, parse, plant_negative_cycle, serialize
from ratpath.rational import BigRational, WordBudget
from ratpath.sssp import dijkstra_nonneg


@pytest.fixture
def smalldiff_file(tmp_path):
    g, _ = gen_small_diff(6)
    path = tmp_path / "gadget.gr"
    path.write_text(serialize(g))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# 0->1 1/2, 1->2 1/3, 0->2 1/1, 2->1 1/1; its shortest-paths tree is 0->1->2
TRIANGLE = "p 3 4\ns 0\ne 0 1 1/2\ne 1 2 1/3\ne 0 2 1/1\ne 2 1 1/1\n"


class TestSolve:
    def test_solve_and_verify_roundtrip(self, tmp_path, capsys, smalldiff_file):
        tree = tmp_path / "out.tree"
        code, _, _ = run(
            capsys, "solve", "--input", str(smalldiff_file), "--mode", "nonneg",
            "--seed", "1", "--output", str(tree),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(smalldiff_file), str(tree))
        assert code == 0 and out.strip() == "valid"

    def test_negative_cycle_exit_2(self, tmp_path, capsys):
        g = plant_negative_cycle(gen_random(12, 36, 3, "small", "priced"), 3)
        inst = tmp_path / "bad.gr"
        inst.write_text(serialize(g))
        code, out, _ = run(
            capsys, "solve", "--input", str(inst), "--mode", "neg", "--seed", "0",
            "--word-bits", "16",
        )
        assert code == 2
        assert "negative cycle:" in out and "cycle weight: -" in out

    def test_parse_failure_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "broken.gr"
        inst.write_text("p 2 1\ne 0 1 1/0\n")
        code, _, err = run(capsys, "solve", "--input", str(inst))
        assert code == 1 and "error" in err

    def test_deterministic_bytes(self, tmp_path, capsys):
        g = gen_random(18, 54, 5, "small", "priced")
        inst = tmp_path / "inst.gr"
        inst.write_text(serialize(g))
        outs = []
        for run_idx in range(2):
            tree = tmp_path / f"t{run_idx}.tree"
            stats = tmp_path / f"s{run_idx}.stats"
            code, _, _ = run(
                capsys, "solve", "--input", str(inst), "--seed", "7",
                "--word-bits", "16", "--output", str(tree), "--stats", str(stats),
            )
            assert code == 0
            outs.append((tree.read_bytes(), stats.read_bytes()))
        assert outs[0] == outs[1]

    def test_env_seed_fallback(self, tmp_path, capsys, smalldiff_file, monkeypatch):
        monkeypatch.setenv("RATPATH_SEED", "123")
        tree = tmp_path / "env.tree"
        code, _, _ = run(capsys, "solve", "--input", str(smalldiff_file), "--output", str(tree))
        assert code == 0

    def test_auto_mode_picks_negative(self, tmp_path, capsys):
        g = gen_random(10, 30, 2, "small", "priced")
        inst = tmp_path / "neg.gr"
        inst.write_text(serialize(g))
        stats = tmp_path / "auto.stats"
        code, _, _ = run(
            capsys, "solve", "--input", str(inst), "--seed", "0", "--word-bits", "16",
            "--stats", str(stats),
        )
        assert code == 0
        body = stats.read_text()
        assert body.startswith("v 1\n")
        assert "mode neg" in body

    def test_stats_schema(self, tmp_path, capsys, smalldiff_file):
        stats = tmp_path / "x.stats"
        code, _, _ = run(
            capsys, "solve", "--input", str(smalldiff_file), "--stats", str(stats),
            "--seed", "0",
        )
        assert code == 0
        lines = stats.read_text().splitlines()
        assert lines[0] == "v 1"
        keys = [ln.split()[0] for ln in lines[1:]]
        assert keys == sorted(keys)
        assert any(k == "relaxations" for k in keys)

    @pytest.mark.parametrize("strategy", ["distcmp", "pairwise_delta"])
    def test_gamma_reaches_only_its_readers(self, capsys, smalldiff_file, strategy):
        # --gamma sizes the pairwise_delta sample only; the distcmp
        # structure and the negative pipeline have no such constant
        code, out, _ = run(
            capsys, "solve", "--input", str(smalldiff_file), "--mode", "nonneg",
            "--strategy", strategy, "--gamma", "3", "--seed", "1",
        )
        assert code == 0 and out.startswith("t ")

    # Every constant is checked whatever the mode or strategy, also where
    # the chosen solver does not read it.
    @pytest.mark.parametrize("mode, strategy", [
        ("neg", "distcmp"), ("nonneg", "pairwise_delta"), ("nonneg", "distcmp"),
        ("nonneg", "exact_oracle"),
    ])
    @pytest.mark.parametrize("gamma", ["inf", "nan", "-1", "0"])
    def test_bad_gamma_exit_1(self, tmp_path, capsys, mode, strategy, gamma):
        self._assert_rejected(tmp_path, capsys, mode, strategy, "gamma", gamma)

    @pytest.mark.parametrize("mode, strategy", [
        ("neg", "distcmp"), ("nonneg", "pairwise_delta"), ("nonneg", "exact_oracle"),
    ])
    @pytest.mark.parametrize("flag", ["C", "lam"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_bad_distcmp_constant_exit_1_for_every_solver(
        self, tmp_path, capsys, mode, strategy, flag, value
    ):
        self._assert_rejected(tmp_path, capsys, mode, strategy, flag, value)

    @staticmethod
    def _assert_rejected(tmp_path, capsys, mode, strategy, flag, value):
        g = gen_random(12, 36, 3, "small", "priced" if mode == "neg" else "none")
        inst = tmp_path / "inst.gr"
        inst.write_text(serialize(g))
        code, out, err = run(
            capsys, "solve", "--input", str(inst), "--mode", mode, "--strategy", strategy,
            "--word-bits", "16", f"--{flag}", value, "--seed", "0",
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} must be a positive finite number")

    @pytest.mark.parametrize("flag", ["C", "lam"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_bad_distcmp_constant_exit_1(self, capsys, smalldiff_file, flag, value):
        code, out, err = run(
            capsys, "solve", "--input", str(smalldiff_file), "--mode", "nonneg",
            f"--{flag}", value, "--seed", "0",
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} must be a positive finite number")


def _cli_solve(mode):
    # The value is set on the parsed arguments, where cmd_solve reads it,
    # so that a non-number reaches the check too.  The input file does
    # not exist: the constants are checked before it is read.
    def call(name, value):
        args = build_parser().parse_args(["solve", "--input", "missing.gr", "--mode", mode])
        setattr(args, name, value)
        return args.func(args)
    return call


_NONNEG = gen_random(8, 20, 3, "small")
_ENTRY_POINTS = [
    ("DistCmpConfig", ("C", "lam"), lambda name, v: DistCmpConfig(10, **{name: v})),
    ("PairwiseDeltaComparator", ("gamma",),
     lambda name, v: PairwiseDeltaComparator(10, 3, WordBudget(), **{name: v})),
    ("dijkstra_nonneg", ("C", "lam", "gamma"),
     lambda name, v: dijkstra_nonneg(_NONNEG, 0, constants={name: v})),
    ("solve-neg", ("C", "lam", "gamma"), _cli_solve("neg")),
    ("solve-nonneg", ("C", "lam", "gamma"), _cli_solve("nonneg")),
]


@pytest.mark.parametrize("entry, call, name, value", [
    pytest.param(entry, call, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, names, call in _ENTRY_POINTS
    for name in names
    for value in ("2", None, -1, 0, math.inf, math.nan)
    # argparse leaves a flag that is not given at None
    if not (entry.startswith("solve") and value is None)
])
def test_every_entry_point_rejects_bad_constant(capsys, entry, call, name, value):
    want = f"{name} must be a positive finite number, got {value}"
    if entry.startswith("solve"):
        assert call(name, value) == 1
        assert capsys.readouterr() == ("", f"error: {want}\n")
    else:
        with pytest.raises(ValueError) as err:
            call(name, value)
        assert str(err.value) == want


class TestInputErrors:
    # Run as a process, so that an uncaught exception would show as a
    # traceback and an exit status other than 1.
    @pytest.mark.parametrize("argv, seed_env", [
        (["solve", "--word-bits", "1"], None),
        (["solve"], "abc"),
        (["gen", "random"], "abc"),
        (["gen", "random", "--n", "0", "--m", "0"], None),
        (["solve", "--seed", "-3"], None),
        (["solve", "--strategy", "exact_oracle", "--seed", "-3"], None),
        (["solve", "--mode", "neg", "--seed", "-3"], None),
        (["solve"], "-1"),
        (["gen", "smalldiff", "--seed", "-3"], None),
        (["gen", "random"], "-1"),
    ], ids=["solve-word-bits-1", "solve-bad-env-seed", "gen-bad-env-seed", "gen-no-vertices",
            "solve-negative-seed", "solve-exact-oracle-negative-seed", "solve-neg-negative-seed",
            "solve-negative-env-seed", "gen-smalldiff-negative-seed", "gen-negative-env-seed"])
    def test_exit_1_without_traceback(self, smalldiff_file, argv, seed_env):
        if argv[0] == "solve":
            argv = argv + ["--input", str(smalldiff_file)]
        env = {k: v for k, v in os.environ.items() if k != "RATPATH_SEED"}
        env["PYTHONPATH"] = str(Path(ratpath.__file__).parents[1])
        if seed_env is not None:
            env["RATPATH_SEED"] = seed_env
        proc = subprocess.run([sys.executable, "-m", "ratpath.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["solve", "--mode", mode, "--strategy", strategy]
        for mode in ("nonneg", "neg") for strategy in ("exact_oracle", "distcmp", "pairwise_delta")
    ] + [["gen", family] for family in ("smalldiff", "random", "priced")])
    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "env"])
    def test_negative_seed_named_with_its_source(self, capsys, monkeypatch, smalldiff_file,
                                                 argv, flag):
        # Rejected for every command, mode, strategy and family, also
        # where nothing draws from the seed.
        if argv[0] == "solve":
            argv = argv + ["--input", str(smalldiff_file)]
        if flag:
            monkeypatch.delenv("RATPATH_SEED", raising=False)
            argv = argv + ["--seed", "-3"]
        else:
            monkeypatch.setenv("RATPATH_SEED", "-3")
        where = "--seed" if flag else "RATPATH_SEED"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: seed must be a non-negative integer, got -3 ({where})\n"


class TestVerifyCmd:
    @pytest.mark.parametrize("tree, code, expected", [
        ("t 4 0\na 1 0 1/2\na 2 1 1/3\n", 2, "invalid: vertex count mismatch\n"),
        ("t 3 0\na 1 0 1/2\n", 2, "invalid: tree misses a reachable vertex; witness e 1 2 1/3\n"),
        ("t 3 0\na 1 0 1/2\na 2 1 1/3\n", 0, "valid\n"),
        ("t 3 0\na 1 0 1/3\na 2 1 1/3\n", 2,
         "invalid: tree weight differs from graph weight; witness e 0 1 1/2\n"),
        ("t 3 0\na 1 2 1/1\na 2 1 1/3\n", 2,
         "invalid: parent links do not form a tree rooted at the source\n"),
        ("t 3 0\na 1 0 1/2\na 2 0 1/1\n", 2,
         "invalid: edge violates the triangle inequality; witness e 1 2 1/3\n"),
    ], ids=["count", "misses-vertex", "valid", "weight", "not-a-tree", "triangle"])
    def test_outcomes(self, tmp_path, capsys, tree, code, expected):
        inst = tmp_path / "triangle.gr"
        inst.write_text(TRIANGLE)
        tree_file = tmp_path / "t.tree"
        tree_file.write_text(tree)
        assert run(capsys, "verify", str(inst), str(tree_file))[:2] == (code, expected)

    def test_invalid_tree(self, tmp_path, capsys, smalldiff_file):
        tree = tmp_path / "out.tree"
        run(capsys, "solve", "--input", str(smalldiff_file), "--output", str(tree), "--seed", "0")
        body = tree.read_text().replace("1/2", "1/3", 1)
        bad = tmp_path / "bad.tree"
        bad.write_text(body)
        code, out, _ = run(capsys, "verify", str(smalldiff_file), str(bad))
        assert code == 2 and "invalid" in out

    def test_parse_error(self, tmp_path, capsys, smalldiff_file):
        bad = tmp_path / "bad.tree"
        bad.write_text("nonsense\n")
        code, _, err = run(capsys, "verify", str(smalldiff_file), str(bad))
        assert code == 1

    @pytest.mark.parametrize("edit", [
        lambda body: body.replace("t 4 0", "t 4 9", 1),
        lambda body: body + "a 99 0 5/1 aux\n",
        lambda body: body + "a -2 0 5/1 aux\n",
    ], ids=["source-9", "vertex-99", "vertex-minus-2"])
    def test_out_of_range_ids(self, tmp_path, capsys, smalldiff_file, edit):
        tree = tmp_path / "out.tree"
        run(capsys, "solve", "--input", str(smalldiff_file), "--output", str(tree), "--seed", "0")
        bad = tmp_path / "bad.tree"
        bad.write_text(edit(tree.read_text()))
        code, _, err = run(capsys, "verify", str(smalldiff_file), str(bad))
        assert code == 1 and err.startswith("error:")


class TestGen:
    def test_smalldiff_echoes_gap(self, tmp_path, capsys):
        out_file = tmp_path / "g.gr"
        code, _, err = run(
            capsys, "gen", "smalldiff", "--prime-bound", "6", "--output", str(out_file)
        )
        assert code == 0
        assert "gap 1/30" in err
        g = parse(out_file.read_text())
        assert g.n == 4

    def test_smalldiff_no_padding(self, tmp_path, capsys):
        out_file = tmp_path / "g.gr"
        code, _, err = run(
            capsys, "gen", "smalldiff", "--prime-bound", "4", "--no-padding",
            "--output", str(out_file),
        )
        assert code == 0 and "gap 1/6" in err
        assert out_file.read_text() == serialize(gen_small_diff(4, padding=False)[0])

    def test_random_and_priced(self, tmp_path, capsys):
        for family in ("random", "priced"):
            out_file = tmp_path / f"{family}.gr"
            code, _, _ = run(
                capsys, "gen", family, "--n", "10", "--m", "20", "--seed", "4",
                "--output", str(out_file),
            )
            assert code == 0
            g = parse(out_file.read_text())
            assert (g.n, g.m) == (10, 20)
            if family == "random":
                assert not g.has_negative_weight()

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--n", "3", "--m", "100")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("m", ["0", "3"])
    def test_unknown_weight_class_refused(self, capsys, m):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "random", "--n", "5", "--m", m, "--weight-class", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestApprox:
    def test_best_approx_debug(self, capsys):
        code, out, _ = run(capsys, "approx", "5/7", "--bits", "2")
        assert code == 0
        assert out == "lo 2/3\nhi 1/1\n"


class TestPrice:
    def test_price_emits_feasible_values(self, tmp_path, capsys):
        from ratpath.graph import check_eps_feasible
        from ratpath.rational import BigRational

        g = gen_random(10, 30, 6, "small", "priced")
        inst = tmp_path / "p.gr"
        inst.write_text(serialize(g))
        code, out, _ = run(capsys, "price", "--input", str(inst), "--k", "4", "--word-bits", "16")
        assert code == 0
        values = {}
        for line in out.strip().splitlines():
            tag, v, frac = line.split()
            assert tag == "v"
            values[int(v)] = BigRational.parse(frac)
        p = [values[v] for v in range(g.n)]
        assert check_eps_feasible(g, p, BigRational(1, 16))

    def test_price_negative_cycle_exit_2(self, tmp_path, capsys):
        g = plant_negative_cycle(gen_random(10, 30, 1, "small", "priced"), 1)
        inst = tmp_path / "bad.gr"
        inst.write_text(serialize(g))
        code, out, _ = run(capsys, "price", "--input", str(inst), "--k", "20", "--word-bits", "16")
        assert code == 2 and "negative cycle" in out


class TestWideValues:
    # Values of more than 4300 digits, past CPython's default limit on
    # int <-> decimal text, go through every textual path exactly.
    DIGITS = 5000

    def test_fmt(self):
        x = BigRational(1, 10**self.DIGITS)
        zeros = "0" * self.DIGITS
        assert _fmt(x, None) == f"1/1{zeros}"
        assert _fmt(x, 3) == f"1/1{zeros} (0.000)"
        assert _fmt(x, self.DIGITS) == f"1/1{zeros} (0.{zeros[1:]}1)"
        assert _fmt(BigRational(-1, 3), self.DIGITS) == f"-1/3 (-0.{'3' * self.DIGITS})"

    def test_solve_decimal_and_verify(self, tmp_path, capsys):
        # Weights whose denominators have 5001 digits: the parse, the
        # tree, the distance lines and the verify all carry them.
        den = "1" + "0" * (self.DIGITS - 1) + "1"  # 10^DIGITS + 1
        inst = tmp_path / "wide.gr"
        inst.write_text(f"p 3 3\ns 0\ne 0 1 1/{den}\ne 1 2 2/{den}\ne 0 2 1/1\n")
        tree = tmp_path / "wide.tree"
        code, out, _ = run(capsys, "solve", "--input", str(inst), "--mode", "nonneg",
                           "--decimal", "3", "-o", str(tree))
        assert code == 0
        assert out.splitlines() == ["d 0 0 (0.000)", f"d 1 1/{den} (0.000)", f"d 2 3/{den} (0.000)"]
        assert tree.read_text().splitlines()[1:] == [f"a 1 0 1/{den}", f"a 2 1 2/{den}"]
        assert run(capsys, "verify", str(inst), str(tree))[:2] == (0, "valid\n")


class TestNegativeDecimal:
    # Rejected before any solve: no tree is written, no price printed.
    def test_solve(self, tmp_path, capsys):
        inst = tmp_path / "t.gr"
        inst.write_text(TRIANGLE)
        tree = tmp_path / "t.tree"
        code, out, err = run(
            capsys, "solve", "--input", str(inst), "--decimal", "-1", "-o", str(tree),
        )
        assert (code, out) == (1, "")
        assert err == "error: --decimal must be non-negative, got -1\n"
        assert not tree.exists()

    def test_price(self, tmp_path, capsys):
        inst = tmp_path / "t.gr"
        inst.write_text(TRIANGLE)
        code, out, err = run(capsys, "price", "--input", str(inst), "--decimal", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --decimal must be non-negative, got -1\n"


class TestSelfCheck:
    def test_auto_solve_passes_own_verify(self, tmp_path, capsys):
        for seed, mode_graph in ((1, "none"), (2, "priced")):
            g = gen_random(14, 40, seed, "small", mode_graph)
            inst = tmp_path / f"auto{seed}.gr"
            inst.write_text(serialize(g))
            tree = tmp_path / f"auto{seed}.tree"
            code, _, _ = run(
                capsys, "solve", "--input", str(inst), "--seed", "3",
                "--word-bits", "16", "--output", str(tree),
            )
            assert code == 0
            code, out, _ = run(capsys, "verify", str(inst), str(tree))
            assert code == 0 and out.strip() == "valid"


class TestNumpyFreeCommands:
    # Commands that draw nothing leave numpy unimported.  This process
    # has imported it, so the commands run in a fresh one, which reports
    # after each command whether numpy is loaded.
    SCRIPT = (
        "import json, sys\n"
        "from ratpath.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = main(argv)\n"
        "    out.append([argv[0], code, 'numpy' in sys.modules])\n"
        "print(json.dumps(out))\n"
    )

    def test_commands_leave_numpy_unloaded(self, tmp_path):
        priced = tmp_path / "priced.gr"
        priced.write_text(serialize(gen_random(40, 120, 3, "small", "priced")))
        plain = tmp_path / "plain.gr"
        plain.write_text(serialize(gen_random(40, 120, 3, "small")))
        neg, exact, dflt = tmp_path / "neg.tree", tmp_path / "exact.tree", tmp_path / "dflt.tree"
        commands = [
            ["solve", "--input", str(priced), "--mode", "neg", "-o", str(neg)],
            ["verify", str(priced), str(neg)],
            ["solve", "--input", str(plain), "--mode", "nonneg", "--strategy", "exact_oracle",
             "-o", str(exact)],
            ["verify", str(plain), str(exact)],
            # distcmp, whose queries here all pass the exact gate: no level draw.
            ["solve", "--input", str(plain), "-o", str(dflt)],
            ["verify", str(plain), str(dflt)],
            ["price", "--input", str(priced), "--k", "8", "-o", str(tmp_path / "price.txt")],
            ["approx", "17/14", "--bits", "3"],
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(ratpath.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(commands)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *printed, report = proc.stdout.splitlines()
        assert json.loads(report) == [[argv[0], 0, False] for argv in commands]
        assert printed == ["valid", "valid", "valid", "lo 6/5", "hi 5/4"]
