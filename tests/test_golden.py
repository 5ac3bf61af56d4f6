"""Golden regression: seeded fits keep their supports, terminations and
iteration counts exactly, and their intercepts to rel 1e-10; whole fitted
paths keep every byte of every level; LIBSVM reading, writing and the CLI fit
on a seeded file keep their bytes exactly.

The expected values in GOLDEN were recorded from the solver as it stood
before the one-pass refactor (sparse linear predictor, implicit intercept,
reused certificate dual).  A change that alters any of them changes what the
solver computes, not only how fast it computes it.  To re-record after a
deliberate change of results, print `{name: run(name) for name in CASES}`.
"""

import hashlib

import numpy as np
import pytest

import sdar_glm as sg
from sdar_glm.cli import main as cli_main
from sdar_glm.rng import make_rng

from helpers import gaussian_instance, logistic_instance


def _oscillating():
    # near-duplicate columns at a small sample size make the support cycle
    rng = make_rng(188)
    X = rng.standard_normal((12, 8))
    X[:, 4:] = X[:, :4] + 0.05 * rng.standard_normal((12, 4))
    return sg.Dataset(X, rng.standard_normal(12))


def _ar1(seed, n, p, k, rho):
    sim = sg.SimConfig(n=n, p=p, k=k, rho=rho, range_ratio=10.0, scheme=sg.SCHEME_AR1, seed=seed)
    return sg.generate_instance(sim)[0]


def _shifted(data, offset):
    """The same design with a constant added to every response."""
    return sg.Dataset(data.X, data.y + offset)


def _with_offset_labels(seed, n, p, k, offset):
    """Logistic labels drawn with a nonzero true intercept."""
    X = make_rng(seed, 0).standard_normal((n, p))
    beta, _ = sg.gen_coefficients(p, k, 0.6, 1.2, make_rng(seed, 1))
    theta = X @ beta + offset
    y = (make_rng(seed, 2).random(n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    return sg.Dataset(X, y)


# name -> (family, data builder, SdarConfig keyword arguments)
CASES = {
    "logistic-iid-a": (sg.LOGISTIC, lambda: logistic_instance(1, 150, 40, 4)[0], {"sparsity_t": 4}),
    "logistic-iid-b": (sg.LOGISTIC, lambda: logistic_instance(2, 120, 60, 3)[0], {"sparsity_t": 5}),
    "logistic-ar1": (sg.LOGISTIC, lambda: _ar1(3, 200, 300, 8, 0.9), {"sparsity_t": 12}),
    "logistic-ar1-tau": (
        sg.LOGISTIC, lambda: _ar1(4, 150, 200, 6, 0.7), {"sparsity_t": 6, "step_size_tau": 0.5}
    ),
    "logistic-intercept": (
        sg.LOGISTIC, lambda: _with_offset_labels(5, 300, 50, 3, 0.8),
        {"sparsity_t": 3, "with_intercept": True},
    ),
    "logistic-ar1-intercept": (
        sg.LOGISTIC, lambda: _ar1(8, 200, 300, 8, 0.9), {"sparsity_t": 12, "with_intercept": True}
    ),
    "gaussian-iid": (sg.GAUSSIAN, lambda: gaussian_instance(7, 80, 30, 3)[0], {"sparsity_t": 3}),
    "gaussian-overfit": (sg.GAUSSIAN, lambda: gaussian_instance(8, 60, 40, 3)[0], {"sparsity_t": 9}),
    "gaussian-intercept": (
        sg.GAUSSIAN, lambda: _shifted(gaussian_instance(9, 80, 30, 4)[0], 2.5),
        {"sparsity_t": 4, "with_intercept": True},
    ),
    "gaussian-cycle": (sg.GAUSSIAN, _oscillating, {"sparsity_t": 2}),
    "gaussian-budget": (sg.GAUSSIAN, _oscillating, {"sparsity_t": 2, "max_outer_iters": 1}),
    "gaussian-cycle-intercept": (
        sg.GAUSSIAN, lambda: _shifted(gaussian_instance(0, 50, 40, 5)[0], 1.0),
        {"sparsity_t": 8, "with_intercept": True},
    ),
}

PATH_CASE = (sg.LOGISTIC, lambda: _with_offset_labels(11, 150, 40, 3, -0.5))

# one replication of the C6 cell (n = 400, p = 500, K = 6, AR(1) rho = 0.3,
# R = 10); the default budget floor(400 / log 400) is 66 levels
C6_SIM = sg.SimConfig(n=400, p=500, k=6, rho=0.3, range_ratio=10.0, scheme=sg.SCHEME_AR1, seed=400)
C6_REP = 1


def _summary(fit):
    return (fit.support.tolist(), fit.termination.value, fit.iters, fit.intercept)


def run(name):
    family, build, kwargs = CASES[name]
    return _summary(sg.gsdar_fit(family, build(), sg.SdarConfig(**kwargs)))


def run_path():
    family, build = PATH_CASE
    cfg = sg.AgsdarConfig(max_support_q=8, inner=sg.SdarConfig(sparsity_t=1, with_intercept=True))
    result = sg.agsdar_fit(family, build(), cfg)
    return result.selected_t, [(pt.t,) + _summary(pt.fit) for pt in result.fits]


GOLDEN = {
    "logistic-iid-a": ([3, 6, 27, 30], "support_stationary", 1, 0.0),
    "logistic-iid-b": ([6, 10, 17, 33, 44], "support_stationary", 1, 0.0),
    "logistic-ar1": ([72, 149, 151, 181, 184, 185, 186, 187, 188, 204, 257, 259], "support_stationary", 4, 0.0),
    "logistic-ar1-tau": ([60, 155, 156, 157, 158, 159], "support_stationary", 1, 0.0),
    "logistic-intercept": ([17, 20, 45], "support_stationary", 1, 0.7414042067730596),
    "logistic-ar1-intercept": ([4, 6, 7, 8, 10, 12, 13, 15, 102, 236, 271, 286], "support_stationary", 4, -4.657876443918266),
    "gaussian-iid": ([6, 14, 24], "support_stationary", 1, 0.0),
    "gaussian-overfit": ([10, 12, 13, 19, 26, 30, 31, 35, 39], "support_stationary", 8, 0.0),
    "gaussian-intercept": ([4, 12, 22, 26], "support_stationary", 2, 2.5288326737526754),
    "gaussian-cycle": ([5, 7], "cycle_detected", 3, 0.0),
    "gaussian-budget": ([3, 7], "max_iters", 1, 0.0),
    "gaussian-cycle-intercept": ([4, 8, 18, 19, 20, 22, 25, 26], "cycle_detected", 4, 0.9865094897507727),
}

GOLDEN_PATH = (3, [
    (0, [], "support_stationary", 0, 0.0),
    (1, [21], "support_stationary", 1, -0.5758268230383786),
    (2, [21, 34], "support_stationary", 1, -0.6782381997981789),
    (3, [8, 21, 34], "support_stationary", 1, -0.7690376519441219),
    (4, [8, 21, 27, 34], "support_stationary", 1, -0.7443152688659644),
    (5, [8, 10, 21, 27, 34], "support_stationary", 1, -0.8163331101751797),
    (6, [8, 10, 21, 27, 32, 34], "support_stationary", 1, -0.8099622868922166),
    (7, [8, 10, 21, 25, 27, 32, 34], "support_stationary", 1, -0.8415648683405521),
    (8, [8, 10, 18, 21, 25, 27, 32, 34], "support_stationary", 1, -0.8753171561630563),
])


# selected level and fit of the C6 replication, recorded from a sweep of all
# 66 levels before the HBIC early stop existed
GOLDEN_C6 = (11, ([86, 103, 113, 134, 159, 302, 355, 395, 422, 469, 474], "support_stationary", 1, 0.0))


def _assert_matches(got, want):
    support, termination, iters, intercept = got
    assert (support, termination, iters) == tuple(want[:3])
    assert intercept == pytest.approx(want[3], rel=1e-10, abs=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_matches_recorded_result(name):
    _assert_matches(run(name), GOLDEN[name])


def test_warm_started_path_matches_recorded_result():
    selected_t, levels = run_path()
    want_t, want_levels = GOLDEN_PATH
    assert selected_t == want_t
    assert [lv[0] for lv in levels] == [lv[0] for lv in want_levels]
    for got, want in zip(levels, want_levels):
        _assert_matches(got[1:], want[1:])


def test_c6_path_selects_the_full_sweep_model_from_few_levels():
    data = sg.generate_instance(C6_SIM, C6_REP)[0]
    result = sg.agsdar_fit(sg.LOGISTIC, data, sg.AgsdarConfig())
    want_t, want_fit = GOLDEN_C6
    assert result.selected_t == want_t
    _assert_matches(_summary(result.selected_fit), want_fit)
    fitted = len(result.fits) - 1 + len(result.failures)  # the null point is not fitted
    assert fitted <= 20  # the full sweep fits 66


# --- whole paths, byte for byte ----------------------------------------------

# name -> (family, data builder, AgsdarConfig); every level up to the default
# budget is fitted (66 for C6, 25 for the Gaussian paths at n = 120)
PATH_BYTE_CASES = {
    **{
        f"c6-rep{rep}": (sg.LOGISTIC, lambda rep=rep: sg.generate_instance(C6_SIM, rep)[0],
                         sg.AgsdarConfig(full_path=True))
        for rep in range(4)
    },
    **{
        f"gaussian-intercept-{seed}": (
            sg.GAUSSIAN, lambda seed=seed: _shifted(gaussian_instance(seed, 120, 200, 5)[0], 1.5),
            sg.AgsdarConfig(full_path=True, inner=sg.SdarConfig(sparsity_t=1, with_intercept=True)),
        )
        for seed in (3, 6)
    },
}


def _path_sha256(result):
    """SHA-256 over the selected level and, level by level, t, support,
    beta_hat, nll, certificate, iterations, intercept, termination and HBIC,
    then every failure."""
    h = hashlib.sha256(np.int64(result.selected_t).tobytes())
    for pt in result.fits:
        fit = pt.fit
        for part in (np.int64(pt.t), np.asarray(fit.support, dtype=np.int64), fit.beta_hat,
                     np.float64(fit.nll), np.float64(fit.kkt_residual), np.int64(fit.iters),
                     np.float64(fit.intercept)):
            h.update(part.tobytes())
        h.update(fit.termination.value.encode("ascii"))
        h.update(np.float64(pt.hbic).tobytes())
    for t, message in result.failures:
        h.update(np.int64(t).tobytes())
        h.update(message.encode("ascii"))
    return h.hexdigest()


# recorded before the direct Cholesky solve, the reused line-search theta and
# the dual handed from level to level
GOLDEN_PATH_BYTES = {
    "c6-rep0": "7060693a65d456b6ac48cc6394f38bc9a0072a6bda31bc5fcba595ea592f9a40",
    "c6-rep1": "5de5290617791d001093569752e10520184738720b238924bd74bd6815304c84",
    "c6-rep2": "0d932fb5d1718095fadfd22cbbc58d2cf2eabf47c26d46b07319f342817c016f",
    "c6-rep3": "09765e1baa3d1e6337d08e9af0d8526c7d11bfbe9c0160bac1b017e84c38aa70",
    "gaussian-intercept-3": "a2cdf82a7e7ed98f447bac4f39fe4c2a81a4ef545a10a7514f144dfaf0d58ae2",
    "gaussian-intercept-6": "66bd252ed174ba74fe9030675114fc4b7d098082f809603cb37a5554796d04fc",
}

# MetricReport of 6 C6 replications under the default (early-stopped) path,
# recorded at the same time
GOLDEN_C6_REPORT = sg.MetricReport(
    reerr=1.5462588747944375,
    acrp=0.9770833333333333,
    apdr=1.0,
    afdr=0.24956709956709955,
    adr=1.7504329004329005,
    iters_avg=1.0,
    failures=0,
)


@pytest.mark.parametrize("name", sorted(PATH_BYTE_CASES))
def test_full_path_keeps_its_bytes(name):
    family, build, cfg = PATH_BYTE_CASES[name]
    assert _path_sha256(sg.agsdar_fit(family, build(), cfg)) == GOLDEN_PATH_BYTES[name]


def test_c6_replications_keep_their_report():
    assert sg.run_replications(C6_SIM, sg.AgsdarConfig(), reps=6) == GOLDEN_C6_REPORT


def _libsvm_text(seed=21, n=150, p=40):
    """A LIBSVM file in the spellings real files use: comments, blank lines,
    tabs and runs of blanks, signs, exponents, leading zeros, integer values
    and CRLF line ends.  Labels are +-1 from a logistic model on 3 columns."""
    rng = make_rng(seed)
    X = np.where(rng.random((n, p)) < 0.2, np.round(rng.standard_normal((n, p)), 4), 0.0)
    theta = X[:, [3, 17, 30]] @ np.array([2.5, -2.0, 3.0])
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-theta)), 1, -1)
    value_forms = (repr, "{:.6e}".format, "{:+.4f}".format, lambda v: f"0{v:.4f}" if v > 0 else repr(v))
    index_forms = (str, "0{}".format, "+{}".format)
    lines = ["# seeded LIBSVM golden file", ""]
    for i in range(n):
        toks = ["+1" if y[i] > 0 else "-1"]
        for j in np.flatnonzero(X[i]):
            idx = index_forms[int(rng.integers(len(index_forms)))](j + 1)
            toks.append(f"{idx}:{value_forms[int(rng.integers(len(value_forms)))](float(X[i, j]))}")
        line = "".join(tok + (" ", "\t", "  ")[int(rng.integers(3))] for tok in toks)
        if rng.random() < 0.1:
            line += "# trailing comment"
        lines.append(line + ("\r" if rng.random() < 0.2 else ""))
    return "\n".join(lines) + "\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# recorded from the per-token reader, the per-entry writer and the CLI as they
# stood before the bulk LIBSVM parser
GOLDEN_LIBSVM = {
    "read": "250fa124607449c977754fe30e5971a8973af1e4d36644ec9ec8c56f34d0597c",
    "write": "309ecde19c7812721c40a1b52dc6a6a6f91a5fb588fff5094bda0b00a9b5174c",
    "cli-fit": "e0d8240bf2f5bde8c309c0a962086a74e8e2b1c900a1316a238279e63c3b946a",
}


def test_libsvm_read_write_and_cli_fit_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the fit output names the data path
    (tmp_path / "golden.txt").write_bytes(_libsvm_text().encode("ascii"))
    data = sg.read_libsvm("golden.txt")
    sg.write_libsvm(data, "written.txt")
    code = cli_main(["fit", "--family", "logistic", "--data", "golden.txt", "--T", "10",
                     "--output", "fit.txt"])
    assert code == 0
    got = {
        "read": _sha256(data.X.tobytes() + data.y.tobytes()),
        "write": _sha256((tmp_path / "written.txt").read_bytes()),
        "cli-fit": _sha256((tmp_path / "fit.txt").read_bytes()),
    }
    assert got == GOLDEN_LIBSVM


# --- simulated designs and the cell-runner CLI commands ---------------------

# name -> (generator, n, p, rho, seed builder); the seed builders return an
# int seed or a Generator, the two kinds of seed the generators accept
DESIGN_CASES = {
    "ar1-rho0-int": (sg.gen_design_ar1, 50, 40, 0.0, lambda: 11),
    "ar1-rho0.3-gen": (sg.gen_design_ar1, 50, 40, 0.3, lambda: make_rng(12, 0)),
    "ar1-rho0.9-int": (sg.gen_design_ar1, 50, 40, 0.9, lambda: 13),
    "ar1-p1-gen": (sg.gen_design_ar1, 9, 1, 0.9, lambda: make_rng(14)),
    "banded-rho0-gen": (sg.gen_design_banded, 50, 40, 0.0, lambda: make_rng(15, 0)),
    "banded-rho0.3-int": (sg.gen_design_banded, 50, 40, 0.3, lambda: 16),
    "banded-rho0.9-gen": (sg.gen_design_banded, 50, 40, 0.9, lambda: make_rng(17)),
    "banded-p3-int": (sg.gen_design_banded, 9, 3, 0.3, lambda: 18),
}

# SHA-256 of X.tobytes(), recorded from the generators as they stood before
# the AR(1) recursion and the banded mixing ran in place
GOLDEN_DESIGNS = {
    "ar1-rho0-int": "7180a275b0ed160f89b57c2f15a7d625a643a4aba8dff965a685f6c1498bd211",
    "ar1-rho0.3-gen": "eb014594223abbc6ca73c3f4904a1a84d47043ab57c21dc1bca34f2d84e9d276",
    "ar1-rho0.9-int": "79c3e659e403fc5bb3428aa4e8d85455420cebb711cfdc64414b8956aa42cde9",
    "ar1-p1-gen": "5fe940f2dcddb40f12b46e1438db4e20fd52a01c35c4034e2c1bf0f965c8a547",
    "banded-rho0-gen": "3818bad0c74944696c0e4bdeb8df30fc2dddefe3e7fca46ef3042dfa46249caf",
    "banded-rho0.3-int": "e29e258c6bf64aba842fa7f7062f3143e03f7a4040fc653eb6839ed72816d55d",
    "banded-rho0.9-gen": "e5f5da10f88e15292788210a304f7d5a56814b7c084808cc74ba45cff6ffedaa",
    "banded-p3-int": "2e61be35ffcebc607a98c065da943a2898915d369b84219818435cf953f87b25",
}


@pytest.mark.parametrize("name", sorted(DESIGN_CASES))
def test_design_keeps_its_bytes(name):
    maker, n, p, rho, seed = DESIGN_CASES[name]
    X = maker(n, p, rho, seed())
    assert X.shape == (n, p) and X.dtype == np.float64 and X.flags["C_CONTIGUOUS"]
    assert _sha256(X.tobytes()) == GOLDEN_DESIGNS[name]


CLI_CELL_CASES = {
    "simulate-ar1-grid": [
        "simulate", "--scheme", "ar1", "--n", "40", "--p", "10", "--K", "2:18:20",
        "--rho", "0:0.3:0.3", "--reps", "2", "--seed", "5",
    ],
    "simulate-banded-path-split": [
        "simulate", "--scheme", "banded", "--n", "60", "--p", "30", "--K", "2", "--rho", "0.3",
        "--solver", "agsdar", "--Q", "5", "--split", "0.7", "--reps", "2", "--seed", "4",
    ],
    "simulate-all-invalid": [
        "simulate", "--scheme", "ar1", "--n", "5", "--p", "20", "--K", "10", "--reps", "2",
    ],
}

# argv whose every replication fails (the solver is replaced by one that raises)
CLI_FAILING_CASES = {
    "simulate-reps-fail": ["simulate", "--scheme", "ar1", "--n", "30", "--p", "8", "--K", "2",
                           "--reps", "2"],
}

# (exit code, SHA-256 of stdout), recorded before simulate and bench-iters
# shared one cell runner
GOLDEN_CLI_CELLS = {
    "simulate-ar1-grid": (0, "39ca00ce0ed91ca1aa71c52d6586e2903a74f5dfc0aa5c28416530c34043922d"),
    "simulate-banded-path-split": (0, "ce648491f277ad5a2db43ad842e9f6163edaf9960eb59866698e3ae9841d56b2"),
    "simulate-all-invalid": (2, "6306cd2d604ab775e3ef1c2dff24baba68b5ee54c300c72059f2da8ba026999f"),
    "simulate-reps-fail": (2, "0b67094055b2851027e890e5469aacd34892fddf8582cb0a1ce9d0ddf49a227a"),
}


def _cli_stdout(argv, capsys):
    code = cli_main(argv)
    return code, _sha256(capsys.readouterr().out.encode("ascii"))


@pytest.mark.parametrize("name", sorted(CLI_CELL_CASES))
def test_cell_commands_keep_their_bytes(name, capsys):
    assert _cli_stdout(CLI_CELL_CASES[name], capsys) == GOLDEN_CLI_CELLS[name]


@pytest.mark.parametrize("name", sorted(CLI_FAILING_CASES))
def test_cell_commands_keep_their_bytes_when_every_replication_fails(name, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise sg.SingularSystemError([0])

    monkeypatch.setattr("sdar_glm.simulate.gsdar_fit", boom)
    assert _cli_stdout(CLI_FAILING_CASES[name], capsys) == GOLDEN_CLI_CELLS[name]
