"""Golden digests: the SHA-256 of the `--format json` output of `tor-gr`,
`check-theorem` and `gr` on the ROADMAP baseline jobs, and of a few
`check-theorem` runs with further options (`--imax`, `--format table`).  A change that claims
byte-identical outputs must keep every digest; a change that means to
alter an output records the new digest here and says why."""

import contextlib
import hashlib
import io

import pytest

from grtor.cli import main

P = "32003"
CUSPS = ("X Y", "X^2 - Y^3", "X^2 - Y^5")
THREE = ("X Y Z", "X^2 - Y^3, Y^2 - Z^3", "X + Y^2 + Z^2")
L4 = ("a b c d", "a^2 + b^3, b^2 - c^3 + d^4, c*d - a^3", "a - b^2, c")
# N of finite length under jmax 16: the tensor complex is exact
EXACT = ("X Y Z", "X*Y - Z^3, X^2 - Y^3, Y*Z", "X^3, Y^3, Z^3")
G4_QUADRICS = "a^2 + b*c, b^2 - c*d, c^2 + a*d, a*b + c*d"
G4 = ("a b c d", G4_QUADRICS, "a, b, c, d")
G4_SWAP = ("a b c d", "a, b, c, d", G4_QUADRICS)
# stable ideals over k[x]/(x1^e) against k, (n, m, d, e) = (3, 3, 2, 4), (4, 3, 2, 3)
STABLE_3324 = ("x1 x2 x3", "x1^2, x1*x2, x1*x3", "x1, x2, x3", "x1^4")
STABLE_4323 = ("x1 x2 x3 x4", "x1^2, x1*x2, x1*x3", "x1, x2, x3, x4", "x1^3")

# name -> (command, setting, ideal, field, jmax[, further options], SHA-256
# of the printed output)
GOLDEN = {
    "cusps-QQ-j12": ("check-theorem", "local", CUSPS, "QQ", 12,
                     "d7cba8244205500686ac5a8e4682014a44cf0fd0aa8e60c24b14d3a3a7f55e28"),
    "cusps-Fp-j30": ("check-theorem", "local", CUSPS, P, 30,
                     "2ce45398a66a0ecc57e06336bbc8666322da931cc6a74d6a8afcc2732eed3296"),
    "three-QQ-j8": ("check-theorem", "local", THREE, "QQ", 8,
                    "0dca6e069a77c1506a71d5c4860514c4e4712019da6763df020974bc697b772d"),
    "three-Fp-j12": ("check-theorem", "local", THREE, P, 12,
                     "a5e376a79f787b21ff8287aaa402dddc3ae8266c85bf9b9fad658d35c2e3e4cc"),
    "l4-QQ-j8": ("check-theorem", "local", L4, "QQ", 8,
                 "ddcb48fdb55a1af149515d591a14214a8e63b502de8557db19ddba57e126948a"),
    "l4-Fp-j8": ("check-theorem", "local", L4, P, 8,
                 "ddcb48fdb55a1af149515d591a14214a8e63b502de8557db19ddba57e126948a"),
    # --imax 0 and 1 resolve gr M less far than the lift does
    "three-QQ-j8-i0": ("check-theorem", "local", THREE, "QQ", 8, ("--imax", "0"),
                       "2bc3f5f77e9c285413043914113b4133f4c4107e4e0002edec55ab7056e716f2"),
    "three-QQ-j8-i1": ("check-theorem", "local", THREE, "QQ", 8, ("--imax", "1"),
                       "998b2b6792596893691a04510aac1b067bc60cf8ab7ffa9a9f068345cd6849e9"),
    "l4-Fp-j8-i0": ("check-theorem", "local", L4, P, 8, ("--imax", "0"),
                    "f9ab3d61f11df1e03376ca892c0f6699924bc63c53d89df586676759d69216d8"),
    "l4-Fp-j8-i1": ("check-theorem", "local", L4, P, 8, ("--imax", "1"),
                    "759a4636e4b6be89f1fc0b12e51c680680eb4cd4553989a91e6b64de925ca6f0"),
    "exact-Fp-j16": ("check-theorem", "local", EXACT, P, 16,
                     "955ba58e265184de8290c98d8fb0b64ed572c7ad3585022484c8bc0469cfcbf8"),
    # a graded job file runs check-theorem on the same local ring
    "cusps-graded-QQ-j12": ("check-theorem", "graded", CUSPS, "QQ", 12,
                            "d7cba8244205500686ac5a8e4682014a44cf0fd0aa8e60c24b14d3a3a7f55e28"),
    "three-QQ-j8-table": ("check-theorem", "local", THREE, "QQ", 8, ("--format", "table"),
                          "8afd42facee3dd20560c13a1b3db6ffc2af26dfa9180ff9de037a8be5e04aa30"),
    "g4-Fp-j12": ("tor-gr", "graded", G4, P, 12,
                  "af0c7ad72e9dbac2028760102aee95709e9a2005aeefe5f9ca51e54e41bd7df4"),
    "g4-QQ-j6": ("tor-gr", "graded", G4, "QQ", 6,
                 "714ddb15b816f133cb9f015b813e2b5cb54236df6852ae0e00a02eccc16a31b4"),
    "g4-swap-Fp-j10": ("tor-gr", "graded", G4_SWAP, P, 10,
                       "d33d35caa325a01beeead2b0500c8f0fe8cb97e65fe0b562c4cc4e0eca4b49ef"),
    "g4-swap-QQ-j6": ("tor-gr", "graded", G4_SWAP, "QQ", 6,
                      "714ddb15b816f133cb9f015b813e2b5cb54236df6852ae0e00a02eccc16a31b4"),
    "stable-3324-QQ-j12": ("tor-gr", "graded", STABLE_3324, "QQ", 12,
                           "479f0b643ea91cd179a780381bedac9abf60c95446665432d54eb9121cfecba9"),
    "stable-3324-Fp-j12": ("tor-gr", "graded", STABLE_3324, P, 12,
                           "479f0b643ea91cd179a780381bedac9abf60c95446665432d54eb9121cfecba9"),
    "stable-4323-Fp-j12": ("tor-gr", "graded", STABLE_4323, P, 12,
                           "804111bf590bdb836e052c179d190016897b3b5b3a2f3064447a9e6147c9bf53"),
    "stable-4323-QQ-j8": ("tor-gr", "graded", STABLE_4323, "QQ", 8,
                          "3600ec5e1ee544eddaaa0e8509248853d455bcfce85525349bc03fcc2b386bdd"),
    "gr-cusps-QQ-j12": ("gr", "local", CUSPS, "QQ", 12,
                        "a54882c7f5e18dd4201ed818ef151401c49e6bbf2832739f1b375a46c7310ae4"),
    "gr-cusps-Fp-j30": ("gr", "local", CUSPS, P, 30,
                        "0cb877f7fcca713a58562bdf69ab296aa552c6b234a0fa19d577425a48f1aa65"),
    "gr-three-QQ-j8": ("gr", "local", THREE, "QQ", 8,
                       "a7342fc198d92ee3fb4c345b3bdd84d186a394f88d5decd7d70b72a3f57d7994"),
    "gr-three-Fp-j12": ("gr", "local", THREE, P, 12,
                        "492dbdb152394d1f32dd109da9dfc8ed1f86c909df95c096d951ec300f1eb816"),
    "gr-l4-QQ-j8": ("gr", "local", L4, "QQ", 8,
                    "8cd3aa895c1736dba57f3c2bc78a8c9a357a8bac1cb4aa7f10149ff524658f9d"),
    "gr-l4-Fp-j8": ("gr", "local", L4, P, 8,
                    "8cd3aa895c1736dba57f3c2bc78a8c9a357a8bac1cb4aa7f10149ff524658f9d"),
}


def job_text(setting, ideal):
    variables, m_gens, n_gens = ideal[:3]
    lines = ["[ring]", "variables = " + variables, "setting = " + setting]
    if len(ideal) > 3:
        lines.append("quotient = " + ideal[3])
    lines += ["[module M]", "ideal = " + m_gens, "[module N]", "ideal = " + n_gens]
    return "\n".join(lines) + "\n"


def digest(tmp_path, command, setting, ideal, field, jmax, options=()):
    path = tmp_path / "job"
    path.write_text(job_text(setting, ideal))
    argv = [command, str(path), "--jmax", str(jmax), "--format", "json"]
    if field != "QQ":
        argv += ["--char", field]
    argv += list(options)  # a later --format wins
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(tmp_path, name):
    *job, want = GOLDEN[name]
    assert digest(tmp_path, *job) == want
