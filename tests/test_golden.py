"""Golden digests: the SHA-256 of the `--format json` output of `tor-gr`,
`check-theorem` and `gr` on the ROADMAP baseline jobs, and of a few
`check-theorem` runs with further options (`--imax`, `--format table`).
The series and certificates do not see which solution a lift picks, so
the lifted differentials of `resolve_local_cyclic` have digests of their
own.  A change that claims byte-identical outputs must keep every
digest; a change that means to alter an output records the new digest
here and says why."""

import contextlib
import hashlib
import io

import pytest

from grtor.cli import main
from grtor.fields import Field
from grtor.filtered import resolve_local_cyclic
from grtor.groebner import IdealPresentation
from grtor.poly import LOCAL, Ring

from poly_oracle import matrix

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
FIVE = ("a b c d e", "a^2 + b^3, b^2 - c^3, c^2 - d^3 + e^4, d*e - a^3", "a - e^2, b + c^2")
FIVE_SWAP = (FIVE[0], FIVE[2], FIVE[1])

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
    # five variables, both orientations (QQ prints the same, in seconds)
    "five-Fp-j8": ("check-theorem", "local", FIVE, P, 8,
                   "bc2e0a0d85ced1a35cc4351e06ad9b9e1e70f967c20b92c1f8509a698dc8b0e2"),
    "five-swap-Fp-j8": ("check-theorem", "local", FIVE_SWAP, P, 8,
                        "ae71b8e84f995408baefa9fe3100bab3406f4034d2ccc4e4b22478cc68e1c269"),
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


# name -> (variables, generators, field, ring cap, lift cap, SHA-256 of the
# lifted differentials, printed one "i a b entry" line per entry)
LIFTS = {
    "cusps-M-QQ": (CUSPS[0], CUSPS[1], "QQ", 12, 12,
                   "71950b0a28190863f1c6dc3e4a1441bc4dce23afbdb9022c8fe1b44a0757c472"),
    "cusps-M-Fp": (CUSPS[0], CUSPS[1], P, 12, 12,
                   "368647968806c627456c22f1864b54e2f530238d0a9e99ea66e1ad34c77f7598"),
    "cusps-N-QQ": (CUSPS[0], CUSPS[2], "QQ", 12, 12,
                   "a6d5155d7065aa81c64e0b512711d7042d8005e73ae67050c8905d68282d216c"),
    "cusps-N-Fp": (CUSPS[0], CUSPS[2], P, 12, 12,
                   "b5d8ed9be629151a342d411292233610bb42819bdaf161005a2065f16489547e"),
    # in(I) = (X^2, X*Y, Y^4): the lift of d_2 takes a unit correction
    "cusp-unit-QQ": ("X Y", "X^2 + Y^3, X*Y", "QQ", 20, 20,
                     "29c0ba9a509035251104e42968951f34772822cbdf94a5a89e283ceef3297c84"),
    "cusp-unit-Fp": ("X Y", "X^2 + Y^3, X*Y", P, 20, 20,
                     "d4f12023e7b9e179c0e3e4269e8f90a4bb7f26a8ef95c1bad1167181a2e3ab6c"),
    "three-M-QQ": (THREE[0], THREE[1], "QQ", 10, 10,
                   "535779aeeb92feb34280bb5ab0edacce77d0ddcfcbe927b4283b759c300822c1"),
    "three-M-Fp": (THREE[0], THREE[1], P, 10, 10,
                   "aa66b2d6bd4e7d4f7e86c93973cf47d9be3c86694f326cb6d66b42a56b4db9b2"),
    "l4-M-QQ": (L4[0], L4[1], "QQ", 10, 10,
                "14efb9f681decb2dd1ee5036345e89f6c36bcfeb802e459578491d55ac775b19"),
    "l4-M-Fp": (L4[0], L4[1], P, 10, 10,
                "cfce35816920b78cedab458eb1b20ef64480f7237364f2ab1e15f6576b225a05"),
    "l4-N-QQ": (L4[0], L4[2], "QQ", 10, 10,
                "6fa2e9d1cf3e2f7175b495cd342fc8d4ee037748a5fd76def9c5d1387e44c848"),
    "l4-N-Fp": (L4[0], L4[2], P, 10, 10,
                "ce5b8a0a702ff538c5aceb86fccca6b657d45b9d1d2fe56a201b1c6d6688f806"),
    # the window drops terms of filtration degree past the cap from the two
    # five lifts (1 and 26 terms), and changes nothing else
    "five-M-Fp": (FIVE[0], FIVE[1], P, 10, 10,
                  "b1d5c2b6f5e2cc584f7c287c64f5199046c83c6eff818a182b2d301a1ca59a40"),
    # a lift cap below the ring's truncates the corrections
    "five-M-Fp-cap6": (FIVE[0], FIVE[1], P, 10, 6,
                       "9b053e6e35bdce7c3d7db5137fa7d575279eba07a9b2a062429f737313110230"),
}


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_lift_digest(name):
    variables, gens, field, ring_cap, cap, want = LIFTS[name]
    ring = Ring(variables.split(), Field(0 if field == "QQ" else int(field)), LOCAL, cap=ring_cap)
    fres = resolve_local_cyclic(IdealPresentation(ring, gens.split(",")), cap)
    # the lift lives in the window: filtration degree |e| + shift <= cap
    assert all(sum(e) + fres.shifts[i - 1][a] <= fres.cap
               for i in range(1, len(fres.diffs)) for col in fres.diffs[i] for a, e in col)
    # the entries row by row, as the polynomial matrices printed them
    text = "".join("%d %d %d %s\n" % (i, a, b, p) for i in range(1, len(fres.diffs))
                   for a, row in enumerate(matrix(ring, fres.diffs[i], len(fres.shifts[i - 1])))
                   for b, p in enumerate(row))
    assert hashlib.sha256(text.encode()).hexdigest() == want
